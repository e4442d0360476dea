import csv
import gc
import io
import json
import math
import operator
import pickle
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conecert import picard
from conecert.gauge import GaugeNorm, _cone_max, mink_norm
from conecert.maps import Affine, Halve
from conecert.metrics import Ball, DiscreteConeMetric, PlusConeMetric, WeightedConeMetric
from conecert.picard import (
    LAMBDA_CEILING,
    Certificate,
    IterationTrace,
    PicardResult,
    Problem,
    apost_backward_bound,
    apost_forward_bound,
    apriori_bound,
    certificate_to_dict,
    check_domain_condition,
    estimate_lambda,
    rate_check,
    residual_check,
    run_picard,
    verify_step_contraction,
    write_trace_csv,
)
from conecert.roots import Polynomial, Weierstrass, default_starts, solve_roots
from conecert.solid import NonFiniteError, SpaceSpec, Vec, _Record, leq, lt

from helpers import geometric_tail, other_pythons, run_script, trace_csv_points

ONES = Vec([1.0])
G1 = GaugeNorm(SpaceSpec(1, ONES))
G2 = GaugeNorm(SpaceSpec(2, Vec([1.0, 1.0])))
W1 = WeightedConeMetric([1.0])
W2 = WeightedConeMetric([1.0, 1.0])


def halve_problem(**kw):
    defaults = dict(
        map_fn=lambda x: tuple(c / 2 for c in x),
        x0=(1.0,),
        metric=W1,
        gauge=G1,
        stop_c=Vec([1e-10]),
        max_iter=200,
        lam=0.5,
    )
    defaults.update(kw)
    return Problem(**defaults)


def halve(x):
    return tuple(c / 2 for c in x)


class StallWhen(_Record):
    """A test map: ``step``, with a stall rule whose noise-floor test answers
    ``when(z, s)`` and logs every ``(z, s)`` it is asked with in ``asked``."""

    __slots__ = ("step", "when", "asked")

    def __call__(self, x):
        return self.step(x)

    def stall_rule(self, p):
        def stalled(z, s):
            self.asked.append((z, s))
            return self.when(z, s)

        return stalled


def plus_one(x):
    return (x[0] + 1.0,)


def always(z, s):
    return True


def affine_problem(lams=(0.5, 0.25), offset=(1.0, 1.0), x0=(0.0, 0.0), **kw):
    def step(x):
        return tuple(l * c + o for l, c, o in zip(lams, x, offset))

    defaults = dict(
        map_fn=step,
        x0=x0,
        metric=W2,
        gauge=G2,
        stop_c=Vec([1e-10, 1e-10]),
        max_iter=500,
        lam=max(lams),
    )
    defaults.update(kw)
    return Problem(**defaults)


class TestRecords:
    """The record classes keep the constructors, equality and repr they had as dataclasses."""

    def test_problem_positional_order_and_defaults(self):
        def f(x):
            return x

        p = Problem(f, (1.0,), W1, G1, Vec([1e-10]))
        assert (p.map_fn, p.x0, p.metric, p.gauge, p.stop_c) == (f, (1.0,), W1, G1, Vec([1e-10]))
        assert (p.max_iter, p.lam, p.domain) == (200, None, None)
        ball = Ball((1.0,), Vec([2.0]))
        q = Problem(f, (1.0,), W1, G1, Vec([1e-10]), 7, 0, ball)
        assert (q.max_iter, q.lam, q.domain) == (7, 0.0, ball)
        assert type(q.lam) is float

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(gauge=G2), "gauge dimension 2 does not match metric dimension 1"),
            (dict(stop_c=Vec([0.0])), "stop_c must be a strictly positive vector"),
            (dict(stop_c=Vec([1e-10, 1e-10])), "stop_c must be a strictly positive vector"),
            (dict(max_iter=0), "max_iter must be at least 1, got 0"),
            (dict(lam=1.0), "contraction factor must lie in"),
            (dict(domain=Ball((0.0,), Vec([1.0]), closed=False)), "a ball domain must be closed"),
            (
                dict(domain=Ball((0.0, 0.0), Vec([1.0]))),
                "^domain center: point has 2 coordinates, expected 1$",
            ),
            (
                dict(domain=Ball((0.0,), Vec([1.0, 1.0]))),
                "^domain radius: 2 coordinates, expected 1$",
            ),
            (dict(domain=Ball((1j,), Vec([1.0]))), "^domain center: complex coordinate"),
            (dict(domain=Ball((math.inf,), Vec([1.0]))), "^domain center: non-finite coordinate"),
        ],
    )
    def test_problem_validates(self, kw, message):
        with pytest.raises(ValueError, match=message):
            halve_problem(**kw)

    def test_ball_domain_center_is_kept_validated(self):
        p = halve_problem(domain=Ball([2], Vec([3.0])))
        assert p.domain == Ball((2.0,), Vec([3.0]))
        assert type(p.domain.center) is tuple and type(p.domain.center[0]) is float

    def test_problem_stop_c_must_be_a_vec(self):
        with pytest.raises(TypeError, match="^stop_c must be a Vec, got tuple$"):
            halve_problem(stop_c=(1e-10,))

    def test_problem_gauge_must_be_a_gauge_norm(self):
        with pytest.raises(TypeError, match="^gauge must be a GaugeNorm, got SpaceSpec$"):
            halve_problem(gauge=SpaceSpec(1, ONES))

    def test_problem_metric_needs_a_dimension(self):
        with pytest.raises(TypeError, match="^metric must be a cone metric, got list$"):
            halve_problem(metric=[1.0])

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(map_fn=None), "^map_fn must be callable, got NoneType$"),
            (dict(max_iter=2.5), "^max_iter must be an integer, got float$"),
            (dict(max_iter=True), "^max_iter must be an integer, got bool$"),
            (dict(domain=5), "^domain must be None, a Ball or a predicate, got int$"),
            (dict(domain=[0.0]), "^domain must be None, a Ball or a predicate, got list$"),
        ],
    )
    def test_problem_rejects_what_a_run_would_trip_on(self, kw, message):
        with pytest.raises(TypeError, match=message):
            halve_problem(**kw)

    def test_problem_validates_x0_when_built(self):
        p = halve_problem(x0=[2])
        assert p.x0 == (2.0,) and type(p.x0[0]) is float
        # The metric's own error, as a run raised it before.
        with pytest.raises(ValueError, match="^point has 2 coordinates, expected 1$"):
            halve_problem(x0=(1.0, 2.0))
        with pytest.raises(ValueError, match="^complex coordinate"):
            halve_problem(x0=(1j,))

    def test_problem_refuses_assignment(self):
        # A 2-d ball domain assigned to a 1-d problem after its checks once ran
        # to stop_c with status certified, the center's second coordinate
        # dropped by the distance's zip.
        p = halve_problem()
        with pytest.raises(AttributeError, match="^cannot assign to field 'domain'$"):
            p.domain = Ball((0.0, 5.0), Vec([2.0]))
        with pytest.raises(AttributeError, match="^cannot assign to field 'max_iter'$"):
            p.max_iter = 3
        with pytest.raises(AttributeError, match="^cannot delete field 'stop_c'$"):
            del p.stop_c
        assert p == halve_problem(map_fn=p.map_fn)
        assert run_picard(p).halt == "stop_c"

    def test_discrete_start_must_be_hashable(self):
        # A list start would stay the caller's: changing it moved the run's
        # start, and hashing the problem raised.
        discrete = DiscreteConeMetric(Vec([1.0]))
        x0 = [1.0]
        with pytest.raises(TypeError, match="^a discrete point must be hashable, got list$"):
            halve_problem(x0=x0, metric=discrete)
        p = halve_problem(x0=tuple(x0), metric=discrete)
        x0[0] = 7.0
        assert p.x0 == (1.0,)
        assert hash(p) == hash(halve_problem(map_fn=p.map_fn, x0=(1.0,), metric=discrete))
        assert run_picard(p).trace.iterates[0] == (1.0,)

    def test_only_a_map_with_a_stall_rule_gives_its_problem_one(self):
        for fn in (lambda x: (0.5 * x[0],), Halve(), Affine([[0.5]], [1.0])):
            assert halve_problem(map_fn=fn)._stalled is None
        sweep = Weierstrass(Polynomial([-1.0, 0.0, 1.0]))
        metric = WeightedConeMetric([1.0, 1.0], field="complex")
        p = Problem(sweep, (0.5 + 0.5j, -0.4 + 0.1j), metric, G2, Vec([1e-12, 1e-12]))
        assert callable(p._stalled)
        # A derived slot, not a field: ==, hash and repr are unchanged, and a
        # pickle holds the fields alone (the test is a closure, which pickle
        # refuses); loading it builds the problem, and so its test, again.
        assert "_stalled" not in p._names and "_stalled" not in repr(p)
        q = pickle.loads(pickle.dumps(p))
        assert q == p and hash(q) == hash(p) and repr(q) == repr(p)
        assert callable(q._stalled) and q._stalled is not p._stalled
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(p._stalled)

    def test_certificate_radius_is_the_first_apriori_entry(self):
        steps = [Vec([1.0, 0.25]), Vec([0.5, 0.125])]
        cert = Certificate(0.5, "given", steps, "certified", None, start=0)
        assert cert.radius_r == cert.apriori[0] == Vec([2.0, 0.5])
        assert "radius_r" not in repr(cert)
        with pytest.raises(AttributeError):
            cert.radius_r = ONES

    def test_results_compare_field_wise_and_are_unhashable(self):
        a, b = run_picard(halve_problem()), run_picard(halve_problem())
        assert a == b and a.certificate == b.certificate and a.trace == b.trace
        assert a != run_picard(halve_problem(max_iter=3))
        with pytest.raises(TypeError):
            hash(a)

    def test_converged_is_read_from_the_halt(self):
        trace = IterationTrace([(1.0,)], W1)
        for halt in ("stop_c", "noise_floor", "max_iter", "overflow", "domain_escape"):
            result = PicardResult(trace, None, None, halt)
            assert result.converged is (halt in ("stop_c", "noise_floor"))
        assert PicardResult._names == ("trace", "certificate", "fixed_point", "halt")
        with pytest.raises(TypeError, match="takes 4 fields"):
            PicardResult(trace, None, None, True, "max_iter")
        with pytest.raises(AttributeError):
            run_picard(halve_problem()).converged = False

    def test_repr_names_the_class_and_fields(self):
        # A trace is its orbit: its steps are a property, not a field.
        assert IterationTrace._names == ("iterates", "metric")
        assert isinstance(IterationTrace.step_dists, property)
        trace = IterationTrace([(1.0,)], W1)
        assert repr(trace) == (
            "IterationTrace(iterates=[(1.0,)], metric=WeightedConeMetric(alpha=(1.0,), field='real'))"
        )
        text = repr(run_picard(halve_problem()))
        assert text.startswith("PicardResult(trace=IterationTrace(iterates=[(1.0,), (0.5,)")
        assert "certificate=Certificate(lambda_used=0.5, lambda_source='given'" in text
        assert text.endswith("fixed_point=(5.820766091346741e-11,), halt='stop_c')")


class TestBoundArithmetic:
    def test_apriori_is_radius_at_zero(self):
        d01 = Vec([1.0, 2.0])
        assert apriori_bound(0, 0.5, d01).coords == (2.0, 4.0)

    def test_apriori_against_tail_sum_oracle(self):
        # The bound equals the full geometric tail sum of the step bounds.
        d01 = Vec([1.0, 2.0])
        got = apriori_bound(3, 0.5, d01)
        oracle = geometric_tail(Fraction(1, 2), d01, 3)
        assert got.coords == pytest.approx(oracle.coords, abs=1e-15)
        assert got.coords == (0.25, 0.5)

    def test_zero_power_convention(self):
        d01 = Vec([3.0, 7.0])
        assert apriori_bound(0, 0.0, d01) == d01

    def test_lambda_guard(self):
        d = Vec([1.0])
        for bad in (-0.1, 1.0, 1.0 - 1e-13):
            with pytest.raises(ValueError):
                apriori_bound(1, bad, d)
        with pytest.raises(ValueError):
            apriori_bound(-1, 0.5, d)

    def test_aposteriori_forms(self):
        assert apost_forward_bound(Vec([1.0]), 0.5).coords == (2.0,)
        assert apost_backward_bound(Vec([1.0]), 0.5).coords == (1.0,)
        assert apost_backward_bound(Vec([4.0]), 0.0).coords == (0.0,)


def reference_estimate_lambda(steps, g):
    """``estimate_lambda`` from its definition, on ``mink_norm`` gauges:
    the longest suffix whose consecutive pairs all contract."""
    gauges = [mink_norm(s, g) for s in steps]
    ratios = []  # each pair's ratio, None where the pair does not contract
    for earlier, later in zip(gauges, gauges[1:]):
        if earlier == 0.0:
            ratios.append(0.0 if later == 0.0 else None)
        elif earlier == math.inf or later / earlier > LAMBDA_CEILING:
            ratios.append(None)
        else:
            ratios.append(later / earlier)
    if not gauges:
        return 0, None
    start = len(gauges) - 1
    while start > 0 and ratios[start - 1] is not None:
        start -= 1
    if start < len(gauges) - 1:
        return start, max(ratios[start:])
    return (start, 0.0) if gauges[-1] == 0.0 else (len(gauges), None)


def orbit(steps):
    """The 1-D trace from 0 whose iterates are the partial sums of ``steps``:
    with dyadic steps each gap is its step exactly (0, 1, 1.5, 1.75 gives
    1, 0.5, 0.25)."""
    points = [0.0]
    for s in steps:
        points.append(points[-1] + s)
    trace = IterationTrace([(x,) for x in points], W1)
    assert hexes(trace.step_dists) == hexes([Vec([s]) for s in steps])
    return trace


class TestStepChecks:
    make_trace = staticmethod(orbit)

    def test_verify_step_contraction(self):
        t = self.make_trace([1.0, 0.5, 0.25])
        assert verify_step_contraction(t, 0.5)
        assert not verify_step_contraction(t, 0.4)
        assert verify_step_contraction(self.make_trace([0.0, 0.0]), 0.0)

    def test_verify_needs_two_steps(self):
        with pytest.raises(ValueError):
            verify_step_contraction(self.make_trace([1.0]), 0.5)

    def test_estimate_lambda(self):
        """(start, lam) of the longest contracting suffix of steps."""
        assert estimate_lambda(self.make_trace([1.0, 0.5, 0.25]), G1) == (0, 0.5)
        assert estimate_lambda(self.make_trace([1.0, 0.0, 0.0]), G1) == (0, 0.0)
        assert estimate_lambda(self.make_trace([0.0, 0.0]), G1) == (0, 0.0)
        # Iterates that differ only in the sign of a zero are zero steps
        # apart, and their ratio is +0.0.
        trace = IterationTrace([(1.0,), (-0.0,), (0.0,), (-0.0,)], W1)
        start, lam = estimate_lambda(trace, G1)
        assert (start, repr(lam)) == (0, "0.0")
        # A zero last step contracts from its own index: the run hit its fixed point.
        assert estimate_lambda(self.make_trace([0.0]), G1) == (0, 0.0)
        # A non-contracting prefix is cut off; the factor is the tail's largest ratio.
        assert estimate_lambda(self.make_trace([1.0, 2.0, 1.0, 0.25]), G1) == (1, 0.5)
        assert estimate_lambda(self.make_trace([1.0, 0.0, 1.0, 0.5]), G1) == (2, 0.5)

    def test_overflowed_gauges_do_not_contract(self):
        """A step whose gauge overflows to inf under a tiny base starts no
        contracting pair: inf / inf would give lam NaN, and a finite gauge
        over inf a ratio 0 for a pair whose ratio was never measured."""
        tiny = GaugeNorm(SpaceSpec(1, Vec([1e-300])))
        assert estimate_lambda(self.make_trace([1e10, 5e9]), tiny) == (2, None)
        assert estimate_lambda(self.make_trace([1e10, 5e9, 1.0, 0.5]), tiny) == (2, 0.5)
        assert estimate_lambda(self.make_trace([1e10, 1.0, 0.5]), tiny) == (1, 0.5)
        # An overflowed gauge before a zero step: the zero pair still contracts.
        assert estimate_lambda(self.make_trace([1e10, 0.0, 0.0]), tiny) == (1, 0.0)

    @settings(max_examples=300)
    @given(data=st.data())
    def test_estimate_lambda_matches_a_mink_norm_reference(self, data):
        """Orbits with zero steps, subnormal and huge gaps, under unit, dyadic
        and tiny bases (where gauges overflow to inf).  Each iterate steps
        from the last by a drawn gap, toward zero, so the subnormal gaps of
        points near zero survive; the reference reads the measured steps."""
        n = data.draw(st.integers(1, 3))
        base = data.draw(st.sampled_from([1.0, 0.25, 1e-300]))
        g = GaugeNorm(SpaceSpec(n, Vec([base] * n)))
        coord = st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0, 1e10, 1e300]) | st.floats(
            min_value=0.0, max_value=1e300
        )
        gap = st.lists(coord, min_size=n, max_size=n)
        zero = st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n)
        gaps = data.draw(st.lists(gap | zero, max_size=8))
        if data.draw(st.booleans()):  # a long contracting tail
            gaps.sort(key=max, reverse=True)
        points = [(data.draw(st.sampled_from([0.0, -0.0])),) * n]
        for d in gaps:
            points.append(tuple([x - c if x > 0.0 else x + c for x, c in zip(points[-1], d)]))
        trace = IterationTrace(points, WeightedConeMetric([1.0] * n))
        start, lam = estimate_lambda(trace, g)
        ref_start, ref_lam = reference_estimate_lambda(list(trace.step_dists), g)
        assert (start, repr(lam)) == (ref_start, repr(ref_lam))

    def test_estimate_errors(self):
        """A trace whose last pair of steps does not contract has no factor:
        start is the step count and lam None, not an exception."""
        assert estimate_lambda(self.make_trace([1.0, 2.0]), G1) == (2, None)
        assert estimate_lambda(self.make_trace([1.0, 1.0]), G1) == (2, None)
        assert estimate_lambda(self.make_trace([0.5, 0.0, 1.0]), G1) == (3, None)
        assert estimate_lambda(self.make_trace([1.0]), G1) == (1, None)
        assert estimate_lambda(self.make_trace([]), G1) == (0, None)


class TestDomainCondition:
    def test_whole_space(self):
        assert check_domain_condition(halve_problem(), Vec([1.0])) == "verified"

    def test_ball_domain(self):
        ball = Ball(center=(0.0,), radius=Vec([2.0]), closed=True)
        p = halve_problem(domain=ball)
        # d(x0, center) = 1, so radius 1 fits and radius 1.5 does not.
        assert check_domain_condition(p, Vec([1.0])) == "verified"
        assert check_domain_condition(p, Vec([1.5])) == "conditional"

    def test_predicate_domain(self):
        p = halve_problem(domain=lambda x: x[0] >= 0)
        assert check_domain_condition(p, Vec([0.0])) == "conditional"

    def test_a_sum_beyond_the_float_range_is_conditional(self):
        """d(x0, center) + r overflows: it exceeds every finite radius."""
        ball = Ball(center=(0.0,), radius=Vec([1.7e308]), closed=True)
        p = halve_problem(x0=(1.5e308,), domain=ball)
        assert check_domain_condition(p, Vec([1.5e308])) == "conditional"
        result = run_picard(halve_problem(x0=(1.5e308,), domain=ball, max_iter=2000))
        assert (result.halt, len(result.trace.step_dists)) == ("stop_c", 1057)
        assert result.certificate.status == "conditional"

    def test_a_distance_beyond_the_float_range_is_outside_the_ball(self):
        ball = Ball(center=(-1e308,), radius=Vec([1.5e308]), closed=True)
        p = halve_problem(map_fn=lambda x: (x[0] + 1e308,), x0=(0.0,), lam=None, domain=ball)
        result = run_picard(p)
        assert (result.halt, result.certificate, result.trace.iterates) == (
            "domain_escape", None, [(0.0,), (1e308,)]
        )
        with pytest.raises(ValueError, match="^the start point is outside the declared domain$"):
            halve_problem(x0=(1e308,), domain=ball)


finite_coord = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308]
) | st.floats(allow_nan=False, allow_infinity=False)


def hexes(vecs):
    return [[float.hex(c) for c in v.coords] for v in vecs]


class TestStepStorage:
    """A trace's steps are a read-only view of its iterates, and a pickled
    result loads with the same steps."""

    def test_read_only_and_unhashable(self):
        steps = IterationTrace([(0.0,), (1.0,)], W1).step_dists
        assert steps == [Vec([1.0])] and not hasattr(steps, "append")
        with pytest.raises(TypeError):
            hash(steps)
        with pytest.raises(TypeError):
            steps[0] = Vec([2.0])

    @pytest.mark.parametrize("lam", [0.5, None], ids=["given", "estimated"])
    def test_a_result_survives_pickle(self, lam):
        result = run_picard(affine_problem(lam=lam))
        again = pickle.loads(pickle.dumps(result))
        assert again == result and again.certificate == result.certificate
        assert hexes(again.trace.step_dists) == hexes(result.trace.step_dists)
        assert hexes(again.certificate.steps) == hexes(result.certificate.steps)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_every_protocol_pickles_by_value(self, protocol):
        """A vector, a real or complex trace, its certificate and its result
        load equal at every protocol, the steps bit for bit."""
        vec = Vec([-0.0, 1 / 3])
        assert hexes([pickle.loads(pickle.dumps(vec, protocol))]) == hexes([vec])
        for case in ("unit-given", "complex-given"):
            result = run_picard(VIEW_RUNS[case]())
            for value in (result, result.trace, result.certificate):
                assert pickle.loads(pickle.dumps(value, protocol)) == value
            again = pickle.loads(pickle.dumps(result, protocol))
            assert hexes(again.trace.step_dists) == hexes(result.trace.step_dists)
            assert hexes(again.certificate.steps) == hexes(result.certificate.steps)


@st.composite
def point_lists(draw):
    n = draw(st.integers(1, 8))
    coords = st.lists(finite_coord, min_size=n, max_size=n).map(tuple)
    return draw(st.lists(coords, max_size=12))


def point_hexes(points):
    """The bits of each coordinate, a complex one's as its two parts."""
    return [[(c.real.hex(), c.imag.hex()) if type(c) is complex else float.hex(c) for c in x]
            for x in points]


class TestIterateStorage:
    """A trace over a real weighted metric keeps its iterates as packed
    doubles and reads back the same tuples."""

    @settings(max_examples=300, deadline=None)
    @given(point_lists(), st.integers(-14, 14), st.integers(-14, 14), st.integers(-3, 3))
    def test_reads_give_the_stored_tuples_bit_for_bit(self, points, i, j, stride):
        stored = picard._Rows(points)
        assert len(stored) == len(points)
        assert point_hexes(stored) == point_hexes(points)
        assert all(type(x) is tuple for x in stored)
        both = [stored[k] for k in range(-len(points), len(points))]
        assert point_hexes(both) == point_hexes(points + points)
        cut = slice(i, j, stride or None)
        assert point_hexes(stored[cut]) == point_hexes(points[cut])
        assert point_hexes(stored[cut][::-1]) == point_hexes(points[cut][::-1])
        assert point_hexes(reversed(stored)) == point_hexes(points[::-1])
        assert stored == points and points == stored and stored == picard._Rows(points)
        assert repr(stored) == repr(points)
        again = pickle.loads(pickle.dumps(stored))
        assert point_hexes(again) == point_hexes(points) and again == stored
        assert point_hexes(again[cut]) == point_hexes(points[cut])
        with pytest.raises(IndexError):
            stored[len(points)]

    def test_only_a_real_weighted_run_packs_its_iterates(self):
        real = run_picard(halve_problem()).trace.iterates
        assert type(real) is not list and not hasattr(real, "append")
        assert real[:2] == [(1.0,), (0.5,)] and repr(real).startswith("[(1.0,), (0.5,), ")
        complex_metric = WeightedConeMetric([1.0], "complex")
        others = [
            halve_problem(x0=(1 + 1j,), metric=complex_metric),
            halve_problem(map_fn=lambda x: "b", x0="a", metric=DiscreteConeMetric(ONES), lam=None),
            halve_problem(map_fn=lambda x: x, x0=Vec([1.0]), metric=PlusConeMetric(1), lam=None),
        ]
        for p in others:
            assert type(run_picard(p).trace.iterates) is list
        # A trace built by hand keeps its points in the store a run uses,
        # which holds points alone.
        given = [(1.0,), (0.5,)]
        assert type(IterationTrace(given, W1).iterates) is picard._Rows
        assert picard._Rows.__slots__ == ("_packed", "_struct")
        for p in others:
            built = IterationTrace([p.x0], p.metric).iterates
            assert type(built) is list and built == [p.x0]

    @pytest.mark.parametrize("lam", [0.9, None], ids=["given", "estimated"])
    def test_a_real_run_keeps_no_collector_tracked_object_per_iteration(self, lam):
        """Iterates are bytes, steps are not kept and gauges are floats, none
        of which the cyclic collector tracks: over a whole n=200 run of more
        than 200 iterations, the tracked objects grow by a constant."""
        n = 200
        p = diagonal_problem([0.899] * n, [0.5] * n, [0.0] * n, lam, [1e-10] * n, max_iter=1000)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            before = gc.get_count()[0]
            result = run_picard(p)
            grown = gc.get_count()[0] - before
        finally:
            if enabled:
                gc.enable()
        assert result.halt == "stop_c" and len(result.trace.step_dists) >= 200
        assert grown <= 64, grown


def alternating_halves(x):
    """x -> -x/2: signed iterates that reach -0.0 or 0.0 and stay there."""
    return tuple([-c / 2 for c in x])


def cubic_problem():
    """The Weierstrass sweep of z^3 + 1 from its default starts: with no
    factor and a stop_c below every step, it halts at its noise floor."""
    poly = Polynomial([1.0, 0.0, 0.0, 1.0])
    return Problem(
        map_fn=Weierstrass(poly),
        x0=default_starts(poly),
        metric=WeightedConeMetric([1.0] * 3, field="complex"),
        gauge=GaugeNorm(SpaceSpec(3, Vec.ones(3))),
        stop_c=Vec([5e-324] * 3),
        max_iter=500,
    )


def halve_plus(x):
    return x * 0.5


# Runs whose trace measures its steps when read.  Real ones: unit and
# non-unit weights, the factor given and estimated, a domain escape, signed
# zeros.  Complex ones: a Weierstrass run that halts at its noise floor and
# a run with the factor given.  A discrete run and a plus-metric run.
VIEW_RUNS = {
    "unit-given": lambda: affine_problem(lam=0.5),
    "unit-estimated": lambda: affine_problem(lam=None),
    "weighted-given": lambda: affine_problem(metric=WeightedConeMetric([0.75, 3.0]), lam=0.5),
    "weighted-estimated": lambda: affine_problem(metric=WeightedConeMetric([0.75, 3.0]), lam=None),
    "escape": lambda: halve_problem(map_fn=plus_one, domain=Ball((0.0,), Vec([2.5]))),
    "signed-zeros": lambda: halve_problem(
        map_fn=alternating_halves, x0=(1.0, -3.0), metric=W2, gauge=G2,
        stop_c=Vec([5e-324, 5e-324]), max_iter=2000,
    ),
    "complex-noise-floor": cubic_problem,
    "complex-given": lambda: halve_problem(
        map_fn=Weierstrass(Polynomial([-2.0, 0.0, 1.0])), x0=(1 + 1j, -1 + 0.5j),
        metric=WeightedConeMetric([1.0, 0.5], field="complex"), gauge=G2,
        stop_c=Vec([1e-12, 1e-12]),
    ),
    "discrete": lambda: halve_problem(
        map_fn=lambda x: "b", x0="a", metric=DiscreteConeMetric(ONES), lam=None
    ),
    "plus": lambda: halve_problem(map_fn=halve_plus, x0=Vec([1.0]), metric=PlusConeMetric(1)),
}
VIEW_HALTS = {"escape": "domain_escape", "complex-noise-floor": "noise_floor"}


@st.composite
def view_cases(draw):
    """Iterates of dimension 1-4, none of whose steps overflows, and a
    weighted metric to measure them."""
    n = draw(st.integers(1, 4))
    coord = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300]) | st.floats(-1e300, 1e300)
    points = draw(st.lists(st.lists(coord, min_size=n, max_size=n).map(tuple), max_size=12))
    alpha = draw(st.lists(st.sampled_from([1.0, 0.75, 4.0]), min_size=n, max_size=n))
    return points, WeightedConeMetric(alpha)


class TestStepView:
    """A run keeps no step: its trace measures step k from iterates k and
    k + 1 when it is read, the step the run measured, bit for bit."""

    @pytest.mark.parametrize("case", VIEW_RUNS)
    def test_each_step_is_the_distance_of_its_iterates(self, case):
        p = VIEW_RUNS[case]()
        result = run_picard(p)
        steps, points = result.trace.step_dists, list(result.trace.iterates)
        expected = [p.metric.distance(a, b) for a, b in zip(points, points[1:])]
        assert type(steps) is picard._StepView and len(steps) == len(expected) >= 2
        assert result.halt == VIEW_HALTS.get(case, "stop_c")
        assert hexes([steps[k] for k in range(len(steps))]) == hexes(expected)
        assert hexes(steps) == hexes(expected)
        assert hexes([steps[k] for k in range(-len(steps), 0)]) == hexes(expected)
        assert hexes(reversed(steps)) == hexes(expected[::-1])
        for k in (len(steps), -len(steps) - 1):
            with pytest.raises(IndexError):
                steps[k]
        # Certificate.steps and compare_bounds slice from a start this way.
        for start in range(len(steps) + 3):
            assert hexes(steps[start:]) == hexes(expected[start:])
        if result.certificate is not None:
            cert = result.certificate
            assert hexes(cert.steps) == hexes(expected[cert.start :])

    @pytest.mark.parametrize("case", VIEW_RUNS)
    def test_compares_reads_and_pickles_as_its_list(self, case):
        result = run_picard(VIEW_RUNS[case]())
        trace = result.trace
        steps = trace.step_dists
        listed = list(steps)
        assert steps == listed and listed == steps and steps == trace.step_dists
        assert steps == steps[:] and not steps != steps[:]
        assert steps != listed[:-1] and listed[:-1] != steps and steps[:-1] != steps
        assert steps != tuple(listed) and repr(steps) == repr(listed)
        assert type(steps).__hash__ is None
        with pytest.raises(TypeError):
            hash(steps)
        again = pickle.loads(pickle.dumps(result))
        assert again == result and result == again and again.trace == trace
        assert type(again.trace.step_dists) is picard._StepView
        assert hexes(again.trace.step_dists) == hexes(listed)

    @settings(max_examples=300, deadline=None)
    @given(view_cases(), st.integers(-14, 14), st.integers(-14, 14), st.integers(-3, 3))
    def test_every_slice_reads_the_steps_it_selects(self, case, i, j, stride):
        points, metric = case
        steps = IterationTrace(points, metric).step_dists
        expected = [metric.distance(a, b) for a, b in zip(points, points[1:])]
        assert len(steps) == len(expected)
        assert hexes(steps) == hexes(expected) and steps == expected
        cut = slice(i, j, stride or None)
        assert hexes(steps[cut]) == hexes(expected[cut])
        assert hexes(steps[cut][::-1]) == hexes(expected[cut][::-1])
        assert len(steps[cut]) == len(expected[cut]) and steps[cut] == expected[cut]

    def test_a_trace_of_one_iterate_has_no_steps(self):
        """The first map output overflows: the trace holds x0 alone."""
        result = run_picard(halve_problem(map_fn=lambda x: (-x[0],), x0=(1e308,)))
        steps = result.trace.step_dists
        assert (result.halt, len(result.trace.iterates)) == ("overflow", 1)
        assert type(steps) is picard._StepView
        assert len(steps) == 0 and list(steps) == [] and steps == [] and steps[0:] == []
        assert list(reversed(steps)) == [] and repr(steps) == "[]"
        for k in (0, -1):
            with pytest.raises(IndexError):
                steps[k]

    @pytest.mark.parametrize("case", VIEW_RUNS)
    def test_a_trace_built_from_a_runs_iterates_is_its_trace(self, case):
        """A trace is its orbit: the run's iterates and metric, handed in by
        hand, build the run's trace, in the same store, with the same steps."""
        p = VIEW_RUNS[case]()
        trace = run_picard(p).trace
        built = IterationTrace(list(trace.iterates), p.metric)
        assert built == trace and type(built.iterates) is type(trace.iterates)
        assert hexes(built.step_dists) == hexes(trace.step_dists)
        assert repr(built.iterates) == repr(trace.iterates)  # signed zeros too

    @pytest.mark.parametrize(
        "metric, point, error, message",
        [
            (W2, (1.0,), ValueError, "^point has 1 coordinates, expected 2$"),
            (W1, (math.nan,), NonFiniteError, "^non-finite coordinate: nan$"),
            (W1, (1j,), ValueError, "^complex coordinate 1j in a real instance$"),
            (DiscreteConeMetric(ONES), [1.0], TypeError,
             "^a discrete point must be hashable, got list$"),
        ],
        ids=["length", "nan", "complex", "discrete-list"],
    )
    def test_a_hand_built_trace_refuses_a_point_as_its_metric_does(
        self, metric, point, error, message
    ):
        start = metric.validate_point((0.0,) * metric.dim)
        with pytest.raises(error, match=message):
            metric.validate_point(point)
        with pytest.raises(error, match=message):
            IterationTrace([start, point], metric)

    @pytest.mark.parametrize("case", VIEW_RUNS)
    def test_a_pickle_holds_the_iterates_and_no_step(self, case):
        """A pickled trace or certificate loads equal, its steps a view
        measured again from the iterates it holds."""
        result = run_picard(VIEW_RUNS[case]())
        trace, cert = result.trace, result.certificate
        unread = [mock.patch.object(picard._StepView, name, side_effect=AssertionError)
                  for name in ("__getitem__", "__iter__", "__reversed__")]
        with unread[0], unread[1], unread[2]:
            dumped = pickle.dumps(trace), pickle.dumps(cert)
        again, cert_again = map(pickle.loads, dumped)
        assert again == trace and type(again.step_dists) is picard._StepView
        assert hexes(again.step_dists) == hexes(trace.step_dists)
        assert cert_again == cert
        if cert is not None:
            assert type(cert_again.steps) is picard._StepView
            assert hexes(cert_again.steps) == hexes(cert.steps)


class TestRunPicard:
    def test_halving_run(self):
        result = run_picard(halve_problem())
        assert result.converged
        assert result.halt == "stop_c"
        cert = result.certificate
        assert cert.status == "certified"
        assert cert.lambda_source == "given"
        assert cert.radius_r == Vec([1.0])  # 2 * d(x0, x1) = 2 * 0.5
        assert result.fixed_point[0] == pytest.approx(0.0, abs=1e-9)
        # confinement: the whole orbit stays in the ball of radius r at x0
        for x in result.trace.iterates:
            assert leq(W1.distance(x, (1.0,)), cert.radius_r)

    def test_identity_halts_immediately(self):
        p = halve_problem(map_fn=lambda x: x, lam=None)
        result = run_picard(p)
        assert result.converged
        assert len(result.trace.iterates) == 2
        assert result.fixed_point == (1.0,)
        cert = result.certificate
        assert (cert.start, cert.lambda_used) == (0, 0.0)
        assert cert.radius_r == Vec([0.0])
        assert cert.residual == Vec([0.0])

    def test_affine_fixed_point_and_bounds(self):
        lams = (0.5, 0.25)
        result = run_picard(affine_problem(lams=lams))
        assert result.converged
        xi = (2.0, 4.0 / 3.0)  # offset / (1 - lam) coordinatewise
        assert result.fixed_point[0] == pytest.approx(xi[0], abs=1e-9)
        assert result.fixed_point[1] == pytest.approx(xi[1], abs=1e-9)
        cert = result.certificate
        slack = Vec([1e-10, 1e-10])
        tr = result.trace
        for n, x in enumerate(tr.iterates):
            err = W2.distance(x, xi)
            assert leq(err, cert.apriori[n] + slack)
            if n < len(cert.apost_forward):
                assert leq(err, cert.apost_forward[n] + slack)
            if 1 <= n <= len(cert.apost_backward):
                assert leq(err, cert.apost_backward[n - 1] + slack)

    def test_rate_check_on_affine(self):
        p = affine_problem()
        result = run_picard(p)
        assert rate_check(result.trace, (2.0, 4.0 / 3.0), p, slack=1e-10)
        tight = affine_problem(lam=0.1)
        assert not rate_check(result.trace, (2.0, 4.0 / 3.0), tight, slack=1e-10)

    def test_rate_check_exact_on_halving(self):
        p = halve_problem()
        result = run_picard(p)
        assert rate_check(result.trace, (0.0,), p)

    def test_monotone_tightening(self):
        result = run_picard(affine_problem())
        fwd = result.certificate.apost_forward
        assert verify_step_contraction(result.trace, result.certificate.lambda_used)
        for k in range(len(fwd) - 1):
            assert leq(fwd[k + 1], fwd[k])

    def test_residual_dominated_by_final_step(self):
        p = affine_problem()
        result = run_picard(p)
        res = result.certificate.residual
        last_step = result.trace.step_dists[-1]
        assert leq(res, p.lam * last_step + Vec([1e-12, 1e-12]))
        assert residual_check(result.fixed_point, p) == res

    def test_domain_escape_carries_trace(self):
        ball = Ball(center=(0.0,), radius=Vec([2.5]), closed=True)
        p = halve_problem(
            map_fn=lambda x: (x[0] + 1.0,), x0=(0.0,), lam=None, domain=ball
        )
        result = run_picard(p)
        assert result.halt == "domain_escape"
        assert not result.converged
        assert result.certificate is None
        assert result.fixed_point is None
        # The escaping iterate is kept last, with the step that reached it.
        assert result.trace.iterates == [(0.0,), (1.0,), (2.0,), (3.0,)]
        assert len(result.trace.step_dists) == 3

    @pytest.mark.parametrize("lam", [0.5, None], ids=["given", "estimated"])
    def test_radius_overflow_ends_a_converging_run_as_overflow(self, lam):
        # d(x0, x1) = 1.5e308 is finite; the radius 1.5e308 / (1 - 0.5) is not.
        p = halve_problem(
            map_fn=lambda x: (-0.5 * x[0],), x0=(1e308,), lam=lam, max_iter=2000
        )
        result = run_picard(p)
        # The loop halted on stop_c long before max_iter.
        assert len(result.trace.iterates) < 1100
        assert result.halt == "overflow"
        assert not result.converged
        assert result.certificate is None
        assert result.fixed_point is None

    def test_growth_to_overflow_has_no_certificate(self):
        # Every step passes the halting bound (factor 1) until one overflows;
        # the forward bound's factor 2 overflows a step earlier.
        p = halve_problem(map_fn=lambda x: (-2.0 * x[0],), lam=0.5, max_iter=2000)
        result = run_picard(p)
        assert result.halt == "overflow"
        assert not result.converged
        assert result.certificate is None
        assert len(result.trace.iterates) == 1024
        assert all(math.isfinite(s[0]) for s in result.trace.step_dists)

    def test_final_forward_bound_overflow_has_no_certificate(self):
        # The radius 8.4e307 / 0.9 is finite, and so is the last halting
        # bound 1.68e308 / 9; the last forward bound 1.68e308 / 0.9 is not.
        p = halve_problem(map_fn=lambda x: (-2.0 * x[0],), x0=(2.8e307,), lam=0.1, max_iter=2)
        result = run_picard(p)
        assert result.halt == "overflow"
        assert result.certificate is None
        assert len(result.trace.iterates) == 3

    def test_start_outside_domain(self):
        ball = Ball(center=(10.0,), radius=Vec([1.0]), closed=True)
        with pytest.raises(ValueError, match="^the start point is outside the declared domain$"):
            halve_problem(domain=ball)
        with pytest.raises(ValueError, match="^the start point is outside the declared domain$"):
            halve_problem(domain=lambda x: x[0] < 0)

    def test_max_iter_without_convergence(self):
        p = halve_problem(map_fn=lambda x: (2.0 * x[0],), lam=None, max_iter=20)
        result = run_picard(p)
        assert not result.converged
        assert result.halt == "max_iter"
        assert result.fixed_point is None
        assert result.certificate is None  # expanding trace: factor >= 1
        assert len(result.trace.step_dists) == 20

    def test_stalled_ends_the_run_at_the_noise_floor(self):
        # Steps of 1 have equal gauges: the test is first asked at step 1.
        p = halve_problem(map_fn=StallWhen(plus_one, always, []), x0=(0.0,), lam=None)
        result = run_picard(p)
        assert result.converged
        assert result.halt == "noise_floor"
        assert len(result.trace.step_dists) == 2
        assert result.fixed_point == result.trace.iterates[-1] == (2.0,)

    @pytest.mark.parametrize("lam", [0.5, None])
    def test_stalled_is_asked_only_where_the_gauge_stops_shrinking(self, lam):
        # Steps 1, 0.5, 1, 0.5, 0.5, 0.25: the gauge is not below the
        # previous one at steps 2 and 4 only.
        walk = {0.0: 1.0, 1.0: 1.5, 1.5: 2.5, 2.5: 3.0, 3.0: 3.5, 3.5: 3.75, 3.75: 4.0}
        seen = []
        fn = StallWhen(lambda x: (walk[x[0]],), lambda z, s: False, seen)
        result = run_picard(halve_problem(map_fn=fn, x0=(0.0,), lam=lam, max_iter=6))
        trace = result.trace
        assert result.halt == "max_iter"
        # Each call gets the iterate the step left and the step, bit for bit.
        assert [list(map(float.hex, z)) for z, _ in seen] == [
            list(map(float.hex, trace.iterates[k])) for k in (2, 4)
        ]
        assert hexes([s for _, s in seen]) == hexes([trace.step_dists[k] for k in (2, 4)])

    def test_stalled_is_asked_only_after_the_stop_c_test_fails(self):
        # Both steps have gauge 1; the second one passes stop_c and ends the
        # run before the test is asked.
        walk = {(0.0, 0.0): (0.25, 1.0), (0.25, 1.0): (1.25, 1.25)}
        seen = []
        fn = StallWhen(lambda x: walk[x], always, seen)
        result = run_picard(affine_problem(map_fn=fn, stop_c=Vec([2.0, 0.5]), lam=None))
        assert (result.halt, len(result.trace.step_dists), seen) == ("stop_c", 2, [])

    def test_a_gauge_that_overflows_never_asks_the_test(self):
        # Steps of 1e9 under base 1e-300: every gauge overflows to inf.
        seen = []
        fn = StallWhen(lambda x: (x[0] + 1e9,), always, seen)
        tiny = GaugeNorm(SpaceSpec(1, Vec([1e-300])))
        result = run_picard(halve_problem(map_fn=fn, gauge=tiny, lam=None, max_iter=5))
        assert (result.halt, seen) == ("max_iter", [])

    def test_the_stall_rule_runs_once_after_the_domain_check(self):
        # Once, when the problem is built, and never by a run.
        fn = StallWhen(plus_one, always, [])
        with mock.patch.object(
            StallWhen, "stall_rule", autospec=True, side_effect=StallWhen.stall_rule
        ) as rule:
            p = halve_problem(map_fn=fn, lam=None)
            rule.assert_called_once_with(fn, p)
            assert run_picard(p) == run_picard(p)
            rule.assert_called_once_with(fn, p)
            rule.side_effect = ValueError("bad start")
            with pytest.raises(ValueError, match="^bad start$"):
                halve_problem(map_fn=fn)
            ball = Ball(center=(10.0,), radius=Vec([1.0]), closed=True)
            with pytest.raises(ValueError, match="^the start point is outside the declared domain$"):
                halve_problem(map_fn=fn, domain=ball)
            assert rule.call_count == 2

    def test_the_stall_rule_is_the_one_recorded_when_the_problem_was_built(self):
        # A tracer swaps the problem's map for a wrapper during a run; the
        # test the problem holds still ends it.
        fn = StallWhen(plus_one, lambda z, s: z[0] >= 3.0, [])
        p = halve_problem(map_fn=fn, x0=(0.0,), lam=None)
        inner = p.map_fn
        object.__setattr__(p, "map_fn", lambda x: inner(x))
        result = run_picard(p)
        assert (result.halt, len(result.trace.step_dists)) == ("noise_floor", 4)

    def test_conditional_status_on_predicate_domain(self):
        p = halve_problem(domain=lambda x: True)
        result = run_picard(p)
        assert result.certificate.status == "conditional"

    def test_estimated_lambda_is_heuristic(self):
        p = halve_problem(lam=None)
        result = run_picard(p)
        cert = result.certificate
        assert cert.lambda_source == "estimated"
        assert cert.status == "heuristic"
        assert cert.lambda_used == pytest.approx(0.5, abs=1e-12)

    def test_estimated_lambda_covers_the_contracting_tail(self):
        # Steps 1, 2, 0.5, 0.25, 0.125: only the steps from iterate 1 on
        # contract, so the certificate starts there with their largest ratio.
        seq = [0.0, 1.0, 3.0, 3.5, 3.75, 3.875, 3.9375]
        after = dict(zip(seq, seq[1:]))
        p = halve_problem(map_fn=lambda x: (after[x[0]],), x0=(0.0,), lam=None, max_iter=5)
        result = run_picard(p)
        assert result.halt == "max_iter"
        cert = result.certificate
        assert (cert.start, cert.lambda_used) == (1, 0.5)
        assert cert.lambda_source == "estimated"
        assert cert.status == "heuristic"
        assert cert.radius_r.coords == (4.0,)
        assert [s.coords for s in cert.steps] == [(2.0,), (0.5,), (0.25,), (0.125,)]

    def test_given_lambda_contradicted_by_trace_downgrades(self):
        # The map contracts at 0.9 > given 0.5; certification must not stand.
        p = halve_problem(map_fn=lambda x: (0.9 * x[0],), lam=0.5, max_iter=50)
        result = run_picard(p)
        assert result.certificate.status == "heuristic"

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, 0.9), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
    def test_uniqueness_across_starts(self, lam, a, b):
        limits = []
        for x0 in (a, b):
            # factors near 0.9 need ~240 iterations to pass the halting test
            p = halve_problem(
                map_fn=lambda x: (lam * x[0] + 1.0,), x0=(x0,), lam=lam, max_iter=800
            )
            limits.append(run_picard(p).fixed_point[0])
        assert abs(limits[0] - limits[1]) <= 1e-8


def halve_raising_at_call(k, exc):
    """``halve``, save that its ``k``-th call raises ``exc``."""
    calls = []

    def step(x):
        calls.append(x)
        if len(calls) == k:
            raise exc
        return halve(x)

    return step


class CountingMetric(WeightedConeMetric):
    """Records every point it validates, in a list: a metric refuses assignment."""

    def __init__(self, alpha):
        super().__init__(alpha)
        object.__setattr__(self, "points", [])

    @property
    def validations(self):
        return len(self.points)

    def validate_point(self, p):
        self.points.append(tuple(p))
        return super().validate_point(p)


class TestEngineBoundary:
    @pytest.mark.parametrize("lam", [0.5, None])
    def test_each_point_validated_once(self, lam):
        inst = CountingMetric([1.0, 1.0])
        result = run_picard(affine_problem(metric=inst, lam=lam))
        k = len(result.trace.step_dists)
        assert result.converged and k > 10
        # x0 when the problem is built, one per map output, and the two
        # points of the final residual.
        assert inst.validations == k + 3

    @pytest.mark.parametrize("max_iter", [3, 30])
    def test_ball_center_validated_once_per_run(self, max_iter):
        inst = CountingMetric([1.0])
        ball = Ball([-5], Vec([10.0]))
        result = run_picard(halve_problem(metric=inst, domain=ball, max_iter=max_iter))
        k = len(result.trace.step_dists)
        assert (result.halt, k) == ("max_iter", max_iter)
        # The iterates stay positive, so only the center equals -5.
        assert inst.points.count((-5.0,)) == 1
        # The center and x0 when the problem is built, one per map output,
        # and the final residual's two.
        assert inst.validations == k + 4

    @pytest.mark.parametrize(
        "map_fn, x0, lam, steps",
        [
            (lambda x: (-x[0],), 1e308, 0.5, 0),  # the step distance overflows
            (lambda x: (2.0 * x[0],), 1e300, None, 27),  # the map output overflows
            (lambda x: (-x[0],), 1e297, LAMBDA_CEILING, 0),  # the halting bound overflows
        ],
    )
    def test_overflow_ends_the_run_unconverged(self, map_fn, x0, lam, steps):
        result = run_picard(halve_problem(map_fn=map_fn, x0=(x0,), lam=lam))
        assert not result.converged
        assert result.halt == "overflow"
        assert result.fixed_point is None
        assert len(result.trace.step_dists) == steps
        assert len(result.trace.iterates) == steps + 1
        assert all(math.isfinite(x[0]) for x in result.trace.iterates)

    def test_an_overflow_at_the_residual_call_leaves_only_the_residual_none(self):
        """Three map calls make the run; the fourth measures the residual."""
        plain = run_picard(halve_problem(max_iter=3))
        result = run_picard(halve_problem(map_fn=halve_raising_at_call(4, NonFiniteError("inf")), max_iter=3))
        assert (result.halt, result.certificate.status) == (plain.halt, plain.certificate.status)
        assert plain.halt == "max_iter" and plain.certificate.status == "certified"
        assert result.trace == plain.trace
        assert plain.certificate.residual == Vec([0.0625])
        assert result.certificate.residual is None

    def test_another_error_at_the_residual_call_propagates(self):
        # The run's rule: only a NonFiniteError from the map is not raised.
        p = halve_problem(map_fn=halve_raising_at_call(4, ValueError("no image")), max_iter=3)
        with pytest.raises(ValueError, match="^no image$") as info:
            run_picard(p)
        assert type(info.value) is ValueError

    def test_overflowed_gauges_leave_no_factor(self):
        """Every step's gauge overflows under base 1e-300: the run returns
        with halt max_iter and no certificate, not a ValueError for lam NaN."""
        tiny = GaugeNorm(SpaceSpec(1, Vec([1e-300])))
        result = run_picard(halve_problem(x0=(1e10,), gauge=tiny, lam=None, max_iter=3))
        assert (result.halt, result.certificate) == ("max_iter", None)
        assert [x[0] for x in result.trace.iterates] == [1e10, 5e9, 2.5e9, 1.25e9]

    def test_weierstrass_run_keeps_its_tail_past_overflowed_gauges(self):
        """The first four steps' gauges overflow under a subnormal base; the
        trace is the unit-gauge run's and the tail starts past them."""
        def problem(base):
            return Problem(
                map_fn=Weierstrass(Polynomial([-1.0, 0.0, 1.0])),
                x0=(1e6 + 1j, -3 + 0.5j),
                metric=WeightedConeMetric([1.0, 1.0], field="complex"),
                gauge=GaugeNorm(SpaceSpec(2, Vec([base, base]))),
                stop_c=Vec([1e-12, 1e-12]),
                max_iter=100,
            )

        tiny, unit = problem(1e-310), problem(1.0)
        result = run_picard(tiny)
        assert result.trace == run_picard(unit).trace
        steps = result.trace.step_dists
        gauges = [mink_norm(s, tiny.gauge) for s in steps]
        assert gauges[:4] == [math.inf] * 4 and math.isfinite(gauges[4])
        # The estimator's one-max gauge of a step gives the same bits.
        assert [_cone_max(s.coords, tiny.gauge) for s in steps] == gauges
        # An overflowed gauge measures nothing, so the tail starts at the
        # first finite one, and lam is the unit gauge's ratio over that tail.
        cert = result.certificate
        assert cert.start == 4
        assert cert.lambda_used == max(b / a for a, b in zip(gauges[4:], gauges[5:]))
        unit_gauges = [mink_norm(s, unit.gauge) for s in steps]
        assert math.isclose(
            cert.lambda_used, max(b / a for a, b in zip(unit_gauges[4:], unit_gauges[5:])),
            rel_tol=1e-12,
        )

    def test_map_raising_non_finite_ends_the_run_unconverged(self):
        def overflowing(x):
            if x[0] < 0.25:
                raise NonFiniteError("update overflowed at position 0")
            return (x[0] / 2,)

        result = run_picard(halve_problem(map_fn=overflowing, x0=(1.0,)))
        assert not result.converged
        assert result.halt == "overflow"
        assert [x[0] for x in result.trace.iterates] == [1.0, 0.5, 0.25, 0.125]

    @pytest.mark.parametrize(
        "error", [OverflowError("math range error"), ArithmeticError("map failed")]
    )
    def test_other_arithmetic_errors_from_the_map_propagate(self, error):
        def failing(x):
            raise error

        with pytest.raises(type(error)) as info:
            run_picard(halve_problem(map_fn=failing))
        assert info.value is error

    @pytest.mark.parametrize("image", [(1.0, 2.0), (1j,), (True,)])
    def test_malformed_map_output_stays_an_input_error(self, image):
        with pytest.raises(ValueError) as info:
            run_picard(halve_problem(map_fn=lambda x: image))
        assert not isinstance(info.value, NonFiniteError)


def bits(v):
    return [c.hex() for c in v.coords]


def eager_families(steps, lam):
    return {
        "apriori": [apriori_bound(k, lam, steps[0]) for k in range(len(steps) + 1)],
        "apost_forward": [apost_forward_bound(s, lam) for s in steps],
        "apost_backward": [apost_backward_bound(s, lam) for s in steps],
    }


class TestBoundFamilies:
    # Roots {0, +-1, +-2, +-i}: from the default starts the contracting tail
    # begins at iterate 10.
    SEPTIC = Polynomial([0.0, 4.0, 0.0, -1.0, 0.0, -4.0, 0.0, 1.0])

    def certificate(self, case):
        if case == "given":
            result = run_picard(affine_problem())
            cert = result.certificate
            assert cert.lambda_source == "given" and cert.start == 0
        else:
            result = solve_roots(self.SEPTIC)
            cert = result.certificate
            assert cert.start == result.tail_start == 10
        steps = result.trace.step_dists[cert.start:]
        assert [bits(s) for s in cert.steps] == [bits(s) for s in steps]
        return cert, eager_families(steps, cert.lambda_used)

    @pytest.mark.parametrize("case", ["given", "tail"])
    def test_views_match_the_closed_forms(self, case):
        cert, eager = self.certificate(case)
        for name, ref in eager.items():
            view = getattr(cert, name)
            n = len(ref)
            assert len(view) == n > 5
            assert [bits(v) for v in view] == [bits(v) for v in ref]
            for k in range(-n, n):
                assert bits(view[k]) == bits(ref[k])
            for sl in (slice(None), slice(2, 5), slice(-3, None), slice(None, None, -2), slice(5, 2)):
                assert [bits(v) for v in view[sl]] == [bits(v) for v in ref[sl]]
            for k in (n, -n - 1):
                with pytest.raises(IndexError):
                    view[k]

    @pytest.mark.parametrize("case", ["given", "tail"])
    def test_certificate_to_dict_matches_eager_lists(self, case):
        """Each family is emitted as the one-entry list of its final entry."""
        cert, eager = self.certificate(case)
        expected = {
            "lambda_used": cert.lambda_used,
            "lambda_source": cert.lambda_source,
            "radius_r": list(cert.radius_r.coords),
            **{name: [list(ref[-1].coords)] for name, ref in eager.items()},
            "status": cert.status,
            "residual": list(cert.residual.coords),
        }
        assert json.dumps(certificate_to_dict(cert)) == json.dumps(expected)


def count_down(x):
    return (max(x[0] - 1.0, 0.0),)


# The runs of VIEW_RUNS whose points the table can hold (the discrete run's
# points there are strings), and a discrete run over numbers.
TABLE_RUNS = {
    **{case: run for case, run in VIEW_RUNS.items() if case != "discrete"},
    "discrete-numbers": lambda: halve_problem(
        map_fn=count_down, x0=(3.0,), metric=DiscreteConeMetric(ONES), lam=None
    ),
}


class TestTraceCsv:
    @pytest.mark.parametrize("case", TABLE_RUNS)
    def test_steps_rebuilt_from_the_table_are_the_runs_steps(self, case):
        """The table holds the orbit alone, one width per row, and a reader
        rebuilds step k from rows k and k + 1 under the run's metric: the
        trace's step bit for bit, signed zeros included."""
        result = run_picard(TABLE_RUNS[case]())
        assert result.halt == VIEW_HALTS.get(case, "stop_c")
        trace, buf = result.trace, io.StringIO()
        write_trace_csv(buf, trace)
        text = buf.getvalue()
        parts = 2 if type(trace.iterates[0][0]) is complex else 1
        assert text.count(",", 0, text.index("\n")) == len(trace.iterates[0]) * parts
        points = list(map(trace.metric.validate_point, trace_csv_points(text)))
        assert point_hexes(points) == point_hexes(trace.iterates)
        rebuilt = [trace.metric._distance(a, b) for a, b in zip(points, points[1:])]
        assert len(rebuilt) >= 2 and hexes(rebuilt) == hexes(trace.step_dists)

    def test_structure_and_determinism(self):
        result = run_picard(halve_problem(max_iter=6, stop_c=Vec([0.02])))
        buffers = []
        for _ in range(2):
            buf = io.StringIO()
            write_trace_csv(buf, result.trace)
            buffers.append(buf.getvalue())
        assert buffers[0] == buffers[1]
        lines = buffers[0].splitlines()
        assert lines[0] == "iter,x0"
        assert lines[1:3] == ["0,1", "1,0.5"]
        assert len(lines) == len(result.trace.iterates) + 1
        # The orbit alone: every row holds the iterate number and the point.
        assert all(line.count(",") == 1 for line in lines)
        # Iterate 0's bounds stay in the library.
        cert = result.certificate
        assert cert.apriori[0].coords == cert.apost_forward[0].coords == (1.0,)

    def test_complex_columns(self):
        inst = WeightedConeMetric([1.0], field="complex")
        p = Problem(
            map_fn=lambda z: (z[0] / 2,),
            x0=(1 + 1j,),
            metric=inst,
            gauge=G1,
            stop_c=Vec([1e-6]),
            lam=0.5,
        )
        result = run_picard(p)
        buf = io.StringIO()
        write_trace_csv(buf, result.trace)
        header = buf.getvalue().splitlines()[0]
        assert header == "iter,x0_re,x0_im"


# -- halting and step-contraction decisions against the per-iteration forms --

# Finite floats across the whole range, with the values where rounding and
# overflow decide: signed zero, the smallest subnormal, the largest decades.
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 1e-300, 1 / 3, 1.0, 1e297, 1e300, 1e308])
any_float = EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)
# Coordinates within 4e307 of zero: no two are the float range apart, so
# no step between them overflows.
bounded_float = EDGE_FLOATS.filter(lambda v: v < 4e307) | st.floats(-4e307, 4e307)
factor = st.sampled_from([0.0, 0.1, 0.5, 0.9, LAMBDA_CEILING]) | st.floats(0.0, LAMBDA_CEILING)


def per_iteration_run(p):
    """The engine loop with the halting bound as it was first written: one
    ``apost_backward_bound`` call and one ``lt`` per iteration."""
    x = p.metric.validate_point(p.x0)
    iterates = [x]
    for _ in range(p.max_iter):
        try:
            x_next = p.metric.validate_point(p.map_fn(x))
            s = p.metric.distance(x, x_next)
            halt = s if p.lam is None else apost_backward_bound(s, p.lam)
        except NonFiniteError:
            break
        iterates.append(x_next)
        x = x_next
        if lt(halt, p.stop_c):
            return iterates, True
    return iterates, False


def diagonal_problem(diag, offset, x0, lam, stop, max_iter=60):
    n = len(diag)

    def step(x):
        return tuple([l * c + o for l, c, o in zip(diag, x, offset)])

    return Problem(
        map_fn=step,
        x0=tuple(x0),
        metric=WeightedConeMetric([1.0] * n),
        gauge=GaugeNorm(SpaceSpec(n, Vec.ones(n))),
        stop_c=Vec(stop),
        max_iter=max_iter,
        lam=lam,
    )


@st.composite
def diagonal_runs(draw):
    n = draw(st.integers(1, 3))
    diag = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    offset = draw(st.lists(any_float, min_size=n, max_size=n))
    x0 = draw(st.lists(any_float, min_size=n, max_size=n))
    lam = draw(st.none() | factor)
    return diag, offset, x0, lam


def forward_step_contraction(steps, lam):
    """verify_step_contraction's loop as first written: pairs in forward
    order, one list of products per pair."""
    for prev, nxt in zip(steps, steps[1:]):
        prev._same_dim(nxt)
        if not all(map(operator.le, nxt.coords, [c * lam for c in prev.coords])):
            return False
    return True


@st.composite
def orbit_lists(draw):
    """3-31 iterates of dimension 1-4 and a factor.  Each iterate after the
    second steps from the last by about lam times the step before (a pair
    that contracts or just fails to; it stays where that leaves the bounded
    range), goes back to the iterate before (an equal step), stays (a zero
    step) or is any point."""
    n = draw(st.integers(1, 4))
    lam = draw(factor)
    coords = st.lists(bounded_float, min_size=n, max_size=n).map(tuple)
    points = [draw(coords), draw(coords)]
    for _ in range(draw(st.integers(1, 29))):
        kind = draw(st.sampled_from(["scaled", "back", "stay", "any"]))
        if kind == "scaled":
            x, y = points[-2:]
            z = tuple([b + lam * (b - a) for a, b in zip(x, y)])
            points.append(z if max(map(abs, z)) <= 4e307 else y)
        elif kind == "back":
            points.append(points[-2])
        elif kind == "stay":
            points.append(points[-1])
        else:
            points.append(draw(coords))
    return IterationTrace(points, WeightedConeMetric([1.0] * n)), lam


def same_outcome(p):
    """Same iterates and convergence from run_picard and the per-iteration
    loop.  The certificate is left out: one whose radius overflows turns any
    halt into ``overflow``, whatever the halting rule decided."""
    iterates, converged = per_iteration_run(p)
    with mock.patch.object(picard, "_build_certificate", lambda p, trace, gauges: None):
        result = run_picard(p)
    assert repr(result.trace.iterates) == repr(iterates)
    assert result.converged is converged
    return iterates, converged


@st.composite
def estimated_runs(draw):
    """A λ-estimated diagonal affine run of dimension 1-3 under a unit,
    dyadic or tiny gauge base (where gauges overflow to inf), some after a
    prefix of equal or growing steps that does not contract."""
    n = draw(st.integers(1, 3))
    diag = draw(st.lists(st.floats(-1.25, 1.25), min_size=n, max_size=n))
    offset = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    start = st.sampled_from([0.0, 1e10]) | st.floats(-1e10, 1e10)
    x0 = draw(st.lists(start, min_size=n, max_size=n))
    shifts = sorted(draw(st.lists(st.sampled_from([1.0, 2.0, 1e3]), max_size=4)))
    base = draw(st.sampled_from([1.0, 0.25, 1e-300, 5e-324]))
    return diag, offset, x0, shifts, base, draw(st.integers(1, 60))


def prefixed_diagonal_problem(diag, offset, x0, shifts, base, max_iter):
    """λ-estimated run of x -> x + shift for each of ``shifts`` in turn,
    then of the diagonal affine map, under the gauge of ``base``."""
    n = len(diag)
    affine = diagonal_problem(diag, offset, x0, None, [1e-10] * n, max_iter)
    pending = iter(shifts)

    def step(x):
        shift = next(pending, None)
        return affine.map_fn(x) if shift is None else tuple([c + shift for c in x])

    gauge = GaugeNorm(SpaceSpec(n, Vec([base] * n)))
    return Problem(step, affine.x0, affine.metric, gauge, affine.stop_c, max_iter)


class TestOneTailRule:
    @settings(max_examples=300, deadline=None)
    @given(estimated_runs())
    @example(([0.0, 0.0], [2.0, 3.0], [2.0, 3.0], [], 1.0, 5))  # every step zero
    @example(([-1.0], [0.0], [1e308], [], 1.0, 5))  # the first step overflows: no step
    @example(([0.5], [1.0], [0.0], [1.0, 1.0, 2.0], 1.0, 30))  # a non-contracting prefix
    @example(([0.5], [1.0], [1e10], [], 1e-300, 60))  # gauges overflow to inf, then not
    def test_a_run_certifies_from_the_tail_estimate_lambda_finds(self, case):
        """The gauges a run records as it goes give its certificate the
        (start, lam) that ``estimate_lambda`` finds on its trace, and it has
        no certificate exactly when that lam is None."""
        p = prefixed_diagonal_problem(*case)
        result = run_picard(p)
        start, lam = estimate_lambda(result.trace, p.gauge)
        ref_start, ref_lam = reference_estimate_lambda(list(result.trace.step_dists), p.gauge)
        assert (start, repr(lam)) == (ref_start, repr(ref_lam))
        cert = result.certificate
        assert (cert is None) is (lam is None)
        if cert is not None:
            assert (cert.start, repr(cert.lambda_used)) == (start, repr(lam))


class TestHaltingDecision:
    @settings(max_examples=300, deadline=None)
    @given(diagonal_runs(), st.integers(0, 59), st.sampled_from([-1, 0, 1]))
    def test_same_halting_iterate_as_the_per_iteration_bound(self, run, j, nudge):
        """stop_c is set at (or one ulp around) the bound the per-iteration
        form computes at some iterate, where a rounded threshold would flip."""
        diag, offset, x0, lam = run
        free = diagonal_problem(diag, offset, x0, lam, [1e-300] * len(diag))
        iterates, _ = per_iteration_run(free)
        stop = [1.0] * len(diag)
        if len(iterates) > 1:
            j = j % (len(iterates) - 1)
            s = free.metric.distance(iterates[j], iterates[j + 1])
            bound = s if lam is None else apost_backward_bound(s, lam)
            stop = [math.nextafter(c, math.inf * nudge) if nudge else c for c in bound.coords]
            stop = [min(max(c, 5e-324), sys.float_info.max) for c in stop]
        same_outcome(diagonal_problem(diag, offset, x0, lam, stop))

    @pytest.mark.parametrize(
        "x0, diag, offset, lam, stop, iterations, converged",
        [
            # lam/(1-lam) * 2e297 overflows before the first iterate is kept.
            (1e297, -1.0, 0.0, LAMBDA_CEILING, 1.0, 0, False),
            # 2 * 1.5e308 overflows only through the factor 2 of lam = 2/3.
            (1e308, -0.5, 0.0, 2 / 3, 1.0, 0, False),
            # Every step is 1 and 1 * 0.5/(1-0.5) = 1 is not strictly below 1.
            (0.0, 1.0, 1.0, 0.5, 1.0, 60, False),
            (0.0, 1.0, 1.0, 0.5, math.nextafter(1.0, 2.0), 1, True),
        ],
    )
    def test_overflow_and_boundary_cases(self, x0, diag, offset, lam, stop, iterations, converged):
        p = diagonal_problem([diag], [offset], [x0], lam, [stop])
        iterates, done = same_outcome(p)
        assert (len(iterates) - 1, done) == (iterations, converged)

    @pytest.mark.parametrize(
        "x0, iterations, converged",
        [
            # Each step 6e307 times the factor ~2 of lam = 2/3 is finite, but
            # their sum times it overflows: the run must go on.
            ([6e307, 6e307], 2, True),
            # 2 * 1e308 overflows in one coordinate: the run ends there.
            ([6e307, 1e308], 0, False),
        ],
    )
    def test_overflow_decided_per_coordinate(self, x0, iterations, converged):
        p = diagonal_problem([0.0, 0.0], [0.0, 0.0], x0, 2 / 3, [1.0, 1.0])
        iterates, done = same_outcome(p)
        assert (len(iterates) - 1, done) == (iterations, converged)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(
                st.lists(bounded_float, min_size=n, max_size=n).map(tuple), min_size=3, max_size=7
            )
        ),
        factor,
    )
    def test_step_contraction_matches_leq_of_scaled_steps(self, points, lam):
        trace = IterationTrace(points, WeightedConeMetric([1.0] * len(points[0])))
        vecs = list(trace.step_dists)
        expected = all(leq(vecs[k + 1], lam * vecs[k]) for k in range(len(vecs) - 1))
        assert verify_step_contraction(trace, lam) is expected

    @settings(max_examples=300, deadline=None)
    @given(orbit_lists())
    def test_backward_step_check_matches_the_forward_loop(self, case):
        """Same bool as the forward loop on the measured steps."""
        trace, lam = case
        expected = forward_step_contraction(list(trace.step_dists), lam)
        assert verify_step_contraction(trace, lam) is expected

    def test_overflow_guard_falls_back_to_the_largest_product(self):
        """The guard reads the largest product alone: the first step's sum
        times the factor of lam = 2/3 overflows and its max times it does
        not, so the run goes on, halts as the per-iteration bound does and
        certifies."""
        p = diagonal_problem([0.0, 0.0], [5e307, 5e307], [0.0, 0.0], 2 / 3, [1.0, 1.0])
        factor = picard._backward_factor(2 / 3)
        assert math.isinf(sum([5e307, 5e307]) * factor) and math.isfinite(5e307 * factor)
        iterates, converged = same_outcome(p)
        assert (len(iterates) - 1, converged) == (2, True)
        result = run_picard(p)
        assert (result.halt, result.certificate.status) == ("stop_c", "certified")


def exact_step_run(p):
    """A λ-given run's loop with every step built by ``_distance`` and every
    coordinate of its halting bound checked for overflow.  Returns the halt,
    the iterates and the steps."""
    inst, x, stop = p.metric, p.x0, p.stop_c.coords
    factor = picard._backward_factor(p.lam)
    iterates, steps = [x], []
    for _ in range(p.max_iter):
        try:
            x_next = inst.validate_point(p.map_fn(x))
            s = inst._distance(x, x_next)
        except NonFiniteError:
            return "overflow", iterates, steps
        if not all(math.isfinite(c * factor) for c in s.coords):
            return "overflow", iterates, steps
        iterates.append(x_next)
        steps.append(s)
        x = x_next
        if all(c * factor < t for c, t in zip(s.coords, stop)):
            return "stop_c", iterates, steps
    return "max_iter", iterates, steps


def counting_distances():
    """Patch ``WeightedConeMetric._distance`` to log each call's points."""
    calls = []
    measure = WeightedConeMetric._distance

    def counted(self, x, y):
        calls.append((x, y))
        return measure(self, x, y)

    return calls, mock.patch.object(WeightedConeMetric, "_distance", counted)


def flips_at(threshold):
    """Halve coordinate 0; negate coordinate 1 once coordinate 0 drops below
    ``threshold``, so a run meets one large step after many small ones."""
    def step(x):
        return (x[0] / 2, -x[1] if abs(x[0]) < threshold else x[1])

    return step


class TestMeasuredOnlyAsRead:
    """A λ-given real run with no noise-floor test builds no step while one
    ``math.dist`` pass rules out overflow; past 2**1000 it measures the step
    exactly, as a run over any other metric measures every step.  Each ends
    as the loop that builds every step."""

    @pytest.mark.parametrize(
        "kw, halt, kept",
        [
            # Steps of 2**1002, 2**1001, 2**1000 and 2**999, times 2 = 1 + the
            # factor 1 of lam 0.5, meet the margin; every later step is small.
            (dict(x0=(2.0**1003,), max_iter=1100), "stop_c", None),
            # Coordinate 1 flips from 1e308 to -1e308: the step overflows.
            (dict(map_fn=flips_at(1e-3), x0=(1.0, 1e308), metric=W2, gauge=G2,
                  stop_c=Vec([1e-10, 1e-10])), "overflow", 11),
            # The step 2e297 is finite; times the factor ~1e12 of lam near 1,
            # its bound overflows.
            (dict(map_fn=flips_at(1e-3), x0=(1.0, 1e297), metric=W2, gauge=G2,
                  stop_c=Vec([1e-10, 1e-10]), lam=LAMBDA_CEILING), "overflow", 11),
            # A weight of 1e300 on finite differences: the first steps are
            # measured exactly and do not overflow, ...
            (dict(x0=(100.0, 1.0), metric=WeightedConeMetric([1e300, 1.0]), gauge=G2,
                  stop_c=Vec([1e-10, 1e-10]), max_iter=1100), "stop_c", None),
            # ... and the first step of 1e300 * 5e9 does.
            (dict(x0=(1e10,), metric=WeightedConeMetric([1e300])), "overflow", 1),
            # Built steps of other metrics: a complex step of 2e297 whose
            # bound overflows under lam near 1, ...
            (dict(map_fn=flips_at(1e-3), x0=(1 + 0j, 1e297 + 0j), gauge=G2,
                  metric=WeightedConeMetric([1.0, 1.0], "complex"),
                  stop_c=Vec([1e-10, 1e-10]), lam=LAMBDA_CEILING), "overflow", 11),
            # ... a complex run and a plus-metric run that halt at stop_c.
            (dict(x0=(1 + 1j,), metric=WeightedConeMetric([1.0], "complex")), "stop_c", None),
            (dict(map_fn=halve_plus, x0=Vec([1.0]), metric=PlusConeMetric(1)), "stop_c", None),
        ],
        ids=["near-range", "step-overflows", "bound-overflows", "weight-goes-on", "weight-overflows",
             "complex-bound-overflows", "complex-stop-c", "plus"],
    )
    def test_same_end_as_the_loop_that_builds_every_step(self, kw, halt, kept):
        p = halve_problem(**kw)
        ref_halt, iterates, steps = exact_step_run(p)
        with mock.patch.object(picard, "_build_certificate", lambda p, trace, gauges: None):
            result = run_picard(p)
        assert (result.halt, ref_halt) == (halt, halt)
        assert kept is None or len(iterates) == kept
        assert point_hexes(result.trace.iterates) == point_hexes(iterates)
        assert hexes(result.trace.step_dists) == hexes(steps)

    def test_steps_near_the_float_range_are_measured_exactly(self):
        """Only the steps whose distance times max(a) * (1 + factor) reaches
        2**1000 are built during the run: the first four from 2**1003."""
        p = halve_problem(x0=(2.0**1003,), max_iter=1100)
        calls, patch = counting_distances()
        with patch, mock.patch.object(picard, "_build_certificate", lambda p, trace, gauges: None):
            result = run_picard(p)
        assert result.halt == "stop_c" and len(result.trace.iterates) > 1000
        assert [abs(x[0] - y[0]) for x, y in calls] == [2.0**1002, 2.0**1001, 2.0**1000, 2.0**999]

    def test_a_given_run_measures_a_handful_of_steps(self):
        """The λ-given n=200 problem of the layer benchmarks keeps 217
        iterates.  The run measures no step; its certificate measures the
        first and the last, the last pair in its step check (which fails
        there) and the residual: 5 of 216 steps, not every one."""
        n = 200
        diag = [0.5 + (k % 40) / 100 for k in range(n)]
        offset = [0.1 + (k % 9) / 10 for k in range(n)]
        p = diagonal_problem(diag, offset, [0.0] * n, 0.9, [1e-10] * n, max_iter=1000)
        calls, patch = counting_distances()
        with patch:
            result = run_picard(p)
        assert (result.halt, len(result.trace.iterates)) == ("stop_c", 217)
        assert len(calls) <= 10, len(calls)

    @pytest.mark.parametrize("lam", [None, 0.9], ids=["estimated", "stalled"])
    def test_a_run_that_gauges_its_steps_builds_each_and_keeps_none(self, lam):
        """An estimated factor or a noise-floor test reads each step's gauge."""
        p = halve_problem(map_fn=StallWhen(halve, lambda z, s: False, []), lam=lam)
        calls, patch = counting_distances()
        with patch, mock.patch.object(picard, "_build_certificate", lambda p, trace, gauges: None):
            result = run_picard(p)
        steps = result.trace.step_dists
        assert result.halt == "stop_c" and type(steps) is picard._StepView
        assert len(calls) == len(steps) > 30


# -- trace.csv bytes against the csv.writer loop it replaced --


def csv_writer_trace(fh, trace):
    """The csv.writer table of the points, as first written less its step
    cells."""
    inst = trace.metric
    fmt = lambda v: format(float(v), ".17g")  # noqa: E731
    complex_field = isinstance(inst, WeightedConeMetric) and inst.field == "complex"
    writer = csv.writer(fh, lineterminator="\n")
    width = len(tuple(trace.iterates[0]))
    if complex_field:
        header = [f"x{j}_{part}" for j in range(width) for part in ("re", "im")]
    else:
        header = [f"x{j}" for j in range(width)]
    writer.writerow(["iter"] + header)
    for n, point in enumerate(trace.iterates):
        row = [str(n)]
        for c in point:
            row += [fmt(c.real), fmt(c.imag)] if complex_field else [fmt(c)]
        writer.writerow(row)


def written(writer, trace):
    """Text written and the error raised, if any (rows before it stay)."""
    buf = io.StringIO()
    try:
        writer(buf, trace)
    except Exception as exc:
        return buf.getvalue(), type(exc), str(exc)
    return buf.getvalue(), None, None


def synthetic_trace(field, points):
    return IterationTrace(points, WeightedConeMetric([1.0] * len(points[0]), field=field))


def tail_certificate(trace, start, lam):
    """A certificate over the trace's steps from ``start`` on."""
    return Certificate(
        lambda_used=lam,
        lambda_source="given",
        steps=trace.step_dists[start:],
        status="heuristic",
        residual=None,
        start=start,
    )


@st.composite
def synthetic_traces(draw):
    field = draw(st.sampled_from(["real", "complex"]))
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 5))
    if field == "real":
        coord = any_float
    else:
        coord = st.builds(complex, any_float, any_float)
    points = draw(st.lists(st.tuples(*[coord] * m), min_size=k + 1, max_size=k + 1))
    return synthetic_trace(field, points)


class TestTraceCsvBytes:
    VALUES = [-0.0, 5e-324, 1e308, 1 / 3]

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("start", [None, 0, 2])
    def test_edge_values(self, field, start):
        v = self.VALUES
        rotations = [v[i:] + v[:i] for i in range(4)] * 2
        if field == "real":
            points = [tuple(r) for r in rotations]
        else:
            points = [tuple(complex(a, b) for a, b in zip(r, v[::-1])) for r in rotations]
        trace = synthetic_trace(field, points)
        text, error, _ = written(write_trace_csv, trace)
        assert error is None
        assert written(csv_writer_trace, trace) == (text, None, None)
        header, *rows = [line.split(",") for line in text.splitlines()]
        width = 4 if field == "real" else 8
        assert len(header) == 1 + width  # points only: no step or bound columns
        assert all(len(row) == 1 + width for row in rows)
        if start is None:
            return
        # The bounds stay in the library, and the steps rebuilt from the
        # table's rows rebuild every entry, from row ``start`` on.
        points = trace_csv_points(text)
        read = [trace.metric._distance(a, b) for a, b in zip(points, points[1:])]
        assert [bits(s) for s in read] == [bits(s) for s in trace.step_dists]
        cert = tail_certificate(trace, start, 0.25)
        for name, ref in eager_families(read[start:], 0.25).items():
            assert [bits(e) for e in getattr(cert, name)] == [bits(e) for e in ref]
        # apriori bounds rows start..last, apost_backward rows start+1..last.
        assert len(cert.apriori) == len(rows) - start
        assert len(cert.apost_backward) == len(rows) - start - 1

    def test_overflowing_bound_leaves_the_table_whole(self):
        """The table holds no bounds, so an entry that overflows stops no row."""
        trace = synthetic_trace("real", [(0.0,), (1e308,), (0.0,)])
        with pytest.raises(NonFiniteError, match="non-finite coordinate: inf"):
            tail_certificate(trace, 0, 0.75).apriori[0]
        text, error, _ = written(write_trace_csv, trace)
        assert error is None
        assert text.splitlines()[1:] == ["0,0", "1,1e+308", "2,0"]
        assert written(csv_writer_trace, trace) == (text, None, None)

    def test_points_that_are_not_floats(self):
        """Point coordinates go through float() first, as with format().  A
        discrete metric's points can change width, but the table has one:
        a row that does not fit it raises, the rows before it written."""
        inst = DiscreteConeMetric(Vec([1.0, 1.0]))
        points = [(1, Fraction(1, 3)), ("0.5", True), ("-0", 2**60)]
        trace = IterationTrace(points, inst)
        text, error, _ = written(write_trace_csv, trace)
        assert error is None and text.splitlines()[1] == "0,1,0.33333333333333331"
        assert written(csv_writer_trace, trace) == (text, None, None)
        for ragged in ([(1.0, 2.0, 3.0), (0.5,)], [(0.5,), (1.0, 2.0, 3.0)]):
            text, error, _ = written(write_trace_csv, IterationTrace(ragged, inst))
            assert error is TypeError
            assert text == written(csv_writer_trace, IterationTrace(ragged[:1], inst))[0]
        bad = IterationTrace([("x", 1.0)], inst)
        assert written(write_trace_csv, bad) == written(csv_writer_trace, bad)

    @settings(max_examples=400, deadline=None)
    @given(synthetic_traces())
    def test_same_bytes_as_the_csv_writer_loop(self, trace):
        assert written(write_trace_csv, trace) == written(csv_writer_trace, trace)


def test_library_runs_match_the_golden_engine_digest():
    """Every halt, iterate and step bit and every certificate of the
    benchmark's picard-wide and roots-batch units, seeds 1-2, rounds 0-1,
    under one sha256 (``tests/engine_digest.py``), against that script's
    golden digest."""
    from engine_digest import GOLDEN, UNITS, engine_digest

    assert engine_digest() == (GOLDEN, UNITS)


@pytest.mark.parametrize("python", other_pythons())
def test_engine_digest_script_on_other_pythons(python):
    """The digest script, run as a plain script by another interpreter, finds
    the same golden digest: the engine decides alike on every Python."""
    proc = run_script(python, "engine_digest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
