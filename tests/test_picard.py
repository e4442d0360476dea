import csv
import io
import json
import math
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert import picard
from conecert.gauge import GaugeNorm
from conecert.metrics import Ball, DiscreteConeMetric, WeightedConeMetric
from conecert.picard import (
    LAMBDA_CEILING,
    Certificate,
    IterationTrace,
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
from conecert.roots import Polynomial, solve_roots
from conecert.solid import NonFiniteError, SpaceSpec, Vec, leq, lt

from helpers import geometric_tail

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

    def test_problem_fields_stay_assignable(self):
        p = halve_problem()
        p.max_iter = 3
        assert run_picard(p).halt == "max_iter"

    def test_traces_do_not_share_lists(self):
        a, b = IterationTrace(), IterationTrace()
        a.iterates.append((1.0,))
        a.step_dists.append(ONES)
        assert (b.iterates, b.step_dists) == ([], [])
        assert IterationTrace() == b

    def test_certificate_start_defaults_to_zero(self):
        cert = Certificate(0.5, "given", ONES, [ONES], "certified", None)
        assert cert.start == 0
        assert cert == Certificate(0.5, "given", ONES, [ONES], "certified", None, start=0)
        assert cert != Certificate(0.5, "given", ONES, [ONES], "certified", None, start=1)

    def test_results_compare_field_wise_and_are_unhashable(self):
        a, b = run_picard(halve_problem()), run_picard(halve_problem())
        assert a == b and a.certificate == b.certificate and a.trace == b.trace
        assert a != run_picard(halve_problem(max_iter=3))
        with pytest.raises(TypeError):
            hash(a)

    def test_repr_names_the_class_and_fields(self):
        trace = IterationTrace([(1.0,)], [Vec([0.5])])
        assert repr(trace) == "IterationTrace(iterates=[(1.0,)], step_dists=[Vec([0.5])])"
        text = repr(run_picard(halve_problem()))
        assert text.startswith("PicardResult(trace=IterationTrace(iterates=[(1.0,), (0.5,)")
        assert "certificate=Certificate(lambda_used=0.5, lambda_source='given'" in text
        assert text.endswith("converged=True, halt='stop_c')")


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


class TestStepChecks:
    def make_trace(self, steps):
        t = IterationTrace()
        t.step_dists = [Vec([s]) for s in steps]
        t.iterates = [(0.0,)] * (len(steps) + 1)
        return t

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
        # A zero last step contracts from its own index: the run hit its fixed point.
        assert estimate_lambda(self.make_trace([0.0]), G1) == (0, 0.0)
        # A non-contracting prefix is cut off; the factor is the tail's largest ratio.
        assert estimate_lambda(self.make_trace([1.0, 2.0, 1.0, 0.25]), G1) == (1, 0.5)
        assert estimate_lambda(self.make_trace([1.0, 0.0, 1.0, 0.5]), G1) == (2, 0.5)

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
        with pytest.raises(ValueError):
            run_picard(halve_problem(domain=ball))

    def test_max_iter_without_convergence(self):
        p = halve_problem(map_fn=lambda x: (2.0 * x[0],), lam=None, max_iter=20)
        result = run_picard(p)
        assert not result.converged
        assert result.halt == "max_iter"
        assert result.fixed_point is None
        assert result.certificate is None  # expanding trace: factor >= 1
        assert len(result.trace.step_dists) == 20

    def test_stalled_ends_the_run_at_the_noise_floor(self):
        p = halve_problem(map_fn=lambda x: (0.9 * x[0] + 1.0,), lam=None)
        result = run_picard(p, stalled=lambda trace: len(trace.step_dists) == 5)
        assert result.converged
        assert result.halt == "noise_floor"
        assert len(result.trace.step_dists) == 5
        assert result.fixed_point == result.trace.iterates[-1]

    def test_stalled_is_asked_only_after_the_stop_c_test_fails(self):
        seen = []

        def stalled(trace):
            seen.append(len(trace.step_dists))
            return False

        plain = run_picard(halve_problem())
        result = run_picard(halve_problem(), stalled=stalled)
        k = len(result.trace.step_dists)
        assert seen == list(range(1, k))
        assert result.halt == "stop_c"
        assert result.trace == plain.trace

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


class CountingMetric(WeightedConeMetric):
    def __init__(self, alpha):
        super().__init__(alpha)
        self.validations = 0

    def validate_point(self, p):
        self.validations += 1
        return super().validate_point(p)


class RecordingMetric(CountingMetric):
    def __init__(self, alpha):
        super().__init__(alpha)
        self.points = []

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
        # x0, one per map output, and the two points of the final residual.
        assert inst.validations <= k + 3

    @pytest.mark.parametrize("max_iter", [3, 30])
    def test_ball_center_validated_once_per_run(self, max_iter):
        inst = RecordingMetric([1.0])
        ball = Ball([-5], Vec([10.0]))
        result = run_picard(halve_problem(metric=inst, domain=ball, max_iter=max_iter))
        k = len(result.trace.step_dists)
        assert (result.halt, k) == ("max_iter", max_iter)
        # The iterates stay positive, so only the center equals -5.
        assert inst.points.count((-5.0,)) == 1
        # The center when the problem is built, x0 at the start and in the
        # domain check, one per map output, and the final residual's two.
        assert inst.validations == k + 5

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


class TestTraceCsv:
    def test_structure_and_determinism(self):
        result = run_picard(halve_problem(max_iter=6, stop_c=Vec([0.02])))
        buffers = []
        for _ in range(2):
            buf = io.StringIO()
            write_trace_csv(buf, result.trace, W1)
            buffers.append(buf.getvalue())
        assert buffers[0] == buffers[1]
        lines = buffers[0].splitlines()
        assert lines[0] == "iter,x0,step_d0"
        assert lines[1] == "0,1,0.5"
        assert lines[-1].endswith(",")  # no step leaves the last iterate
        assert len(lines) == len(result.trace.iterates) + 1
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
        write_trace_csv(buf, result.trace, inst)
        header = buf.getvalue().splitlines()[0]
        assert header == "iter,x0_re,x0_im,step_d0"


# -- halting and step-contraction decisions against the per-iteration forms --

# Finite floats across the whole range, with the values where rounding and
# overflow decide: signed zero, the smallest subnormal, the largest decades.
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 1e-300, 1 / 3, 1.0, 1e297, 1e300, 1e308])
any_float = EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)
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


def same_outcome(p):
    """Same iterates and convergence from run_picard and the per-iteration
    loop.  The certificate is left out: one whose radius overflows turns any
    halt into ``overflow``, whatever the halting rule decided."""
    iterates, converged = per_iteration_run(p)
    with mock.patch.object(picard, "_build_certificate", lambda p, trace: None):
        result = run_picard(p)
    assert repr(result.trace.iterates) == repr(iterates)
    assert result.converged is converged
    return iterates, converged


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
                st.lists(any_float.map(abs), min_size=n, max_size=n), min_size=2, max_size=6
            )
        ),
        factor,
    )
    def test_step_contraction_matches_leq_of_scaled_steps(self, steps, lam):
        trace = IterationTrace(step_dists=[Vec(s) for s in steps])
        vecs = trace.step_dists
        expected = all(leq(vecs[k + 1], lam * vecs[k]) for k in range(len(vecs) - 1))
        assert verify_step_contraction(trace, lam) is expected

    @pytest.mark.parametrize("second", [Vec([1.0, 1.0]), (1.0,)])
    def test_step_contraction_rejects_operands_as_leq_does(self, second):
        trace = IterationTrace(step_dists=[Vec([1.0]), second])
        with pytest.raises((TypeError, ValueError)) as new:
            verify_step_contraction(trace, 0.5)
        with pytest.raises(type(new.value)) as old:
            leq(second, 0.5 * Vec([1.0]))
        assert str(new.value) == str(old.value)


# -- trace.csv bytes against the csv.writer loop it replaced --


def csv_writer_trace(fh, trace, inst):
    """The csv.writer table of points and steps, as first written."""
    fmt = lambda v: format(float(v), ".17g")  # noqa: E731
    complex_field = isinstance(inst, WeightedConeMetric) and inst.field == "complex"
    writer = csv.writer(fh, lineterminator="\n")
    width = len(tuple(trace.iterates[0]))
    if complex_field:
        header = [f"x{j}_{part}" for j in range(width) for part in ("re", "im")]
    else:
        header = [f"x{j}" for j in range(width)]
    header += [f"step_d{j}" for j in range(inst.dim)]
    writer.writerow(["iter"] + header)
    steps = trace.step_dists
    for n, point in enumerate(trace.iterates):
        row = [str(n)]
        for c in point:
            row += [fmt(c.real), fmt(c.imag)] if complex_field else [fmt(c)]
        row += [fmt(c) for c in steps[n]] if n < len(steps) else [""] * inst.dim
        writer.writerow(row)


def written(writer, trace, inst):
    """Text written and the error raised, if any (rows before it stay)."""
    buf = io.StringIO()
    try:
        writer(buf, trace, inst)
    except Exception as exc:
        return buf.getvalue(), type(exc), str(exc)
    return buf.getvalue(), None, None


def synthetic_trace(field, points, steps):
    inst = WeightedConeMetric([1.0] * len(steps[0]), field=field)
    return IterationTrace(iterates=points, step_dists=[Vec(s) for s in steps]), inst


def tail_certificate(trace, start, lam):
    """A certificate over the trace's steps from ``start`` on."""
    return Certificate(
        lambda_used=lam,
        lambda_source="given",
        radius_r=Vec([1.0] * len(trace.step_dists[0])),
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
    steps = draw(st.lists(st.lists(any_float, min_size=m, max_size=m), min_size=k, max_size=k))
    return synthetic_trace(field, points, steps)


class TestTraceCsvBytes:
    VALUES = [-0.0, 5e-324, 1e308, 1 / 3]

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("start", [None, 0, 2])
    def test_edge_values(self, field, start):
        v = self.VALUES
        if field == "real":
            points = [tuple(v[i:] + v[:i]) for i in range(4)] * 2
        else:
            points = [tuple(complex(a, b) for a, b in zip(v, v[::-1]))] * 8
        steps = [[abs(c) for c in v[i:] + v[:i]] for i in range(7)]
        trace, inst = synthetic_trace(field, points, steps)
        text, error, _ = written(write_trace_csv, trace, inst)
        assert error is None
        assert written(csv_writer_trace, trace, inst) == (text, None, None)
        header, *rows = [line.split(",") for line in text.splitlines()]
        m, width = 4, 4 if field == "real" else 8
        assert len(header) == 1 + width + m  # points and steps, no bound columns
        assert rows[-1][1 + width :] == [""] * m  # no step after the last iterate
        if start is None:
            return
        # The bounds stay in the library, and the step cells read back from
        # the table rebuild every entry, from row ``start`` on.
        read = [Vec([float(c) for c in row[1 + width :]]) for row in rows[:-1]]
        assert [bits(s) for s in read] == [bits(s) for s in trace.step_dists]
        cert = tail_certificate(trace, start, 0.25)
        for name, ref in eager_families(read[start:], 0.25).items():
            assert [bits(e) for e in getattr(cert, name)] == [bits(e) for e in ref]
        # apriori bounds rows start..last, apost_backward rows start+1..last.
        assert len(cert.apriori) == len(rows) - start
        assert len(cert.apost_backward) == len(rows) - start - 1

    def test_overflowing_bound_leaves_the_table_whole(self):
        """The table holds no bounds, so an entry that overflows stops no row."""
        trace, inst = synthetic_trace("real", [(0.0,)] * 3, [[1e308], [1e308]])
        with pytest.raises(NonFiniteError, match="non-finite coordinate: inf"):
            tail_certificate(trace, 0, 0.75).apriori[0]
        text, error, _ = written(write_trace_csv, trace, inst)
        assert error is None
        assert text.splitlines()[1:] == ["0,0,1e+308", "1,0,1e+308", "2,0,"]
        assert written(csv_writer_trace, trace, inst) == (text, None, None)

    def test_points_that_are_not_floats(self):
        """Point coordinates go through float() first, as with format().  A
        discrete metric's points can change width, and each row keeps its own."""
        inst = DiscreteConeMetric(Vec([1.0, 1.0]))
        points = [(1, Fraction(1, 3)), ("0.5", True), ("-0", 2**60)]
        trace = IterationTrace(iterates=points, step_dists=[Vec([1.0, 1.0])] * 2)
        text, error, _ = written(write_trace_csv, trace, inst)
        assert error is None and text.splitlines()[1] == "0,1,0.33333333333333331,1,1"
        assert written(csv_writer_trace, trace, inst) == (text, None, None)
        ragged = IterationTrace(iterates=[(1.0, 2.0, 3.0), (0.5,)], step_dists=[Vec([1.0, 1.0])])
        text, error, _ = written(write_trace_csv, ragged, inst)
        assert error is None and text.splitlines()[1:] == ["0,1,2,3,1,1", "1,0.5,,"]
        assert written(csv_writer_trace, ragged, inst) == (text, None, None)
        bad = IterationTrace(iterates=[("x", 1.0)], step_dists=[])
        assert written(write_trace_csv, bad, inst) == written(csv_writer_trace, bad, inst)

    @settings(max_examples=400, deadline=None)
    @given(synthetic_traces())
    def test_same_bytes_as_the_csv_writer_loop(self, case):
        trace, inst = case
        assert written(write_trace_csv, trace, inst) == written(csv_writer_trace, trace, inst)
