import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert.gauge import GaugeNorm
from conecert.metrics import Ball, WeightedConeMetric
from conecert.picard import (
    LAMBDA_CEILING,
    DomainEscape,
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
from conecert.solid import NonFiniteError, SpaceSpec, Vec, leq

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
        t = self.make_trace([1.0, 0.5, 0.25])
        assert estimate_lambda(t, G1) == 0.5
        assert estimate_lambda(self.make_trace([1.0, 0.0, 0.0]), G1) == 0.0
        assert estimate_lambda(self.make_trace([1.0, 2.0]), G1) == 2.0

    def test_estimate_errors(self):
        with pytest.raises(ValueError):
            estimate_lambda(self.make_trace([1.0]), G1)
        with pytest.raises(ValueError):
            estimate_lambda(self.make_trace([0.0, 0.0]), G1)


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
        assert cert.lambda_used == 0.0
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
        with pytest.raises(DomainEscape) as exc_info:
            run_picard(p)
        trace = exc_info.value.trace
        assert trace.iterates[-1] == (3.0,)

    def test_start_outside_domain(self):
        ball = Ball(center=(10.0,), radius=Vec([1.0]), closed=True)
        with pytest.raises(ValueError):
            run_picard(halve_problem(domain=ball))

    def test_max_iter_without_convergence(self):
        p = halve_problem(map_fn=lambda x: (2.0 * x[0],), lam=None, max_iter=20)
        result = run_picard(p)
        assert not result.converged
        assert result.fixed_point is None
        assert result.certificate is None  # expanding trace: factor >= 1
        assert len(result.trace.step_dists) == 20

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


class TestEngineBoundary:
    @pytest.mark.parametrize("lam", [0.5, None])
    def test_each_point_validated_once(self, lam):
        inst = CountingMetric([1.0, 1.0])
        result = run_picard(affine_problem(metric=inst, lam=lam))
        k = len(result.trace.step_dists)
        assert result.converged and k > 10
        # x0, one per map output, and the two points of the final residual.
        assert inst.validations <= k + 3

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
        assert result.fixed_point is None
        assert len(result.trace.step_dists) == steps
        assert len(result.trace.iterates) == steps + 1
        assert all(math.isfinite(x[0]) for x in result.trace.iterates)

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
        cert, eager = self.certificate(case)
        expected = {
            "lambda_used": cert.lambda_used,
            "lambda_source": cert.lambda_source,
            "radius_r": list(cert.radius_r.coords),
            **{name: [list(v.coords) for v in ref] for name, ref in eager.items()},
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
            write_trace_csv(buf, result.trace, result.certificate, W1)
            buffers.append(buf.getvalue())
        assert buffers[0] == buffers[1]
        lines = buffers[0].splitlines()
        assert lines[0] == "iter,x0,step_d0,apriori_0,apost_fwd_0,apost_bwd_0"
        assert lines[1].startswith("0,1,0.5,1,1,")
        assert len(lines) == len(result.trace.iterates) + 1

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
        write_trace_csv(buf, result.trace, result.certificate, inst)
        header = buf.getvalue().splitlines()[0]
        assert header.startswith("iter,x0_re,x0_im,step_d0")
