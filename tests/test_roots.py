import cmath
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert.gauge import GaugeNorm
from conecert.metrics import WeightedConeMetric
from conecert.picard import (
    IterationTrace,
    PicardResult,
    Problem,
    apost_forward_bound,
    run_picard,
    verify_step_contraction,
)
from conecert.roots import (
    ComparisonReport,
    Polynomial,
    _discs_disjoint,
    as_root_vector,
    compare_bounds,
    default_starts,
    solve_roots,
    weierstrass_map,
    weierstrass_step,
)
from conecert.solid import NonFiniteError, SpaceSpec, Vec, leq

from helpers import greedy_match, poly_from_roots

CUBIC = Polynomial([-6.0, 11.0, -6.0, 1.0])  # roots 1, 2, 3
QUAD_REAL = Polynomial([-1.0, 0.0, 1.0])  # roots 1, -1
QUAD_IMAG = Polynomial([1.0, 0.0, 1.0])  # roots i, -i


class TestPolynomial:
    def test_monic_normalization(self):
        p = Polynomial([2.0, 0.0, 2.0])
        assert p.coefficients == (1.0, 0.0, 1.0)

    def test_trailing_zeros_stripped(self):
        assert Polynomial([-1.0, 0.0, 1.0, 0.0, 0.0]).degree == 2

    def test_degree_floor(self):
        with pytest.raises(ValueError):
            Polynomial([5.0])
        with pytest.raises(ValueError):
            Polynomial([3.0, 0.0, 0.0])

    def test_finite_coefficients(self):
        with pytest.raises(ValueError):
            Polynomial([float("nan"), 1.0])

    def test_evaluation(self):
        assert QUAD_REAL(2.0) == 3.0
        assert QUAD_IMAG(1j) == 0.0
        assert CUBIC(2.0) == 0.0


class TestRootVector:
    def test_accepts_distinct(self):
        assert as_root_vector([1, 2.0, 3j]) == (1 + 0j, 2 + 0j, 3j)

    def test_rejects_coincident(self):
        with pytest.raises(ValueError):
            as_root_vector([1.0, 2.0, 1.0])

    def test_names_the_first_coincident_pair(self):
        with pytest.raises(ValueError, match="^coincident entries at positions 0 and 2$"):
            as_root_vector([1, 2, 1])

    def test_signed_zeros_coincide(self):
        with pytest.raises(ValueError, match="^coincident entries at positions 0 and 1$"):
            as_root_vector([0j, complex(-0.0, 0.0)])

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            as_root_vector([])
        with pytest.raises(ValueError):
            as_root_vector([1.0, complex(float("inf"), 0.0)])


class TestWeierstrassStep:
    def test_degree_one_in_one_step(self):
        p = Polynomial([-3.0, 1.0])
        assert weierstrass_step(p, [10 + 2j]) == (3 + 0j,)

    def test_frozen_quadratic_example(self):
        # p(2) = 3, denominator 2 - (-2) = 4: exact dyadics throughout.
        assert weierstrass_step(QUAD_REAL, [2.0, -2.0]) == (1.25, -1.25)

    def test_exact_roots_are_fixed(self):
        assert weierstrass_step(CUBIC, [1.0, 2.0, 3.0]) == (1 + 0j, 2 + 0j, 3 + 0j)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weierstrass_step(CUBIC, [1.0, 2.0])

    def test_coincident_entries(self):
        with pytest.raises(ValueError):
            weierstrass_step(QUAD_REAL, [2.0, 2.0])

    def test_overflow(self):
        with pytest.raises(ArithmeticError):
            weierstrass_step(QUAD_REAL, [1e200, 0.0])

    def test_overflow_is_non_finite_and_arithmetic(self):
        with pytest.raises(NonFiniteError, match="^update overflowed at position 0$") as info:
            weierstrass_step(QUAD_REAL, [1e200, 0.0])
        assert isinstance(info.value, ArithmeticError)

    def test_map_is_the_sweep(self):
        z = (1.3 + 0.1j, 1.8, 3.4)
        assert weierstrass_map(CUBIC)(z) == weierstrass_step(CUBIC, z)

    def test_map_reports_an_underflowed_denominator_as_non_finite(self):
        # Distinct entries whose differences multiply to zero.
        z = (0j, 1e-200 + 0j, 2e-200 + 0j)
        for sweep in (weierstrass_map(CUBIC), lambda z: weierstrass_step(CUBIC, z)):
            with pytest.raises(NonFiniteError, match="^zero denominator at position 0$") as info:
                sweep(z)
            assert isinstance(info.value, ArithmeticError)

    def test_map_reports_coincident_approximations_as_non_finite(self):
        # Around the double root 1, one sweep moves 0 onto the other start.
        double = Polynomial([1.0, -2.0, 1.0])
        z = weierstrass_map(double)((1 + 0j, 0j))
        assert z == (1 + 0j, 1 + 0j)
        # The sweep reports the zero denominator itself, and the map passes
        # it on; it is still a ValueError to a direct caller.
        for sweep in (weierstrass_map(double), lambda z: weierstrass_step(double, z)):
            with pytest.raises(ValueError, match="^zero denominator at position 0$") as info:
                sweep(z)
            assert isinstance(info.value, NonFiniteError)
        # Other input errors still raise as the sweep does.
        with pytest.raises(ValueError, match="3 approximations for degree 2"):
            weierstrass_map(double)((1.0, 2.0, 3.0))

    @settings(max_examples=100)
    @given(
        st.lists(
            st.tuples(st.integers(-256, 256), st.integers(-256, 256)),
            min_size=3,
            max_size=3,
            unique=True,
        )
    )
    def test_permutation_equivariance_exact(self, entries):
        z = tuple(complex(a / 64.0, b / 64.0) for a, b in entries)
        base = weierstrass_step(CUBIC, z)
        for perm in itertools.permutations(range(3)):
            permuted = tuple(z[i] for i in perm)
            expect = tuple(base[i] for i in perm)
            assert weierstrass_step(CUBIC, permuted) == expect


def per_root_sort_step(p, z):
    """The sweep as first written: one sort of the other entries per root.

    Kept as the reference the one-sort kernel must match bit for bit; only
    the errors are the kernel's: a zero denominator and an overflowing update
    raise ``NonFiniteError``.
    """
    z = tuple(map(complex, z))
    if len(z) != p.degree:
        raise ValueError(f"{len(z)} approximations for degree {p.degree}")
    out = []
    for i, zi in enumerate(z):
        others = sorted(
            (z[j] for j in range(len(z)) if j != i), key=lambda w: (w.real, w.imag)
        )
        denom = 1 + 0j
        for w in others:
            denom *= zi - w
        if not denom:
            raise NonFiniteError(f"zero denominator at position {i}")
        wi = zi - p(zi) / denom
        if not cmath.isfinite(wi):
            raise NonFiniteError(f"update overflowed at position {i}")
        out.append(wi)
    return tuple(out)


def outcome(step, p, z):
    """repr of the sweep (so signed zeros count), or the error's type and text."""
    try:
        return repr(step(p, z))
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@st.composite
def sweep_inputs(draw):
    """A monic polynomial and approximations of degree 1-12.

    Parts mix signed zeros and small exact values with magnitudes from 1e-300
    up to a per-example ceiling of at most 1e150.  The exact pool makes equal
    real parts (ties broken by the imaginary part) and coincident entries
    common; real-line examples give signed-zero imaginary parts.
    """
    n = draw(st.integers(1, 12))
    top = draw(st.sampled_from([1.0, 1e3, 1e20, 1e150]))
    magnitude = st.floats(min_value=1e-300, max_value=top)
    real = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e-300]),
        magnitude,
        magnitude.map(lambda m: -m),
    )
    imag = st.sampled_from([0.0, -0.0]) if draw(st.booleans()) else real
    entry = st.builds(complex, real, imag)
    coeffs = draw(st.lists(entry, min_size=n, max_size=n)) + [1.0]
    return Polynomial(coeffs), draw(st.lists(entry, min_size=n, max_size=n))


class TestOneSortKernel:
    @settings(max_examples=400)
    @given(sweep_inputs())
    def test_bit_identical_to_per_root_sort(self, inputs):
        p, z = inputs
        assert outcome(weierstrass_step, p, z) == outcome(per_root_sort_step, p, z)


class TestDefaultStarts:
    def test_circle_and_distinctness(self):
        starts = default_starts(CUBIC)
        assert len(starts) == 3
        assert len(set(starts)) == 3
        r = 1.0 + 11.0
        for z in starts:
            assert abs(z) == pytest.approx(r, rel=1e-12)

    def test_deterministic(self):
        assert default_starts(CUBIC) == default_starts(CUBIC)

    def test_off_axis_for_real_rooted(self):
        for z in default_starts(QUAD_REAL):
            assert z.imag != 0.0


class TestSolveRoots:
    def test_real_quadratic(self):
        result = solve_roots(QUAD_REAL, z0=(2.0, -2.0))
        assert result.converged
        order = greedy_match(result.roots, [1.0, -1.0])
        targets = [[1.0, -1.0][j] for j in order]
        for z, t in zip(result.roots, targets):
            assert abs(z - t) <= 1e-10
        assert all(r <= 2e-8 for r in result.residuals)
        assert not result.report.any_exceeded

    def test_imaginary_pair(self):
        result = solve_roots(QUAD_IMAG, z0=(1 + 1j, -1 - 1j))
        order = greedy_match(result.roots, [1j, -1j])
        targets = [[1j, -1j][j] for j in order]
        for z, t in zip(result.roots, targets):
            assert abs(z - t) <= 1e-8

    def test_cubic_from_perturbed_roots(self):
        result = solve_roots(CUBIC, z0=(1.3, 1.8, 3.4))
        assert result.converged
        order = greedy_match(result.roots, [1.0, 2.0, 3.0])
        assert sorted(order) == [0, 1, 2]
        for z, j in zip(result.roots, order):
            assert abs(z - [1.0, 2.0, 3.0][j]) <= 1e-8

    def test_degree_one(self):
        result = solve_roots(Polynomial([-5.0, 1.0]))
        assert result.converged
        assert abs(result.roots[0] - 5.0) <= 1e-12

    def test_default_starts_used(self):
        result = solve_roots(CUBIC)
        assert result.converged
        matched = greedy_match(result.roots, [1.0, 2.0, 3.0])
        assert sorted(matched) == [0, 1, 2]

    def test_no_convergence_path(self):
        result = solve_roots(CUBIC, z0=(50.0, 60.0, 70.0), max_iter=1)
        assert not result.converged
        assert result.halt == "max_iter"
        assert result.roots is None
        assert result.residuals is None
        assert result.certificate is None
        assert result.lambda_used is None
        assert result.report.rows == []

    def test_overflow_cubic_ends_unconverged(self):
        # Default starts of radius 1 + 1e200: the first correction overflows.
        result = solve_roots(Polynomial([1e200, 0.0, 0.0, 1.0]))
        assert result.converged is False
        assert result.halt == "overflow"
        assert result.roots is None
        assert result.residuals is None
        assert result.certificate is None
        assert len(result.trace.iterates) == 1
        assert result.trace.step_dists == []

    def test_underflowed_denominator_ends_unconverged(self):
        result = solve_roots(CUBIC, z0=(0j, 1e-200 + 0j, 2e-200 + 0j))
        assert result.converged is False
        assert result.roots is None
        assert result.certificate is None
        assert len(result.trace.iterates) == 1

    def test_colliding_iterates_end_unconverged(self):
        result = solve_roots(Polynomial([1.0, -2.0, 1.0]), z0=(1.0, 0.0))
        assert (result.converged, result.halt) == (False, "overflow")
        assert result.roots is None
        assert result.certificate is None
        assert result.trace.iterates[-1] == (1 + 0j, 1 + 0j)

    @pytest.mark.parametrize(
        "coefficients, z0, iterates",
        [
            # One sweep moves 0 onto the other start; the next has a zero denominator.
            ([1.0, -2.0, 1.0], (1 + 0j, 0j), [(1 + 0j, 0j), (1 + 0j, 1 + 0j)]),
            # Distinct starts whose differences multiply to zero.
            (
                [-6.0, 11.0, -6.0, 1.0],
                (0j, 1e-200 + 0j, 2e-200 + 0j),
                [(0j, 1e-200 + 0j, 2e-200 + 0j)],
            ),
        ],
        ids=["coincident", "underflowed"],
    )
    def test_engine_ends_a_zero_denominator_with_overflow(self, coefficients, z0, iterates):
        n = len(z0)
        problem = Problem(
            map_fn=weierstrass_map(Polynomial(coefficients)),
            x0=z0,
            metric=WeightedConeMetric((1.0,) * n, field="complex"),
            gauge=GaugeNorm(SpaceSpec(n, Vec.ones(n))),
            stop_c=Vec((1e-12,) * n),
        )
        result = run_picard(problem)
        assert (result.converged, result.halt, result.certificate) == (False, "overflow", None)
        assert result.trace.iterates == iterates
        assert len(result.trace.step_dists) == len(iterates) - 1

    def test_estimated_certificate_is_heuristic(self):
        result = solve_roots(CUBIC, z0=(1.3, 1.8, 3.4))
        cert = result.certificate
        assert cert.status == "heuristic"
        assert cert.lambda_source == "estimated"
        assert cert.lambda_used < 1.0

    def test_result_is_the_engine_result(self):
        result = solve_roots(CUBIC, z0=(1.3, 1.8, 3.4))
        assert isinstance(result, PicardResult)
        assert result.roots is result.fixed_point
        assert result.roots == result.trace.iterates[-1]
        cert = result.certificate
        assert (result.tail_start, result.lambda_used) == (cert.start, cert.lambda_used)

    def test_given_lambda_goes_through_engine(self):
        result = solve_roots(QUAD_REAL, z0=(1.1, -1.1), lam=0.9)
        assert result.converged
        assert result.certificate.lambda_source == "given"
        assert result.tail_start == 0

    def test_engine_run_gives_the_same_tail_certificate(self):
        # The steps contract from iterate 4 on.  run_picard certifies that
        # tail with no factor given, and solve_roots returns its certificate.
        p = Polynomial([0.0, 5.0, -2.0, 1.0])
        problem = Problem(
            map_fn=weierstrass_map(p),
            x0=default_starts(p),
            metric=WeightedConeMetric([1.0] * 3, field="complex"),
            gauge=GaugeNorm(SpaceSpec(3, Vec.ones(3))),
            stop_c=Vec([1e-12] * 3),
            max_iter=100,
        )
        cert = run_picard(problem).certificate
        assert (cert.lambda_source, cert.status) == ("estimated", "heuristic")
        assert (cert.start, cert.lambda_used) == (4, 0.43163485433436494)
        result = solve_roots(p)
        assert result.certificate == cert
        assert (result.tail_start, result.lambda_used) == (4, cert.lambda_used)

    def test_given_lambda_overflow_has_no_certificate(self):
        # The step 1e308 is finite; the radius 1e308 / (1 - 0.5) is not.
        result = solve_roots(Polynomial([-0.5e308, 1.0]), z0=(-0.5e308,), lam=0.5)
        assert result.halt == "overflow"
        assert not result.converged
        assert result.roots is None
        assert result.certificate is None
        assert (result.tail_start, result.lambda_used) == (None, None)
        assert result.report.rows == []

    def test_tail_bound_soundness(self):
        # Transfer property: once step contraction is verified on the tail
        # at some factor, the forward bounds built from that factor dominate
        # the true errors.  The max-norm estimate does not imply the exact
        # componentwise check, so derive the componentwise factor here.
        result = solve_roots(CUBIC, z0=(1.3, 1.8, 3.4))
        start = result.tail_start
        tail = IterationTrace()
        tail.step_dists = result.trace.step_dists[start:]
        tail.iterates = result.trace.iterates[start:]
        lam_cw = 0.0
        for a, b in zip(tail.step_dists, tail.step_dists[1:]):
            for num, den in zip(b.coords, a.coords):
                if den > 0.0:
                    lam_cw = max(lam_cw, num / den)
        lam_cw = math.nextafter(lam_cw, math.inf)
        assert lam_cw < 1.0
        assert verify_step_contraction(tail, lam_cw)
        order = greedy_match(result.roots, [1.0, 2.0, 3.0])
        xi = [[1.0, 2.0, 3.0][j] for j in order]
        slack = Vec([1e-8, 1e-8, 1e-8])
        for j, s in enumerate(tail.step_dists):
            z = tail.iterates[j]
            err = Vec([abs(a - b) for a, b in zip(z, xi)])
            assert leq(err, apost_forward_bound(s, lam_cw) + slack)


WILKINSON_12 = Polynomial(poly_from_roots(range(1, 13)))


def separated_roots(rng, degree):
    """Distinct Gaussian-integer roots of modulus at most 2 sqrt(2), closed
    under conjugation, so the coefficients are exact real integers."""
    reals = list(range(-2, 3))
    uppers = [complex(a, b) for a in reals for b in (1, 2)]
    pairs = rng.randint(max(0, (degree - len(reals) + 1) // 2), degree // 2)
    zs = [complex(a, 0) for a in rng.sample(reals, degree - 2 * pairs)]
    for z in rng.sample(uppers, pairs):
        zs += [z, z.conjugate()]
    return zs


class TestNoiseFloorHalt:
    def test_wilkinson_12_halts_at_the_noise_floor(self):
        # Evaluation noise stalls the steps near 1e-8, far above the
        # default 1e-12 stop, while the inclusion discs are long disjoint.
        result = solve_roots(WILKINSON_12, max_iter=300)
        assert result.halt == "noise_floor"
        assert result.converged
        assert len(result.trace.step_dists) < 300
        order = greedy_match(result.roots, list(range(1, 13)))
        for z, j in zip(result.roots, order):
            assert abs(z - (j + 1)) <= 1e-5
        # The last step did not contract, so no tail certifies.
        assert result.certificate is None
        assert result.lambda_used is None
        assert result.report.rows == []

    @pytest.mark.xfail(
        strict=True,
        reason="the inclusion discs take no rounding-error term for p(z_i), so "
        "around the double root they look disjoint (ROADMAP item 4)",
    )
    def test_double_root_does_not_look_isolated(self):
        # The two approximations end 1.1e-9 apart after 33 sweeps.
        result = solve_roots(Polynomial([1, -2, 1]), z0=(1.1 - 0.6j, 2 - 1.7j))
        assert not (result.converged and result.halt == "noise_floor")

    @pytest.mark.parametrize("roots", [(1, 1, 1, 3), (1, 1, 2, 2)])
    def test_multiple_roots_still_run_to_max_iter(self, roots):
        # The discs around a multiple root's cluster overlap for good.
        result = solve_roots(Polynomial(poly_from_roots(roots)), max_iter=300)
        assert result.halt == "max_iter"
        assert not result.converged
        assert len(result.trace.step_dists) == 300

    @pytest.mark.parametrize("degree", range(3, 13))
    def test_separated_roots_halt_at_stop_c(self, degree):
        rng = random.Random(degree)
        for _ in range(3):
            zs = separated_roots(rng, degree)
            result = solve_roots(Polynomial(poly_from_roots(zs)), max_iter=300)
            assert result.halt == "stop_c"
            order = greedy_match(result.roots, zs)
            for z, j in zip(result.roots, order):
                assert abs(z - zs[j]) <= 1e-7


class TestDiscsDisjoint:
    def test_touching_discs_overlap(self):
        # Radii n * step_i = 1 each, centres 2 apart: the discs touch.
        assert not _discs_disjoint((0j, 2 + 0j), Vec([0.5, 0.5]), (1.0, 1.0))
        assert _discs_disjoint((0j, 2 + 0j), Vec([0.5, 0.25]), (1.0, 1.0))

    def test_any_overlapping_pair_counts(self):
        # Radii n * step_i; only the last two discs can meet.
        z = (0j, 10 + 0j, 10 + 1j)
        assert not _discs_disjoint(z, Vec([0.1, 0.2, 0.2]), (1.0, 1.0, 1.0))
        assert _discs_disjoint(z, Vec([0.1, 0.1, 0.1]), (1.0, 1.0, 1.0))

    def test_weights_divide_out(self):
        # Steps alpha_i * |W_i| with |W| = (0.5, 0.25): radii 1 and 0.5.
        z = (0j, 2 + 0j)
        assert _discs_disjoint(z, Vec([2.0, 0.125]), (4.0, 0.5))
        assert not _discs_disjoint(z, Vec([2.0, 0.125]), (1.0, 1.0))
        # |W| = (0.5, 0.5) weighted by 2 touches again.
        assert not _discs_disjoint(z, Vec([1.0, 1.0]), (2.0, 2.0))


class TestCompareBounds:
    GS = GaugeNorm(SpaceSpec(2, Vec([1.0, 1.0])))

    def make_trace(self, steps):
        t = IterationTrace()
        t.step_dists = [Vec(s) for s in steps]
        t.iterates = [(0j, 0j)] * (len(steps) + 1)
        return t

    def test_empty_trace(self):
        report = compare_bounds(self.make_trace([]), self.GS, 0.5)
        assert report.rows == []
        assert not report.any_exceeded

    def test_equal_components_coincide(self):
        trace = self.make_trace([[0.5, 0.5], [0.25, 0.25]])
        report = compare_bounds(trace, self.GS, 0.5)
        for row in report.rows:
            assert row.componentwise.coords == row.broadcast.coords
        assert report.strict_improvement_rows == 0
        assert not report.any_exceeded

    def test_fast_component_strictly_better(self):
        trace = self.make_trace([[0.5, 0.001]])
        report = compare_bounds(trace, self.GS, 0.5)
        row = report.rows[0]
        assert row.componentwise.coords == (1.0, 0.002)
        assert row.broadcast.coords == (1.0, 1.0)
        assert not row.exceeded
        assert report.strict_improvement_rows == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compare_bounds(self.make_trace([[0.5]]), self.GS, 0.5)

    def test_reports_do_not_share_rows(self):
        a, b = ComparisonReport(), ComparisonReport()
        a.rows.append(None)
        assert b.rows == [] and ComparisonReport().rows == []

    def test_reports_compare_row_by_row(self):
        trace = self.make_trace([[0.5, 0.001], [0.25, 0.001]])
        a, b = compare_bounds(trace, self.GS, 0.5), compare_bounds(trace, self.GS, 0.5)
        assert a == b and a.rows[0] == b.rows[0] and a.rows[0] != a.rows[1]
        assert repr(a.rows[0]).startswith("ComparisonRow(iteration=0, componentwise=Vec(")

    @settings(max_examples=200)
    @given(
        st.lists(
            st.lists(st.integers(0, 2**12).map(lambda k: k / 2**8), min_size=2, max_size=2),
            min_size=1,
            max_size=6,
        ),
        st.integers(1, 255).map(lambda k: k / 256.0),
    )
    def test_domination_never_exceeded(self, steps, lam):
        trace = self.make_trace(steps)
        report = compare_bounds(trace, self.GS, lam)
        assert not report.any_exceeded
        for row in report.rows:
            assert leq(row.componentwise, row.broadcast)


class TestTailTraceCsv:
    # Roots {0, +-1, +-2, +-i}: from the default starts the steps contract
    # only from iterate 10 on, so the tail certificate starts late.
    SEPTIC = Polynomial([0.0, 4.0, 0.0, -1.0, 0.0, -4.0, 0.0, 1.0])
    ROOTS = [0, 1, -1, 2, -2, 1j, -1j]

    def test_bounds_sit_on_the_iterates_they_bound(self):
        result = solve_roots(self.SEPTIC)
        cert = result.certificate
        start = result.tail_start
        assert result.converged and start == 10 and cert.start == start
        iterates = result.trace.iterates
        n_last = len(iterates) - 1
        assert (len(cert.apriori), len(cert.apost_forward)) == (n_last - start + 1, n_last - start)
        # Entry k of apriori and apost_forward bounds iterate start + k, and
        # entry k - 1 of apost_backward bounds it too.
        for n in range(start, n_last + 1):
            k = n - start
            bounds = [cert.apriori[k]]
            if k < len(cert.apost_forward):
                bounds.append(cert.apost_forward[k])
            if k >= 1:
                bounds.append(cert.apost_backward[k - 1])
            # Each bound must dominate the distance to the nearest true root.
            nearest = [min(abs(z - w) for w in self.ROOTS) for z in iterates[n]]
            for bound in bounds:
                assert all(c >= d for c, d in zip(bound.coords, nearest))
