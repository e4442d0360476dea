import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecert.gauge import GaugeNorm, _cone_max, mink_norm, strict_ball_test
from conecert.solid import SpaceSpec, Vec, leq

from helpers import (
    bisect_gauge,
    dims,
    dyadic_nonneg_coord,
    dyadic_pos_coord,
    dyadic_pos_scalar,
    vec_st,
    vec_with_gauge,
)


def g_of(base) -> GaugeNorm:
    b = Vec(base)
    return GaugeNorm(SpaceSpec(len(b), b))


class TestClosedForm:
    # Expected values frozen after cross-checking with the bisection oracle
    # (see test_matches_bisection_oracle below for the oracle itself).
    def test_examples(self):
        g = g_of([1.0, 2.0])
        assert mink_norm(Vec([2, -3]), g) == 2.0
        assert bisect_gauge(Vec([2, -3]), g) == pytest.approx(2.0, abs=1e-12)
        assert mink_norm(Vec.zeros(2), g) == 0.0
        assert mink_norm(g.spec.base, g) == 1.0
        # A quotient past the float range gives inf; it does not raise.
        assert mink_norm(Vec([1e308, 1e308]), g_of([1e-308, 1.0])) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="^dimension mismatch: 1 vs 2$"):
            mink_norm(Vec([1.0]), g_of([1.0, 1.0]))

    @pytest.mark.parametrize("x", [[1.0, 2.0], (1.0, 2.0)], ids=["list", "tuple"])
    def test_x_must_be_a_vec(self, x):
        with pytest.raises(TypeError, match=f"^x must be a Vec, got {type(x).__name__}$"):
            mink_norm(x, g_of([1.0, 2.0]))

    def test_g_must_be_a_gauge_norm(self):
        g = g_of([1.0, 2.0])
        with pytest.raises(TypeError, match="^g must be a GaugeNorm, got SpaceSpec$"):
            mink_norm(Vec([1.0, 2.0]), g.spec)

    @pytest.mark.parametrize("x", [[1.0, 2.0], (1.0, 2.0)], ids=["list", "tuple"])
    def test_strict_ball_test_x_must_be_a_vec(self, x):
        with pytest.raises(TypeError, match=f"^x must be a Vec, got {type(x).__name__}$"):
            strict_ball_test(x, 1.0, g_of([1.0, 2.0]))

    @settings(max_examples=200)
    @given(vec_with_gauge())
    def test_matches_bisection_oracle(self, xg):
        x, g = xg
        assert abs(mink_norm(x, g) - bisect_gauge(x, g)) <= 1e-12

    @given(vec_with_gauge())
    def test_value_is_a_minimal_containment_witness(self, xg):
        # One ulp up always contains (rounding x/b down then back up can
        # land half an ulp short); a relatively smaller scale never does.
        x, g = xg
        lam = mink_norm(x, g)
        up = math.nextafter(lam, math.inf) * g.spec.base
        assert leq(-up, x) and leq(x, up)
        if lam > 0.0:
            down = (lam * (1.0 - 1e-12)) * g.spec.base
            assert not (leq(-down, x) and leq(x, down))


class TestNormAxioms:
    @given(vec_with_gauge(), st.integers(-8, 8), st.booleans())
    def test_homogeneity_exact_on_dyadic_scalars(self, xg, k, neg):
        x, g = xg
        t = -(2.0**k) if neg else 2.0**k
        assert mink_norm(t * x, g) == abs(t) * mink_norm(x, g)

    @given(data=st.data())
    def test_triangle(self, data):
        n = data.draw(dims)
        g = GaugeNorm(SpaceSpec(n, data.draw(vec_st(n, dyadic_pos_coord))))
        x = data.draw(vec_st(n))
        y = data.draw(vec_st(n))
        assert mink_norm(x + y, g) <= mink_norm(x, g) + mink_norm(y, g) + 1e-12

    @given(vec_with_gauge())
    def test_definiteness(self, xg):
        x, g = xg
        v = mink_norm(x, g)
        assert v >= 0.0
        assert (v == 0.0) == (x == Vec.zeros(len(x)))

    @given(data=st.data())
    def test_monotone_on_the_cone(self, data):
        n = data.draw(dims)
        g = GaugeNorm(SpaceSpec(n, data.draw(vec_st(n, dyadic_pos_coord))))
        x = data.draw(vec_st(n, dyadic_nonneg_coord))
        y = x + data.draw(vec_st(n, dyadic_nonneg_coord))
        assert mink_norm(x, g) <= mink_norm(y, g)

    @given(data=st.data())
    def test_sandwich(self, data):
        # Between two cone-ordered vectors the gauge of the middle cannot
        # exceed the larger end: 0 <= x <= y <= z pins |y| <= |z|.
        n = data.draw(dims)
        g = GaugeNorm(SpaceSpec(n, data.draw(vec_st(n, dyadic_pos_coord))))
        x = data.draw(vec_st(n, dyadic_nonneg_coord))
        y = x + data.draw(vec_st(n, dyadic_nonneg_coord))
        z = y + data.draw(vec_st(n, dyadic_nonneg_coord))
        assert mink_norm(y, g) <= mink_norm(z, g)


# Cone coordinates across the whole range: signed zeros, the smallest
# subnormal and the largest decades, where a quotient by a tiny base overflows.
cone_coord = st.sampled_from([0.0, -0.0, 5e-324, 1.0, 1e308, 1.7976931348623157e308]) | st.floats(
    min_value=0.0, allow_nan=False, allow_infinity=False
)
BASE_COORDS = {
    "unit": st.just(1.0),
    "dyadic": st.integers(-8, 8).map(lambda k: 2.0**k),
    "tiny": st.sampled_from([5e-324, 1e-310, 1e-300]),
}


class TestConeGauge:
    """On the cone, ``max_i x_i / base_i`` (``_cone_max``, the engine's step
    gauge, which skips the division under a unit base) is ``mink_norm`` bit
    for bit."""

    @pytest.mark.parametrize("base", sorted(BASE_COORDS))
    @settings(max_examples=300)
    @given(data=st.data())
    def test_same_bits_as_mink_norm(self, base, data):
        n = data.draw(dims)
        x = Vec(data.draw(st.lists(cone_coord, min_size=n, max_size=n)))
        g = g_of(data.draw(st.lists(BASE_COORDS[base], min_size=n, max_size=n)))
        assert repr(_cone_max(x.coords, g)) == repr(mink_norm(x, g))

    @pytest.mark.parametrize(
        "coords, base, expected",
        [
            ([-0.0, -0.0], [1.0, 1.0], "0.0"),
            ([-0.0, 0.0], [0.5, 2.0], "0.0"),
            ([5e-324, -0.0], [0.5, 2.0], "1e-323"),
            ([5e-324, -0.0], [1e-310, 1.0], "4.9406564584124806e-14"),
            ([4e307, 1.0], [0.5, 2.0], "8e+307"),
            ([4e307, 1.0], [1e-310, 1.0], "inf"),
        ],
    )
    def test_edge_values(self, coords, base, expected):
        x, g = Vec(coords), g_of(base)
        assert repr(_cone_max(x.coords, g)) == repr(mink_norm(x, g)) == expected


class TestRecord:
    def test_spec_must_be_a_space_spec(self):
        with pytest.raises(TypeError, match="^spec must be a SpaceSpec, got Vec$"):
            GaugeNorm(Vec([1.0]))

    def test_compares_and_hashes_by_spec(self):
        a, b = g_of([1.0, 2.0]), g_of([1.0, 2.0])
        assert a == b and hash(a) == hash(b)
        assert a != g_of([1.0, 1.0])

    def test_frozen(self):
        g = g_of([1.0])
        with pytest.raises(AttributeError):
            g.spec = SpaceSpec(1, Vec([2.0]))
        with pytest.raises(AttributeError):
            g._unit = False
        assert g._unit

    def test_repr_shows_the_spec_only(self):
        assert repr(g_of([2.0])) == "GaugeNorm(spec=SpaceSpec(n=1, base=Vec([2.0])))"


class TestStrictBall:
    def test_examples(self):
        g = g_of([1.0, 2.0])
        assert strict_ball_test(Vec([0.5, 0.5]), 1.0, g)
        assert not strict_ball_test(Vec([2, -3]), 2.0, g)
        assert strict_ball_test(Vec([2, -3]), 2.5, g)

    def test_bad_radius(self):
        g = g_of([1.0])
        with pytest.raises(ValueError):
            strict_ball_test(Vec([0.0]), 0.0, g)
        with pytest.raises(ValueError):
            strict_ball_test(Vec([0.0]), -1.0, g)

    @given(vec_with_gauge(), dyadic_pos_scalar)
    def test_equivalence_with_gauge(self, xg, eps):
        x, g = xg
        assert strict_ball_test(x, eps, g) == (mink_norm(x, g) < eps)
