import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conecert.solid import (
    NonFiniteError,
    SpaceSpec,
    Vec,
    bounding_scale,
    in_cone,
    in_interior,
    leq,
    lt,
    minorant_scale,
    vec_from_json,
)

from helpers import (
    dims,
    dyadic_nonneg_coord,
    dyadic_nonneg_scalar,
    dyadic_pos_coord,
    sized_vecs,
    vec_st,
)


class TestVecBasics:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            Vec([1.0, math.nan])
        with pytest.raises(ValueError):
            Vec([math.inf])
        with pytest.raises(ValueError):
            Vec([])

    @pytest.mark.parametrize(
        "coords, error, message",
        [
            ([1.0, math.nan], NonFiniteError, "non-finite coordinate: nan"),
            ([2, -math.inf, math.nan], NonFiniteError, "non-finite coordinate: -inf"),
            ([], ValueError, "a vector needs at least one coordinate"),
        ],
    )
    def test_rejection_type_and_message(self, coords, error, message):
        with pytest.raises(error) as info:
            Vec(coords)
        assert str(info.value) == message
        assert isinstance(info.value, NonFiniteError) == (error is NonFiniteError)
        with pytest.raises(error):
            Vec(iter(coords))

    def test_coordinates_become_plain_floats(self):
        class F(float):
            pass

        v = Vec(iter([1, F(0.1), -0.0, True]))
        assert [type(c) for c in v.coords] == [float] * 4
        assert [c.hex() for c in v.coords] == [c.hex() for c in (1.0, 0.1, -0.0, 1.0)]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Vec([1.0]) + Vec([1.0, 2.0])
        with pytest.raises(ValueError):
            leq(Vec([1.0]), Vec([1.0, 2.0]))

    def test_arithmetic(self):
        assert (Vec([1, 2]) + Vec([3, 4])).coords == (4.0, 6.0)
        assert (Vec([1, 2]) - Vec([3, 4])).coords == (-2.0, -2.0)
        assert (2.0 * Vec([1, 2])).coords == (2.0, 4.0)
        assert (-Vec([1, -2])).coords == (-1.0, 2.0)

    def test_json_round_trip(self):
        assert vec_from_json([1, 2.5]).coords == (1.0, 2.5)
        with pytest.raises(ValueError):
            vec_from_json("nope")
        with pytest.raises(ValueError):
            vec_from_json([1, True])


class TestPredicateExamples:
    def test_cone_membership(self):
        assert in_cone(Vec([0.0, 1.0]))
        assert not in_cone(Vec([0.0, -1e-300]))
        assert in_interior(Vec([1e-300, 1.0]))
        assert not in_interior(Vec([0.0, 1.0]))

    def test_order_examples(self):
        assert leq(Vec([1, 2]), Vec([1, 3]))
        assert not lt(Vec([1, 2]), Vec([1, 3]))
        assert lt(Vec([1, 2]), Vec([2, 3]))
        assert not leq(Vec([1, 2]), Vec([0, 3]))


class TestSpaceSpec:
    def test_validation(self):
        SpaceSpec(2, Vec([1.0, 0.5]))
        with pytest.raises(ValueError):
            SpaceSpec(2, Vec([1.0, 0.0]))
        with pytest.raises(ValueError):
            SpaceSpec(3, Vec([1.0, 1.0]))
        with pytest.raises(ValueError):
            SpaceSpec(0, Vec([1.0]))

    def test_from_json(self):
        spec = SpaceSpec.from_json({"n": 2, "base": [1, 2]})
        assert spec.base.coords == (1.0, 2.0)
        with pytest.raises(ValueError):
            SpaceSpec.from_json({"n": 2})


class TestScaleWitnesses:
    # Frozen from the half-minimum-ratio rule; the property tests below
    # re-verify the witness inequalities on random data.
    def test_minorant_values(self):
        spec = SpaceSpec(2, Vec([1.0, 1.0]))
        assert minorant_scale([Vec([1, 2]), Vec([3, 0.5])], spec) == 0.25
        assert minorant_scale([spec.base], spec) == 0.5
        spec44 = SpaceSpec(2, Vec([4.0, 4.0]))
        assert minorant_scale([Vec([2, 2])], spec44) == 0.25

    def test_minorant_rejects_boundary(self):
        spec = SpaceSpec(2, Vec([1.0, 1.0]))
        with pytest.raises(ValueError):
            minorant_scale([Vec([1.0, 0.0])], spec)
        with pytest.raises(ValueError):
            minorant_scale([], spec)

    def test_bounding_values(self):
        spec = SpaceSpec(2, Vec([1.0, 1.0]))
        assert bounding_scale([Vec([2, -3])], spec) == 4.0
        assert bounding_scale([Vec.zeros(2)], spec) == 1.0
        assert bounding_scale([Vec([1, 0]), Vec([0, 1])], spec) == 2.0

    @given(data=st.data())
    def test_minorant_witness_property(self, data):
        n = data.draw(dims)
        spec = SpaceSpec(n, data.draw(vec_st(n, dyadic_pos_coord)))
        vs = data.draw(st.lists(vec_st(n, dyadic_pos_coord), min_size=1, max_size=4))
        lam = minorant_scale(vs, spec)
        assert lam > 0
        assert all(lt(lam * spec.base, x) for x in vs)

    @given(data=st.data())
    def test_bounding_witness_property(self, data):
        n = data.draw(dims)
        spec = SpaceSpec(n, data.draw(vec_st(n, dyadic_pos_coord)))
        vs = data.draw(st.lists(vec_st(n), min_size=1, max_size=4))
        lam = bounding_scale(vs, spec)
        scaled = lam * spec.base
        assert all(lt(-scaled, x) and lt(x, scaled) for x in vs)


class TestOrderAxioms:
    @given(sized_vecs(1))
    def test_reflexive(self, vs):
        (x,) = vs
        assert leq(x, x)

    @given(sized_vecs(2))
    def test_antisymmetric(self, vs):
        x, y = vs
        if leq(x, y) and leq(y, x):
            assert x == y
        assert leq(x, x) and (x == x)

    @given(data=st.data())
    def test_transitive_and_mixed(self, data):
        n = data.draw(dims)
        x = data.draw(vec_st(n))
        y = x + data.draw(vec_st(n, dyadic_nonneg_coord))
        z = y + data.draw(vec_st(n, dyadic_pos_coord))
        assert leq(x, y) and lt(y, z)
        assert lt(x, z)  # weak-then-strict composes strictly
        assert leq(x, z)

    @given(data=st.data())
    def test_translation_and_addition(self, data):
        n = data.draw(dims)
        x = data.draw(vec_st(n))
        y = x + data.draw(vec_st(n, dyadic_nonneg_coord))
        z = data.draw(vec_st(n))
        u = data.draw(vec_st(n))
        v = u + data.draw(vec_st(n, dyadic_pos_coord))
        assert leq(x + z, y + z)
        assert lt(u + x, v + y)  # strict plus weak stays strict

    @given(data=st.data(), lam=dyadic_nonneg_scalar)
    def test_scaling(self, data, lam):
        n = data.draw(dims)
        x = data.draw(vec_st(n))
        y = x + data.draw(vec_st(n, dyadic_nonneg_coord))
        assert leq(lam * x, lam * y)
        assert leq((-lam) * y, (-lam) * x)

    @given(data=st.data())
    def test_scalar_monotonicity_in_the_scalar(self, data):
        n = data.draw(dims)
        x = data.draw(vec_st(n, dyadic_nonneg_coord))
        lam = data.draw(dyadic_nonneg_scalar) - data.draw(dyadic_nonneg_scalar)
        mu = lam + data.draw(dyadic_nonneg_scalar)
        assert leq(lam * x, mu * x)
        assert leq(mu * (-x), lam * (-x))

    @given(sized_vecs(2))
    def test_correspondence_is_direct_comparison(self, vs):
        x, y = vs
        assert leq(x, y) == all(a <= b for a, b in zip(x.coords, y.coords))
        assert lt(x, y) == all(a < b for a, b in zip(x.coords, y.coords))

    @given(data=st.data())
    def test_interior_criterion(self, data):
        n = data.draw(dims)
        x = data.draw(vec_st(n, dyadic_pos_coord))
        y = data.draw(vec_st(n, dyadic_nonneg_coord))
        lam = data.draw(dyadic_pos_coord)
        assert in_interior(lam * x)  # scaling keeps the interior
        assert in_interior(y + x)  # cone plus interior lands in the interior
        assert not in_interior(Vec.zeros(n))

    @given(data=st.data())
    def test_small_multiples_force_smallness(self, data):
        # Finite restatement: staying strictly under every halving of the
        # base down to 2^-40 pins every coordinate at or under 2^-40*max(b).
        n = data.draw(dims)
        b = data.draw(vec_st(n, dyadic_pos_coord))
        x = data.draw(
            st.one_of(
                vec_st(n, dyadic_nonneg_coord).map(lambda v: -v),
                st.lists(
                    st.integers(-4, 4).map(lambda k: k * 2.0**-45),
                    min_size=n,
                    max_size=n,
                ).map(Vec),
            )
        )
        if all(lt(x, 2.0**-k * b) for k in range(41)):
            cap = 2.0**-40 * max(b.coords)
            assert all(c <= cap for c in x.coords)
