import copy
import importlib
import math
import pickle
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import conecert
from conecert.cli import vec_from_json
from conecert.solid import (
    NonFiniteError,
    SpaceSpec,
    Vec,
    _Record,
    bounding_scale,
    in_cone,
    in_interior,
    leq,
    lt,
    minorant_scale,
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


    @pytest.mark.parametrize("x", [[1.0, 2.0], (1.0, 2.0), None], ids=["list", "tuple", "none"])
    @pytest.mark.parametrize("predicate", [in_cone, in_interior])
    def test_non_vec_argument_is_named(self, predicate, x):
        with pytest.raises(TypeError, match=f"^x must be a Vec, got {type(x).__name__}$"):
            predicate(x)


class TestSpaceSpec:
    def test_validation(self):
        SpaceSpec(2, Vec([1.0, 0.5]))
        with pytest.raises(ValueError):
            SpaceSpec(2, Vec([1.0, 0.0]))
        with pytest.raises(ValueError):
            SpaceSpec(3, Vec([1.0, 1.0]))
        with pytest.raises(ValueError):
            SpaceSpec(0, Vec([1.0]))
        with pytest.raises(ValueError):
            SpaceSpec(True, Vec([1.0]))

    def test_base_must_be_a_vec(self):
        with pytest.raises(TypeError, match="^base must be a Vec, got list$"):
            SpaceSpec(2, [1.0, 1.0])

    def test_equal_specs_compare_and_hash_alike(self):
        a, b = SpaceSpec(2, Vec([1.0, 0.5])), SpaceSpec(2, Vec([1.0, 0.5]))
        assert a == b and hash(a) == hash(b)
        assert a != SpaceSpec(2, Vec([1.0, 0.25]))
        assert len({a, b}) == 1

    def test_frozen(self):
        spec = SpaceSpec(1, Vec([1.0]))
        with pytest.raises(AttributeError):
            spec.n = 2
        with pytest.raises(AttributeError):
            del spec.base
        with pytest.raises(AttributeError):
            spec.extra = 0
        assert spec == SpaceSpec(1, Vec([1.0]))

    def test_repr_names_the_class_and_fields(self):
        assert repr(SpaceSpec(1, Vec([2.0]))) == "SpaceSpec(n=1, base=Vec([2.0]))"

    def test_copies_and_pickles_equal_the_original(self):
        spec = SpaceSpec(2, Vec([1.0, 0.5]))
        assert copy.copy(spec) == copy.deepcopy(spec) == pickle.loads(pickle.dumps(spec)) == spec


class _Triple(_Record):
    __slots__ = ("a", "b", "_derived", "c")
    _defaults = {"c": 3}


class _Quad(_Triple):
    __slots__ = ("d",)


class TestRecordConstructor:
    """``_Record`` builds a record's constructor from its ``__slots__``."""

    def test_positional_keyword_and_mixed_arguments(self):
        t = _Triple(1, 2, 4)
        assert (t.a, t.b, t.c) == (1, 2, 4)
        assert _Triple(a=1, b=2, c=4) == _Triple(c=4, a=1, b=2) == t
        assert _Triple(1, b=2, c=4) == _Triple(1, 2, c=4) == t

    def test_a_trailing_field_falls_back_to_its_default(self):
        assert _Triple(1, 2) == _Triple(b=2, a=1) == _Triple(1, 2, 3)
        assert _Triple(1, 2).c == 3

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((1,), {}, "_Triple() missing field 'b'"),
            ((), {"b": 2, "c": 3}, "_Triple() missing field 'a'"),
            ((1, 2), {"d": 4}, "_Triple() has no field 'd'"),
            ((1, 2, 3, 4), {}, "_Triple() takes 3 fields ('a', 'b', 'c'), got 4"),
            ((1, 2), {"a": 1}, "_Triple() got field 'a' twice"),
        ],
        ids=["missing", "missing-first", "unknown", "surplus", "duplicate"],
    )
    def test_bad_arguments_name_the_class_and_the_field(self, args, kwargs, message):
        with pytest.raises(TypeError) as excinfo:
            _Triple(*args, **kwargs)
        assert str(excinfo.value) == message

    def test_underscore_slots_are_not_parameters(self):
        with pytest.raises(TypeError, match=r"^_Triple\(\) has no field '_derived'$"):
            _Triple(1, 2, _derived=0)
        t = _Triple(1, 2)
        with pytest.raises(AttributeError):
            t._derived
        t._derived = "cached"
        assert t == _Triple(1, 2)
        assert repr(t) == "_Triple(a=1, b=2, c=3)"

    def test_a_subclass_lists_its_fields_after_its_parents(self):
        assert (_Triple._names, _Quad._names) == (("a", "b", "c"), ("a", "b", "c", "d"))
        q = _Quad(1, 2, 3, 4)
        assert (q.a, q.b, q.c, q.d) == (1, 2, 3, 4)
        assert _Quad(1, 2, d=4) == _Quad(d=4, b=2, a=1) == q
        assert repr(q) == "_Quad(a=1, b=2, c=3, d=4)"
        assert q != _Triple(1, 2, 3)

    def test_frozen_space_spec_is_built_by_it(self):
        spec = SpaceSpec(base=Vec([1.0, 0.5]), n=2)
        assert spec == SpaceSpec(2, Vec([1.0, 0.5]))
        with pytest.raises(AttributeError):
            spec.n = 3
        assert copy.copy(spec) == copy.deepcopy(spec) == pickle.loads(pickle.dumps(spec)) == spec

    def test_defaults_are_a_trailing_run_of_fields(self):
        # Every record of the package that takes the shared constructor.
        for info in pkgutil.iter_modules(conecert.__path__):
            importlib.import_module(f"conecert.{info.name}")
        records, todo = [], [_Record]
        while todo:
            for cls in todo.pop().__subclasses__():
                todo.append(cls)
                if cls.__module__.startswith("conecert.") and "__init__" not in vars(cls):
                    records.append(cls)
        names = {cls.__name__ for cls in records}
        assert {"Certificate", "PicardResult", "ComparisonRow", "RootsResult"} <= names
        for cls in records:
            fields, k = cls._names, len(cls._defaults)
            assert set(cls._defaults) == set(fields[len(fields) - k :]), cls.__name__


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


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def reference_vec(values):
    """The constructor without the sum pre-check: convert, then scan."""
    cs = tuple(float(c) for c in values)
    if not cs:
        raise ValueError("a vector needs at least one coordinate")
    for c in cs:
        if not math.isfinite(c):
            raise NonFiniteError(f"non-finite coordinate: {c!r}")
    return cs


def outcome(fn, *args):
    """Coordinate types and bits of a result, or the error type and text."""
    try:
        v = fn(*args)
    except Exception as exc:  # the error itself is the compared outcome
        return type(exc), str(exc)
    coords = v.coords if isinstance(v, Vec) else v
    return [(type(c), c.hex()) for c in coords]


class _F(float):
    pass


class TestFiniteCheck:
    def test_sum_that_overflows_is_accepted(self):
        assert Vec([1e308, 1e308]).coords == (1e308, 1e308)
        assert Vec([-1e308, -1e308, 1.0]).coords == (-1e308, -1e308, 1.0)
        assert Vec._of((1e308, 1e308)).coords == (1e308, 1e308)

    @pytest.mark.parametrize("make", [Vec, Vec._of], ids=["Vec", "Vec._of"])
    @pytest.mark.parametrize(
        "coords, error, message",
        [
            ((math.inf, -math.inf), NonFiniteError, "non-finite coordinate: inf"),
            ((1e308, 1e308, math.nan), NonFiniteError, "non-finite coordinate: nan"),
            ((1.0, -math.inf, math.inf), NonFiniteError, "non-finite coordinate: -inf"),
            ((math.nan,), NonFiniteError, "non-finite coordinate: nan"),
            ((), ValueError, "a vector needs at least one coordinate"),
        ],
    )
    def test_rejection_names_the_first_bad_coordinate(self, make, coords, error, message):
        with pytest.raises(error) as info:
            make(coords)
        assert str(info.value) == message
        assert isinstance(info.value, NonFiniteError) == (error is NonFiniteError)

    @given(st.lists(st.floats(), min_size=0, max_size=6))
    def test_constructor_matches_the_scan(self, values):
        assert outcome(Vec, values) == outcome(reference_vec, values)


scalars = st.one_of(
    st.floats(),
    st.floats().map(_F),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.fractions(max_denominator=2**60),
    st.sampled_from([0, -0.0, _F(-0.0), 2**1100, Fraction(10**400, 3)]),
)


class TestArithmeticBits:
    """Vec arithmetic against in-test copies of the list-building operators."""

    @given(st.data())
    def test_add_sub_neg(self, data):
        n = data.draw(st.integers(1, 6))
        xs = data.draw(st.lists(finite_floats, min_size=n, max_size=n))
        ys = data.draw(st.lists(finite_floats, min_size=n, max_size=n))
        x, y = Vec(xs), Vec(ys)
        assert outcome(x.__add__, y) == outcome(
            reference_vec, [a + b for a, b in zip(x.coords, y.coords)]
        )
        assert outcome(x.__sub__, y) == outcome(
            reference_vec, [a - b for a, b in zip(x.coords, y.coords)]
        )
        assert outcome(x.__neg__) == outcome(reference_vec, [-a for a in x.coords])

    @given(st.lists(finite_floats, min_size=1, max_size=6), scalars)
    def test_scalar_products(self, xs, scalar):
        x = Vec(xs)
        expect = outcome(lambda: reference_vec([a * scalar for a in x.coords]))
        assert outcome(lambda: x * scalar) == expect
        assert outcome(lambda: scalar * x) == expect

    @pytest.mark.parametrize("scalar", ["2", None, [1.0], 1j])
    def test_rejected_scalars_keep_type_and_message(self, scalar):
        x = Vec([1.0, 2.0])
        with pytest.raises(TypeError) as reference:
            reference_vec([a * scalar for a in x.coords])
        with pytest.raises(TypeError) as info:
            x * scalar
        assert str(info.value) == str(reference.value)


def cone_leq(x, y):
    """The order in its cone form: y - x lies in the cone."""
    return in_cone(y - x)


def cone_lt(x, y):
    return in_interior(y - x)


class TestOrderIsConeOfDifference:
    def test_overflowing_difference_still_compares(self):
        lo, hi = Vec([-1e308]), Vec([1e308])
        assert leq(lo, hi) and lt(lo, hi)
        assert not leq(hi, lo) and not lt(hi, lo)
        with pytest.raises(NonFiniteError):
            hi - lo

    @given(st.data())
    def test_matches_cone_membership_of_the_difference(self, data):
        n = data.draw(st.integers(1, 6))
        x = Vec(data.draw(st.lists(finite_floats, min_size=n, max_size=n)))
        y = Vec(
            data.draw(
                st.lists(
                    st.one_of(finite_floats, st.sampled_from(x.coords)),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        try:
            d = y - x
        except NonFiniteError:
            return
        assert leq(x, y) == in_cone(d)
        assert lt(x, y) == in_interior(d)

    @pytest.mark.parametrize(
        "x, y",
        [
            (Vec([1.0, 2.0]), [1.0, 2.0]),
            ([1.0, 2.0], Vec([1.0, 2.0])),
            (Vec([1.0, 2.0]), (1.0, 2.0)),
            (Vec([1.0, 2.0]), None),
            (None, Vec([1.0, 2.0])),
            (Vec([1.0, 2.0]), 1.0),
            (1.0, Vec([1.0, 2.0])),
            (1.0, 2.0),
            (Vec([1.0]), Vec([1.0, 2.0])),
            (Vec([1.0, 2.0, 3.0]), Vec([1.0, 2.0])),
        ],
    )
    def test_bad_operands_raise_like_the_cone_form(self, x, y):
        for new, old in ((leq, cone_leq), (lt, cone_lt)):
            with pytest.raises(Exception) as reference:
                old(x, y)
            with pytest.raises(Exception) as info:
                new(x, y)
            assert type(info.value) is type(reference.value)
            assert str(info.value) == str(reference.value)
