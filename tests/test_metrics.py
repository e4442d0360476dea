import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conecert.cli import instance_from_json, parse_point
from conecert.gauge import GaugeNorm, mink_norm
from conecert.metrics import (
    Ball,
    DiscreteConeMetric,
    PlusConeMetric,
    WeightedConeMetric,
    _in_ball,
    _reach,
    ball_contains,
    inequality_transfer_check,
    nested_ball_probe,
    scalarize,
)
from conecert.picard import Problem, _in_domain, run_picard
from conecert.solid import NonFiniteError, SpaceSpec, Vec, in_cone, leq, lt

from helpers import dims, dyadic_coord, dyadic_pos_coord, vec_st

ONES2 = GaugeNorm(SpaceSpec(2, Vec([1.0, 1.0])))


class TestWeighted:
    def test_real_distance(self):
        inst = WeightedConeMetric([1.0, 2.0])
        assert inst.distance((1.0, 1.0), (3.0, 0.0)).coords == (2.0, 2.0)
        assert inst.distance((1.0, 1.0), (1.0, 1.0)) == Vec.zeros(2)

    def test_complex_distance_uses_modulus(self):
        inst = WeightedConeMetric([1.0, 1.0], field="complex")
        d = inst.distance((3 + 4j, 0j), (0j, 0j))
        assert d.coords == (5.0, 0.0)

    def test_field_validation(self):
        inst = WeightedConeMetric([1.0])
        with pytest.raises(ValueError):
            inst.distance((1 + 1j,), (0.0,))
        with pytest.raises(ValueError):
            WeightedConeMetric([1.0, -1.0])
        with pytest.raises(ValueError):
            WeightedConeMetric([1.0], field="quaternion")

    def test_point_length_checked(self):
        inst = WeightedConeMetric([1.0, 1.0])
        with pytest.raises(ValueError):
            inst.distance((1.0,), (0.0, 0.0))

    def test_weights_cannot_change_after_the_checks(self):
        # Assigned weights once left the unit-weight flag stale, so the
        # distance came back 1000 times too small.
        m = WeightedConeMetric([1.0, 1.0])
        with pytest.raises(AttributeError, match="^cannot assign to field 'alpha'$"):
            m.alpha = (1000.0, 1000.0)
        assert m.alpha == (1.0, 1.0)
        assert m.distance((0, 0), (1, 1)) == Vec([1.0, 1.0])
        assert WeightedConeMetric([1000.0, 1000.0]).distance((0, 0), (1, 1)) == Vec([1000.0, 1000.0])

    def test_compares_and_hashes_by_value(self):
        a, b = WeightedConeMetric([1, 2]), WeightedConeMetric((1.0, 2.0), "real")
        assert a == b and hash(a) == hash(b)
        assert a != WeightedConeMetric([1.0, 2.0], field="complex")
        assert repr(a) == "WeightedConeMetric(alpha=(1.0, 2.0), field='real')"

    @given(data=st.data())
    def test_metric_axioms(self, data):
        n = data.draw(dims)
        inst = WeightedConeMetric([data.draw(dyadic_pos_coord) for _ in range(n)])
        x = tuple(data.draw(dyadic_coord) for _ in range(n))
        y = tuple(data.draw(dyadic_coord) for _ in range(n))
        z = tuple(data.draw(dyadic_coord) for _ in range(n))
        d = inst.distance(x, y)
        assert in_cone(d)
        assert (d == Vec.zeros(n)) == (x == y)
        assert d == inst.distance(y, x)
        assert leq(inst.distance(x, z), inst.distance(x, y) + inst.distance(y, z))


    @given(st.data())
    def test_norm_is_the_weighted_moduli(self, data):
        n = data.draw(dims)
        field = data.draw(st.sampled_from(["real", "complex"]))
        part = st.floats(allow_nan=False, allow_infinity=False, max_value=1e300, min_value=-1e300)
        coord = part if field == "real" else st.builds(complex, part, part)
        alpha = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
        x = tuple(data.draw(st.lists(coord, min_size=n, max_size=n)))
        got = WeightedConeMetric(alpha, field=field).norm(x)
        expect = [a * abs(c) for a, c in zip(alpha, x)]
        assert [c.hex() for c in got.coords] == [c.hex() for c in expect]


class _Float(float):
    pass


class _Complex(complex):
    pass


def loop_validate(field, coords):
    """The per-coordinate validation loop that the fast path must agree with."""
    out = []
    for c in coords:
        if isinstance(c, bool):
            raise ValueError(f"not a scalar: {c!r}")
        if field == "real":
            if isinstance(c, complex):
                raise ValueError(f"complex coordinate {c!r} in a real instance")
            c = float(c)
            if not math.isfinite(c):
                raise ValueError(f"non-finite coordinate: {c!r}")
        else:
            c = complex(c)
            if not cmath.isfinite(c):
                raise ValueError(f"non-finite coordinate: {c!r}")
        out.append(c)
    return tuple(out)


def typed_bits(point):
    return [(type(c), c.hex() if isinstance(c, float) else repr(c)) for c in point]


class TestValidatePoint:
    @pytest.mark.parametrize(
        "field, point",
        [
            ("real", (1.5, -0.0)),
            ("real", (1, 2.5)),
            ("real", (_Float(0.1), -0.0)),
            ("real", (-0.0, 3)),
            ("complex", (1.5, -0.0)),
            ("complex", (1, 2j)),
        ],
    )
    def test_accepted_points_match_the_loop(self, field, point):
        got = WeightedConeMetric([1.0, 1.0], field=field).validate_point(point)
        assert typed_bits(got) == typed_bits(loop_validate(field, point))

    @pytest.mark.parametrize(
        "point, error, message",
        [
            ((True, 1.0), ValueError, "not a scalar: True"),
            ((1.0, 1j), ValueError, "complex coordinate 1j in a real instance"),
            ((math.nan, 1.0), NonFiniteError, "non-finite coordinate: nan"),
            ((1.0, -math.inf), NonFiniteError, "non-finite coordinate: -inf"),
            ((1, math.inf), NonFiniteError, "non-finite coordinate: inf"),
        ],
    )
    def test_rejected_points_keep_type_and_message(self, point, error, message):
        with pytest.raises(ValueError) as reference:
            loop_validate("real", point)
        with pytest.raises(error) as info:
            WeightedConeMetric([1.0, 1.0]).validate_point(point)
        assert str(info.value) == str(reference.value) == message
        assert isinstance(info.value, NonFiniteError) == (error is NonFiniteError)

    @pytest.mark.parametrize(
        "point",
        [
            (1.5 + 2j, complex(-0.0, -0.0)),
            (0j, complex(0.0, -0.0)),
            (1, 2),
            (2.5, -0.0),
            (_Complex(1 + 1j), 3j),
            (_Float(0.1), 1 - 1j),
        ],
    )
    def test_complex_field_accepts_like_the_loop(self, point):
        got = WeightedConeMetric([1.0, 1.0], field="complex").validate_point(point)
        assert typed_bits(got) == typed_bits(loop_validate("complex", point))

    @pytest.mark.parametrize(
        "point, error, message",
        [
            ((True, 1j), ValueError, "not a scalar: True"),
            ((1j, True), ValueError, "not a scalar: True"),
            ((complex(math.nan, 0.0), 1j), NonFiniteError, "non-finite coordinate: (nan+0j)"),
            ((0j, complex(0.0, -math.inf)), NonFiniteError, "non-finite coordinate: -infj"),
            ((math.inf, 1j), NonFiniteError, "non-finite coordinate: (inf+0j)"),
        ],
    )
    def test_complex_field_rejects_like_the_loop(self, point, error, message):
        with pytest.raises(ValueError) as reference:
            loop_validate("complex", point)
        with pytest.raises(error) as info:
            WeightedConeMetric([1.0, 1.0], field="complex").validate_point(point)
        assert str(info.value) == str(reference.value) == message
        assert isinstance(info.value, NonFiniteError) == (error is NonFiniteError)

    def test_exact_complex_point_is_returned_unchanged(self):
        point = (1 + 2j, -0.0j)
        assert WeightedConeMetric([1.0, 1.0], field="complex").validate_point(point) is point

    @pytest.mark.parametrize(
        "field, point",
        [
            ("real", (1e308, 1e308)),
            ("real", (-1e308, -1.5e308)),
            ("real", (1e308, 2**1023)),
            ("complex", (complex(1e308, 1e308), complex(1e308, -1e308))),
            ("complex", (complex(-1e308, 0.0), complex(-1.7e308, 1.0))),
            ("complex", (complex(1e308, 1e308), 1e308)),
        ],
    )
    def test_overflowing_coordinate_sum_matches_the_loop(self, field, point):
        got = WeightedConeMetric([1.0, 1.0], field=field).validate_point(point)
        assert typed_bits(got) == typed_bits(loop_validate(field, point))

    @pytest.mark.parametrize(
        "field, point, message",
        [
            ("real", (1e308, 1e308, math.nan), "non-finite coordinate: nan"),
            ("real", (math.inf, -math.inf, 1.0), "non-finite coordinate: inf"),
            (
                "complex",
                (complex(1e308, 1e308), complex(1e308, 0.0), complex(0.0, math.inf)),
                "non-finite coordinate: infj",
            ),
        ],
    )
    def test_overflowing_sum_with_a_bad_term_names_it(self, field, point, message):
        with pytest.raises(ValueError) as reference:
            loop_validate(field, point)
        with pytest.raises(NonFiniteError) as info:
            WeightedConeMetric([1.0] * len(point), field=field).validate_point(point)
        assert str(info.value) == str(reference.value) == message

    def test_complex_non_finite(self):
        with pytest.raises(NonFiniteError, match="non-finite coordinate"):
            WeightedConeMetric([1.0], field="complex").validate_point((complex(math.inf, 0),))


class TestModulusOverflow:
    """A finite complex difference whose modulus exceeds the float range."""

    INST = WeightedConeMetric([1.0], field="complex")

    def test_distance_and_norm_raise_non_finite(self):
        for call, args in (
            (self.INST.distance, ((1.5e308 + 0j,), (1.5e308j,))),
            (self.INST.norm, ((complex(1.5e308, 1.5e308),),)),
        ):
            with pytest.raises(NonFiniteError) as info:
                call(*args)
            assert str(info.value) == "non-finite coordinate: inf"
            assert isinstance(info.value, ArithmeticError)

    def test_run_picard_ends_unconverged(self):
        problem = Problem(
            map_fn=lambda x: (1j * x[0].real,),
            x0=(1.5e308 + 0j,),
            metric=self.INST,
            gauge=GaugeNorm(SpaceSpec(1, Vec([1.0]))),
            stop_c=Vec([1e-9]),
        )
        result = run_picard(problem)
        assert result.converged is False
        assert result.trace.iterates == [(1.5e308 + 0j,)]
        assert result.trace.step_dists == []
        assert result.certificate is None


# Finite floats across the whole range, with signed zeros, subnormals and the
# largest decades, where a difference or a complex modulus overflows.
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308])
finite_floats = EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)


def weighted_formula(alpha, x, y):
    """The weighted distance written out: a * |x_i - y_i| per coordinate."""
    try:
        return Vec._of(tuple([a * abs(cx - cy) for a, cx, cy in zip(alpha, x, y)]))
    except OverflowError:
        raise NonFiniteError("non-finite coordinate: inf") from None


def distance_outcome(fn, *args):
    """Coordinates with their exact bits (``repr`` keeps the sign of a
    zero), or the message of the non-finite error raised."""
    try:
        return repr(fn(*args).coords)
    except NonFiniteError as exc:
        return f"NonFiniteError: {exc}"


class TestUnitWeights:
    """Unit weights skip the multiply, and 1.0 * m == m bit for bit."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @settings(max_examples=300)
    @given(data=st.data())
    def test_same_bits_as_the_weighted_formula(self, field, data):
        coord = finite_floats if field == "real" else st.builds(complex, finite_floats, finite_floats)
        n = data.draw(st.integers(1, 4))
        x, y = (tuple(data.draw(st.lists(coord, min_size=n, max_size=n))) for _ in "xy")
        inst = WeightedConeMetric([1.0] * n, field=field)
        assert distance_outcome(inst._distance, x, y) == distance_outcome(weighted_formula, (1.0,) * n, x, y)

    @pytest.mark.parametrize(
        "field, x, y",
        [
            ("real", (1e308, 0.0), (-1e308, 0.0)),  # the difference overflows
            ("real", (5e-324, -0.0, 0.0), (0.0, 5e-324, -0.0)),
            ("complex", (1.5e308 + 0j,), (1.5e308j,)),  # the modulus overflows
            ("complex", (complex(-0.0, 5e-324), 0j), (0j, complex(0.0, -0.0))),
        ],
    )
    def test_edge_values(self, field, x, y):
        inst = WeightedConeMetric([1.0] * len(x), field=field)
        assert distance_outcome(inst._distance, x, y) == distance_outcome(weighted_formula, (1.0,) * len(x), x, y)


class TestDiscrete:
    def test_distance(self):
        inst = DiscreteConeMetric(Vec([1.0, 2.0]))
        assert inst.distance("a", "a") == Vec.zeros(2)
        assert inst.distance("a", "b") == Vec([1.0, 2.0])

    def test_value_cannot_leave_the_cone_after_the_checks(self):
        d = DiscreteConeMetric(Vec([1.0]))
        with pytest.raises(AttributeError, match="^cannot assign to field 'a'$"):
            d.a = Vec([-1.0])
        assert in_cone(d.distance("x", "y"))
        assert d == DiscreteConeMetric(Vec([1.0])) != DiscreteConeMetric(Vec([2.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteConeMetric(Vec([0.0, 0.0]))
        with pytest.raises(ValueError):
            DiscreteConeMetric(Vec([-1.0, 1.0]))

    @pytest.mark.parametrize("a", [[1.0, 0.5], (1.0, 0.5)], ids=["list", "tuple"])
    def test_value_must_be_a_vec(self, a):
        with pytest.raises(TypeError, match=f"^a must be a Vec, got {type(a).__name__}$"):
            DiscreteConeMetric(a)

    @given(st.lists(st.integers(0, 4), min_size=3, max_size=3))
    def test_metric_axioms(self, pts):
        inst = DiscreteConeMetric(Vec([1.0, 2.0]))
        x, y, z = pts
        assert (inst.distance(x, y) == Vec.zeros(2)) == (x == y)
        assert inst.distance(x, y) == inst.distance(y, x)
        assert leq(inst.distance(x, z), inst.distance(x, y) + inst.distance(y, z))


class TestPlus:
    def test_distance(self):
        inst = PlusConeMetric(2)
        assert inst.distance(Vec([1, 2]), Vec([3, 0])).coords == (4.0, 2.0)
        assert inst.distance(Vec([1, 2]), Vec([1, 2])) == Vec.zeros(2)

    def test_rejects_points_outside_cone(self):
        inst = PlusConeMetric(2)
        with pytest.raises(ValueError):
            inst.distance(Vec([-1, 0]), Vec([0, 0]))

    @pytest.mark.parametrize("n", [0, 1.0, True])
    def test_rejects_a_dimension_that_is_not_a_positive_int(self, n):
        with pytest.raises(ValueError):
            PlusConeMetric(n)

    @given(data=st.data())
    def test_metric_axioms(self, data):
        n = data.draw(dims)
        inst = PlusConeMetric(n)
        nonneg = vec_st(n, st.integers(0, 2**14).map(lambda k: k / 2**10))
        x, y, z = data.draw(nonneg), data.draw(nonneg), data.draw(nonneg)
        assert (inst.distance(x, y) == Vec.zeros(n)) == (x == y)
        assert inst.distance(x, y) == inst.distance(y, x)
        assert leq(inst.distance(x, z), inst.distance(x, y) + inst.distance(y, z))


class TestDistanceLiesInTheCone:
    """Every metric's distance lies in the cone, and its largest coordinate is
    never ``-0.0``: the precondition of ``gauge._cone_max``, which gauges
    the engine's steps.  Weighted: a positive weight times ``abs``.  Discrete:
    ``Vec.zeros`` or the nonzero cone value ``a``.  Plus: ``Vec.zeros`` or
    ``x + y`` with a positive coordinate where the points differ."""

    nonneg = st.sampled_from([-0.0, 0.0, 5e-324, 1e308]) | st.floats(
        min_value=0.0, allow_nan=False, allow_infinity=False
    )

    def draw_case(self, kind, n, data):
        if kind == "weighted-real":
            points = st.lists(finite_floats, min_size=n, max_size=n).map(tuple)
        elif kind == "weighted-complex":
            coord = st.builds(complex, finite_floats, finite_floats)
            points = st.lists(coord, min_size=n, max_size=n).map(tuple)
        elif kind == "discrete":
            a = data.draw(st.lists(self.nonneg, min_size=n, max_size=n).filter(any).map(Vec))
            return DiscreteConeMetric(a), st.integers(0, 2)
        else:
            return PlusConeMetric(n), st.lists(self.nonneg, min_size=n, max_size=n).map(Vec)
        weight = st.floats(min_value=5e-324, max_value=1e308)
        alpha = data.draw(st.lists(weight, min_size=n, max_size=n))
        return WeightedConeMetric(alpha, field=kind.split("-")[1]), points

    @pytest.mark.parametrize("kind", ["weighted-real", "weighted-complex", "discrete", "plus"])
    @settings(max_examples=300)
    @given(data=st.data())
    def test_distance_is_in_the_cone(self, kind, data):
        n = data.draw(st.integers(1, 4))
        inst, points = self.draw_case(kind, n, data)
        x, y = data.draw(points), data.draw(points)
        try:
            d = inst.distance(x, y)
        except NonFiniteError:  # a difference, modulus or sum past the float range
            return
        assert in_cone(d)
        assert repr(max(d.coords)) != "-0.0"


class TestScalarize:
    def test_examples(self):
        weighted = WeightedConeMetric([1.0, 1.0])
        assert scalarize(weighted, ONES2, (2.0, 0.0), (0.0, 0.0)) == 2.0
        assert scalarize(weighted, ONES2, (1.0, 1.0), (1.0, 1.0)) == 0.0
        disc = DiscreteConeMetric(Vec([1.0, 2.0]))
        assert scalarize(disc, ONES2, "a", "b") == 2.0

    @given(data=st.data())
    def test_is_a_metric(self, data):
        n = data.draw(dims)
        inst = WeightedConeMetric([data.draw(dyadic_pos_coord) for _ in range(n)])
        g = GaugeNorm(SpaceSpec(n, data.draw(vec_st(n, dyadic_pos_coord))))
        x = tuple(data.draw(dyadic_coord) for _ in range(n))
        y = tuple(data.draw(dyadic_coord) for _ in range(n))
        z = tuple(data.draw(dyadic_coord) for _ in range(n))
        assert scalarize(inst, g, x, y) == scalarize(inst, g, y, x)
        assert (scalarize(inst, g, x, y) == 0.0) == (x == y)
        assert scalarize(inst, g, x, z) <= (
            scalarize(inst, g, x, y) + scalarize(inst, g, y, z) + 1e-12
        )


# Coordinates up to 1e308 in modulus, with the ends and the overflowing pair
# drawn often, so a difference can leave the float range; weights up to 4,
# so a weighted modulus can too.
huge_coord = st.sampled_from([1e308, -1e308, 0.0, 1.0]) | st.floats(-1e308, 1e308)
huge_radius = st.sampled_from([0.0, 1.0, 1e308]) | st.floats(0.0, 1e308)
weight = st.sampled_from([1.0, 4.0]) | st.floats(0.25, 4.0)


@st.composite
def ball_cases(draw):
    """A weighted metric of dimension 1-3, a closed ball and a point."""
    n = draw(st.integers(1, 3))
    field = draw(st.sampled_from(["real", "complex"]))
    metric = WeightedConeMetric(draw(st.lists(weight, min_size=n, max_size=n)), field)
    coord = huge_coord if field == "real" else st.builds(complex, huge_coord, huge_coord)
    point = st.lists(coord, min_size=n, max_size=n).map(tuple)
    radius = Vec(draw(st.lists(huge_radius, min_size=n, max_size=n)))
    return metric, Ball(draw(point), radius), draw(point)


class TestBalls:
    def test_radius_validation(self):
        Ball(center=(0.0,), radius=Vec([0.0]), closed=True)
        with pytest.raises(ValueError):
            Ball(center=(0.0,), radius=Vec([0.0]), closed=False)
        with pytest.raises(ValueError):
            Ball(center=(0.0,), radius=Vec([-1.0]), closed=True)

    def test_radius_must_be_a_vec(self):
        with pytest.raises(TypeError, match="^radius must be a Vec, got list$"):
            Ball((0.0,), [1.0])

    def test_equal_balls_compare_and_hash_alike(self):
        a = Ball((0.0,), Vec([1.0]))
        assert a == Ball(center=(0.0,), radius=Vec([1.0]), closed=True)
        assert hash(a) == hash(Ball((0.0,), Vec([1.0]), True))
        assert a != Ball((0.0,), Vec([1.0]), closed=False)

    def test_frozen(self):
        ball = Ball((0.0,), Vec([1.0]))
        with pytest.raises(AttributeError):
            ball.closed = False
        assert ball.closed

    def test_membership(self):
        inst = WeightedConeMetric([1.0, 1.0])
        closed = Ball(center=(0.0, 0.0), radius=Vec([1.0, 1.0]), closed=True)
        opened = Ball(center=(0.0, 0.0), radius=Vec([1.0, 1.0]), closed=False)
        assert ball_contains(closed, inst, (1.0, 1.0))  # boundary point
        assert not ball_contains(opened, inst, (1.0, 1.0))
        assert ball_contains(opened, inst, (0.5, -0.5))
        assert not ball_contains(closed, inst, (1.5, 0.0))

    @pytest.mark.parametrize(
        "ball, inst, x",
        [
            (Ball((-1e308,), Vec([1.0])), WeightedConeMetric([1.0]), (1e308,)),
            (Ball((-1e308,), Vec([1.0]), closed=False), WeightedConeMetric([1.0]), (1e308,)),
            (Ball(Vec([1e308]), Vec([1.0])), PlusConeMetric(1), Vec([1.5e308])),
        ],
        ids=["closed", "open", "plus"],
    )
    def test_a_distance_beyond_the_float_range_is_outside(self, ball, inst, x):
        assert ball_contains(ball, inst, x) is False

    @given(case=ball_cases())
    @example(case=(WeightedConeMetric([1.0]), Ball((-1e308,), Vec([1.0])), (1e308,)))
    @settings(max_examples=300, deadline=None)
    def test_membership_is_the_engines_ball_test(self, case):
        """``ball_contains`` answers as the engine's domain test on every
        iterate, also where the distance to the center overflows."""
        metric, ball, x = case
        n = metric.dim
        problem = Problem(
            lambda y: y, ball.center, metric, GaugeNorm(SpaceSpec(n, Vec.ones(n))), Vec.ones(n),
            domain=ball,
        )
        assert ball_contains(ball, metric, x) is _in_domain(problem, metric.validate_point(x))

    @given(case=ball_cases(), closed=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_the_coordinate_test_decides_as_the_distance_vector(self, case, closed):
        """A weighted metric's point-in-ball test, coordinate by coordinate,
        answers as d(x, center) compared with the radius in the cone order,
        where ``_reach`` reads a distance beyond the float range as outside."""
        metric, ball, x = case
        x, center = metric.validate_point(x), metric.validate_point(ball.center)
        d = _reach(metric, x, center)
        expected = d is not None and (leq(d, ball.radius) if closed else lt(d, ball.radius))
        assert _in_ball(metric, x, center, ball.radius, closed) is expected

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_a_miss_ahead_of_an_overflowing_coordinate_is_outside(self, field):
        # Coordinate 0 misses the radius; |1e308 - (-1e308)| overflows in coordinate 1.
        metric = WeightedConeMetric([1.0, 2.0], field)
        x, center = metric.validate_point((5.0, 1e308)), metric.validate_point((0.0, -1e308))
        for closed in (True, False):
            assert not _in_ball(metric, x, center, Vec([1.0, 1.0]), closed)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_an_overflowing_complex_modulus_is_outside(self, alpha):
        """|1.5e308 + 1.5e308j| lies beyond the float range, so ``abs`` raises
        OverflowError, even where a weight below 1 would bring it back."""
        metric = WeightedConeMetric([alpha], "complex")
        ball = Ball((0j,), Vec([1e308]))
        x = (1.5e308 + 1.5e308j,)
        with pytest.raises(OverflowError):
            abs(x[0])
        assert not ball_contains(ball, metric, x)
        assert not ball_contains(Ball((0j,), Vec([1e308]), closed=False), metric, x)
        one = Vec([1.0])
        problem = Problem(lambda y: y, (0j,), metric, GaugeNorm(SpaceSpec(1, one)), one, domain=ball)
        assert not _in_domain(problem, x)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_a_point_on_the_boundary_is_inside_the_closed_ball_only(self, field):
        # 2 * |1.5 - 0.5| equals the radius 2 in coordinate 0.
        metric = WeightedConeMetric([2.0, 1.0], field)
        x, closed = (1.5, 0.0), Ball((0.5, 0.0), Vec([2.0, 1.0]))
        assert ball_contains(closed, metric, x)
        assert not ball_contains(Ball((0.5, 0.0), Vec([2.0, 1.0]), closed=False), metric, x)
        problem = Problem(lambda y: y, closed.center, metric, ONES2, Vec([1.0, 1.0]), domain=closed)
        assert _in_domain(problem, metric.validate_point(x))

    def test_a_radius_of_another_length_is_refused_as_before(self):
        ball = Ball((0.0,), Vec([1.0, 1.0]))
        with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 1$"):
            ball_contains(ball, WeightedConeMetric([1.0]), (0.0,))


class TestInequalityTransfer:
    def test_examples(self):
        g = ONES2
        d = Vec([1.0, 1.0])
        assert inequality_transfer_check(Vec.zeros(2), [1.0], [d], d, g)
        assert inequality_transfer_check(d, [], [], d, g)

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            inequality_transfer_check(
                Vec.zeros(2), [-1.0], [Vec([1.0, 1.0])], Vec.zeros(2), ONES2
            )

    @pytest.mark.parametrize(
        "coeff, d",
        [(math.nan, 1.0), (math.inf, 0.0), (math.inf, 1.0)],
        ids=["nan", "inf-times-zero-gauge", "inf"],
    )
    def test_rejects_non_finite_coefficients(self, coeff, d):
        # NaN is not < 0, and inf times a zero gauge is NaN: unchecked, either
        # would answer False, a violated inequality, for bad input.
        g = GaugeNorm(SpaceSpec(1, Vec([1.0])))
        with pytest.raises(ValueError, match="^coefficients must be finite and nonnegative, got "):
            inequality_transfer_check(Vec([1.0]), [coeff], [Vec([d])], Vec([0.5]), g)

    @given(data=st.data())
    def test_transfer_on_constructed_inequalities(self, data):
        # Cone-level inequality built to hold: d0 a coordinatewise fraction
        # of coeff0 + sum coeffs[i] * d_i.  The scalar image must follow.
        n = data.draw(dims)
        g = GaugeNorm(SpaceSpec(n, data.draw(vec_st(n, dyadic_pos_coord))))
        inst = WeightedConeMetric([data.draw(dyadic_pos_coord) for _ in range(n)])
        k = data.draw(st.integers(0, 3))
        dpairs = []
        for _ in range(k):
            x = tuple(data.draw(dyadic_coord) for _ in range(n))
            y = tuple(data.draw(dyadic_coord) for _ in range(n))
            dpairs.append(inst.distance(x, y))
        coeffs = [data.draw(st.integers(0, 48).map(lambda v: v / 16)) for _ in range(k)]
        coeff0 = data.draw(vec_st(n, st.integers(0, 2**14).map(lambda v: v / 2**10)))
        rhs = coeff0
        for c, d in zip(coeffs, dpairs):
            rhs = rhs + c * d
        frac = data.draw(st.integers(0, 16)) / 16
        d0 = frac * rhs
        assert leq(d0, rhs)
        assert inequality_transfer_check(coeff0, coeffs, dpairs, d0, g, tol=1e-12)


    @given(data=st.data())
    def test_agrees_with_an_exact_right_side(self, data):
        # The right side is the float terms summed exactly, rounded once, so
        # a d0 whose gauge sits a few ulps either side of it is decided the
        # same way on every Python.
        n = data.draw(dims)
        g = GaugeNorm(SpaceSpec(n, Vec.ones(n)))
        wide = st.floats(0.0, 2.0**60).map(lambda v: v * 2.0 ** -(int(v) % 60))
        k = data.draw(st.integers(0, 4))
        coeffs = [data.draw(wide) for _ in range(k)]
        dpairs = [data.draw(vec_st(n, wide)) for _ in range(k)]
        coeff0 = data.draw(vec_st(n, wide))
        exact = Fraction(mink_norm(coeff0, g))
        exact += sum(Fraction(c * mink_norm(d, g)) for c, d in zip(coeffs, dpairs))
        rhs = float(exact)
        gauge0 = rhs
        for _ in range(data.draw(st.integers(0, 2))):
            gauge0 = math.nextafter(gauge0, data.draw(st.sampled_from([-math.inf, math.inf])))
        d0 = Vec([max(gauge0, 0.0)] + [0.0] * (n - 1))
        assert inequality_transfer_check(coeff0, coeffs, dpairs, d0, g) == (d0.coords[0] <= rhs)

    def test_an_overflowing_right_side_is_inf(self):
        big = Vec([1e308, 1e308])
        assert inequality_transfer_check(big, [1.0], [big], Vec([1e308, 0.0]), ONES2)


class TestNestedBallProbe:
    def test_constant_center(self):
        inst = WeightedConeMetric([1.0, 1.0])
        g = ONES2
        centers = [(0.0, 0.0)] * 40
        radii = [0.5**k * Vec([1.0, 1.0]) for k in range(40)]
        assert nested_ball_probe(centers, radii, inst, g) == (0.0, 0.0)

    def test_converging_centers(self):
        inst = WeightedConeMetric([1.0, 1.0])
        g = ONES2
        centers = [(1.0 - 2.0**-k, 1.0 - 2.0**-k) for k in range(40)]
        radii = [Vec([2.0**-k * 2, 2.0**-k * 2]) for k in range(40)]
        point = nested_ball_probe(centers, radii, inst, g)
        for c, r in zip(centers, radii):
            assert ball_contains(Ball(center=c, radius=r), inst, point)

    def test_nesting_violation(self):
        inst = WeightedConeMetric([1.0])
        g = GaugeNorm(SpaceSpec(1, Vec([1.0])))
        with pytest.raises(ValueError):
            nested_ball_probe(
                [(0.0,), (5.0,)], [Vec([1.0]), Vec([0.5])], inst, g
            )

    def test_a_step_beyond_the_float_range_violates_nesting(self):
        inst = WeightedConeMetric([1.0])
        g = GaugeNorm(SpaceSpec(1, Vec([1.0])))
        with pytest.raises(ValueError, match="^nesting violated between balls 0 and 1$"):
            nested_ball_probe([(1e308,), (-1e308,)], [Vec([1.0]), Vec([1e-12])], inst, g)

    def test_radii_must_shrink(self):
        inst = WeightedConeMetric([1.0])
        g = GaugeNorm(SpaceSpec(1, Vec([1.0])))
        with pytest.raises(ValueError):
            nested_ball_probe([(0.0,), (0.0,)], [Vec([1.0]), Vec([1.0])], inst, g)


class TestJsonInterfaces:
    def test_instances(self):
        w = instance_from_json({"kind": "weighted", "alpha": [1, 2], "field": "complex"})
        assert isinstance(w, WeightedConeMetric) and w.field == "complex"
        d = instance_from_json({"kind": "discrete", "a": [1, 2]})
        assert isinstance(d, DiscreteConeMetric)
        p = instance_from_json({"kind": "plus", "n": 3})
        assert isinstance(p, PlusConeMetric)
        with pytest.raises(ValueError):
            instance_from_json({"kind": "unknown"})

    def test_points(self):
        w = instance_from_json({"kind": "weighted", "alpha": [1, 1], "field": "complex"})
        assert parse_point(w, [[1, 2], 3]) == (1 + 2j, 3 + 0j)
        r = instance_from_json({"kind": "weighted", "alpha": [1]})
        assert parse_point(r, [2]) == (2.0,)
        with pytest.raises(ValueError):
            parse_point(r, [[1, 2]])
