"""The directed-rounding helpers against exact rational arithmetic."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conecert.rounding import add_up, div_up, dot_up, mul_up, sub_down

INF = math.inf
MAX = sys.float_info.max
TINY = 5e-324  # the smallest subnormal

finite = st.floats(allow_nan=False, allow_infinity=False)


def assert_up(result: float, exact: Fraction) -> None:
    """``result`` is at least ``exact``, and the float two steps below it is not."""
    assert not math.isnan(result)
    assert result == INF or (result != -INF and Fraction(result) >= exact)
    below = math.nextafter(math.nextafter(result, -INF), -INF)
    assert below == -INF or Fraction(below) < exact


def assert_down(result: float, exact: Fraction) -> None:
    assert_up(-result, -exact)


class TestScalar:
    @settings(max_examples=300)
    @given(finite, finite)
    @example(MAX, MAX)
    @example(-MAX, -MAX)
    @example(MAX, 0.0)
    @example(TINY, -TINY)
    @example(-0.0, -0.0)
    def test_add_up(self, a, b):
        assert_up(add_up(a, b), Fraction(a) + Fraction(b))

    @settings(max_examples=300)
    @given(finite, finite)
    @example(MAX, -MAX)
    @example(-MAX, MAX)
    @example(TINY, TINY)
    @example(0.0, 0.0)
    def test_sub_down(self, a, b):
        assert_down(sub_down(a, b), Fraction(a) - Fraction(b))

    @settings(max_examples=300)
    @given(finite, finite)
    @example(1e-200, 1e-200)
    @example(-1e-200, 1e-200)
    @example(TINY, 0.5)
    @example(MAX, 2.0)
    @example(-MAX, 2.0)
    def test_mul_up(self, a, b):
        assert_up(mul_up(a, b), Fraction(a) * Fraction(b))

    @settings(max_examples=300)
    @given(finite, finite.filter(bool))
    @example(TINY, 2.0)
    @example(-TINY, 3.0)
    @example(1e-300, 1e300)
    @example(MAX, 0.5)
    @example(-MAX, 0.5)
    def test_div_up(self, a, b):
        assert_up(div_up(a, b), Fraction(a) / Fraction(b))

    def test_underflow_rounds_up_to_the_smallest_subnormal(self):
        assert 1e-200 * 1e-200 == 0.0 and mul_up(1e-200, 1e-200) == TINY
        assert math.copysign(1.0, -1e-200 * 1e-200) == -1.0
        assert mul_up(-1e-200, 1e-200) == TINY
        assert div_up(-TINY, 3.0) == TINY

    def test_overflow_lands_on_the_safe_side(self):
        assert add_up(MAX, MAX) == INF and mul_up(MAX, 2.0) == INF
        assert mul_up(-MAX, 2.0) == -MAX and div_up(-MAX, 0.5) == -MAX
        assert sub_down(-MAX, MAX) == -INF and sub_down(MAX, -MAX) == MAX

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            div_up(1.0, 0.0)


pairs = st.lists(st.tuples(finite, finite), max_size=8)


class TestDot:
    @settings(max_examples=300)
    @given(pairs)
    @example([(1e308, 1.0), (1e308, 1.0), (-1e308, 1.0)])
    @example([(-1e308, 1.0), (-1e308, 1.0), (1e308, 1.0)])
    @example([(1e308, 1.0), (1e308, 1.0)])
    @example([(-1e308, 1.0), (-1e308, 1.0)])
    @example([(1e308, 1.0), (1e308, 1.0), (MAX, 2.0)])
    @example([(1e-200, 1e-200), (-1e-200, 1e-200)])
    @example([])
    def test_dot_up(self, pairs):
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        result = dot_up(xs, ys)
        exact = sum((Fraction(x) * Fraction(y) for x, y in pairs), Fraction(0))
        assert result == INF or (result != -INF and Fraction(result) >= exact)
        # Within two steps of the exact sum of the rounded-up products, each
        # of which the scalar tests pin within two steps of its product.
        terms = [mul_up(x, y) for x, y in pairs]
        if INF in terms:
            assert result == INF
        else:
            assert_up(result, sum(map(Fraction, terms), Fraction(0)))

    def test_sum_overflow_falls_back_to_exact_sums(self):
        # fsum raises on the intermediate 2e308; the terms' exact sum is
        # three steps above 1e308, each term having been rounded up.
        xs = [1e308, 1e308, -1e308]
        with pytest.raises(OverflowError):
            math.fsum(xs)
        expect = 1e308
        for _ in range(4):
            expect = math.nextafter(expect, INF)
        assert dot_up(xs, [1.0, 1.0, 1.0]) == expect
        assert dot_up([1e308, 1e308], [1.0, 1.0]) == INF
        assert dot_up([-1e308, -1e308], [1.0, 1.0]) == -MAX

    def test_not_a_recursive_sum_plus_one_step(self):
        # Summed left to right, 1e16 + 1.0 rounds back to 1e16, so the sum is
        # 0.0, and one step above it is still below the exact value 1.
        xs, ys = [1e16, 1.0, -1e16], [1.0, 1.0, 1.0]
        recursive = 0.0
        for x, y in zip(xs, ys):
            recursive += x * y
        assert math.nextafter(recursive, INF) < 1.0 <= dot_up(xs, ys)

    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="^dot product of lengths 2 and 1$"):
            dot_up([1.0, 2.0], [1.0])
