import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conecert.maps import Affine
from conecert.solid import NonFiniteError

# Entries whose magnitudes span 40 binades, so a row's products cancel and a
# left-to-right float sum rounds away from the exact one.
entries = st.floats(-(2.0**20), 2.0**20, allow_nan=False).map(lambda v: v * 2.0 ** (int(v) % 20))


@st.composite
def affine_and_point(draw):
    n = draw(st.integers(1, 8))
    matrix = [[draw(entries) for _ in range(n)] for _ in range(n)]
    offset = [draw(entries) for _ in range(n)]
    x = tuple(draw(entries) for _ in range(n))
    return Affine(matrix, offset), x


@given(affine_and_point())
def test_each_row_is_the_correctly_rounded_sum_of_its_products(case):
    """One rounding per product, one for their exact sum, one for the offset:
    the same bits on every Python."""
    f, x = case
    expected = tuple(
        float(sum(Fraction(a * b) for a, b in zip(row, x))) + c
        for row, c in zip(f.matrix, f.offset)
    )
    assert f(x) == expected


@given(affine_and_point(), st.lists(entries, min_size=8, max_size=8))
def test_a_complex_point_sums_each_part_correctly_rounded(case, imag):
    """A point under a complex metric: fsum takes no complex, so the real and
    the imaginary parts of a row's products are summed apart, each exactly."""
    f, re = case
    x = tuple(complex(a, b) for a, b in zip(re, imag))

    def exact(row, part):
        return float(sum(Fraction(a * part(z)) for a, z in zip(row, x)))

    expected = tuple(
        complex(exact(row, lambda z: z.real), exact(row, lambda z: z.imag)) + c
        for row, c in zip(f.matrix, f.offset)
    )
    assert f(x) == expected


@pytest.mark.parametrize("n, x", [(1, (1.0, 2.0)), (2, (1.0,))], ids=["longer", "shorter"])
def test_a_point_of_another_length_is_refused(n, x):
    # zip would otherwise drop a longer point's extra coordinates, and a
    # shorter point would give each row a partial dot product.
    f = Affine([[0.5] * n] * n, [1.0] * n)
    with pytest.raises(ValueError, match=f"^affine map is {n}x{n}, but the point has {len(x)} coordinates$"):
        f(x)


def test_a_cancelling_row_is_exact():
    # A left-to-right sum gives 0.0: 1e16 + 1.0 rounds back to 1e16.
    assert Affine([[1.0, 1.0, 1.0]] * 3, [0.0] * 3)((1e16, 1.0, -1e16)) == (1.0,) * 3


@pytest.mark.parametrize(
    "matrix, x",
    [
        ([[1e308, 1e308], [0.0, 0.0]], (1.0, 1.0)),  # a partial sum overflows
        ([[1e308, -1e308], [0.0, 0.0]], (10.0, 10.0)),  # products reach inf and -inf
    ],
    ids=["partial-sum", "opposite-infinities"],
)
def test_an_overflowing_row_raises_non_finite(matrix, x):
    with pytest.raises(NonFiniteError, match="^non-finite coordinate: an affine row overflowed$"):
        Affine(matrix, [0.0, 0.0])(x)
    with pytest.raises(NonFiniteError, match="^non-finite coordinate: an affine row overflowed$"):
        Affine(matrix, [0.0, 0.0])(tuple(1j * c for c in x))



NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "matrix, offset, name",
    [
        ([[NAN]], [INF], "matrix[0][0] = nan"),
        ([[0.5, INF], [NAN, 0.5]], [NAN, 0.0], "matrix[0][1] = inf"),
        ([[0.5, 0.0], [0.0, 0.5]], [0.0, -INF], "offset[1] = -inf"),
    ],
    ids=["nan-entry", "first-of-several", "offset"],
)
def test_a_non_finite_entry_is_rejected_by_name(matrix, offset, name):
    # Built, such a map would make a run halt "overflow" at iteration 0,
    # blaming the run for its input.
    with pytest.raises(ValueError, match=rf"^affine map needs finite entries, got {re.escape(name)}$"):
        Affine(matrix, offset)
