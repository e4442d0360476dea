"""The built-in maps, as frozen records with a ``__call__``, so a ``Problem``
that holds one compares, hashes, prints and pickles by value.  The third,
``roots.Weierstrass``, lives next to the sweep it calls.
"""

from __future__ import annotations

from math import fsum, isfinite
from operator import mul
from typing import Sequence

from .solid import NonFiniteError, _Record

__all__ = ["Affine", "Halve"]


class Affine(_Record):
    """``x -> matrix·x + offset``, one dense dot product per row.

    ``matrix`` is a tuple of rows and ``offset`` a tuple, both of finite
    floats: a NaN or infinite entry is a ``ValueError`` that names it, and a
    point of another length one that names both lengths.
    Each row's products are summed by :func:`math.fsum`, correctly rounded
    on every Python, so a coordinate carries one rounding per product, one
    for their sum and one for the offset.  A complex point (under a complex
    weighted metric) has the real and the imaginary parts of its products
    summed apart, one ``fsum`` each.  A row whose products reach both
    infinities, or whose partial sums leave the float range, raises
    :class:`NonFiniteError`: the run overflowed.
    """

    __slots__ = ("matrix", "offset")

    def __init__(self, matrix: Sequence[Sequence[float]], offset: Sequence[float]):
        rows = tuple([tuple(map(float, row)) for row in matrix])
        offset = tuple(map(float, offset))
        n = len(offset)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("affine map needs a square matrix matching the offset length")
        for i, row in enumerate((*rows, offset)):
            if not all(map(isfinite, row)):
                j, v = next((j, v) for j, v in enumerate(row) if not isfinite(v))
                name = f"offset[{j}]" if i == n else f"matrix[{i}][{j}]"
                raise ValueError(f"affine map needs finite entries, got {name} = {v!r}")
        super().__init__(rows, offset)

    def __call__(self, x) -> tuple:
        rows = self.matrix
        n = len(rows)
        if len(x) != n:  # zip and map would drop the extra coordinates
            raise ValueError(f"affine map is {n}x{n}, but the point has {len(x)} coordinates")
        try:
            try:
                return tuple([fsum(map(mul, row, x)) + ci for row, ci in zip(rows, self.offset)])
            except TypeError:  # fsum takes no complex: sum a complex point's parts apart
                return tuple([_complex_dot(row, x) + ci for row, ci in zip(rows, self.offset)])
        except (OverflowError, ValueError):
            raise NonFiniteError("non-finite coordinate: an affine row overflowed") from None


def _complex_dot(row, x) -> complex:
    """``row·x`` for a complex ``x``: one ``fsum`` per part of the products."""
    terms = list(map(mul, row, x))
    return complex(fsum([t.real for t in terms]), fsum([t.imag for t in terms]))


class Halve(_Record):
    """``x -> x / 2``, coordinate by coordinate."""

    __slots__ = ()

    def __call__(self, x) -> tuple:
        return tuple([c / 2 for c in x])
