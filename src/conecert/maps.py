"""The built-in maps, as frozen records with a ``__call__``, so a ``Problem``
that holds one compares, hashes, prints and pickles by value.  The third,
``roots.Weierstrass``, lives next to the sweep it calls.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .solid import _Record

__all__ = ["Affine", "Halve"]


class Affine(_Record):
    """``x -> matrix·x + offset``, one dense dot product per row.

    ``matrix`` is a tuple of rows and ``offset`` a tuple, both of floats.
    """

    __slots__ = ("matrix", "offset")

    def __init__(self, matrix: Sequence[Sequence[float]], offset: Sequence[float]):
        rows = tuple([tuple(map(float, row)) for row in matrix])
        offset = tuple(map(float, offset))
        n = len(offset)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("affine map needs a square matrix matching the offset length")
        super().__init__(rows, offset)

    def __call__(self, x) -> tuple:
        return tuple([sum(map(mul, row, x)) + ci for row, ci in zip(self.matrix, self.offset)])


class Halve(_Record):
    """``x -> x / 2``, coordinate by coordinate."""

    __slots__ = ()

    def __call__(self, x) -> tuple:
        return tuple([c / 2 for c in x])
