"""Coordinatewise-ordered vectors in R^n and the cone predicates behind them.

The positive cone is the nonnegative orthant and its interior is the strictly
positive orthant.  ``leq``/``lt`` compare coordinates directly, with no
difference vector built.  That is the same order as cone membership of the
difference: for finite doubles ``y_i - x_i`` is rounded with gradual
underflow, so it is ``>= 0`` exactly when ``y_i >= x_i`` and ``> 0`` exactly
when ``y_i > x_i``.  Where ``y - x`` overflows, the difference does not exist
as a ``Vec`` but the comparison still answers.  ``tests/test_solid.py`` pins
the correspondence (``TestOrderIsConeOfDifference``, a hypothesis property
over arbitrary finite floats) and the overflow case.  Every predicate uses
exact float comparison: tolerances belong to convergence checks, never to the
order itself (an epsilon-order would not even be transitive).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import le, lt as _lt
from typing import Iterable, Sequence

__all__ = [
    "NonFiniteError",
    "Vec",
    "SpaceSpec",
    "in_cone",
    "in_interior",
    "leq",
    "lt",
    "minorant_scale",
    "bounding_scale",
    "vec_from_json",
]


class NonFiniteError(ValueError, ArithmeticError):
    """A coordinate is NaN or infinite, typically after a float overflow.

    A ``ValueError`` because the value is unusable as input, and an
    ``ArithmeticError`` because it is what an overflowing computation leaves.
    """


def _finite(cs: tuple) -> tuple:
    """Return a coordinate tuple unchanged once it is nonempty and finite.

    A NaN or infinite term always makes the float sum non-finite, so a finite
    sum accepts the tuple with one C-level pass.  A non-finite sum (a bad
    term, or finite terms whose sum overflows) falls back to the per-term
    scan, which names the first bad coordinate or accepts the tuple.
    """
    if not cs:
        raise ValueError("a vector needs at least one coordinate")
    if not math.isfinite(sum(cs)) and not all(map(math.isfinite, cs)):
        bad = next(c for c in cs if not math.isfinite(c))
        raise NonFiniteError(f"non-finite coordinate: {bad!r}")
    return cs


class Vec:
    """Immutable vector in R^n, used both for points and for distance values.

    NaN and infinities are rejected at construction so that the order
    predicates stay total on every value that exists.  ``coords`` is always a
    tuple of exact ``float``.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[float]):
        self.coords = _finite(tuple(map(float, coords)))

    @classmethod
    def _of(cls, cs: tuple) -> "Vec":
        """Vector from a tuple that already holds only exact ``float``.

        Skips the ``float()`` pass of the public constructor but keeps the
        emptiness and finiteness checks, so an overflowing computation still
        raises :class:`NonFiniteError`.  For results computed from other
        vectors' coordinates and from exact floats only.
        """
        v = cls.__new__(cls)
        v.coords = _finite(cs)
        return v

    @classmethod
    def zeros(cls, n: int) -> "Vec":
        return cls((0.0,) * n)

    @classmethod
    def ones(cls, n: int) -> "Vec":
        return cls((1.0,) * n)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> float:
        return self.coords[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Vec) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"Vec({list(self.coords)!r})"

    def _same_dim(self, other: "Vec") -> None:
        if not isinstance(other, Vec):
            raise TypeError(f"expected Vec, got {type(other).__name__}")
        if len(other.coords) != len(self.coords):
            raise ValueError(
                f"dimension mismatch: {len(self.coords)} vs {len(other.coords)}"
            )

    def __add__(self, other: "Vec") -> "Vec":
        self._same_dim(other)
        return Vec._of(tuple([a + b for a, b in zip(self.coords, other.coords)]))

    def __sub__(self, other: "Vec") -> "Vec":
        self._same_dim(other)
        return Vec._of(tuple([a - b for a, b in zip(self.coords, other.coords)]))

    def __neg__(self) -> "Vec":
        return Vec._of(tuple([-a for a in self.coords]))

    def __mul__(self, scalar: float) -> "Vec":
        if type(scalar) is not float:
            # ``1.0 * scalar`` rejects what ``coordinate * scalar`` rejects,
            # with the same error; float() then makes it an exact float with
            # the bits the float product would convert it to.
            scalar = float(1.0 * scalar)
        return Vec._of(tuple([a * scalar for a in self.coords]))

    __rmul__ = __mul__


def in_cone(x: Vec) -> bool:
    """True iff every coordinate of x is >= 0 (x lies in the positive cone)."""
    # A Vec holds no NaN, so its minimum decides the whole comparison.
    return min(x.coords) >= 0.0


def in_interior(x: Vec) -> bool:
    """True iff every coordinate of x is > 0 (x lies in the cone's interior)."""
    return min(x.coords) > 0.0


def _order_operands(x: Vec, y: Vec) -> None:
    """Reject operands exactly as the cone form ``in_cone(y - x)`` would."""
    if not isinstance(y, Vec):
        in_cone(y - x)  # raises: only a Vec y can form the difference
    y._same_dim(x)


def leq(x: Vec, y: Vec) -> bool:
    """Coordinatewise order: x precedes y iff y - x lies in the cone."""
    _order_operands(x, y)
    return all(map(le, x.coords, y.coords))


def lt(x: Vec, y: Vec) -> bool:
    """Strict order: x strictly precedes y iff y - x lies in the interior."""
    _order_operands(x, y)
    return all(map(_lt, x.coords, y.coords))


@dataclass(frozen=True)
class SpaceSpec:
    """Dimension together with a strictly positive base vector.

    The base vector fixes the order interval [-base, base] whose gauge the
    rest of the package uses for scalarization.
    """

    n: int
    base: Vec

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.n!r}")
        if len(self.base) != self.n:
            raise ValueError(
                f"base vector has {len(self.base)} coordinates, expected {self.n}"
            )
        if not in_interior(self.base):
            raise ValueError("base vector must be strictly positive")

    @classmethod
    def from_json(cls, obj: dict) -> "SpaceSpec":
        if not isinstance(obj, dict) or "n" not in obj or "base" not in obj:
            raise ValueError('space spec needs {"n": int, "base": [numbers]}')
        return cls(obj["n"], vec_from_json(obj["base"]))


def vec_from_json(values: Sequence[float]) -> Vec:
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"expected a JSON array of numbers, got {values!r}")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"expected a number, got {v!r}")
    return Vec(values)


def minorant_scale(vectors: Iterable[Vec], spec: SpaceSpec) -> float:
    """Positive scale putting the base strictly below every vector of a set.

    For a finite set A of strictly positive vectors returns
    ``lam = 0.5 * min(x_i / base_i)`` and re-verifies ``lt(lam * base, x)``
    for every member before returning, so the result is a checked witness
    rather than a formula output.
    """
    vs = list(vectors)
    if not vs:
        raise ValueError("minorant_scale needs a nonempty set")
    b = spec.base
    for x in vs:
        if len(x) != spec.n:
            raise ValueError(f"dimension mismatch: {len(x)} vs {spec.n}")
        if not in_interior(x):
            raise ValueError(f"minorant_scale needs strictly positive vectors: {x!r}")
    lam = 0.5 * min(x[i] / b[i] for x in vs for i in range(spec.n))
    for x in vs:
        if not lt(lam * b, x):
            raise ArithmeticError("minorant witness failed re-verification")
    return lam


def bounding_scale(vectors: Iterable[Vec], spec: SpaceSpec) -> float:
    """Positive scale trapping every vector of a set strictly inside [-lam*b, lam*b].

    Returns ``lam = 1 + max(|x_i| / base_i)`` over the set (1 for the set
    containing only the zero vector) and re-verifies both strict bounds for
    every member before returning.
    """
    vs = list(vectors)
    if not vs:
        raise ValueError("bounding_scale needs a nonempty set")
    b = spec.base
    for x in vs:
        if len(x) != spec.n:
            raise ValueError(f"dimension mismatch: {len(x)} vs {spec.n}")
    lam = 1.0 + max(abs(x[i]) / b[i] for x in vs for i in range(spec.n))
    scaled = lam * b
    for x in vs:
        if not (lt(-scaled, x) and lt(x, scaled)):
            raise ArithmeticError("bounding witness failed re-verification")
    return lam
