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
from operator import le, lt as _lt
from typing import Iterable

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
    # A Vec holds no NaN, so its minimum decides the whole comparison.  The
    # attribute read is the type check, so a valid call pays for none.
    try:
        return min(x.coords) >= 0.0
    except AttributeError:
        raise TypeError(f"x must be a Vec, got {type(x).__name__}") from None


def in_interior(x: Vec) -> bool:
    """True iff every coordinate of x is > 0 (x lies in the cone's interior)."""
    try:
        return min(x.coords) > 0.0
    except AttributeError:
        raise TypeError(f"x must be a Vec, got {type(x).__name__}") from None


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


class _Record:
    """Constructor, field-wise ``==`` and ``repr`` for the package's plain records.

    A subclass declares its fields once, as ``__slots__``; a slot whose name
    starts with ``_`` holds derived state and is not a field.  A subclass of
    a record lists its own fields after its parent's.  The
    constructor binds the fields by position or keyword, in slot order, and
    a trailing run of fields may fall back to the class's ``_defaults`` dict
    (shared by every instance, so immutable values only).  A missing,
    unknown, surplus or duplicate field raises ``TypeError`` naming the class
    and the field.  Slots are set with ``object.__setattr__``, so frozen
    subclasses use it too; a validating subclass checks its input in its own
    ``__init__`` and passes the checked values on.  As with a dataclass,
    ``==`` compares the field tuples of two instances of the same class,
    ``repr`` names the class and each field, and the class is unhashable.
    """

    __slots__ = ()
    _names: tuple = ()  # the public slots, in order: the fields
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls).get("__slots__", ())
        cls._names = cls._names + tuple([f for f in own if f[0] != "_"])

    def __init__(self, *args, **kwargs):
        names = self._names
        if len(args) > len(names):
            cls = type(self).__qualname__
            raise TypeError(f"{cls}() takes {len(names)} fields {names}, got {len(args)}")
        set_ = object.__setattr__
        for name, value in zip(names, args):
            set_(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__qualname__}() missing field {name!r}")
            set_(self, name, value)
        for name in kwargs:
            problem = "got field {!r} twice" if name in names else "has no field {!r}"
            raise TypeError(f"{type(self).__qualname__}() {problem.format(name)}")

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self._names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._names)
        return f"{type(self).__qualname__}({fields})"


class _FrozenRecord(_Record):
    """A :class:`_Record` that hashes by its fields and refuses assignment.

    Copies and pickles are rebuilt through the constructor from the fields.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class SpaceSpec(_FrozenRecord):
    """Dimension together with a strictly positive base vector.

    The base vector fixes the order interval [-base, base] whose gauge the
    rest of the package uses for scalarization.
    """

    __slots__ = ("n", "base")

    def __init__(self, n: int, base: Vec):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"dimension must be a positive integer, got {n!r}")
        if not isinstance(base, Vec):
            raise TypeError(f"base must be a Vec, got {type(base).__name__}")
        if len(base) != n:
            raise ValueError(f"base vector has {len(base)} coordinates, expected {n}")
        if not in_interior(base):
            raise ValueError("base vector must be strictly positive")
        super().__init__(n, base)


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
