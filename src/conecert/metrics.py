"""Cone-valued metrics and the checkers the iteration engine builds on.

Three concrete instances are provided:

* weighted: d(x, y) = (a_1|x_1-y_1|, ..., a_n|x_n-y_n|) over real or complex
  coordinates,
* discrete: d(x, y) = a for x != y, zero otherwise, over an arbitrary set,
* plus: d(x, y) = x + y for x != y, zero otherwise, on the positive cone.

Each metric's ``_gaps(x, y)`` draws the coordinates of d(x, y) one at a
time for validated points, so a reader that needs less than the whole
``Vec`` builds none: the engine's steps and every ball question read it.

On top of them: scalarization through the gauge, closed cone balls, scalar
inequality transfer, and a nested-ball probe.

Every ball is closed: B(c, r) = {x : d(x, c) <= r} for a radius r in the
cone.  The open balls of the topology are the strict order's, read through
:func:`~conecert.gauge.strict_ball_test`.  Every ball question in the
package, whether a point x lies in B(c, r) or a ball B(x, s) lies inside
it, compares d(x, c), plus s for a ball, with r: :func:`_within` answers
all of them, coordinate by coordinate.  A distance or sum beyond the float
range is beyond every radius: such a point lies outside the ball, and such
a ball does not fit inside it.
"""

from __future__ import annotations

import cmath
import math
import operator
from typing import Optional, Sequence, Union

from .gauge import GaugeNorm, mink_norm
from .solid import (
    NonFiniteError,
    Vec,
    _finite,
    _Record,
    in_cone,
)

__all__ = [
    "WeightedConeMetric",
    "DiscreteConeMetric",
    "PlusConeMetric",
    "ConeMetric",
    "Ball",
    "scalarize",
    "inequality_transfer_check",
    "nested_ball_probe",
]


class WeightedConeMetric(_Record):
    """Componentwise weighted modulus distance over real or complex tuples."""

    __slots__ = ("alpha", "field", "_unit")

    def __init__(self, alpha: Sequence[float], field: str = "real"):
        alpha = tuple(float(a) for a in alpha)
        if not alpha:
            raise ValueError("weight vector must be nonempty")
        if any(not math.isfinite(a) or a <= 0 for a in alpha):
            raise ValueError("weights must be finite and strictly positive")
        if field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
        super().__init__(alpha, field)
        # 1.0 * m == m exactly, so unit weights skip the multiply.
        object.__setattr__(self, "_unit", alpha.count(1.0) == len(alpha))

    @property
    def dim(self) -> int:
        return len(self.alpha)

    def validate_point(self, p) -> tuple:
        coords = tuple(p)
        if len(coords) != self.dim:
            raise ValueError(f"point has {len(coords)} coordinates, expected {self.dim}")
        # Fast path: a point of exact floats (real field, checked finite by
        # ``_finite``) or of exact finite complexes (complex field) is already
        # what the loop below would return.  One C-level count of the exact
        # type tests it, with no set built.  Everything else takes the loop.
        if self.field == "real":
            if operator.countOf(map(type, coords), float) == len(coords):
                return _finite(coords)
        elif operator.countOf(map(type, coords), complex) == len(coords) and all(
            map(cmath.isfinite, coords)
        ):
            return coords
        out = []
        for c in coords:
            if isinstance(c, bool):
                raise ValueError(f"not a scalar: {c!r}")
            if self.field == "real":
                if isinstance(c, complex):
                    raise ValueError(f"complex coordinate {c!r} in a real instance")
                c = float(c)
                if not math.isfinite(c):
                    raise NonFiniteError(f"non-finite coordinate: {c!r}")
            else:
                c = complex(c)
                if not cmath.isfinite(c):
                    raise NonFiniteError(f"non-finite coordinate: {c!r}")
            out.append(c)
        return tuple(out)

    def norm(self, x) -> Vec:
        """Cone norm of a point: the weighted vector of moduli."""
        # c - 0.0 is c exactly, up to the sign of a zero that abs drops.
        return self._distance(self.validate_point(x), (0.0,) * self.dim)

    def distance(self, x, y) -> Vec:
        return self._distance(self.validate_point(x), self.validate_point(y))

    def _distance(self, x, y) -> Vec:
        """Distance between points that already passed ``validate_point``.

        Weights and moduli are exact floats, so the gaps go straight to
        ``Vec._of``.  A complex modulus beyond the float range makes ``abs``
        raise ``OverflowError``; it is reported like a real modulus that
        rounds to inf.
        """
        try:
            return Vec._of(tuple(self._gaps(x, y)))
        except OverflowError:
            raise NonFiniteError("non-finite coordinate: inf") from None

    def _gaps(self, x, y):
        """a_i * |x_i - y_i| for validated points, drawn one coordinate at a
        time: the coordinates of ``_distance(x, y)``, built only as far as a
        reader goes.  A gap beyond the float range is inf, except a complex
        modulus, whose ``abs`` raises ``OverflowError`` when drawn."""
        gaps = map(abs, map(operator.sub, x, y))
        return gaps if self._unit else map(operator.mul, self.alpha, gaps)


class DiscreteConeMetric(_Record):
    """Fixed nonzero cone value between any two distinct points."""

    __slots__ = ("a",)

    def __init__(self, a: Vec):
        if not isinstance(a, Vec):
            raise TypeError(f"a must be a Vec, got {type(a).__name__}")
        if not in_cone(a):
            raise ValueError("discrete distance value must lie in the cone")
        if a == Vec.zeros(len(a)):
            raise ValueError("discrete distance value must be nonzero")
        super().__init__(a)

    @property
    def dim(self) -> int:
        return len(self.a)

    def validate_point(self, p):
        """``p`` itself, once it is hashable: a point of any set, but one that
        a frozen problem can hold (a list would stay the caller's to change)."""
        try:
            hash(p)
        except TypeError:
            raise TypeError(f"a discrete point must be hashable, got {type(p).__name__}") from None
        return p

    def distance(self, x, y) -> Vec:
        return self._distance(self.validate_point(x), self.validate_point(y))

    def _distance(self, x, y) -> Vec:
        return Vec.zeros(self.dim) if x == y else self.a

    def _gaps(self, x, y):
        """The coordinates of ``_distance(x, y)``."""
        return (0.0,) * self.dim if x == y else self.a.coords


class PlusConeMetric(_Record):
    """Sum distance on the positive cone: d(x, y) = x + y for x != y."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"dimension must be a positive integer, got {n!r}")
        super().__init__(n)

    @property
    def dim(self) -> int:
        return self.n

    def validate_point(self, p) -> Vec:
        if not isinstance(p, Vec):
            p = Vec(p)
        if len(p) != self.n:
            raise ValueError(f"point has {len(p)} coordinates, expected {self.n}")
        if not in_cone(p):
            raise ValueError("points of the plus metric must lie in the cone")
        return p

    def distance(self, x, y) -> Vec:
        return self._distance(self.validate_point(x), self.validate_point(y))

    def _distance(self, x, y) -> Vec:
        return Vec.zeros(self.n) if x == y else x + y

    def _gaps(self, x, y):
        """The coordinates of ``_distance(x, y)``, one at a time; a sum beyond
        the float range is inf, where ``_distance`` raises."""
        return (0.0,) * self.n if x == y else map(operator.add, x.coords, y.coords)


ConeMetric = Union[WeightedConeMetric, DiscreteConeMetric, PlusConeMetric]


class Ball(_Record):
    """Closed cone ball B(center, radius) = {x : d(x, center) <= radius}.

    The radius lies in the cone.  Membership follows the module's one ball
    rule, through :func:`_within`.
    """

    __slots__ = ("center", "radius")

    def __init__(self, center: object, radius: Vec):
        if not isinstance(radius, Vec):
            raise TypeError(f"radius must be a Vec, got {type(radius).__name__}")
        if not in_cone(radius):
            raise ValueError("closed ball radius must lie in the cone")
        super().__init__(center, radius)


def scalarize(inst: ConeMetric, g: GaugeNorm, x, y) -> float:
    """Gauge of the cone distance; an ordinary metric on the same points."""
    return mink_norm(inst.distance(x, y), g)


def _within(inst: ConeMetric, x, center, radius: Vec, s: Optional[Vec] = None) -> bool:
    """Whether d(x, center), plus ``s`` when given, is at most ``radius``:
    whether ``x`` lies in B(center, radius), or B(x, s) inside it.

    ``x`` and ``center`` have passed ``inst.validate_point``.  The gaps are
    compared coordinate by coordinate up to the first miss; an inf, or a
    complex modulus whose ``abs`` raises ``OverflowError``, is beyond every
    radius.  An ``s`` or radius of another length raises the ``ValueError``
    of the ``Vec`` sum or order compare.
    """
    n = inst.dim
    if s is not None and len(s.coords) != n:
        raise ValueError(f"dimension mismatch: {n} vs {len(s.coords)}")
    if len(radius.coords) != n:
        raise ValueError(f"dimension mismatch: {len(radius.coords)} vs {n}")
    gaps = inst._gaps(x, center)
    if s is not None:
        gaps = map(operator.add, gaps, s.coords)
    try:
        return all(map(operator.le, gaps, radius.coords))
    except OverflowError:
        return False


def inequality_transfer_check(
    coeff0: Vec,
    coeffs: Sequence[float],
    dpairs: Sequence[Vec],
    d0: Vec,
    g: GaugeNorm,
    tol: float = 0.0,
) -> bool:
    """Scalar image of a cone inequality d0 <= coeff0 + sum coeffs[i]*dpairs[i].

    Assumes the cone-level inequality holds for the supplied data and checks
    the transferred statement
    ``|d0| <= |coeff0| + sum coeffs[i] * |dpairs[i]|`` in the gauge, within an
    additive tolerance.  The right side is one :func:`math.fsum`, correctly
    rounded on every Python, so the answer does not depend on the version.
    """
    if len(coeffs) != len(dpairs):
        raise ValueError(f"{len(coeffs)} coefficients for {len(dpairs)} distances")
    for c in coeffs:
        if not 0 <= c < math.inf:  # False for NaN too
            raise ValueError(f"coefficients must be finite and nonnegative, got {c!r}")
    terms = [mink_norm(coeff0, g), *(c * mink_norm(d, g) for c, d in zip(coeffs, dpairs))]
    try:
        rhs = math.fsum(terms)
    except OverflowError:  # the terms are >= 0, so their exact sum overflows too
        rhs = math.inf
    return mink_norm(d0, g) <= rhs + tol


def nested_ball_probe(
    centers: Sequence,
    radii: Sequence[Vec],
    inst: ConeMetric,
    g: GaugeNorm,
    tol: float = 1e-9,
) -> object:
    """Point lying in every ball of a nested family with vanishing radii.

    Nesting of consecutive closed balls is certified by the arithmetic
    condition d(c[k+1], c[k]) + r[k+1] <= r[k], read through :func:`_within`,
    so a left side beyond the float range violates it.  A violation, or a
    final radius whose gauge has not dropped below ``tol``, is a
    precondition error.  Returns the last center, which the nesting chain
    places in every earlier ball.
    """
    if len(centers) != len(radii) or not centers:
        raise ValueError("need equally many centers and radii, at least one each")
    for r in radii:
        if not in_cone(r):
            raise ValueError("radii must lie in the cone")
    points = [inst.validate_point(c) for c in centers]
    for k in range(len(points) - 1):
        if not _within(inst, points[k + 1], points[k], radii[k], radii[k + 1]):
            raise ValueError(f"nesting violated between balls {k} and {k + 1}")
    if not mink_norm(radii[-1], g) < tol:
        raise ValueError(f"final radius gauge is not below {tol!r}")
    return centers[-1]

