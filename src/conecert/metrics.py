"""Cone-valued metrics and the checkers the iteration engine builds on.

Three concrete instances are provided:

* weighted: d(x, y) = (a_1|x_1-y_1|, ..., a_n|x_n-y_n|) over real or complex
  coordinates,
* discrete: d(x, y) = a for x != y, zero otherwise, over an arbitrary set,
* plus: d(x, y) = x + y for x != y, zero otherwise, on the positive cone.

On top of them: scalarization through the gauge, cone balls, Cauchy-window
and domination checks, scalar inequality transfer, and a nested-ball probe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .gauge import GaugeNorm, mink_norm
from .solid import NonFiniteError, Vec, _finite, in_cone, in_interior, leq, lt

__all__ = [
    "WeightedConeMetric",
    "DiscreteConeMetric",
    "PlusConeMetric",
    "ConeMetric",
    "Ball",
    "scalarize",
    "ball_contains",
    "cauchy_bound_check",
    "domination_check",
    "inequality_transfer_check",
    "nested_ball_probe",
]


class WeightedConeMetric:
    """Componentwise weighted modulus distance over real or complex tuples."""

    def __init__(self, alpha: Sequence[float], field: str = "real"):
        self.alpha = tuple(float(a) for a in alpha)
        if not self.alpha:
            raise ValueError("weight vector must be nonempty")
        if any(not math.isfinite(a) or a <= 0 for a in self.alpha):
            raise ValueError("weights must be finite and strictly positive")
        if field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
        self.field = field
        # 1.0 * m == m exactly, so unit weights skip the multiply.
        self._unit = self.alpha.count(1.0) == len(self.alpha)

    @property
    def dim(self) -> int:
        return len(self.alpha)

    def validate_point(self, p) -> tuple:
        coords = tuple(p)
        if len(coords) != self.dim:
            raise ValueError(f"point has {len(coords)} coordinates, expected {self.dim}")
        # Fast path: a point of exact floats (real field, checked finite by
        # ``_finite``) or of exact finite complexes (complex field) is already
        # what the loop below would return.  Everything else takes the loop.
        if self.field == "real":
            if set(map(type, coords)) == {float}:
                return _finite(coords)
        elif set(map(type, coords)) == {complex} and all(map(cmath.isfinite, coords)):
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

        Weights and moduli are exact floats, so their products go straight
        to ``Vec._of``.  A complex modulus beyond the float range makes
        ``abs`` raise ``OverflowError``; it is reported like a real modulus
        that rounds to inf.
        """
        try:
            if self._unit:
                return Vec._of(tuple([abs(cx - cy) for cx, cy in zip(x, y)]))
            return Vec._of(
                tuple([a * abs(cx - cy) for a, cx, cy in zip(self.alpha, x, y)])
            )
        except OverflowError:
            raise NonFiniteError("non-finite coordinate: inf") from None


class DiscreteConeMetric:
    """Fixed nonzero cone value between any two distinct points."""

    def __init__(self, a: Vec):
        if not in_cone(a):
            raise ValueError("discrete distance value must lie in the cone")
        if a == Vec.zeros(len(a)):
            raise ValueError("discrete distance value must be nonzero")
        self.a = a

    @property
    def dim(self) -> int:
        return len(self.a)

    def validate_point(self, p):
        return p

    def distance(self, x, y) -> Vec:
        return self._distance(self.validate_point(x), self.validate_point(y))

    def _distance(self, x, y) -> Vec:
        return Vec.zeros(self.dim) if x == y else self.a


class PlusConeMetric:
    """Sum distance on the positive cone: d(x, y) = x + y for x != y."""

    def __init__(self, n: int):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"dimension must be a positive integer, got {n!r}")
        self.n = n

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


ConeMetric = Union[WeightedConeMetric, DiscreteConeMetric, PlusConeMetric]


@dataclass(frozen=True)
class Ball:
    """Cone ball around a center; closed balls take cone radii, open ones interior radii."""

    center: object
    radius: Vec
    closed: bool = True

    def __post_init__(self):
        if self.closed:
            if not in_cone(self.radius):
                raise ValueError("closed ball radius must lie in the cone")
        elif not in_interior(self.radius):
            raise ValueError("open ball radius must lie in the cone interior")


def scalarize(inst: ConeMetric, g: GaugeNorm, x, y) -> float:
    """Gauge of the cone distance; an ordinary metric on the same points."""
    return mink_norm(inst.distance(x, y), g)


def ball_contains(ball: Ball, inst: ConeMetric, x) -> bool:
    d = inst.distance(x, ball.center)
    return leq(d, ball.radius) if ball.closed else lt(d, ball.radius)


def cauchy_bound_check(
    distances: Mapping[tuple[int, int], Vec], bound: Sequence[Vec]
) -> bool:
    """True iff every recorded pair distance sits under its window bound.

    ``distances`` maps index pairs (n, m) with n <= m to cone distances and
    ``bound[n]`` dominates every pair starting at n.  An index outside the
    bound list or a reversed pair is an input error, not a failure.
    """
    for (n, m), d in distances.items():
        if n < 0 or m < n:
            raise ValueError(f"bad index pair ({n}, {m})")
        if n >= len(bound):
            raise ValueError(f"no bound entry for index {n}")
        if not leq(d, bound[n]):
            return False
    return True


def domination_check(
    dxn: Sequence[Vec],
    bn: Sequence[Vec],
    alpha: float = 0.0,
    dyn: Sequence[Vec] | None = None,
    beta: float = 0.0,
    dzn: Sequence[Vec] | None = None,
) -> bool:
    """Termwise check of d_x[k] <= b[k] + alpha*d_y[k] + beta*d_z[k]."""
    k = len(dxn)
    for name, seq in (("bn", bn), ("dyn", dyn), ("dzn", dzn)):
        if seq is not None and len(seq) != k:
            raise ValueError(f"{name} has length {len(seq)}, expected {k}")
    for i in range(k):
        rhs = bn[i]
        if dyn is not None:
            rhs = rhs + alpha * dyn[i]
        if dzn is not None:
            rhs = rhs + beta * dzn[i]
        if not leq(dxn[i], rhs):
            return False
    return True


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
    additive tolerance.
    """
    if len(coeffs) != len(dpairs):
        raise ValueError(f"{len(coeffs)} coefficients for {len(dpairs)} distances")
    for c in coeffs:
        if c < 0:
            raise ValueError(f"coefficients must be nonnegative, got {c!r}")
    rhs = mink_norm(coeff0, g)
    rhs += sum(c * mink_norm(d, g) for c, d in zip(coeffs, dpairs))
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
    condition d(c[k+1], c[k]) + r[k+1] <= r[k]; a violation, or a final
    radius whose gauge has not dropped below ``tol``, is a precondition
    error.  Returns the last center, which the nesting chain places in every
    earlier ball.
    """
    if len(centers) != len(radii) or not centers:
        raise ValueError("need equally many centers and radii, at least one each")
    for r in radii:
        if not in_cone(r):
            raise ValueError("radii must lie in the cone")
    for k in range(len(centers) - 1):
        step = inst.distance(centers[k + 1], centers[k])
        if not leq(step + radii[k + 1], radii[k]):
            raise ValueError(f"nesting violated between balls {k} and {k + 1}")
    if not mink_norm(radii[-1], g) < tol:
        raise ValueError(f"final radius gauge is not below {tol!r}")
    return centers[-1]

