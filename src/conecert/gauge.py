"""Gauge of the order interval [-base, base]: a computable monotone norm.

For the coordinatewise order the gauge has the closed form
``max_i |x_i| / base_i``; the package scalarizes every cone-valued distance
through it.  A slow bisection oracle using only the order predicates lives in
the test suite and cross-checks the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import truediv

from .solid import SpaceSpec, Vec, lt

__all__ = ["GaugeNorm", "mink_norm", "strict_ball_test"]


@dataclass(frozen=True)
class GaugeNorm:
    """Minkowski gauge of [-base, base] for a fixed space spec."""

    spec: SpaceSpec
    # |x_i| / 1.0 == |x_i| exactly, so a unit base skips the division.
    _unit: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        base = self.spec.base.coords
        object.__setattr__(self, "_unit", base.count(1.0) == len(base))


def mink_norm(x: Vec, g: GaugeNorm) -> float:
    """Smallest lam >= 0 with -lam*base <= x <= lam*base.

    Closed form ``max_i |x_i| / base_i``; returns 0.0 for the zero vector.
    """
    if len(x) != g.spec.n:
        raise ValueError(f"dimension mismatch: {len(x)} vs {g.spec.n}")
    if g._unit:
        return max(map(abs, x.coords))
    return max(map(truediv, map(abs, x.coords), g.spec.base.coords))


def strict_ball_test(x: Vec, eps: float, g: GaugeNorm) -> bool:
    """True iff x lies strictly between -eps*base and eps*base.

    Decided purely through the strict order predicate; agrees with
    ``mink_norm(x, g) < eps`` by the ball equivalence of the gauge.
    """
    if eps <= 0:
        raise ValueError(f"radius must be positive, got {eps!r}")
    if len(x) != g.spec.n:
        raise ValueError(f"dimension mismatch: {len(x)} vs {g.spec.n}")
    scaled = eps * g.spec.base
    return lt(-scaled, x) and lt(x, scaled)
