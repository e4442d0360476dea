"""Gauge of the order interval [-base, base]: a computable monotone norm.

For the coordinatewise order the gauge has the closed form
``max_i |x_i| / base_i``; the package scalarizes every cone-valued distance
through it.  A slow bisection oracle using only the order predicates lives in
the test suite and cross-checks the closed form.

On the cone itself ``|x_i| == x_i``, so the gauge is ``max_i x_i / base_i``
and needs no pass of ``abs``.  A distance of any of the package's metrics
lies in the cone (the first cone-metric axiom), so the engine gauges its
steps that way: under a unit base (``GaugeNorm._unit``) as the step's
largest coordinate, and under any other base with ``_cone_max`` over bare
coordinates.  :func:`mink_norm` takes a checked vector of any sign and
gives the same bits on the cone.
"""

from __future__ import annotations

from operator import truediv

from .solid import SpaceSpec, Vec, _Record, lt

__all__ = ["GaugeNorm", "mink_norm", "strict_ball_test"]


class GaugeNorm(_Record):
    """Minkowski gauge of [-base, base] for a fixed space spec."""

    __slots__ = ("spec", "_unit")

    def __init__(self, spec: SpaceSpec):
        if not isinstance(spec, SpaceSpec):
            raise TypeError(f"spec must be a SpaceSpec, got {type(spec).__name__}")
        object.__setattr__(self, "spec", spec)
        # x_i / 1.0 == x_i exactly, so under a unit base the engine takes a
        # step's gauge as its largest coordinate, with no division.
        base = spec.base.coords
        object.__setattr__(self, "_unit", base.count(1.0) == len(base))


def mink_norm(x: Vec, g: GaugeNorm) -> float:
    """Smallest lam >= 0 with -lam*base <= x <= lam*base.

    Closed form ``max_i |x_i| / base_i``; returns 0.0 for the zero vector,
    and ``inf`` when a quotient overflows under a tiny base.
    A non-``Vec`` ``x`` or non-``GaugeNorm`` ``g`` raises ``TypeError``,
    turned from the ``AttributeError`` of the attribute read, so a valid
    call runs no extra check.
    """
    try:
        coords = x.coords
    except AttributeError:
        raise TypeError(f"x must be a Vec, got {type(x).__name__}") from None
    try:
        spec = g.spec
    except AttributeError:
        raise TypeError(f"g must be a GaugeNorm, got {type(g).__name__}") from None
    if len(coords) != spec.n:
        raise ValueError(f"dimension mismatch: {len(coords)} vs {spec.n}")
    return max(map(truediv, map(abs, coords), spec.base.coords))


def _cone_max(coords, g: GaugeNorm) -> float:
    """:func:`mink_norm`'s bits for coordinates of ``g``'s dimension that lie
    in the cone (``-0.0`` counts): ``+0.0`` for a zero vector, ``inf`` for a
    quotient that overflows.  Neither precondition is checked: a check would
    cost the pass this saves, and every metric's distance meets both."""
    return max(map(truediv, coords, g.spec.base.coords)) or 0.0


def strict_ball_test(x: Vec, eps: float, g: GaugeNorm) -> bool:
    """True iff x lies strictly between -eps*base and eps*base.

    Decided purely through the strict order predicate; agrees with
    ``mink_norm(x, g) < eps`` by the ball equivalence of the gauge.
    """
    if eps <= 0:
        raise ValueError(f"radius must be positive, got {eps!r}")
    if not isinstance(x, Vec):
        raise TypeError(f"x must be a Vec, got {type(x).__name__}")
    if len(x) != g.spec.n:
        raise ValueError(f"dimension mismatch: {len(x)} vs {g.spec.n}")
    scaled = eps * g.spec.base
    return lt(-scaled, x) and lt(x, scaled)
