"""Gauge of the order interval [-base, base]: a computable monotone norm.

For the coordinatewise order the gauge has the closed form
``max_i |x_i| / base_i``; the package scalarizes every cone-valued distance
through it.  A slow bisection oracle using only the order predicates lives in
the test suite and cross-checks the closed form.

On the cone itself ``|x_i| == x_i``, so the gauge is ``max_i x_i / base_i``
and needs no pass of ``abs``: :func:`cone_gauge`.  A distance of any of the
package's metrics lies in the cone (the first cone-metric axiom), so the
engine gauges its steps that way; :func:`mink_norm` takes a vector of any
sign.  ``_cone_max`` holds the cone formula once, over bare coordinates.
"""

from __future__ import annotations

from operator import truediv

from .solid import SpaceSpec, Vec, _Record, lt

__all__ = ["GaugeNorm", "cone_gauge", "mink_norm", "strict_ball_test"]


class GaugeNorm(_Record):
    """Minkowski gauge of [-base, base] for a fixed space spec."""

    __slots__ = ("spec", "_unit")

    def __init__(self, spec: SpaceSpec):
        if not isinstance(spec, SpaceSpec):
            raise TypeError(f"spec must be a SpaceSpec, got {type(spec).__name__}")
        object.__setattr__(self, "spec", spec)
        # |x_i| / 1.0 == |x_i| exactly, so a unit base skips the division.
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
    if g._unit:
        return max(map(abs, coords))
    return max(map(truediv, map(abs, coords), spec.base.coords))


def cone_gauge(x: Vec, g: GaugeNorm) -> float:
    """:func:`mink_norm` of an ``x`` in the cone, bit for bit: ``max_i x_i / base_i``.

    Precondition, not checked: every coordinate of ``x`` is ``>= 0`` (a
    ``-0.0`` counts).  A check would cost the pass over ``x`` that this
    kernel saves over ``mink_norm``; every metric's distance meets it.
    Outside the cone the result is not the gauge.  A zero vector gives
    ``+0.0`` even from ``-0.0`` coordinates, and a quotient that overflows
    under a tiny base gives ``inf``.  Arguments that do not fit raise the
    ``TypeError`` or ``ValueError`` of :func:`mink_norm`.
    """
    try:
        coords, spec = x.coords, g.spec
        fits = len(coords) == spec.n
    except AttributeError:
        fits = False
    if not fits:  # mink_norm raises the error that names the misfit
        return mink_norm(x, g)
    return _cone_max(coords, g)


def _cone_max(coords, g: GaugeNorm) -> float:
    """:func:`cone_gauge` of coordinates of ``g``'s dimension (not checked)."""
    if g._unit:
        return max(coords) or 0.0
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
