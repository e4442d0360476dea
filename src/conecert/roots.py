"""Simultaneous polynomial root refinement with componentwise certificates.

The update is the classical simultaneous correction
``z_i <- z_i - p(z_i) / prod_{j != i} (z_i - z_j)`` for a monic polynomial,
iterated through the fixed-point engine over the weighted cone metric on
C^n.  Since no global contraction factor is available, the certificate is
the engine's: estimated from the longest contracting tail of the observed
trace, and so heuristic, unless the caller supplies a factor.

A run also halts, as converged, at its rounding-noise floor: once a step's
gauge stops shrinking while the Braess-Hadeler inclusion discs
``|w - z_i| <= n |W_i|`` around the previous iterate are pairwise disjoint.
The discs together contain every zero and a component of m discs holds
exactly m of them, so disjoint discs isolate each root; further sweeps only
move noise.  Such a run has no contracting tail and hence no certificate.
The discs are built from float corrections with no rounding-error term for
``p(z_i)``, so around a multiple root they can look disjoint too.

The payoff of keeping distances as vectors is measured by
:func:`compare_bounds`: per-root a posteriori bounds against the single
max-norm bound broadcast to all roots.
"""

from __future__ import annotations

import cmath
import math
from itertools import combinations
from typing import Callable, Optional, Sequence

from .gauge import GaugeNorm, mink_norm
from .metrics import WeightedConeMetric
from .picard import (
    IterationTrace,
    PicardResult,
    Problem,
    _forward_factor,
    apost_forward_bound,
    run_picard,
)
from .solid import NonFiniteError, SpaceSpec, Vec, _Record

__all__ = [
    "Polynomial",
    "as_root_vector",
    "default_starts",
    "weierstrass_step",
    "weierstrass_map",
    "noise_floor",
    "solve_roots",
    "RootsResult",
    "ComparisonRow",
    "ComparisonReport",
    "compare_bounds",
]


class Polynomial:
    """Univariate polynomial stored monic, coefficients constant term first."""

    def __init__(self, coefficients: Sequence):
        coeffs = [complex(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2:
            raise ValueError("polynomial must have degree at least 1")
        if any(not cmath.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be finite")
        lead = coeffs[-1]
        self.coefficients = tuple(c / lead for c in coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc


def as_root_vector(values: Sequence) -> tuple[complex, ...]:
    z = tuple(map(complex, values))
    if not z:
        raise ValueError("root vector must be nonempty")
    if not all(map(cmath.isfinite, z)):
        raise ValueError("root vector entries must be finite")
    # Complex hashing agrees with ==, so +0.0 and -0.0 parts collide here
    # exactly as they compare; the pairwise scan only names the positions.
    if len(set(z)) != len(z):
        for i in range(len(z)):
            for j in range(i + 1, len(z)):
                if z[i] == z[j]:
                    raise ValueError(f"coincident entries at positions {i} and {j}")
    return z


def default_starts(p: Polynomial) -> tuple[complex, ...]:
    """Deterministic equispaced starts on a circle enclosing all roots.

    Radius 1 + max coefficient modulus; the fixed angular offset keeps the
    starts off the real axis, where real-rooted polynomials would otherwise
    collide.
    """
    n = p.degree
    r = 1.0 + max(abs(c) for c in p.coefficients)
    return tuple(
        r * cmath.exp(1j * (2.0 * cmath.pi * k / n + 0.4)) for k in range(n)
    )


def weierstrass_step(p: Polynomial, z: Sequence[complex]) -> tuple[complex, ...]:
    """One simultaneous-correction sweep over all approximations.

    The denominator factors are multiplied in a canonical order (sorted by
    the other entries' coordinates), so permuting the input permutes the
    output exactly, with no float drift.  Distinct entries have distinct
    ``(re, im)`` keys, so sorting once per sweep and dropping root ``i``'s
    own entry leaves the other entries in the order a per-root sort gives.

    A zero denominator (two coincident entries, or differences whose product
    underflows) or an update that is not finite raises
    :class:`NonFiniteError`, which the engine treats as divergence.
    """
    z = tuple(map(complex, z))
    if len(z) != p.degree:
        raise ValueError(f"{len(z)} approximations for degree {p.degree}")
    order = sorted(z, key=lambda w: (w.real, w.imag))
    out = []
    for i, zi in enumerate(z):
        k = order.index(zi)
        denom = math.prod(map(zi.__sub__, order[:k] + order[k + 1 :]), start=1 + 0j)
        if not denom:
            raise NonFiniteError(f"zero denominator at position {i}")
        wi = zi - p(zi) / denom
        if not cmath.isfinite(wi):
            raise NonFiniteError(f"update overflowed at position {i}")
        out.append(wi)
    return tuple(out)


def weierstrass_map(p: Polynomial):
    """The sweep of ``p`` as a map for :func:`run_picard`.

    It looks :func:`weierstrass_step` up on each call, so a rebinding of that
    name (as ``bench/tracer.py`` makes) is seen.
    """
    return lambda z: weierstrass_step(p, z)


class ComparisonRow(_Record):
    """One step's componentwise bound against the scalar bound broadcast back."""

    __slots__ = (
        "iteration", "componentwise", "scalar_value", "broadcast", "exceeded",
        "strict_improvement",
    )


class ComparisonReport(_Record):
    __slots__ = ("rows",)

    def __init__(self, rows: list[ComparisonRow] | None = None):
        self.rows = [] if rows is None else rows

    @property
    def any_exceeded(self) -> bool:
        return any(r.exceeded for r in self.rows)

    @property
    def strict_improvement_rows(self) -> int:
        return sum(1 for r in self.rows if r.strict_improvement)


def compare_bounds(
    trace: IterationTrace,
    g_scalar: GaugeNorm,
    lam: float,
    start: int = 0,
) -> ComparisonReport:
    """Componentwise forward bounds against the broadcast scalar bound.

    For each recorded step from ``start`` on, the componentwise bound is the
    forward a posteriori vector; the scalar pipeline collapses the step to
    its gauge first, and its bound is broadcast back through the base vector.
    With a common factor the componentwise vector can never exceed the
    broadcast one; rows where it is strictly smaller in some coordinate are
    counted as improvements.
    """
    report = ComparisonReport()
    base = g_scalar.spec.base
    # The forward bound's factor, so both pipelines round alike at the max coordinate.
    q = _forward_factor(lam)
    for k in range(start, len(trace.step_dists)):
        s = trace.step_dists[k]
        comp = apost_forward_bound(s, lam)
        scalar = mink_norm(s, g_scalar) * q
        broadcast = scalar * base
        exceeded = any(c > b for c, b in zip(comp.coords, broadcast.coords))
        improved = any(c < b for c, b in zip(comp.coords, broadcast.coords))
        report.rows.append(ComparisonRow(k, comp, scalar, broadcast, exceeded, improved))
    return report


class RootsResult(PicardResult):
    """The engine's result of a root refinement, with its report and residuals.

    ``halt`` is one of ``"stop_c"``, ``"noise_floor"``, ``"max_iter"`` or
    ``"overflow"``; ``residuals`` holds ``|p(z_i)|`` at the roots, or None.
    """

    __slots__ = ("report", "residuals")

    @property
    def roots(self):
        """The returned roots: ``fixed_point``, None unless converged."""
        return self.fixed_point

    @property
    def lambda_used(self) -> Optional[float]:
        """The certificate's factor, or None without a certificate."""
        return None if self.certificate is None else self.certificate.lambda_used

    @property
    def tail_start(self) -> Optional[int]:
        """The first iterate the certificate covers, or None without one."""
        return None if self.certificate is None else self.certificate.start


def _discs_disjoint(z: Sequence[complex], step: Vec, alpha: Sequence[float]) -> bool:
    """True when the inclusion discs around ``z`` are pairwise disjoint.

    ``step`` is the weighted step ``alpha_i * |W_i|`` that the sweep from
    ``z`` took, so disc i has centre ``z_i`` and radius ``n * step_i /
    alpha_i``: the weights divide out.  Touching discs count as overlapping.
    """
    n = len(z)
    radii = [n * s / a for s, a in zip(step.coords, alpha)]
    return all(
        abs(z[i] - z[j]) > radii[i] + radii[j] for i, j in combinations(range(n), 2)
    )


def noise_floor(p: Problem) -> Callable[[IterationTrace], bool]:
    """The ``stalled`` predicate of :func:`run_picard` for a Weierstrass run.

    ``p`` iterates :func:`weierstrass_map` over a complex weighted metric.
    The predicate is true once a step's gauge under ``p.gauge`` is not below
    the previous step's while the inclusion discs around the iterate the
    step left are pairwise disjoint.
    """
    norms: list[float] = []
    g, alpha = p.gauge, p.metric.alpha

    def stalled(trace: IterationTrace) -> bool:
        s = trace.step_dists[-1]
        norms.append(mink_norm(s, g))
        return (
            len(norms) > 1
            and norms[-1] >= norms[-2]
            and _discs_disjoint(trace.iterates[-2], s, alpha)
        )

    return stalled


def solve_roots(
    p: Polynomial,
    z0: Optional[Sequence[complex]] = None,
    weights: Optional[Sequence[float]] = None,
    stop_c: Optional[Vec] = None,
    max_iter: int = 100,
    lam: Optional[float] = None,
) -> RootsResult:
    """Refine all roots at once and certify from the observed trace.

    Halts once the step distance drops strictly below ``stop_c`` (default
    1e-12 per root), or at the noise floor: a step whose gauge is not below
    the previous one while the inclusion discs around the iterate it left
    are pairwise disjoint.  The returned result carries the trace, the
    engine's certificate (from the contracting tail unless ``lam`` was
    supplied), the componentwise-versus-broadcast bound comparison over the
    steps the certificate covers, and the final residual moduli.
    """
    n = p.degree
    z0 = default_starts(p) if z0 is None else as_root_vector(z0)
    weights = (1.0,) * n if weights is None else tuple(float(w) for w in weights)
    stop_c = Vec((1e-12,) * n) if stop_c is None else stop_c
    inst = WeightedConeMetric(weights, field="complex")
    g = GaugeNorm(SpaceSpec(n, Vec.ones(n)))
    problem = Problem(
        map_fn=weierstrass_map(p),
        x0=z0,
        metric=inst,
        gauge=g,
        stop_c=stop_c,
        max_iter=max_iter,
        lam=lam,
    )
    result = run_picard(problem, stalled=noise_floor(problem))
    cert, roots = result.certificate, result.fixed_point
    report = ComparisonReport()
    if cert is not None:
        report = compare_bounds(result.trace, g, cert.lambda_used, start=cert.start)
    residuals = None if roots is None else [abs(p(z)) for z in roots]
    return RootsResult(*result._fields(), report, residuals)
