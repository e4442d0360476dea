"""Simultaneous polynomial root refinement with componentwise certificates.

The update is the classical simultaneous correction
``z_i <- z_i - p(z_i) / prod_{j != i} (z_i - z_j)`` for a monic polynomial,
iterated through the fixed-point engine over the weighted cone metric on
C^n.  Since no global contraction factor is available, the certificate is
the engine's: estimated from the longest contracting tail of the observed
trace, and so heuristic, unless the caller supplies a factor.

The map, :class:`Weierstrass`, owns its rules (:meth:`~Weierstrass.stall_rule`),
which its :class:`Problem` takes when built: its start must hold distinct
entries, and under a weighted metric a run halts, as converged, at its
rounding-noise floor: once a step's gauge stops shrinking (the engine's
test) while the Braess-Hadeler inclusion discs ``|w - z_i| <= n |W_i|``
around the previous iterate are pairwise disjoint (the map's).  The discs
together contain every zero and a component of m discs holds exactly m of
them, so disjoint discs isolate each root; further sweeps only move noise.
Such a run has no contracting tail and hence no certificate.  The discs are
built from float corrections with no rounding-error term for ``p(z_i)``, so
around a multiple root they can look disjoint too.

Without a given start, :func:`default_starts` puts the approximations on
a circle around the roots' mean, with Cauchy's radius of the polynomial
shifted there (Aberth's centred starts), and falls back to the circle of
radius ``1 + max |a_k|`` around 0 where the centred one is not smaller,
finite and distinct.

The payoff of keeping distances as vectors is measured by
:func:`compare_bounds`: per-root a posteriori bounds against the single
max-norm bound broadcast to all roots.  A run's comparison,
:attr:`RootsResult.report`, is built when it is read, not by
:func:`solve_roots`.
"""

from __future__ import annotations

import cmath
import math
from itertools import combinations
from operator import attrgetter
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
    "Weierstrass",
    "solve_roots",
    "RootsResult",
    "ComparisonRow",
    "ComparisonReport",
    "compare_bounds",
]


class Polynomial(_Record):
    """Univariate polynomial stored monic, coefficients constant term first.

    ``_horner`` holds the coefficients leading term first, the order in
    which Horner's rule reads them.
    """

    __slots__ = ("coefficients", "_horner")

    def __init__(self, coefficients: Sequence):
        coeffs = [complex(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2:
            raise ValueError("polynomial must have degree at least 1")
        if any(not cmath.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be finite")
        lead = coeffs[-1]
        monic = tuple(c / lead for c in coeffs)
        if not all(map(cmath.isfinite, monic)):
            raise ValueError(
                f"coefficients {list(coefficients)} are not finite once divided"
                " by the leading one"
            )
        super().__init__(monic)
        object.__setattr__(self, "_horner", monic[::-1])

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in self._horner:
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


def _cauchy_radius(coeffs: Sequence[complex]) -> float:
    """``1 + max |coeffs|``: inf when a coefficient is not finite or its
    modulus is beyond the float range."""
    if not all(map(cmath.isfinite, coeffs)):
        return math.inf
    try:
        return 1.0 + max(map(abs, coeffs))
    except OverflowError:
        return math.inf


def _circle(r: float, n: int) -> tuple[complex, ...]:
    """n equispaced points of modulus ``r`` around 0, the first at angle 0.4."""
    return tuple(r * cmath.exp(1j * (2.0 * cmath.pi * k / n + 0.4)) for k in range(n))


def default_starts(p: Polynomial) -> tuple[complex, ...]:
    """Deterministic equispaced starts on a circle enclosing all roots.

    Aberth's centred starts: with ``a_k`` the monic coefficients, the roots'
    mean is ``c = -a_{n-1}/n``, and the coefficients ``b_k`` of ``p(z + c)``
    come from a Horner Taylor shift.  The starts are
    ``c + r_c exp(i(2 pi k/n + 0.4))`` with Cauchy's radius
    ``r_c = 1 + max |b_k|``, taken when ``r_c`` is below the uncentred
    radius ``r = 1 + max |a_k|`` and those n starts are finite and pairwise
    distinct; otherwise the same circle of radius ``r`` around 0.  A
    modulus beyond the float range counts as inf.  The fixed angular offset
    keeps the starts off the real axis, where real-rooted polynomials would
    otherwise collide.  When neither circle is finite, raises
    ``ValueError``: such a polynomial needs a given start.
    """
    n = p.degree
    a = p.coefficients
    r = _cauchy_radius(a)
    c = -a[n - 1] / n
    # Horner's Taylor shift: pass k divides by (z - c) once more and leaves
    # b_k, the k-th coefficient of p(z + c), in place.
    b = list(a)
    for k in range(n):
        acc = b[n]
        for j in range(n - 1, k - 1, -1):
            acc = b[j] = b[j] + c * acc
    r_c = _cauchy_radius(b)
    if r_c < r:
        starts = tuple(c + w for w in _circle(r_c, n))
        if all(map(cmath.isfinite, starts)) and len(set(starts)) == n:
            return starts
    if r == math.inf:
        raise ValueError(
            "no finite start circle encloses the roots: the coefficients' moduli"
            ' overflow; give "z0"'
        )
    return _circle(r, n)


# The sweep's sort key: an entry's (re, im).
_REAL_IMAG = attrgetter("real", "imag")


def weierstrass_step(p: Polynomial, z: Sequence[complex]) -> tuple[complex, ...]:
    """One simultaneous-correction sweep over all approximations.

    The denominator factors are multiplied in a canonical order (sorted by
    the other entries' coordinates), so permuting the input permutes the
    output exactly, with no float drift.  The entries are sorted by
    ``(re, im)`` once per sweep.  For root ``i`` one loop walks that order
    from ``1 + 0j``, skips the first entry that *is* ``z_i`` (its own) and
    multiplies ``denom *= z_i - w`` in place; the sort is stable, so the
    entries left are in the order a per-root sort of the others gives.  Then
    ``p(z_i)`` is evaluated inline by Horner's rule, the operations of
    :meth:`Polynomial.__call__`.

    A zero denominator (two coincident entries, or differences whose product
    underflows) or an update that is not finite raises
    :class:`NonFiniteError`, which the engine treats as divergence.
    """
    z = tuple(map(complex, z))
    if len(z) != p.degree:
        raise ValueError(f"{len(z)} approximations for degree {p.degree}")
    order = sorted(z, key=_REAL_IMAG)
    horner = p._horner
    out = []
    for i, zi in enumerate(z):
        denom = 1 + 0j
        own = True
        for w in order:
            if w is zi and own:
                own = False
            else:
                denom *= zi - w
        if not denom:
            raise NonFiniteError(f"zero denominator at position {i}")
        acc = 0j
        for c in horner:
            acc = acc * zi + c
        wi = zi - acc / denom
        if not cmath.isfinite(wi):
            raise NonFiniteError(f"update overflowed at position {i}")
        out.append(wi)
    return tuple(out)


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


class Weierstrass(_Record):
    """The sweep of ``poly`` as a map for :func:`run_picard`: the CLI's
    ``weierstrass`` map, and the map of :func:`solve_roots`.

    It looks :func:`weierstrass_step` up on each call, so a rebinding of that
    name (as ``bench/tracer.py`` makes) is seen.
    """

    __slots__ = ("poly",)

    def __call__(self, z) -> tuple[complex, ...]:
        return weierstrass_step(self.poly, z)

    def stall_rule(self, p: Problem) -> Optional[Callable[[tuple, Vec], bool]]:
        """Check a problem's start, then return its noise-floor test, if any.

        :class:`Problem` calls it once, when built.  A start that is not one
        approximation per root, or that holds two equal entries
        (:func:`as_root_vector`), raises ``ValueError``.  Under a
        :class:`WeightedConeMetric` the test ``stalled(z, s)``, ``z`` the
        iterate a sweep left and ``s`` its step, says whether the inclusion
        discs around ``z`` are pairwise disjoint; it keeps no state and
        gauges nothing (see :func:`run_picard`).  A metric without weights
        measures no discs: None.
        """
        if len(p.x0) != self.poly.degree:
            raise ValueError(
                f'"x0" has {len(p.x0)} approximations, but the weierstrass "coefficients" '
                f"have degree {self.poly.degree}"
            )
        as_root_vector(p.x0)
        if not isinstance(p.metric, WeightedConeMetric):
            return None
        alpha = p.metric.alpha
        return lambda z, s: _discs_disjoint(z, s, alpha)


class ComparisonRow(_Record):
    """One step's componentwise bound against the scalar bound broadcast back."""

    __slots__ = (
        "iteration", "componentwise", "scalar_value", "broadcast", "exceeded",
        "strict_improvement",
    )


class ComparisonReport(_Record):
    __slots__ = ("rows",)

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
    its gauge first (:func:`mink_norm`), and its bound is broadcast back
    through the base vector.
    With a common factor the componentwise vector can never exceed the
    broadcast one; rows where it is strictly smaller in some coordinate are
    counted as improvements.
    """
    report = ComparisonReport([])
    base = g_scalar.spec.base
    # The forward bound's factor, so both pipelines round alike at the max coordinate.
    q = _forward_factor(lam)
    for k, s in enumerate(trace.step_dists[start:], start):
        comp = apost_forward_bound(s, lam)
        scalar = mink_norm(s, g_scalar) * q
        broadcast = scalar * base
        exceeded = any(c > b for c, b in zip(comp.coords, broadcast.coords))
        improved = any(c < b for c, b in zip(comp.coords, broadcast.coords))
        report.rows.append(ComparisonRow(k, comp, scalar, broadcast, exceeded, improved))
    return report


class RootsResult(PicardResult):
    """The engine's result of a root refinement, with its residuals.

    ``halt`` is one of ``"stop_c"``, ``"noise_floor"``, ``"max_iter"`` or
    ``"overflow"``; ``residuals`` holds ``|p(z_i)|`` at the roots, or None.
    ``roots``, ``lambda_used``, ``tail_start`` and ``report`` are read-only
    views, computed from the stored fields when read.
    """

    __slots__ = ("residuals",)

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

    @property
    def report(self) -> ComparisonReport:
        """The componentwise-versus-broadcast comparison over the steps the
        certificate covers, under the unit gauge; empty without a certificate.

        Built on each read, like ``Certificate.apriori``: a caller that reads
        it more than once binds it once.
        """
        cert = self.certificate
        if cert is None:
            return ComparisonReport([])
        n = len(self.trace.iterates[0])
        unit = GaugeNorm(SpaceSpec(n, Vec.ones(n)))
        return compare_bounds(self.trace, unit, cert.lambda_used, start=cert.start)


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
    1e-12 per root), or at the noise floor, as any engine run of the map
    does: once a step's gauge is finite and not below the previous step's
    while the test of :meth:`Weierstrass.stall_rule` holds.  The returned
    result carries the trace, the engine's certificate (from the
    contracting tail unless ``lam`` was supplied) and the final residual
    moduli; its ``report``, the
    componentwise-versus-broadcast bound comparison over the steps the
    certificate covers, is built only when read.  Without ``z0`` the run
    starts from :func:`default_starts`: the circle around the roots' mean
    ``-a_{n-1}/n`` with Cauchy's radius of ``p(z + mean)``, or, where that
    circle is not smaller than the one of radius ``1 + max |a_k|`` around 0
    or its starts are not finite and distinct, the latter.  ``weights`` that
    are not one entry per root, a ``z0`` that is not one finite complex entry
    per root or that holds two equal entries, or no ``z0`` where neither
    circle is finite, raise ``ValueError``.
    """
    n = p.degree
    weights = (1.0,) * n if weights is None else tuple(float(w) for w in weights)
    if len(weights) != n:
        raise ValueError(
            f'"weights" needs one entry per root of the degree-{n} polynomial, got {len(weights)}'
        )
    stop_c = Vec((1e-12,) * n) if stop_c is None else stop_c
    inst = WeightedConeMetric(weights, field="complex")
    problem = Problem(
        map_fn=Weierstrass(p),
        x0=default_starts(p) if z0 is None else z0,
        metric=inst,
        gauge=GaugeNorm(SpaceSpec(n, Vec.ones(n))),
        stop_c=stop_c,
        max_iter=max_iter,
        lam=lam,
    )
    result = run_picard(problem)
    roots = result.fixed_point
    residuals = None if roots is None else [abs(p(z)) for z in roots]
    return RootsResult(*result._fields(), residuals)
