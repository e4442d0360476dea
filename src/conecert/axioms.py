"""Seeded property suites for the order, gauge and metric layers.

Coordinates are sampled from the dyadic grid 2^-10 * [-2^14, 2^14] and
scalars from 2^-8 * [-2^12, 2^12], so sums, differences and products stay
exactly representable in binary64 and the algebraic suites check their
axioms exactly.  The few genuinely analytic inequalities (triangle
inequalities after a complex modulus or a division) carry an explicit
tolerance instead.

Order predicates are injectable through :class:`OrderOps` so a broken
implementation can be demonstrated to fail with a concrete witness.

Each axiom shape is written once.  A strict axiom (S*) is the weak one
(V*) with ``<`` for ``<=`` and a positive gap for a nonnegative one, so
twins share a check that takes a ``strict`` flag, and ``SUITES`` binds
the flag with :func:`functools.partial`; the four metric suites likewise
share :func:`_check_metric_axioms`.  The order in which a suite draws
from its :class:`Sampler` is part of the seed-replay contract: a given
seed must reproduce every report, counterexamples included, byte for
byte, so a check may change how it is written but not what it draws.
The sampler takes its integers straight from ``getrandbits`` with the
rejection rule of ``random.Random.randint``, so it draws the stream that
``randint`` would, value for value; ``tests/test_axioms.py`` pins both
that and the reports of fixed seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

from . import solid
from .gauge import GaugeNorm, mink_norm, strict_ball_test
from .metrics import (
    DiscreteConeMetric,
    PlusConeMetric,
    WeightedConeMetric,
)
from .solid import SpaceSpec, Vec, bounding_scale, minorant_scale

__all__ = ["OrderOps", "SuiteResult", "Sampler", "run_all", "report_dict"]

_TRIANGLE_TOL = 1e-12


@dataclass(frozen=True)
class OrderOps:
    leq: Callable[[Vec, Vec], bool]
    lt: Callable[[Vec, Vec], bool]
    in_cone: Callable[[Vec], bool]
    in_interior: Callable[[Vec], bool]


DEFAULT_OPS = OrderOps(solid.leq, solid.lt, solid.in_cone, solid.in_interior)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    counterexample: Optional[dict]


class Sampler:
    """Dyadic-grid random values; one instance per suite, seeded by name.

    Each method draws an integer exactly as ``rng.randint(a, b)`` does,
    with the same rejection rule over ``getrandbits`` (see :meth:`_int`),
    so it consumes the same bits and returns the same value; only the
    argument checks of ``randint`` and ``randrange`` are skipped.  Checks
    that need a coin or a small integer draw from ``rng`` directly.
    """

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self._bits = self.rng.getrandbits

    def _int(self, a: int, n: int, k: int) -> int:
        """``rng.randint(a, a + n - 1)``, given ``k == n.bit_length()``.

        ``randint`` draws ``k`` bits and draws again while the result is at
        least ``n``; this is that loop with the width and bit count fixed.
        """
        bits = self._bits
        r = bits(k)
        while r >= n:
            r = bits(k)
        return a + r

    def _vec(self, a: int, n: int, k: int, dim: int) -> Vec:
        """``dim`` draws of ``_int(a, n, k) / 2**10``, in order, as a ``Vec``."""
        bits = self._bits
        cs = []
        for _ in range(dim):
            r = bits(k)
            while r >= n:
                r = bits(k)
            cs.append((a + r) / 2**10)
        return Vec._of(tuple(cs))

    # (a, n, k) of randint(a, b): n = b - a + 1 values, k = n.bit_length().

    def coord(self) -> float:
        return self._int(-(2**14), 2**15 + 1, 16) / 2**10

    def nonneg_coord(self) -> float:
        return self._int(0, 2**14 + 1, 15) / 2**10

    def pos_coord(self) -> float:
        return self._int(1, 2**14, 15) / 2**10

    def vec(self, n: int) -> Vec:
        return self._vec(-(2**14), 2**15 + 1, 16, n)

    def nonneg_vec(self, n: int) -> Vec:
        return self._vec(0, 2**14 + 1, 15, n)

    def pos_vec(self, n: int) -> Vec:
        return self._vec(1, 2**14, 15, n)

    def scalar(self) -> float:
        return self._int(-(2**12), 2**13 + 1, 14) / 2**8

    def scalar_nonneg(self) -> float:
        return self._int(0, 2**12 + 1, 13) / 2**8

    def scalar_pos(self) -> float:
        return self._int(1, 2**12, 13) / 2**8

    def dyadic_power(self) -> float:
        t = 2.0 ** self._int(-8, 17, 5)
        return -t if self.rng.random() < 0.5 else t

    def cpoint(self, n: int) -> tuple[complex, ...]:
        return tuple(complex(self.coord(), self.coord()) for _ in range(n))

    def rpoint(self, n: int) -> tuple[float, ...]:
        return self.vec(n).coords


def _payload(**kw) -> dict:
    out = {}
    for k, v in kw.items():
        if isinstance(v, Vec):
            out[k] = list(v.coords)
        elif isinstance(v, tuple):
            out[k] = [repr(c) for c in v]
        else:
            out[k] = v
    return out


def _gap(s: Sampler, n: int, strict: bool) -> Vec:
    """A gap y - x that makes x < y (strict) or x <= y (weak)."""
    return s.pos_vec(n) if strict else s.nonneg_vec(n)


def _scalar_gap(s: Sampler, strict: bool) -> float:
    return s.scalar_pos() if strict else s.scalar_nonneg()


def _order(ops: OrderOps, strict: bool) -> Callable[[Vec, Vec], bool]:
    return ops.lt if strict else ops.leq


def _gauge(s: Sampler, n: int) -> GaugeNorm:
    return GaugeNorm(SpaceSpec(n, s.pos_vec(n)))


def _weighted(s: Sampler, n: int, field: str = "real") -> WeightedConeMetric:
    return WeightedConeMetric([s.scalar_pos() for _ in range(n)], field=field)


# ---------------------------------------------------------------- solid ----


def _check_reflexivity(s, n, ops):
    x = s.vec(n)
    if not ops.leq(x, x):
        return _payload(x=x)


def _check_antisymmetry(s, n, ops):
    # Mutual domination must coincide with equality, in both directions.
    x = s.vec(n)
    y = x if s.rng.random() < 0.5 else s.vec(n)
    both = ops.leq(x, y) and ops.leq(y, x)
    if both != (x == y):
        return _payload(x=x, y=y, mutual=both)


def _check_chain(s, n, ops, first, second):
    # x R1 y and y R2 z give x R z, where R is strict when either step is.
    x = s.vec(n)
    y = x + _gap(s, n, first)
    z = y + _gap(s, n, second)
    if not (
        _order(ops, first)(x, y)
        and _order(ops, second)(y, z)
        and _order(ops, first or second)(x, z)
    ):
        return _payload(x=x, y=y, z=z)


def _check_translation(s, n, ops, strict):
    rel = _order(ops, strict)
    x = s.vec(n)
    y = x + _gap(s, n, strict)
    z = s.vec(n)
    if rel(x, y) and not rel(x + z, y + z):
        return _payload(x=x, y=y, z=z)


def _check_scaling(s, n, ops, strict, negative):
    # A negative scalar reverses the order.
    rel = _order(ops, strict)
    x = s.vec(n)
    y = x + _gap(s, n, strict)
    lam = -_scalar_gap(s, strict) if negative else _scalar_gap(s, strict)
    lo, hi = (y, x) if negative else (x, y)
    if rel(x, y) and not rel(lam * lo, lam * hi):
        return _payload(x=x, y=y, lam=lam)


def _check_v3_limit_finite(s, n, ops):
    # Contrapositive passage to the limit at resolution 2^-40: a strict
    # violation in the limit shows up in the tail terms of the sequences.
    x = s.vec(n)
    y = Vec(
        c - s.pos_coord() if i == 0 else c for i, c in enumerate(x.coords)
    )
    p, q = s.nonneg_vec(n), s.nonneg_vec(n)
    eps = 2.0**-40
    if ops.leq(x, y):
        return _payload(x=x, y=y, note="premise construction failed")
    if ops.leq(x - eps * p, y + eps * q):
        return _payload(x=x, y=y, p=p, q=q)


def _check_scalar_monotone(s, n, ops, strict, negative):
    # lam < mu (or <=) scales x in the cone up, and x in -cone down.
    x = -_gap(s, n, strict) if negative else _gap(s, n, strict)
    lam = s.scalar()
    mu = lam + _scalar_gap(s, strict)
    lo, hi = (mu, lam) if negative else (lam, mu)
    if not _order(ops, strict)(lo * x, hi * x):
        return _payload(x=x, lam=lam, mu=mu)


def _check_addition(s, n, ops, strict):
    # Only the first pair carries the strict gap; the second is weak.
    x = s.vec(n)
    y = x + _gap(s, n, strict)
    u = s.vec(n)
    v = u + s.nonneg_vec(n)
    if not _order(ops, strict)(x + u, y + v):
        return _payload(x=x, y=y, u=u, v=v)


def _check_s1_strict_implies_weak(s, n, ops):
    x = s.vec(n)
    y = x + s.pos_vec(n)
    if not (ops.lt(x, y) and ops.leq(x, y)):
        return _payload(x=x, y=y)


def _check_s5_limit_finite(s, n, ops):
    # Halvings of any sample drop strictly below any interior point within
    # the first 40 terms; checks the 'all but finitely many' clause finitely.
    c = s.pos_vec(n)
    x = s.vec(n)
    hits = [k for k in range(41) if ops.lt(2.0**-k * x, c)]
    if not hits or hits[-1] != 40 or hits != list(range(hits[0], 41)):
        return _payload(x=x, c=c, hits=hits)


def _check_s11_small_multiples(s, n, ops):
    b = s.pos_vec(n)
    kind = s.rng.random()
    if kind < 0.4:
        x = -s.nonneg_vec(n)
    elif kind < 0.7:
        x = Vec(s.rng.randint(-4, 4) * 2.0**-45 for _ in range(n))
    else:
        x = s.vec(n)
    lams = [2.0**-k for k in range(41)]
    if all(ops.lt(x, lam * b) for lam in lams):
        cap = 2.0**-40 * max(b.coords)
        if not all(c <= cap for c in x.coords):
            return _payload(x=x, b=b, cap=cap)


def _check_correspondence(s, n, ops, strict):
    # x <= y iff y - x lies in the cone; x < y iff it lies in the interior.
    x = s.vec(n)
    y = x if s.rng.random() < 0.3 else s.vec(n)
    member = ops.in_interior if strict else ops.in_cone
    if _order(ops, strict)(x, y) != member(y - x):
        return _payload(x=x, y=y)


def _check_interior_positive_scaling(s, n, ops):
    x = s.pos_vec(n)
    lam = s.scalar_pos()
    if not ops.in_interior(lam * x):
        return _payload(x=x, lam=lam)


def _check_interior_cone_addition(s, n, ops):
    x = s.nonneg_vec(n)
    y = s.pos_vec(n)
    if not ops.in_interior(x + y):
        return _payload(x=x, y=y)


def _check_interior_excludes_zero(s, n, ops):
    if ops.in_interior(Vec.zeros(n)):
        return _payload(n=n)


def _check_minorant_witness(s, n, ops):
    spec = SpaceSpec(n, s.pos_vec(n))
    vs = [s.pos_vec(n) for _ in range(s.rng.randint(1, 3))]
    lam = minorant_scale(vs, spec)
    if lam <= 0 or not all(ops.lt(lam * spec.base, x) for x in vs):
        return _payload(lam=lam, base=spec.base)


def _check_bounding_witness(s, n, ops):
    spec = SpaceSpec(n, s.pos_vec(n))
    vs = [s.vec(n) for _ in range(s.rng.randint(1, 3))]
    lam = bounding_scale(vs, spec)
    scaled = lam * spec.base
    if not all(ops.lt(-scaled, x) and ops.lt(x, scaled) for x in vs):
        return _payload(lam=lam, base=spec.base)


# ---------------------------------------------------------------- gauge ----


def _check_gauge_definiteness(s, n, ops):
    g = _gauge(s, n)
    x = Vec.zeros(n) if s.rng.random() < 0.2 else s.vec(n)
    v = mink_norm(x, g)
    if v < 0 or (v == 0.0) != (x == Vec.zeros(n)):
        return _payload(x=x, base=g.spec.base, value=v)


def _check_gauge_homogeneity(s, n, ops):
    g = _gauge(s, n)
    x = s.vec(n)
    t = s.dyadic_power()
    if mink_norm(t * x, g) != abs(t) * mink_norm(x, g):
        return _payload(x=x, t=t, base=g.spec.base)


def _check_gauge_triangle(s, n, ops):
    g = _gauge(s, n)
    x, y = s.vec(n), s.vec(n)
    if mink_norm(x + y, g) > mink_norm(x, g) + mink_norm(y, g) + _TRIANGLE_TOL:
        return _payload(x=x, y=y, base=g.spec.base)


def _check_gauge_monotone(s, n, ops):
    g = _gauge(s, n)
    x = s.nonneg_vec(n)
    y = x + s.nonneg_vec(n)
    if mink_norm(x, g) > mink_norm(y, g):
        return _payload(x=x, y=y, base=g.spec.base)


def _check_gauge_ball_equivalence(s, n, ops):
    g = _gauge(s, n)
    x = s.vec(n)
    eps = s.scalar_pos()
    if strict_ball_test(x, eps, g) != (mink_norm(x, g) < eps):
        return _payload(x=x, eps=eps, base=g.spec.base)


# --------------------------------------------------------------- metric ----


def _check_metric_axioms(s, n, ops, make, point, pad, repeats):
    """Cone-metric axioms for ``make(s, n)`` on three ``point(s, n)`` draws.

    ``repeats`` draws a coin that sets y = x one time in ten.  ``pad``, if
    given, is added to every coordinate of the triangle's right side (the
    complex modulus rounds).
    """
    inst = make(s, n)
    x, y, z = point(s, n), point(s, n), point(s, n)
    if repeats and s.rng.random() < 0.1:
        y = x
    d_xy = inst.distance(x, y)
    rhs = d_xy + inst.distance(y, z)
    if pad is not None:
        rhs = rhs + Vec((pad,) * inst.dim)
    if not solid.in_cone(d_xy):
        why = "distance left the cone"
    elif (d_xy == Vec.zeros(inst.dim)) != (x == y):
        why = "zero distance does not characterize equality"
    elif d_xy != inst.distance(y, x):
        why = "asymmetric"
    elif not solid.leq(inst.distance(x, z), rhs):
        why = "triangle inequality failed"
    else:
        return None
    return _payload(x=x, y=y, z=z, why=why)


def _check_scalarized_metric(s, n, ops):
    inst = _weighted(s, n)
    g = _gauge(s, n)
    x, y, z = s.rpoint(n), s.rpoint(n), s.rpoint(n)
    if s.rng.random() < 0.1:
        y = x
    rho_xy = mink_norm(inst.distance(x, y), g)
    if (rho_xy == 0.0) != (x == y):
        return _payload(x=x, y=y, why="zero value does not characterize equality")
    if rho_xy != mink_norm(inst.distance(y, x), g):
        return _payload(x=x, y=y, why="asymmetric")
    rho_xz = mink_norm(inst.distance(x, z), g)
    rho_yz = mink_norm(inst.distance(y, z), g)
    if rho_xz > rho_xy + rho_yz + _TRIANGLE_TOL * max(1.0, rho_xy + rho_yz):
        return _payload(x=x, y=y, z=z, why="triangle inequality failed")


def _check_cone_norm_homogeneity(s, n, ops):
    inst = _weighted(s, n, "complex")
    x = s.cpoint(n)
    t = s.dyadic_power()
    lhs = inst.norm(tuple(t * c for c in x))
    rhs = abs(t) * inst.norm(x)
    if lhs != rhs:
        return _payload(x=x, t=t)
    u = s.scalar()
    lhs = inst.norm(tuple(u * c for c in x))
    rhs = abs(u) * inst.norm(x)
    scale = max(1.0, max(rhs.coords))
    if any(abs(a - b) > _TRIANGLE_TOL * scale for a, b in zip(lhs, rhs)):
        return _payload(x=x, t=u)


def _check_ball_identity(s, n, ops):
    inst = _weighted(s, n)
    g = _gauge(s, n)
    x, y = s.rpoint(n), s.rpoint(n)
    eps = s.scalar_pos()
    d = inst.distance(x, y)
    scalar_member = mink_norm(d, g) < eps
    cone_member = strict_ball_test(d, eps, g)
    if scalar_member != cone_member:
        return _payload(x=x, y=y, eps=eps, base=g.spec.base)


def _check_discrete_stationary(s, n, ops):
    inst = DiscreteConeMetric(s.pos_vec(n))
    length = s.rng.randint(2, 14)
    seq = [s.rng.randint(0, 4) for _ in range(length)]
    if s.rng.random() < 0.7:
        seq += [s.rng.randint(0, 4)] * s.rng.randint(1, 10)
    cutoff = None
    for start in range(len(seq)):
        tail = seq[start:]
        if all(
            solid.lt(inst.distance(a, b), inst.a)
            for i, a in enumerate(tail)
            for b in tail[i:]
        ):
            cutoff = start
            break
    if cutoff is not None and len(set(seq[cutoff:])) > 1:
        return _payload(seq=seq, cutoff=cutoff)


SUITES: list[tuple[str, Callable]] = [
    ("reflexivity", _check_reflexivity),
    ("antisymmetry", _check_antisymmetry),
    ("transitivity", partial(_check_chain, first=False, second=False)),
    ("V1_translation", partial(_check_translation, strict=False)),
    ("V2_nonneg_scaling", partial(_check_scaling, strict=False, negative=False)),
    ("V3_limit_finite", _check_v3_limit_finite),
    ("V4_nonpos_scaling", partial(_check_scaling, strict=False, negative=True)),
    ("V5_scalar_monotone_pos", partial(_check_scalar_monotone, strict=False, negative=False)),
    ("V6_scalar_monotone_neg", partial(_check_scalar_monotone, strict=False, negative=True)),
    ("V7_addition", partial(_check_addition, strict=False)),
    ("S1_strict_implies_weak", _check_s1_strict_implies_weak),
    ("S2_weak_then_strict", partial(_check_chain, first=False, second=True)),
    ("S3_translation", partial(_check_translation, strict=True)),
    ("S4_pos_scaling", partial(_check_scaling, strict=True, negative=False)),
    ("S5_limit_finite", _check_s5_limit_finite),
    ("S6_neg_scaling", partial(_check_scaling, strict=True, negative=True)),
    ("S7_scalar_strict_pos", partial(_check_scalar_monotone, strict=True, negative=False)),
    ("S8_scalar_strict_neg", partial(_check_scalar_monotone, strict=True, negative=True)),
    ("S9_strict_then_weak", partial(_check_chain, first=True, second=False)),
    ("S10_mixed_addition", partial(_check_addition, strict=True)),
    ("S11_small_multiples", _check_s11_small_multiples),
    ("correspondence_leq_cone", partial(_check_correspondence, strict=False)),
    ("correspondence_lt_interior", partial(_check_correspondence, strict=True)),
    ("interior_positive_scaling", _check_interior_positive_scaling),
    ("interior_cone_addition", _check_interior_cone_addition),
    ("interior_excludes_zero", _check_interior_excludes_zero),
    ("minorant_witness", _check_minorant_witness),
    ("bounding_witness", _check_bounding_witness),
    ("gauge_definiteness", _check_gauge_definiteness),
    ("gauge_homogeneity", _check_gauge_homogeneity),
    ("gauge_triangle", _check_gauge_triangle),
    ("gauge_monotone", _check_gauge_monotone),
    ("gauge_ball_equivalence", _check_gauge_ball_equivalence),
    ("weighted_real_metric", partial(
        _check_metric_axioms, make=_weighted, point=Sampler.rpoint, pad=None, repeats=True)),
    ("weighted_complex_metric", partial(
        _check_metric_axioms, make=partial(_weighted, field="complex"),
        point=Sampler.cpoint, pad=_TRIANGLE_TOL, repeats=True)),
    ("discrete_metric", partial(
        _check_metric_axioms, make=lambda s, n: DiscreteConeMetric(s.pos_vec(n)),
        point=lambda s, n: s.rng.randint(0, 4), pad=None, repeats=False)),
    ("plus_metric", partial(
        _check_metric_axioms, make=lambda s, n: PlusConeMetric(n),
        point=Sampler.nonneg_vec, pad=None, repeats=True)),
    ("scalarized_metric", _check_scalarized_metric),
    ("cone_norm_homogeneity", _check_cone_norm_homogeneity),
    ("ball_identity", _check_ball_identity),
    ("discrete_stationary_cauchy", _check_discrete_stationary),
]


def _positive_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def run_all(
    seed: int = 0,
    samples: int = 1000,
    dims: Sequence[int] = tuple(range(1, 9)),
    ops: OrderOps = DEFAULT_OPS,
) -> list[SuiteResult]:
    """Run every suite with per-suite seeds derived from the root seed.

    ``dims`` and ``samples`` are checked before any suite runs: each must be
    a positive ``int`` (not a ``bool``), else ``ValueError`` names it.
    """
    dims = list(dims)
    if not dims or not all(map(_positive_int, dims)):
        raise ValueError(f"dims must be a nonempty list of positive integers, got {dims!r}")
    if not _positive_int(samples):
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    results = []
    for name, check in SUITES:
        smp = Sampler(f"{seed}:{name}")
        counterexample = None
        checks = 0
        for i in range(samples):
            checks += 1
            n = dims[i % len(dims)]
            counterexample = check(smp, n, ops)
            if counterexample is not None:
                break
        results.append(
            SuiteResult(
                name=name,
                passed=counterexample is None,
                checks=checks,
                counterexample=counterexample,
            )
        )
    return results


def report_dict(results: list[SuiteResult], seed: int, samples: int) -> dict:
    return {
        "seed": seed,
        "samples": samples,
        "all_passed": all(r.passed for r in results),
        "suites": [
            {
                "name": r.name,
                "passed": r.passed,
                "checks": r.checks,
                "counterexample": r.counterexample,
            }
            for r in results
        ],
    }
