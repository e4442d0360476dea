"""Fixed-point iteration engine with componentwise error certificates.

Runs plain successive approximation x_{k+1} = T(x_k) over any of the cone
metrics and, for a contraction factor ``lam``, emits the standard certificate
family in cone-vector form:

* invariance radius  r = d(x0, x1) / (1 - lam),
* a priori bound     lam^n / (1 - lam) * d(x0, x1),
* forward a posteriori bound   d(x_n, x_{n+1}) / (1 - lam),
* backward a posteriori bound  lam / (1 - lam) * d(x_{n-1}, x_n).

A :class:`Certificate` stores only the factor and the step distances; each
bound family is a read-only sequence whose entries are computed from those
closed forms when read.

A supplied factor covers the whole run.  Without one, the factor is the
largest gauge ratio of consecutive steps over the longest contracting tail
of the trace: the iterated contraction principle asks only that steps
contract along the orbit, which the tail shows for the orbit from its first
iterate, so the families cover the run from there (``Certificate.start``).

A certificate is marked ``certified`` only when the factor was supplied by
the caller, the invariance ball fits inside the declared domain, and the
observed steps never contradict the factor.  An estimated factor always
yields ``heuristic``; a domain checked only pointwise on iterates yields
``conditional``.

The start point and every map output are validated once, on entry, and a
ball domain's center when the problem is built; steps and ball tests are
measured between already validated points.  Past the start point's
checks a run always returns.  An iterate outside the domain ends it with
halt ``domain_escape``, that iterate last in the trace.  A map output, step
distance or halting bound that overflows, or a map that raises
:class:`NonFiniteError` itself, ends it with halt ``overflow``, the trace
stopping at the last iterate before it; so does a certificate whose radius
or final bound overflows.  Neither ending converges or has a certificate.
Any other exception from the map propagates.  Every result names its halt
cause: ``stop_c``, ``noise_floor``, ``max_iter``, ``overflow`` or
``domain_escape``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from typing import Callable, Optional

from .gauge import GaugeNorm, mink_norm
from .metrics import Ball, ConeMetric, WeightedConeMetric
from .solid import NonFiniteError, Vec, _finite, _Record, in_interior, leq

__all__ = [
    "LAMBDA_CEILING",
    "Problem",
    "IterationTrace",
    "Certificate",
    "PicardResult",
    "run_picard",
    "apriori_bound",
    "apost_forward_bound",
    "apost_backward_bound",
    "verify_step_contraction",
    "estimate_lambda",
    "check_domain_condition",
    "residual_check",
    "rate_check",
    "write_trace_csv",
    "certificate_to_dict",
]

# Factors this close to 1 make 1/(1-lam) meaningless at working precision.
LAMBDA_CEILING = 1.0 - 1e-12


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not 0.0 <= lam <= LAMBDA_CEILING:
        raise ValueError(
            f"contraction factor must lie in [0, {LAMBDA_CEILING}], got {lam!r}"
        )
    return lam


class Problem(_Record):
    """One fixed-point problem: map, start, metric, gauge and halting data.

    ``domain`` is None for the whole space, a closed :class:`Ball`, or a
    predicate called on every iterate; a ball's center is validated here,
    once.  ``lam`` is the contraction factor when the caller can supply one;
    left None it is estimated from the trace and every certificate is
    downgraded to heuristic.
    """

    __slots__ = ("map_fn", "x0", "metric", "gauge", "stop_c", "max_iter", "lam", "domain")

    def __init__(
        self,
        map_fn: Callable,
        x0: object,
        metric: ConeMetric,
        gauge: GaugeNorm,
        stop_c: Vec,
        max_iter: int = 200,
        lam: Optional[float] = None,
        domain: object = None,
    ):
        # Duck-typed: any object with an integer ``dim`` can be a metric.
        n = getattr(metric, "dim", None)
        if not isinstance(n, int):
            raise TypeError(f"metric must be a cone metric, got {type(metric).__name__}")
        if not isinstance(gauge, GaugeNorm):
            raise TypeError(f"gauge must be a GaugeNorm, got {type(gauge).__name__}")
        if gauge.spec.n != n:
            raise ValueError(
                f"gauge dimension {gauge.spec.n} does not match metric dimension {n}"
            )
        if not isinstance(stop_c, Vec):
            raise TypeError(f"stop_c must be a Vec, got {type(stop_c).__name__}")
        if len(stop_c) != n or not in_interior(stop_c):
            raise ValueError("stop_c must be a strictly positive vector of metric dimension")
        if max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
        if lam is not None:
            lam = _check_lambda(lam)
        if isinstance(domain, Ball):
            if not domain.closed:
                raise ValueError("a ball domain must be closed")
            try:
                center = metric.validate_point(domain.center)
            except (TypeError, ValueError) as exc:
                raise type(exc)(f"domain center: {exc}") from None
            if len(domain.radius) != n:
                raise ValueError(f"domain radius: {len(domain.radius)} coordinates, expected {n}")
            domain = Ball(center, domain.radius)
        super().__init__(map_fn, x0, metric, gauge, stop_c, max_iter, lam, domain)


class IterationTrace(_Record):
    """Iterates x_0, x_1, ... and the step distances d(x_k, x_{k+1})."""

    __slots__ = ("iterates", "step_dists")

    def __init__(self, iterates: list | None = None, step_dists: list[Vec] | None = None):
        self.iterates = [] if iterates is None else iterates
        self.step_dists = [] if step_dists is None else step_dists


class _BoundFamily(Sequence):
    """Read-only sequence of bound vectors, entry k computed when read.

    An entry whose value overflows raises :class:`NonFiniteError` on access.
    Slicing returns a list of the selected entries.
    """

    __slots__ = ("_len", "_entry")

    def __init__(self, length: int, entry: Callable[[int], Vec]):
        self._len = length
        self._entry = entry

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self._entry(i) for i in range(*k.indices(self._len))]
        i = operator.index(k)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError(f"bound index {k} out of range for {self._len} entries")
        return self._entry(i)

    def __iter__(self):
        return map(self._entry, range(self._len))


class Certificate(_Record):
    """Factor, status and steps of a run; the bound families derive from them.

    ``lambda_source`` is ``"given"`` or ``"estimated"``, ``status``
    ``"certified"``, ``"conditional"`` or ``"heuristic"``, ``radius_r`` entry
    0 of ``apriori`` and ``residual`` :func:`residual_check` at the last
    iterate, or None when that failed.  ``steps`` holds d(x_k, x_{k+1}) for
    k >= ``start``, the first iterate the families cover (0, the default, for
    a given factor).  ``apriori``, ``apost_forward`` and ``apost_backward``
    are read-only sequences whose entry k is :func:`apriori_bound`,
    :func:`apost_forward_bound` or :func:`apost_backward_bound` of
    (``lambda_used``, ``steps``) called when it is read, so building a
    certificate costs no per-iterate bound work.
    """

    __slots__ = (
        "lambda_used", "lambda_source", "radius_r", "steps", "status", "residual", "start"
    )
    _defaults = {"start": 0}

    @property
    def apriori(self) -> _BoundFamily:
        """Entry k bounds the error at iterate start + k (k = 0..len(steps))."""
        lam, d01 = self.lambda_used, self.steps[0]
        return _BoundFamily(len(self.steps) + 1, lambda k: apriori_bound(k, lam, d01))

    @property
    def apost_forward(self) -> _BoundFamily:
        """Entry k bounds the error at iterate start + k."""
        lam, steps = self.lambda_used, self.steps
        return _BoundFamily(len(steps), lambda k: apost_forward_bound(steps[k], lam))

    @property
    def apost_backward(self) -> _BoundFamily:
        """Entry k bounds the error at iterate start + k + 1."""
        lam, steps = self.lambda_used, self.steps
        return _BoundFamily(len(steps), lambda k: apost_backward_bound(steps[k], lam))


def _forward_factor(lam: float) -> float:
    """1 / (1 - lam), the factor of the forward a posteriori bound."""
    lam = _check_lambda(lam)
    return 1.0 / (1.0 - lam)


def _backward_factor(lam: float) -> float:
    """lam / (1 - lam), the factor of the backward a posteriori bound."""
    lam = _check_lambda(lam)
    return lam / (1.0 - lam)


class PicardResult(_Record):
    """The trace of a run, its certificate (or None) and how it ended.

    ``fixed_point`` is the returned point, or None.  ``halt`` names the
    cause: ``"stop_c"``, ``"noise_floor"``, ``"max_iter"``, ``"overflow"`` or
    ``"domain_escape"``.
    """

    __slots__ = ("trace", "certificate", "fixed_point", "converged", "halt")


def apriori_bound(n: int, lam: float, d01: Vec) -> Vec:
    """Error bound at iterate n from the first step: lam^n / (1 - lam) * d01.

    Uses the 0**0 = 1 convention, so n = 0 returns the invariance radius.
    """
    if n < 0:
        raise ValueError(f"iteration index must be nonnegative, got {n!r}")
    lam = _check_lambda(lam)
    return (lam**n / (1.0 - lam)) * d01


def apost_forward_bound(d_next: Vec, lam: float) -> Vec:
    """Error bound at the current iterate from the step just taken."""
    return _forward_factor(lam) * d_next


def apost_backward_bound(d_prev: Vec, lam: float) -> Vec:
    """Error bound at the new iterate from the step that produced it."""
    return _backward_factor(lam) * d_prev


def verify_step_contraction(trace: IterationTrace, lam: float) -> bool:
    """Exact check that consecutive step distances contract by lam."""
    lam = _check_lambda(lam)
    steps = trace.step_dists
    if len(steps) < 2:
        raise ValueError("need at least two recorded steps")
    # leq(steps[k + 1], lam * steps[k]) without building lam * steps[k]:
    # lam < 1, so the products of finite steps cannot overflow.
    for prev, nxt in zip(steps, steps[1:]):
        prev._same_dim(nxt)
        if not all(map(operator.le, nxt.coords, [c * lam for c in prev.coords])):
            return False
    return True


def estimate_lambda(trace: IterationTrace, g: GaugeNorm) -> tuple[int, Optional[float]]:
    """Start and factor of the longest suffix of steps contracting in the gauge.

    A pair of consecutive steps contracts when the later gauge is at most
    ``LAMBDA_CEILING`` times the earlier one; two zero steps contract with
    ratio 0, a nonzero step after a zero one does not.  A zero last step
    contracts with ratio 0 from its own index: the run landed on its fixed
    point.  Returns ``(start, lam)``: the index of the suffix's first step
    and its largest ratio, or ``(number of steps, None)`` when the last step
    is nonzero and the last pair does not contract.  The gauges are taken
    from the last step back, so a non-contracting prefix costs nothing past
    its last pair.
    """
    steps = trace.step_dists
    start, lam = len(steps), None
    if not steps:
        return start, lam
    later = mink_norm(steps[-1], g)
    if later == 0.0:
        start, lam = start - 1, 0.0
    for k in range(len(steps) - 2, -1, -1):
        earlier = mink_norm(steps[k], g)
        if earlier == 0.0:
            if later != 0.0:
                break
            ratio = 0.0
        else:
            ratio = later / earlier
            if ratio > LAMBDA_CEILING:
                break
        start, later = k, earlier
        if lam is None or ratio > lam:
            lam = ratio
    return start, lam


def check_domain_condition(p: Problem, r: Vec) -> str:
    """'verified' when the invariance ball provably sits inside the domain.

    The whole space verifies trivially; a closed ball domain verifies through
    d(x0, center) + r <= radius; a predicate can only ever be checked on the
    iterates themselves, hence 'conditional'.
    """
    if p.domain is None:
        return "verified"
    if isinstance(p.domain, Ball):
        d = p.metric._distance(p.metric.validate_point(p.x0), p.domain.center)
        return "verified" if leq(d + r, p.domain.radius) else "conditional"
    return "conditional"


def residual_check(xi, p: Problem) -> Vec:
    """Cone distance between a candidate point and its image under the map."""
    return p.metric.distance(xi, p.map_fn(xi))


def rate_check(
    trace: IterationTrace, xi, p: Problem, slack: float = 0.0
) -> bool:
    """Both convergence-rate inequalities against a known fixed point.

    Checks d(x_{n+1}, xi) <= lam * d(x_n, xi) and
    d(x_n, xi) <= lam^n * d(x_0, xi), each with an additive per-coordinate
    slack for float noise (0 by default).
    """
    if p.lam is None:
        raise ValueError("rate_check needs the problem's contraction factor")
    lam = p.lam
    pad = Vec((slack,) * p.metric.dim)
    dists = [p.metric.distance(x, xi) for x in trace.iterates]
    for n in range(len(dists) - 1):
        if not leq(dists[n + 1], lam * dists[n] + pad):
            return False
    d0 = dists[0]
    for n, dn in enumerate(dists):
        if not leq(dn, lam**n * d0 + pad):
            return False
    return True


def _in_domain(p: Problem, x) -> bool:
    if p.domain is None:
        return True
    if isinstance(p.domain, Ball):
        return leq(p.metric._distance(x, p.domain.center), p.domain.radius)
    return bool(p.domain(x))


def run_picard(
    p: Problem, *, stalled: Optional[Callable[[IterationTrace], bool]] = None
) -> PicardResult:
    """Iterate the map from x0 until the halting rule fires or max_iter runs out.

    With a supplied factor the engine halts once the backward a posteriori
    bound drops strictly below ``stop_c`` (halt ``stop_c``); without one it
    halts once the last step distance does.  ``stalled``, when given, is
    called on the trace after every iteration whose ``stop_c`` test fails; a
    true answer ends the run as converged with halt ``noise_floor``, for a
    caller that can tell when only rounding noise is left.  Reaching
    ``max_iter`` is not an error: the result comes back with
    ``converged=False``, halt ``max_iter`` and whatever certificate the
    trace supports.  Nor is a domain escape or an overflow (see the module
    docstring): the run ends unconverged with halt ``domain_escape`` or
    ``overflow`` and no certificate.  Only the start point's checks raise.
    """
    inst = p.metric
    trace = IterationTrace()
    x = inst.validate_point(p.x0)
    if not _in_domain(p, x):
        raise ValueError("the start point is outside the declared domain")
    trace.iterates.append(x)

    # The halting bound is apost_backward_bound(s, lam), compared with stop_c
    # coordinate by coordinate; its factor _backward_factor is computed once.
    # Multiplying each step by it (rather than dividing stop_c by it) keeps
    # every halting decision bit-identical to the bound the certificate emits.
    # The products are formed lazily, so the compare stops at the first
    # coordinate not below stop_c.  Steps and the factor are finite and >= 0,
    # and rounded multiplication is monotone, so every product is finite
    # exactly when max(s) * factor is: one pass checks them all.
    stop = p.stop_c.coords
    factor = None if p.lam is None else _backward_factor(p.lam)
    cause = "max_iter"
    for _ in range(p.max_iter):
        try:
            x_next = inst.validate_point(p.map_fn(x))
            s = inst._distance(x, x_next)
        except NonFiniteError:
            cause = "overflow"
            break
        halt = s.coords
        if factor is not None:
            if not math.isfinite(max(halt) * factor):
                cause = "overflow"
                break
            halt = map(factor.__mul__, halt)
        trace.iterates.append(x_next)
        trace.step_dists.append(s)
        if not _in_domain(p, x_next):
            cause = "domain_escape"
            break
        x = x_next
        if all(map(operator.lt, halt, stop)):
            cause = "stop_c"
            break
        if stalled is not None and stalled(trace):
            cause = "noise_floor"
            break

    cert = None
    if cause not in ("domain_escape", "overflow"):
        try:
            cert = _build_certificate(p, trace)
        except NonFiniteError:
            cause = "overflow"
    converged = cause in ("stop_c", "noise_floor")
    return PicardResult(
        trace=trace,
        certificate=cert,
        fixed_point=x if converged else None,
        converged=converged,
        halt=cause,
    )


def _build_certificate(p: Problem, trace: IterationTrace) -> Optional[Certificate]:
    """Certificate of a run that neither overflowed nor escaped, so has a step.

    A given factor covers the run from iterate 0.  Without one the factor is
    estimated from the contracting tail (:func:`estimate_lambda`) and covers
    the run from the tail's start (all-zero steps give λ 0 from iterate 0);
    a trace with no contracting tail gets no certificate.  A radius or final
    bound entry that overflows raises :class:`NonFiniteError`.  Only a given
    factor certifies.
    """
    steps = trace.step_dists
    if p.lam is not None:
        start, lam, source = 0, p.lam, "given"
    else:
        start, lam = estimate_lambda(trace, p.gauge)
        if lam is None:
            return None
        source = "estimated"
    steps = steps[start:]
    radius = apriori_bound(0, lam, steps[0])
    # certificate_to_dict emits each family's final entry.  The a priori one
    # is at most the radius and the backward one at most the forward one,
    # whose products are all finite exactly when the largest is (as in the
    # halting test), so one product checks all three.
    _finite((max(steps[-1].coords) * _forward_factor(lam),))
    status = "heuristic"
    if source == "given":
        status = "certified" if check_domain_condition(p, radius) == "verified" else "conditional"
        if len(steps) >= 2 and not verify_step_contraction(trace, lam):
            # Observed steps contradict the supplied factor: do not certify.
            status = "heuristic"
    residual = None
    try:
        residual = residual_check(trace.iterates[-1], p)
    except (ValueError, ArithmeticError, OverflowError, ZeroDivisionError):
        pass
    return Certificate(
        lambda_used=lam,
        lambda_source=source,
        radius_r=radius,
        steps=steps,
        status=status,
        residual=residual,
        start=start,
    )


def write_trace_csv(fh, trace: IterationTrace, inst: ConeMetric) -> None:
    """Deterministic per-iterate table: the iterate number, point and step.

    Row n holds x_n and d(x_n, x_{n+1}); the last row's step cells stay
    empty, since no step leaves the last iterate.  The table holds data, not
    claims: entry k of each bound family is a closed form of the
    certificate's factor and the steps from row ``start`` on (see
    :class:`Certificate`).  Floats are written with 17 significant digits
    and a '.' decimal separator, so identical runs produce byte-identical
    files.

    Rows are streamed to ``fh`` one ``write`` each.  No cell ever needs CSV
    quoting, so each row is one ``%`` template of its own width filled in a
    single call; ``'%.17g'`` gives the bytes of ``format(v, ".17g")``.
    """
    m = inst.dim
    complex_field = isinstance(inst, WeightedConeMetric) and inst.field == "complex"
    cols = [f"x{j}" for j in range(len(tuple(trace.iterates[0])))]
    if complex_field:
        cols = [f"{c}_{part}" for c in cols for part in ("re", "im")]
    cols += [f"step_d{j}" for j in range(m)]
    fh.write("iter," + ",".join(cols) + "\n")
    steps = trace.step_dists
    no_step = "," * m + "\n"
    for n, point in enumerate(trace.iterates):
        values = [n]
        if complex_field:
            for c in point:
                values += (float(c.real), float(c.imag))
        else:
            values += map(float, point)
        if n < len(steps):
            values += steps[n].coords
            end = "\n"
        else:
            end = no_step
        fh.write(("%d" + ",%.17g" * (len(values) - 1) + end) % tuple(values))


def certificate_to_dict(cert: Optional[Certificate]) -> Optional[dict]:
    """JSON form of a certificate, with each bound family cut to its last entry.

    ``apriori`` and ``apost_backward`` then bound the last iterate and
    ``apost_forward`` the one before it; each stays a one-entry list, so
    ``[-1]`` reads the same vector as in the full family.  The per-iterate
    entries stay in the library, each a closed form of ``lambda_used`` and
    the step cells of :func:`write_trace_csv` (see :class:`Certificate`).
    """
    if cert is None:
        return None
    return {
        "lambda_used": cert.lambda_used,
        "lambda_source": cert.lambda_source,
        "radius_r": list(cert.radius_r.coords),
        "apriori": [list(cert.apriori[-1].coords)],
        "apost_forward": [list(cert.apost_forward[-1].coords)],
        "apost_backward": [list(cert.apost_backward[-1].coords)],
        "status": cert.status,
        "residual": None if cert.residual is None else list(cert.residual.coords),
    }
