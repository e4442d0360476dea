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
closed forms when read.  A trace is its orbit: the iterates and the metric,
with step k measured from iterates k and k + 1 when it is read, the run's
step bit for bit.  Over a real weighted metric, whose points are tuples of
exact floats, a trace keeps each iterate as the bytes of its doubles; over
any other metric it keeps its iterates in a list.  The cyclic garbage
collector does not track bytes, nor the floats in which a run records each
step's gauge as it goes, so a real run keeps no tracked object per
iteration.

A supplied factor covers the whole run.  Without one, the factor is the
largest gauge ratio of consecutive steps over the longest contracting tail
of the trace, one rule for a run and :func:`estimate_lambda`: the iterated
contraction principle asks only that steps contract along the orbit, which
the tail shows for the orbit from its first iterate, so the families cover
the run from there (``Certificate.start``).

A certificate is marked ``certified`` only when the factor was supplied by
the caller, the invariance ball fits inside the declared domain, and the
observed steps never contradict the factor, an exact check of every pair of
consecutive steps made from the last pair back, where rounding noise first
breaks contraction.  An estimated factor always
yields ``heuristic``; a domain checked only pointwise on iterates yields
``conditional``.

The start point and a ball domain's center are validated once, when the
:class:`Problem` is built, which then refuses assignment; the start's
domain test and the map's start check run there too.  Every map output is
validated once, on entry.  Steps and ball tests are measured between
already validated points.  A run makes no start check and returns, unless
the map raises other than :class:`NonFiniteError` or the metric refuses a
map output (another length, a complex coordinate in a real metric, a
plus-metric point outside the cone).  An iterate outside the domain ends it
with halt ``domain_escape``, that iterate last in the trace; one whose
distance to a ball's center overflows lies outside the ball, as for
:func:`~conecert.metrics.ball_contains`.  A map output, step distance or
halting bound that overflows, or a map that raises :class:`NonFiniteError`
itself, ends it with halt ``overflow``, the trace stopping at the last
iterate before it; so does a certificate whose radius or final bound
overflows.  Neither ending converges or has a certificate.  Every result
names its halt cause: ``stop_c``, ``noise_floor``, ``max_iter``,
``overflow`` or ``domain_escape``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from itertools import pairwise, repeat, tee
from struct import Struct
from typing import Callable, Optional

from .gauge import GaugeNorm, _cone_max, mink_norm
from .metrics import Ball, ConeMetric, WeightedConeMetric, _in_ball, _reach
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

    Every field is checked here, once, and a problem refuses assignment, so
    a run certifies the problem as built.  ``x0`` is kept as the metric's
    ``validate_point`` returns it.  ``domain`` is None for the whole space, a
    closed :class:`Ball`, whose center is validated here too, or a predicate
    called on every iterate.  ``lam`` is the contraction factor when the
    caller can supply one; left None it is estimated from the trace and
    every certificate is downgraded to heuristic.  A start outside the
    domain raises ``ValueError``; then the map's ``stall_rule``, if any, is
    called once, may refuse the start, and returns a noise-floor test or
    None, kept in the derived slot ``_stalled`` (see :func:`run_picard`), so
    a run depends on the problem alone.
    """

    __slots__ = ("map_fn", "x0", "metric", "gauge", "stop_c", "max_iter", "lam", "domain",
                 "_stalled")

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
        if not callable(map_fn):
            raise TypeError(f"map_fn must be callable, got {type(map_fn).__name__}")
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
        x0 = metric.validate_point(x0)
        if not isinstance(stop_c, Vec):
            raise TypeError(f"stop_c must be a Vec, got {type(stop_c).__name__}")
        if len(stop_c) != n or not in_interior(stop_c):
            raise ValueError("stop_c must be a strictly positive vector of metric dimension")
        if isinstance(max_iter, bool) or not isinstance(max_iter, int):
            raise TypeError(f"max_iter must be an integer, got {type(max_iter).__name__}")
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
        elif domain is not None and not callable(domain):
            raise TypeError(
                f"domain must be None, a Ball or a predicate, got {type(domain).__name__}"
            )
        super().__init__(map_fn, x0, metric, gauge, stop_c, max_iter, lam, domain)
        if not _in_domain(self, x0):
            raise ValueError("the start point is outside the declared domain")
        rule = getattr(map_fn, "stall_rule", None)
        object.__setattr__(self, "_stalled", None if rule is None else rule(self))


class _Rows(Sequence):
    """Read-only iterates of a run over a real :class:`WeightedConeMetric`,
    each kept as the bytes of its doubles.

    Every row is a tuple of exact finite floats of the metric's dimension,
    as its ``validate_point`` returns it: :class:`IterationTrace` fills one
    with the points it validated and :func:`run_picard` appends through
    ``_append``, which checks nothing.  Entry k reads back as a new tuple
    equal bit for bit to the one stored, a signed zero keeping its sign.  A
    slice is a ``_Rows`` that shares the bytes.  ``iter`` and ``reversed``
    read the entries in either order.  ``==`` compares the entries with
    another such sequence, a :class:`_StepView` or a list, as a list does;
    ``repr`` reads as the list, and a pickle holds the list and loads as a
    ``_Rows``.
    """

    __slots__ = ("_packed", "_struct")

    def __init__(self, rows=()):
        self._packed, self._struct = [], None
        for row in rows:
            self._append(row)

    def _append(self, coords: tuple) -> None:
        """Keep a validated point: the store's one write."""
        if self._struct is None:
            self._struct = Struct(f"{len(coords)}d")
        self._packed.append(self._struct.pack(*coords))

    def __len__(self) -> int:
        return len(self._packed)

    def __getitem__(self, k):
        if isinstance(k, slice):
            view = _Rows()
            view._packed, view._struct = self._packed[k], self._struct
            return view
        b = self._packed[k]  # read first: an empty sequence has no struct
        return self._struct.unpack(b)

    def __iter__(self):
        return map(self._struct.unpack, self._packed) if self._packed else iter(())

    def __reversed__(self):
        return iter(self[::-1])

    def __eq__(self, other):
        if not isinstance(other, (_Rows, _StepView, list)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))

    def __reduce__(self):
        return _Rows, (list(self),)


class _StepView(Sequence):
    """Read-only steps of a trace, measured from its iterates.

    Entry k is ``metric._distance(x_k, x_{k+1})`` over the iterates it
    views: the same function of the same points as the run's step, so the
    same ``Vec`` bit for bit.  Nothing is stored; each read measures again.
    There is one step fewer than iterates, none for one iterate, and the
    count follows the iterates as the run appends.  A slice of consecutive
    steps views the iterates it spans; any other slice is a list of the
    steps it selects.  ``iter`` and ``reversed`` walk consecutive iterates
    in pairs, reading each iterate once.  ``==``, ``repr`` and ``hash`` are
    those of :class:`_Rows`, and a pickle holds the iterates and the metric.
    """

    __slots__ = ("_iterates", "_metric")

    def __init__(self, iterates: Sequence, metric: ConeMetric):
        self._iterates, self._metric = iterates, metric

    def __len__(self) -> int:
        return max(len(self._iterates) - 1, 0)

    def __getitem__(self, k):
        at = range(len(self))[k]
        if isinstance(at, int):
            x = self._iterates
            return self._metric._distance(x[at], x[at + 1])
        if at.step == 1:
            return _StepView(self._iterates[at.start : at.stop + 1], self._metric)
        return list(map(self.__getitem__, at))

    def __iter__(self):
        earlier, later = tee(self._iterates)
        next(later, None)
        return map(self._metric._distance, earlier, later)

    def __reversed__(self):
        later, earlier = tee(reversed(self._iterates))
        next(earlier, None)
        return map(self._metric._distance, earlier, later)

    __eq__ = _Rows.__eq__
    __hash__ = None
    __repr__ = _Rows.__repr__

    def __reduce__(self):
        return _StepView, (self._iterates, self._metric)


class IterationTrace(_Record):
    """Iterates x_0, x_1, ... of an orbit and the metric that measures them.

    The constructor runs ``metric.validate_point`` on each iterate it is
    given, so a point the metric refuses raises the metric's own error, and
    keeps the validated points: over a real :class:`WeightedConeMetric` as
    a read-only sequence of packed doubles whose entries read back as
    tuples equal bit for bit to the points, and in a list over any other
    metric.  ``step_dists`` is a read-only view whose entry k is
    d(x_k, x_{k+1}), measured from iterates k and k + 1 when it is read, so
    a trace's steps are always the distances of its iterates.  A run builds
    its trace empty and appends each point as it validates it; it writes its
    trace and never reads it to halt (see :func:`run_picard`).
    """

    __slots__ = ("iterates", "metric")

    def __init__(self, iterates, metric: ConeMetric):
        points = map(metric.validate_point, iterates)
        real = isinstance(metric, WeightedConeMetric) and metric.field == "real"
        super().__init__(_Rows(points) if real else list(points), metric)

    @property
    def step_dists(self) -> _StepView:
        """d(x_k, x_{k+1}) for each pair of consecutive iterates."""
        return _StepView(self.iterates, self.metric)


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
    ``"certified"``, ``"conditional"`` or ``"heuristic"``, and ``residual``
    :func:`residual_check` at the last iterate, or None when that overflowed.
    ``steps`` holds d(x_k, x_{k+1}) for k >= ``start``, the first iterate the
    families cover (0 for a given factor); a run's certificate holds a
    slice of its trace's steps, which measures them from the iterates it
    spans.  ``apriori``, ``apost_forward`` and ``apost_backward`` are
    read-only sequences whose entry k is :func:`apriori_bound`,
    :func:`apost_forward_bound` or :func:`apost_backward_bound` of
    (``lambda_used``, ``steps``) called when it is read, so building a
    certificate costs no per-iterate bound work; ``radius_r`` is
    ``apriori``'s entry 0, read the same way.
    """

    __slots__ = ("lambda_used", "lambda_source", "steps", "status", "residual", "start")

    @property
    def radius_r(self) -> Vec:
        """The invariance radius: entry 0 of ``apriori``."""
        return apriori_bound(0, self.lambda_used, self.steps[0])

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


# The halt causes of a converged run: the only ones that return a point.
_CONVERGED_HALTS = ("stop_c", "noise_floor")


class PicardResult(_Record):
    """The trace of a run, its certificate (or None) and how it ended.

    ``fixed_point`` is the returned point, or None.  ``halt`` names the
    cause: ``"stop_c"``, ``"noise_floor"``, ``"max_iter"``, ``"overflow"`` or
    ``"domain_escape"``.  ``converged`` is read from it, not stored.
    """

    __slots__ = ("trace", "certificate", "fixed_point", "halt")

    @property
    def converged(self) -> bool:
        """True when the run halted at ``stop_c`` or at its noise floor."""
        return self.halt in _CONVERGED_HALTS


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
    """Exact check that consecutive step distances contract by lam.

    True when ``leq(steps[k + 1], lam * steps[k])`` holds for every pair of
    consecutive steps.  Each step is a distance between the trace's
    validated iterates (see :class:`IterationTrace`), so every pair has the
    metric's dimension.  Pairs are checked from the last one back: a run's
    rounding noise, which breaks contraction, sits at its end.
    """
    lam = _check_lambda(lam)
    steps = trace.step_dists
    if len(steps) < 2:
        raise ValueError("need at least two recorded steps")
    # leq(later, lam * earlier) without building lam * earlier: lam < 1, so
    # the products of finite steps cannot overflow.
    for later, earlier in pairwise(reversed(steps)):
        if not all(map(operator.le, later.coords, map(operator.mul, earlier.coords, repeat(lam)))):
            return False
    return True


def estimate_lambda(trace: IterationTrace, g: GaugeNorm) -> tuple[int, Optional[float]]:
    """Start and factor of the longest suffix of steps contracting in the gauge.

    A step is a distance, so it lies in the cone, where its gauge is one
    ``max`` (``gauge._cone_max``, the bits of :func:`mink_norm`).  A pair of
    consecutive steps contracts when the later gauge is at most
    ``LAMBDA_CEILING`` times the earlier one; two zero steps contract with
    ratio 0, a nonzero step after a zero one does not, and no step whose
    gauge overflows to inf under a tiny base starts a contracting pair: its
    ratio is unknown.  A zero last step contracts with ratio 0 from its own
    index: the run landed on its fixed point.  Returns ``(start, lam)``: the
    index of the suffix's first step and its largest ratio, or ``(number of
    steps, None)`` when the last step is nonzero and the last pair does not
    contract.  Each gauge is taken from the step's coordinate tuple, from
    the last step back, so a non-contracting prefix costs nothing past its
    last pair.  A run applies the same rule to the gauges it recorded.
    """
    steps = trace.step_dists
    if steps:
        mink_norm(steps[-1], g)  # raises on a gauge of another dimension
    return _contracting_tail(len(steps), (_cone_max(s.coords, g) for s in reversed(steps)))


def _contracting_tail(n: int, gauges) -> tuple[int, Optional[float]]:
    """:func:`estimate_lambda` of ``n`` steps from their gauges, given from
    the last step back and drawn only as far as the tail reaches."""
    start, lam = n, None
    gauges = iter(gauges)
    later = next(gauges, None)
    if later is None:
        return start, lam
    if later == 0.0:
        start, lam = start - 1, 0.0
    for k, earlier in zip(range(n - 2, -1, -1), gauges):
        if earlier == 0.0:
            if later != 0.0:
                break
            ratio = 0.0
        elif not math.isfinite(earlier):  # overflowed under a tiny base: unmeasured
            break
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
    d(x0, center) + r <= radius, read by :func:`metrics._reach`, so a
    distance or sum beyond the float range exceeds every finite radius; a
    predicate can only ever be checked on the iterates themselves, hence
    'conditional'.
    """
    if p.domain is None:
        return "verified"
    if isinstance(p.domain, Ball):
        reach = _reach(p.metric, p.x0, p.domain.center, r)
        return "verified" if reach is not None and leq(reach, p.domain.radius) else "conditional"
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
        return _in_ball(p.metric, x, p.domain.center, p.domain.radius)
    return bool(p.domain(x))


def run_picard(p: Problem) -> PicardResult:
    """Iterate the map from x0 until the halting rule fires or max_iter runs out.

    With a supplied factor the engine halts once the backward a posteriori
    bound drops strictly below ``stop_c`` (halt ``stop_c``); without one it
    halts once the last step distance does.  A supplied factor's bound is
    checked for overflow with one product, the step's ``max`` times the
    factor: the same decision as checking every coordinate's product.
    Without a supplied factor, or with the problem's noise-floor test
    (``Problem._stalled``), the run records one gauge per step, as
    :func:`estimate_lambda` takes it.  The test, ``stalled(z, s)`` with
    ``z`` the iterate the step ``s`` left, is asked when the ``stop_c``
    test fails and the step's gauge is finite and not below the previous
    step's; true ends the run as converged with halt ``noise_floor``.
    Without a factor the certificate takes the contracting tail of those
    gauges that :func:`estimate_lambda` would find on the trace.  The trace
    is built empty and takes each point as the run validates it, so no
    point is validated twice; it keeps only the iterates and measures a
    step when the step is read (see :class:`IterationTrace`).  A real run
    with a supplied factor and no noise-floor test builds no step either
    while one ``math.dist`` pass shows that no step coordinate or bound can
    overflow: its halting test then forms each bound coordinate from the
    iterates, the same product as from the step, and stops at the first
    that is not below ``stop_c``.
    Reaching ``max_iter`` is not an error: the result comes back with
    ``converged=False``, halt ``max_iter`` and whatever certificate the
    trace supports.  Nor is a domain escape or an overflow (see the module
    docstring): the run ends unconverged with halt ``domain_escape`` or
    ``overflow`` and no certificate.  The problem checked its start when it
    was built; a run raises only what the map raises other than
    :class:`NonFiniteError`, and the metric's error for an output it refuses.
    A run calls the map at most ``max_iter + 1`` times: when it builds a
    certificate, one last call at the last iterate measures
    :func:`residual_check`, under the same rule, except that a
    :class:`NonFiniteError` there leaves the residual None.
    """
    inst = p.metric
    x = p.x0
    stalled = p._stalled
    # The trace picks the store; the run appends each point it validated.
    trace = IterationTrace((), inst)
    iterates = trace.iterates
    real = isinstance(iterates, _Rows)
    keep_iterate = iterates._append if real else iterates.append
    keep_iterate(x)
    # The steps' gauges, taken once as each step is measured: plain floats,
    # which no collection scans.  The estimated factor and the noise floor
    # read them.
    g = p.gauge
    gauges = [] if p.lam is None or stalled is not None else None
    gauge = math.inf  # no step yet: nothing to stall against

    # The halting bound is apost_backward_bound(s, lam), compared with stop_c
    # coordinate by coordinate; its factor _backward_factor is computed once.
    # Multiplying each step by it (rather than dividing stop_c by it) keeps
    # every halting decision bit-identical to the bound the certificate emits.
    # The products are formed lazily, so the compare stops at the first
    # coordinate not below stop_c.  Steps and the factor are finite and >= 0,
    # and rounded multiplication is monotone, so every product is finite
    # exactly when max(s) * factor is: one product checks them all.
    stop = p.stop_c.coords
    factor = None if p.lam is None else _backward_factor(p.lam)
    # A real run that reads its step only in that test measures it only as
    # far as the test reads, a_i * |x_i - y_i| * factor coordinate by
    # coordinate, once one C-level pass shows that nothing can overflow:
    # each |x_i - y_i| is at most the Euclidean distance, so while that
    # times max(a) * (1 + factor) stays below 2**1000, far below the float
    # range, every step coordinate and every product is finite.
    lazy = real and gauges is None
    if lazy:
        scale = max(inst.alpha) * (1.0 + factor)
    cause = "max_iter"
    for _ in range(p.max_iter):
        try:
            x_next = inst.validate_point(p.map_fn(x))
            if lazy and math.dist(x, x_next) * scale < 2.0**1000:
                s = None
                halt = map(operator.mul, inst._gaps(x, x_next), repeat(factor))
            else:
                s = inst._distance(x, x_next)
        except NonFiniteError:
            cause = "overflow"
            break
        if s is not None:
            halt = s.coords
            if factor is not None:
                if not math.isfinite(max(halt) * factor):
                    cause = "overflow"
                    break
                halt = map(operator.mul, halt, repeat(factor))
            if gauges is not None:
                prev, gauge = gauge, _cone_max(s.coords, g)
                gauges.append(gauge)
        keep_iterate(x_next)
        if not _in_domain(p, x_next):
            cause = "domain_escape"
            break
        z, x = x, x_next
        if all(map(operator.lt, halt, stop)):
            cause = "stop_c"
            break
        # A gauge that overflows under a tiny base shows no stall.
        if stalled is not None and prev <= gauge < math.inf and stalled(z, s):
            cause = "noise_floor"
            break

    cert = None
    if cause not in ("domain_escape", "overflow"):
        try:
            cert = _build_certificate(p, trace, gauges)
        except NonFiniteError:
            cause = "overflow"
    return PicardResult(
        trace=trace,
        certificate=cert,
        fixed_point=x if cause in _CONVERGED_HALTS else None,
        halt=cause,
    )


def _build_certificate(
    p: Problem, trace: IterationTrace, gauges: Optional[list]
) -> Optional[Certificate]:
    """Certificate of a run that neither overflowed nor escaped, so has a step.

    A given factor covers the run from iterate 0.  Without one the factor is
    estimated from the contracting tail of ``gauges``, the steps' gauges the
    run recorded, by :func:`estimate_lambda`'s rule, and covers the run from
    the tail's start (all-zero steps give λ 0 from iterate 0); a trace with
    no contracting tail gets no certificate.  A radius or final
    bound entry that overflows raises :class:`NonFiniteError`.  Only a given
    factor certifies.
    """
    steps = trace.step_dists
    if p.lam is not None:
        start, lam, source = 0, p.lam, "given"
    else:
        start, lam = _contracting_tail(len(gauges), reversed(gauges))
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
    except NonFiniteError:
        pass
    return Certificate(
        lambda_used=lam,
        lambda_source=source,
        steps=steps,
        status=status,
        residual=residual,
        start=start,
    )


def write_trace_csv(fh, trace: IterationTrace) -> None:
    """Deterministic per-iterate table: the iterate number and the point.

    Row n holds n and x_n, a complex coordinate as its real and imaginary
    parts: the orbit alone.  Step k is ``d(x_k, x_{k+1})`` under
    ``trace.metric``, a function of rows k and k + 1, and each bound entry a
    closed form of the certificate's factor and the steps from row ``start``
    on (see :class:`Certificate`).  Floats are written with 17 significant
    digits and a '.' decimal separator, so each cell reads back to the same
    double, recomputed steps are the trace's bit for bit, and identical runs
    produce byte-identical files.

    Rows are streamed to ``fh`` one ``write`` each, all from one ``%``
    template, since no cell ever needs CSV quoting; ``'%.17g'`` gives the
    bytes of ``format(v, ".17g")``.  A point whose width is not the first's
    (a discrete metric admits one) does not fit it: ``%`` raises ``TypeError``.
    """
    inst = trace.metric
    complex_field = isinstance(inst, WeightedConeMetric) and inst.field == "complex"
    cols = [f"x{j}" for j in range(len(tuple(trace.iterates[0])))]
    if complex_field:
        cols = [f"{c}_{part}" for c in cols for part in ("re", "im")]
    fh.write("iter," + ",".join(cols) + "\n")
    row = "%d" + ",%.17g" * len(cols) + "\n"
    for n, point in enumerate(trace.iterates):
        if complex_field:
            point = [part for c in point for part in (c.real, c.imag)]
        fh.write(row % (n, *map(float, point)))


def certificate_to_dict(cert: Optional[Certificate]) -> Optional[dict]:
    """JSON form of a certificate, with each bound family cut to its last entry.

    ``apriori`` and ``apost_backward`` then bound the last iterate and
    ``apost_forward`` the one before it; each stays a one-entry list, so
    ``[-1]`` reads the same vector as in the full family.  The per-iterate
    entries stay in the library, each a closed form of ``lambda_used`` and
    the steps, read from consecutive rows of :func:`write_trace_csv`.
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
