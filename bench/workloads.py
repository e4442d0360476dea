"""The four workloads: seeded inputs, the timed call, and the oracle check.

Every workload produces its inputs in rounds.  A round has a fixed
composition (sizes, kinds, known-defect inputs), and only the values inside
it come from the seed, so shares and medians do not depend on how many
rounds a run happens to finish.  ``run`` is the only timed call; ``check``
runs afterwards and compares the answer with an exact or known reference.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from oracle import Verdict

from conecert import GaugeNorm, Polynomial, Problem, SpaceSpec, Vec, WeightedConeMetric
# Entry points are called through their modules, so the tracer's rebinding
# of a module attribute is seen here too.
from conecert import axioms, cli, picard, roots

STOP = 1e-10
# Answers must lie within this share of max(1, |reference|) of the reference.
PICARD_TOL = 1e-8
ROOTS_TOL = 1e-7
# Wilkinson-type roots are ill-conditioned: evaluation noise limits them to
# about six digits.  A stalled run is a known defect only while it stalls
# this close to the roots; anything farther away is a wrong answer.
WILKINSON_TOL = 1e-5
# The overflow-scale cubic: its default start radius is
# 1 + 1e200, so the first correction overflows.
OVERFLOW_CUBIC = [1e200, 0.0, 0.0, 1.0]


def _rng(seed: int, workload: str, r: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{r}")


def _failed(exc: BaseException) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _last_bounds(cert_apriori, cert_backward):
    """Tightest bound the certificate emits for its last iterate."""
    return oracle.tightest(cert_apriori[-1], cert_backward[-1])


# ------------------------------------------------------------------ roots --


def separated_roots(rng: random.Random, degree: int, radius: int = 2) -> list[complex]:
    """Distinct Gaussian-integer roots of modulus at most radius * sqrt(2).

    Complex roots come in conjugate pairs, so the coefficients are real
    integers small enough to be exact in binary64.
    """
    reals = list(range(-radius, radius + 1))
    uppers = [complex(a, b) for a in reals for b in range(1, radius + 1)]
    pairs = rng.randint(max(0, (degree - len(reals) + 1) // 2), degree // 2)
    zs = [complex(a, 0) for a in rng.sample(reals, degree - 2 * pairs)]
    for z in rng.sample(uppers, pairs):
        zs += [z, z.conjugate()]
    return zs


def wilkinson_roots(m: int) -> list[complex]:
    return [complex(k, 0) for k in range(1, m + 1)]


def overflow_cubic_roots() -> list[complex]:
    r = 1e200 ** (1.0 / 3.0)
    return [-r * cmath.exp(2j * math.pi * k / 3) for k in range(3)]


def _roots_tol(kind: str) -> float:
    return WILKINSON_TOL if kind == "wilkinson" else ROOTS_TOL


def _check_roots(kind: str, roots_found, last_iterate, converged: bool, reference, v: Verdict) -> None:
    """Verdict on a library root-finding result."""
    if converged:
        ref = oracle.match_roots(roots_found, reference)
        if not oracle.within(roots_found, ref, _roots_tol(kind)):
            v.failed = "roots outside tolerance of the seeded roots"
    elif kind == "wilkinson":
        ref = oracle.match_roots(last_iterate, reference)
        if oracle.within(last_iterate, ref, WILKINSON_TOL):
            v.defect = "stalls above the default 1e-12 stop"
        else:
            v.failed = "stalled far from the roots"
    elif kind != "overflow":
        v.failed = "did not converge on separated roots"


@dataclass
class RootsUnit:
    kind: str  # "separated" | "wilkinson" | "overflow"
    coefficients: list
    reference: list


# From the default start radius 1 + max|a_k|, degree 11-12 needs up to ~125
# iterations before the steps contract; the library default cap of 100 would
# turn slow starts into failures on honest inputs.
ROOTS_MAX_ITER = 300


class RootsBatch:
    """Library ``solve_roots`` with default starts and stop."""

    name = "roots-batch"
    quality_rounds = 20
    trace_rounds = 12

    def __init__(self, seed: int, tiny: bool):
        self.seed, self.tiny = seed, tiny

    def round(self, r: int) -> list[RootsUnit]:
        rng = _rng(self.seed, self.name, r)
        # Degrees 3-12 with a second 7: with 13 units the median falls
        # inside one degree's spread instead of in the gap between two.
        degrees = [3, 4, 5, 4] if self.tiny else [*range(3, 13), 7]
        units = []
        for d in degrees:
            zs = separated_roots(rng, d)
            units.append(RootsUnit("separated", oracle.poly_from_roots(zs), zs))
        m = rng.randint(5, 6) if self.tiny else rng.randint(9, 12)
        units.append(RootsUnit("wilkinson", oracle.poly_from_roots(wilkinson_roots(m)), wilkinson_roots(m)))
        units.append(RootsUnit("overflow", list(OVERFLOW_CUBIC), overflow_cubic_roots()))
        return units

    def run(self, u: RootsUnit):
        return roots.solve_roots(Polynomial(u.coefficients), max_iter=ROOTS_MAX_ITER)

    def check(self, u: RootsUnit, out, deep: bool) -> Verdict:
        v = Verdict()
        if isinstance(out, BaseException):
            if u.kind == "overflow" and isinstance(out, ArithmeticError):
                v.defect = "overflow raises instead of returning a result"
            else:
                v.failed = _failed(out)
            return v
        last = out.trace.iterates[-1]
        _check_roots(u.kind, out.roots, last, out.converged, u.reference, v)
        cert = out.certificate
        if v.failed is None and cert is not None and u.kind != "overflow":
            ref = oracle.match_roots(last, u.reference)
            v.claims = oracle.complex_claims(last, ref, _last_bounds(cert.apriori, cert.apost_backward))
        return v


# ----------------------------------------------------------------- picard --


@dataclass
class AffineUnit:
    diag: list
    offset: list
    lam: object
    exact: list = field(repr=False)


def diagonal_map(diag, offset):
    def apply(x):
        return tuple([l * xi + o for l, xi, o in zip(diag, x, offset)])

    return apply


class PicardWide:
    """Library ``run_picard`` on diagonal affine contractions, no artifacts."""

    name = "picard-wide"
    # Six n=200 and four n=50 problems per round, lambda supplied on half of
    # each: the median then falls inside the n=200 group, not between groups.
    SHAPE = [(200, 0.9), (200, None)] * 3 + [(50, 0.9), (50, None)] * 2
    TINY_SHAPE = [(8, 0.9), (8, None), (3, 0.9), (3, None)]
    quality_rounds = 8
    trace_rounds = 3

    def __init__(self, seed: int, tiny: bool):
        self.seed, self.tiny = seed, tiny

    def round(self, r: int) -> list[AffineUnit]:
        rng = _rng(self.seed, self.name, r)
        units = []
        for n, lam in self.TINY_SHAPE if self.tiny else self.SHAPE:
            # Decimal thousandths are not dyadic: the rounding noise they
            # leave in the steps is what keeps supplied-lambda runs from
            # ending certified today.
            diag = [rng.randrange(500, 900) / 1000 for _ in range(n)]
            offset = [rng.randrange(100, 1000) / 1000 for _ in range(n)]
            units.append(AffineUnit(diag, offset, lam, oracle.exact_diagonal_fixed_point(diag, offset)))
        return units

    def run(self, u: AffineUnit):
        n = len(u.diag)
        return picard.run_picard(
            Problem(
                map_fn=diagonal_map(u.diag, u.offset),
                x0=(0.0,) * n,
                metric=WeightedConeMetric([1.0] * n),
                gauge=GaugeNorm(SpaceSpec(n, Vec.ones(n))),
                stop_c=Vec([STOP] * n),
                max_iter=1000,
                lam=u.lam,
            )
        )

    def check(self, u: AffineUnit, out, deep: bool) -> Verdict:
        v = Verdict(lambda_given=u.lam is not None)
        if isinstance(out, BaseException):
            v.failed = _failed(out)
            return v
        if not out.converged:
            v.failed = "did not converge"
            return v
        x = out.fixed_point
        if not oracle.within(x, u.exact, PICARD_TOL):
            v.failed = "fixed point outside tolerance of the exact one"
        cert = out.certificate
        if cert is None:
            v.failed = v.failed or "no certificate"
            return v
        v.certified = cert.status == "certified"
        v.claims = oracle.real_claims(x, u.exact, _last_bounds(cert.apriori, cert.apost_backward))
        return v


# ------------------------------------------------------------------- axioms --


# The scalarized-metric suite pads its triangle inequality by an absolute
# 1e-12, but its gauge values reach about 1e5, where a single rounding is
# larger than the pad.  The exact inequality holds on the counterexamples it
# reports, so such a report is a known false alarm, not a wrong answer.
ROUNDING_FALSE_ALARMS = {("scalarized_metric", "triangle inequality failed")}


class AxiomsSuite:
    """``axioms.run_all(seed, samples)`` over dims 1-8, one call per unit."""

    name = "axioms-suite"
    SAMPLES = 20
    quality_rounds = 12
    trace_rounds = 8

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.samples = 2 if tiny else self.SAMPLES

    def round(self, r: int) -> list[int]:
        rng = _rng(self.seed, self.name, r)
        return [rng.randrange(2**31) for _ in range(5)]

    def run(self, suite_seed: int):
        return axioms.run_all(suite_seed, self.samples)

    def check(self, suite_seed: int, out, deep: bool) -> Verdict:
        v = Verdict()
        if isinstance(out, BaseException):
            v.failed = _failed(out)
            return v
        v.statements = [r.passed for r in out]
        alarms = {(r.name, (r.counterexample or {}).get("why")) for r in out if not r.passed}
        if not out:
            v.failed = "no axiom suites ran"
        elif alarms and alarms <= ROUNDING_FALSE_ALARMS:
            v.defect = "scalarized triangle check fails on rounding at large gauge values"
        elif alarms:
            v.failed = f"axiom suites failed on the shipped order: {sorted(alarms)}"
        elif any(r.checks != self.samples for r in out):
            v.failed = "a suite ran the wrong number of checks"
        return v


# -------------------------------------------------------------------- cli --


@dataclass
class CliUnit:
    kind: str
    argv: list
    ideal: object  # the exit code a correct program returns
    tolerated: dict  # exit code or exception name -> known defect it shows
    reference: object = None
    lam_given: bool = False
    out_dir: Path = None


class CliBatch:
    """In-process ``conecert.cli.main`` over seeded JSON configs."""

    name = "cli-batch"
    quality_rounds = 10
    trace_rounds = 8

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed, self.tiny = seed, tiny
        self.workdir = workdir
        self._runs = 0

    def _write(self, name: str, payload) -> Path:
        path = self.workdir / "configs" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return path

    def round(self, r: int) -> list[CliUnit]:
        rng = _rng(self.seed, self.name, r)
        nmax = 4 if self.tiny else 32
        units = []

        def add(kind, cmd, payload, ideal=0, tolerated=None, reference=None, lam_given=False, extra=()):
            cfg = self._write(f"r{r}-{len(units)}-{kind}.json", payload)
            argv = [cmd, "--config", str(cfg), *extra]
            units.append(CliUnit(kind, argv, ideal, tolerated or {}, reference, lam_given))

        for lam, domain in ((0.85, True), (0.85, False), (None, False)):
            n = rng.randint(1, nmax)
            matrix = [[rng.randrange(-10**6, 10**6) / 10**6 * 0.8 / n for _ in range(n)] for _ in range(n)]
            offset = [rng.randrange(-1000, 1000) / 1000 for _ in range(n)]
            cfg = {
                "map": {"name": "affine", "matrix": matrix, "offset": offset},
                "metric": {"kind": "weighted", "alpha": [1.0] * n},
                "x0": [0.0] * n,
                "max_iter": 1000,
            }
            if lam is not None:
                cfg["lambda"] = lam
            if domain:
                cfg["domain"] = {"center": [0.0] * n, "radius": [100.0] * n}
            add("affine", "picard", cfg, reference=oracle.exact_affine_fixed_point(matrix, offset), lam_given=lam is not None)

        n = rng.randint(1, 8)
        add(
            "halve",
            "picard",
            {
                "map": {"name": "halve"},
                "metric": {"kind": "weighted", "alpha": [1.0] * n},
                "x0": [rng.randrange(-10**4, 10**4) / 1000 for _ in range(n)],
                "lambda": 0.5,
            },
            reference=[0] * n,
            lam_given=True,
        )

        zs = separated_roots(rng, 3)
        coeffs = oracle.poly_from_roots(zs)
        radius = 1.0 + max(abs(c) for c in coeffs)
        starts = [radius * cmath.exp(1j * (2 * math.pi * k / 3 + 0.4)) for k in range(3)]
        add(
            "weierstrass",
            "picard",
            {
                "map": {"name": "weierstrass", "coefficients": [c.real for c in coeffs]},
                "metric": {"kind": "weighted", "alpha": [1.0] * 3, "field": "complex"},
                "x0": [[z.real, z.imag] for z in starts],
                "max_iter": 500,
            },
            reference=zs,
        )

        zs = separated_roots(rng, rng.randint(3, 5 if self.tiny else 8))
        add(
            "roots",
            "roots",
            {"coefficients": [c.real for c in oracle.poly_from_roots(zs)], "max_iter": ROOTS_MAX_ITER},
            reference=zs,
        )
        m = rng.randint(5, 6) if self.tiny else rng.randint(9, 12)
        add(
            "wilkinson",
            "roots",
            {"coefficients": [c.real for c in oracle.poly_from_roots(wilkinson_roots(m))], "max_iter": ROOTS_MAX_ITER},
            tolerated={2: "stalls above the default 1e-12 stop"},
            reference=wilkinson_roots(m),
        )
        add(
            "overflow",
            "roots",
            {"coefficients": OVERFLOW_CUBIC},
            ideal=2,
            tolerated={"ArithmeticError": "overflow raises instead of exiting 2"},
            reference=overflow_cubic_roots(),
        )

        n = rng.randint(1, 16)
        x = [rng.randrange(-10**4, 10**4) / 1000 for _ in range(n)]
        base = [rng.randrange(1, 10**4) / 1000 for _ in range(n)]
        add("gauge", "gauge", {"x": x, "base": base}, reference=max(abs(a) / b for a, b in zip(x, base)))
        samples = rng.randint(5, 20)
        add("normality", "demo-normality", {}, reference=samples, extra=("--samples", str(samples)))
        add("malformed", "picard", '{"map": {"name": "halve"}, "metric": ', ideal=1)
        add(
            "escape",
            "picard",
            {
                "map": {"name": "affine", "matrix": [[0.5]], "offset": [1.0 + rng.randrange(1000) / 1000]},
                "metric": {"kind": "weighted", "alpha": [1.0]},
                "x0": [0.0],
                "domain": {"center": [0.0], "radius": [0.5]},
            },
            ideal=2,
        )
        return units

    def _invoke(self, u: CliUnit, out_dir: Path):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main([*u.argv, "--out", str(out_dir)])

    def run(self, u: CliUnit):
        self._runs += 1
        u.out_dir = self.workdir / "out" / f"{self._runs}"
        return self._invoke(u, u.out_dir)

    @staticmethod
    def _artifacts(out_dir: Path) -> dict:
        if not out_dir.is_dir():
            return {}
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    def check(self, u: CliUnit, out, deep: bool) -> Verdict:
        v = Verdict(lambda_given=u.lam_given)
        files = self._artifacts(u.out_dir)
        v.artifact_bytes = sum(len(b) for b in files.values())
        v.trace_csv_bytes = len(files.get("trace.csv", b""))
        outcome = type(out).__name__ if isinstance(out, BaseException) else out
        if deep:
            again = u.out_dir.with_name(u.out_dir.name + "-again")
            try:
                second = self._invoke(u, again)
            except Exception as exc:
                second = type(exc).__name__
            if second != outcome or self._artifacts(again) != files:
                v.failed = "artifacts or exit code differ between repetitions"
        if v.failed:
            return v
        if outcome in u.tolerated:
            v.defect = u.tolerated[outcome]
            return v
        if outcome != u.ideal:
            v.failed = _failed(out) if isinstance(out, BaseException) else f"exit code {out}, expected {u.ideal}"
            return v
        if outcome == 0:
            self._check_answer(u, files, v)
        return v

    def _check_answer(self, u: CliUnit, files: dict, v: Verdict) -> None:
        if u.kind in ("affine", "halve", "weierstrass"):
            payload = json.loads(files["certificate.json"])
            cert = payload["certificate"]
            if u.kind == "weierstrass":
                point = [complex(re, im) for re, im in payload["fixed_point"]]
                ref = oracle.match_roots(point, u.reference)
                if not oracle.within(point, ref, PICARD_TOL):
                    v.failed = "roots outside tolerance of the seeded roots"
                elif cert is not None:
                    v.claims = oracle.complex_claims(point, ref, _last_bounds(cert["apriori"], cert["apost_backward"]))
                return
            point = payload["fixed_point"]
            if not oracle.within(point, u.reference, PICARD_TOL):
                v.failed = "fixed point outside tolerance of the exact one"
            elif cert is not None:
                v.certified = cert["status"] == "certified"
                v.claims = oracle.real_claims(point, u.reference, _last_bounds(cert["apriori"], cert["apost_backward"]))
        elif u.kind in ("roots", "wilkinson"):
            report = json.loads(files["report.json"])
            found = [complex(re, im) for re, im in report["roots"]]
            ref = oracle.match_roots(found, u.reference)
            if not oracle.within(found, ref, _roots_tol(u.kind)):
                v.failed = "roots outside tolerance of the seeded roots"
            else:
                cert = json.loads(files["certificate.json"])["certificate"]
                if cert is not None:
                    v.claims = oracle.complex_claims(found, ref, _last_bounds(cert["apriori"], cert["apost_backward"]))
        elif u.kind == "overflow":
            report = json.loads(files["report.json"])
            found = [complex(re, im) for re, im in report["roots"]]
            if not oracle.within(found, oracle.match_roots(found, u.reference), ROOTS_TOL):
                v.failed = "roots outside tolerance of the reference cube roots"
        elif u.kind == "gauge":
            if json.loads(files["report.json"])["norm"] != u.reference:
                v.failed = "gauge differs from the correctly rounded closed form"
        elif u.kind == "normality":
            # At t = 1 the suprema are exact: sup x_n = 1/n, sup x_n' = 1.
            expected = [
                f"{n},{1.0 / n:.17g},1,{1.0 / n + 1.0:.17g},{1.0 / n:.17g},1"
                for n in range(1, u.reference + 1)
            ]
            if files["report.csv"].decode().splitlines()[1:] != expected:
                v.failed = "normality table differs from its closed form"

    def close(self) -> None:
        # Artifacts are only deleted here: the disk is mounted with online
        # discard, and deletes in the middle of a run slowed the file
        # creation of the units that followed.
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.workdir.parent.rmdir()
