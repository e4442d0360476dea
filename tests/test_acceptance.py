"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Every criterion uses its stated tolerance and budget; nothing here loosens
a threshold that a unit test enforces more tightly elsewhere.
"""

import json
import math
import random
import time

import pytest

from conecert.axioms import run_all
from conecert.cli import main
from conecert.gauge import GaugeNorm, mink_norm, strict_ball_test
from conecert.metrics import (
    DiscreteConeMetric,
    WeightedConeMetric,
    inequality_transfer_check,
    nested_ball_probe,
)
from conecert.normality import normality_table
from conecert.picard import Problem, rate_check, run_picard
from conecert.roots import Polynomial, solve_roots
from conecert.solid import SpaceSpec, Vec, in_interior, leq, lt

from helpers import bisect_gauge, greedy_match


def report(k, ok, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nCRITERION {k}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {k} failed {suffix}"


@pytest.fixture(scope="module")
def affine_suite():
    """100 random diagonal affine contractions, shared by criteria 4 and 5."""
    rng = random.Random(45)
    problems = []
    for _ in range(100):
        n = rng.randint(1, 4)
        lams = [rng.uniform(0.0, 0.9) for _ in range(n)]
        offset = [rng.uniform(-2.0, 2.0) for _ in range(n)]
        x0 = tuple(rng.uniform(-2.0, 2.0) for _ in range(n))
        problems.append((lams, offset, x0))
    return problems


def make_affine_problem(lams, offset, x0, **kw):
    n = len(lams)

    def step(x):
        return tuple(l * c + o for l, c, o in zip(lams, x, offset))

    defaults = dict(
        map_fn=step,
        x0=x0,
        metric=WeightedConeMetric([1.0] * n),
        gauge=GaugeNorm(SpaceSpec(n, Vec.ones(n))),
        stop_c=Vec([1e-10] * n),
        max_iter=800,
        lam=max(lams),
    )
    defaults.update(kw)
    return Problem(**defaults)


def test_criterion_1_axiom_suites():
    t0 = time.perf_counter()
    results = run_all(seed=0, samples=1000, dims=range(1, 9))
    elapsed = time.perf_counter() - t0
    failed = [r.name for r in results if not r.passed]
    names = {r.name for r in results}
    required = {
        "V1_translation",
        "V2_nonneg_scaling",
        "V3_limit_finite",
        "V4_nonpos_scaling",
        "V5_scalar_monotone_pos",
        "V6_scalar_monotone_neg",
        "V7_addition",
        "S1_strict_implies_weak",
        "S2_weak_then_strict",
        "S3_translation",
        "S4_pos_scaling",
        "S6_neg_scaling",
        "S7_scalar_strict_pos",
        "S8_scalar_strict_neg",
        "S9_strict_then_weak",
        "S10_mixed_addition",
        "S11_small_multiples",
        "correspondence_leq_cone",
        "correspondence_lt_interior",
        "interior_positive_scaling",
        "interior_cone_addition",
        "interior_excludes_zero",
    }
    ok = not failed and required <= names and elapsed < 10.0
    report(1, ok, f"{len(results)} suites, {elapsed:.2f}s, failed={failed}")


def test_criterion_2_gauge_oracle():
    rng = random.Random(2)
    violations = 0
    worst = 0.0
    pairs = []
    for _ in range(1000):
        n = rng.randint(1, 8)
        x = Vec([rng.randint(-(2**14), 2**14) / 2**10 for _ in range(n)])
        b = Vec([rng.randint(2**6, 2**14) / 2**10 for _ in range(n)])
        g = GaugeNorm(SpaceSpec(n, b))
        gap = abs(mink_norm(x, g) - bisect_gauge(x, g))
        worst = max(worst, gap)
        if gap > 1e-12:
            violations += 1
        pairs.append((x, b, g, rng.randint(1, 2**12) / 2**8))
    mono_ok = True
    ball_ok = True
    for (x, b, g, eps) in pairs:
        u = Vec([abs(c) for c in x.coords])
        v = u + b
        if not (mink_norm(u, g) <= mink_norm(v, g)):
            mono_ok = False
        if strict_ball_test(x, eps, g) != (mink_norm(x, g) < eps):
            ball_ok = False
    ok = violations == 0 and mono_ok and ball_ok
    report(2, ok, f"worst oracle gap {worst:.3e}, mono={mono_ok}, ball={ball_ok}")


def test_criterion_3_metrization_transfer():
    rng = random.Random(3)
    violations = 0
    for _ in range(500):
        n = rng.randint(1, 4)
        b = Vec([rng.randint(2**9, 2**12) / 2**10 for _ in range(n)])  # [0.5, 4]
        g = GaugeNorm(SpaceSpec(n, b))

        def nonneg():
            return Vec([rng.randint(0, 2**12) / 2**10 for _ in range(n)])

        coeff0 = nonneg()
        terms = rng.randint(1, 3)
        coeffs = [rng.randint(0, 2**9) / 2**8 for _ in range(terms)]  # [0, 2]
        dpairs = [nonneg() for _ in range(terms)]
        rhs = coeff0
        for c, d in zip(coeffs, dpairs):
            rhs = rhs + c * d
        theta = rng.randint(0, 2**8) / 2**8
        d0 = theta * rhs
        assert leq(d0, rhs)  # the cone-level inequality really holds
        if not inequality_transfer_check(coeff0, coeffs, dpairs, d0, g, tol=1e-12):
            violations += 1
    report(3, violations == 0, f"{violations} violations in 500")


def test_criterion_4_bound_soundness(affine_suite):
    t0 = time.perf_counter()
    cases = [([0.5], [0.0], (1.0,))] + affine_suite  # halve map first, b = 1
    bad = 0
    for lams, offset, x0 in cases:
        p = make_affine_problem(lams, offset, x0)
        result = run_picard(p)
        assert result.converged
        xi = tuple(o / (1.0 - l) for l, o in zip(lams, offset))
        cert = result.certificate
        slack = Vec([1e-10] * len(lams))
        sound = True
        for n, x in enumerate(result.trace.iterates):
            err = p.metric.distance(x, xi)
            if not leq(err, cert.apriori[n] + slack):
                sound = False
            if n < len(cert.apost_forward) and not leq(
                err, cert.apost_forward[n] + slack
            ):
                sound = False
            if 1 <= n and not leq(err, cert.apost_backward[n - 1] + slack):
                sound = False
        if not (sound and rate_check(result.trace, xi, p, slack=1e-10)):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 5.0
    report(4, ok, f"{len(cases)} problems, {bad} unsound, {elapsed:.2f}s")


def test_criterion_5_uniqueness_probe(affine_suite):
    rng = random.Random(5)
    worst = 0.0
    for lams, offset, x0 in affine_suite:
        n = len(lams)
        g = GaugeNorm(SpaceSpec(n, Vec.ones(n)))
        finals = []
        starts = [x0] + [
            tuple(rng.uniform(-3.0, 3.0) for _ in range(n)) for _ in range(4)
        ]
        for start in starts:
            p = make_affine_problem(lams, offset, start)
            finals.append(run_picard(p).fixed_point)
        inst = WeightedConeMetric([1.0] * n)
        for i in range(len(finals)):
            for j in range(i + 1, len(finals)):
                worst = max(worst, mink_norm(inst.distance(finals[i], finals[j]), g))
    report(5, worst <= 1e-8, f"worst pairwise gauge distance {worst:.3e}")


def test_criterion_6_discrete_stationarity():
    rng = random.Random(6)
    a = Vec([1.0, 2.0])
    inst = DiscreteConeMetric(a)
    points = ["p0", "p1", "p2", "p3", "p4"]
    counterexamples = 0
    for _ in range(1000):
        length = rng.randint(3, 30)
        seq = [rng.choice(points) for _ in range(length)]
        if rng.random() < 0.5:
            seq += [rng.choice(points)] * rng.randint(1, 10)
        # "eventually lt(d, a)" via the metric: some suffix where every pair
        # sits strictly below a
        eventually_small = any(
            all(
                lt(inst.distance(seq[i], seq[j]), a)
                for i in range(start, len(seq))
                for j in range(start, len(seq))
            )
            for start in range(len(seq))
        )
        eventually_constant = any(
            len(set(seq[start:])) == 1 for start in range(len(seq))
        )
        if eventually_small != eventually_constant:
            counterexamples += 1
    report(6, counterexamples == 0, f"{counterexamples} counterexamples in 1000")


def test_criterion_7_normality_demo():
    rows = normality_table(n_max=50)
    dense = normality_table(n_max=50, grid_points=4001)
    ok = True
    for row, oracle in zip(rows, dense):
        n = row["n"]
        if abs(row["c1_norm_x"] - (1.0 + 1.0 / n)) > 1e-9:
            ok = False
        if abs(row["c1_norm_y"] - 1.0 / n) > 1e-9:
            ok = False
        if abs(row["c1_norm_x"] - oracle["c1_norm_x"]) > 1e-9:
            ok = False
        if not row["order_ok"]:
            ok = False
    # the sandwiched sequence's norms stay bounded away from zero
    ok = ok and min(r["c1_norm_x"] for r in rows) >= 1.0
    report(7, ok, "n = 1..50 against analytic and dense-grid oracles")


def test_criterion_8_roots():
    t0 = time.perf_counter()
    cases = [
        (Polynomial([-1.0, 0.0, 1.0]), (2.0, -2.0), [1.0, -1.0]),
        (Polynomial([1.0, 0.0, 1.0]), (1 + 1j, -1 - 1j), [1j, -1j]),
        (Polynomial([-6.0, 11.0, -6.0, 1.0]), (1.1, 1.8, 3.3), [1.0, 2.0, 3.0]),
    ]
    ok = True
    details = []
    for idx, (p, z0, true_roots) in enumerate(cases):
        result = solve_roots(p, z0=z0)
        if not result.converged or max(result.residuals) >= 1e-8:
            ok = False
        order = greedy_match(result.roots, true_roots)
        xi = [true_roots[j] for j in order]
        cert = result.certificate
        slack = Vec([1e-8] * p.degree)
        for j, fwd in enumerate(cert.apost_forward):
            z = result.trace.iterates[result.tail_start + j]
            err = Vec([abs(a - b) for a, b in zip(z, xi)])
            if not leq(err, fwd + slack):
                ok = False
        if result.report.any_exceeded:
            ok = False
        if idx == 2 and result.report.strict_improvement_rows < 1:
            ok = False
        details.append(f"res={max(result.residuals):.1e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 2.0
    report(8, ok, f"{'; '.join(details)}; {elapsed:.2f}s")


def test_criterion_9_nested_balls():
    rng = random.Random(9)
    inst = WeightedConeMetric([1.0, 1.0])
    g = GaugeNorm(SpaceSpec(2, Vec.ones(2)))
    failures = 0
    for _ in range(100):
        depth = 35
        center = (rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
        centers = [center]
        radii = [Vec([2.0**-k, 2.0**-k]) for k in range(depth)]
        for k in range(depth - 1):
            # displacement of at most half the current radius, exact dyadics
            shift = tuple(
                rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0]) * 2.0 ** -(k + 1)
                for _ in range(2)
            )
            center = (center[0] + shift[0], center[1] + shift[1])
            centers.append(center)
        point = nested_ball_probe(centers, radii, inst, g, tol=1e-9)
        for c, r in zip(centers, radii):
            if not leq(inst.distance(point, c), r):
                failures += 1
                break
    report(9, failures == 0, f"{failures} families with an uncovered point")


def test_criterion_10_cli_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "map": {"name": "affine", "matrix": [[0.5, 0.1], [0.0, 0.25]], "offset": [1.0, 1.0]},
                "x0": [0.0, 0.0],
                "metric": {"kind": "weighted_norm", "alpha": [1.0, 1.0]},
                "lambda": 0.6,
            }
        )
    )
    traces, reports = [], []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 0
        traces.append((out / "trace.csv").read_bytes())
        # The seeded command: the same seed gives the same report.
        out = tmp_path / f"axioms-{name}"
        assert main(["axioms", "--seed", "0", "--samples", "20", "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    report(
        10,
        traces[0] == traces[1] and reports[0] == reports[1],
        f"trace {len(traces[0])} bytes, axioms report {len(reports[0])} bytes",
    )
