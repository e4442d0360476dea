#!/usr/bin/env python3
"""conecert benchmark: one workload, one seed, one single-threaded process.

    python3 bench/run.py --workload picard-wide --seed 1 --seconds 10 --trace 0

The run is a closed loop with one client: each unit of work starts when the
previous one has returned.  Inputs come from ``--seed`` only.  Every answer
is checked against an exact or known reference outside the timed region.
Timing metrics are scaled to a reference speed by a calibration kernel run
alongside (see ``CAL_REF_S``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a fixed number of rounds run twice, untraced and then with spans installed
on every public function of the package.  Lines before it are a readable
summary.  ``--tiny`` shrinks every input for the smoke check.

The program is imported from ``src/`` next to this directory; without it the
run exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("picard-wide", "roots-batch", "cli-batch", "axioms-suite")
# p90 keeps at least ten samples beyond it once a run has 100 units, and a
# run never stops before it has 100, so the tail is always the same
# percentile whatever the speed of the code under test.
MIN_UNITS = 100
TAIL_PCT = 90
HARD_CAP_S = 120.0
SETUP_SAMPLES = 15
# Timing metrics are given in reference seconds: each wall time is scaled by
# CAL_REF_S / c, where c is the median time of a fixed pure-Python kernel
# measured in the same process right next to it.  On a shared machine the
# speed of a core drifts by a third or more within minutes as other tenants'
# load comes and goes; the kernel slows by the same factor, so the scaled
# times stay steady while raw ones do not.  Raw medians are printed on the
# summary lines.
CAL_REF_S = 1e-3
# Source shared by this process and the import probes, which must not load
# anything but builtins before timing the import.
CAL_KERNEL = """
def calibration_probe(xs=tuple(float(i) for i in range(256))):
    t0 = perf_counter()
    acc = 0.0
    for _ in range(12):
        t = tuple([abs(a - b) * 0.5 for a, b in zip(xs, reversed(xs))])
        acc += max(t) + sum(a * b for a, b in zip(t, xs)) + len({i: v for i, v in enumerate(t)})
    return perf_counter() - t0
"""
IMPORT_PROBE = (
    "import sys\nfrom time import perf_counter\n" + CAL_KERNEL
    + "c = sorted(calibration_probe() for _ in range(5))[2]\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = perf_counter()\nimport conecert.cli\nprint(perf_counter() - t, c)\n"
)
_kernel = {"perf_counter": time.perf_counter}
exec(CAL_KERNEL, _kernel)
calibration_probe = _kernel["calibration_probe"]


def import_program() -> None:
    package = SRC / "conecert"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no conecert sources at {package}")
    sys.path.insert(0, str(SRC))
    import conecert.cli

    if Path(conecert.cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: conecert was imported from {conecert.cli.__file__}, not {package}")


def setup_seconds(samples: int) -> tuple[float, float]:
    """Median wall time of ``import conecert.cli`` in fresh interpreters.

    Returns it raw and scaled to reference speed by a calibration probe run
    in the same interpreter just before the import.
    """
    raw, scaled = [], []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        seconds, probe = map(float, done.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * CAL_REF_S / probe)
    return statistics.median(raw), statistics.median(scaled)


def make_workload(name: str, seed: int, tiny: bool):
    import workloads

    if name == "picard-wide":
        return workloads.PicardWide(seed, tiny)
    if name == "roots-batch":
        return workloads.RootsBatch(seed, tiny)
    if name == "axioms-suite":
        return workloads.AxiomsSuite(seed, tiny)
    workdir = ROOT / ".bench_work" / f"{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    return workloads.CliBatch(seed, tiny, workdir)


def run_unit(wl, unit):
    """The timed call; an exception is the unit's outcome, not a crash."""
    t0 = time.perf_counter()
    try:
        out = wl.run(unit)
    except Exception as exc:
        out = exc
    return out, time.perf_counter() - t0


def quality(verdicts) -> dict:
    """Certificate-quality shares over a fixed set of checked units."""
    claims = [c for v in verdicts for c in v.claims]
    plain = [b for v in verdicts for b in v.statements]
    statements = [sound for sound, _ in claims] + plain
    given = [v for v in verdicts if v.lambda_given]
    ok = sum(v.ok for v in verdicts) / len(verdicts)
    sound = sum(statements) / len(statements) if statements else 1.0
    return {
        "ok_share": ok,
        "sound_share": sound,
        "failed_share": 1.0 - ok,
        "unsound_share": 1.0 - sound,
        "certified_share": sum(v.certified for v in given) / len(given) if given else 0.0,
        "bound_over_error_p50": statistics.median(r for _, r in claims) if claims else 0.0,
    }


def measure(wl, seconds: float):
    """Rounds until ``seconds`` have passed and at least MIN_UNITS ran.

    Returns every unit's latency, raw and scaled by the median calibration
    probe of its round, its failure reason (None when it passed), and the
    full verdicts of the first ``wl.quality_rounds`` rounds.
    """
    raw, scaled, failures, quality_verdicts = [], [], [], []
    start = time.perf_counter()
    r = 0
    while True:
        deep = r < wl.quality_rounds
        times, probes = [], []
        for unit in wl.round(r):
            out, dt = run_unit(wl, unit)
            times.append(dt)
            probes.append(calibration_probe())
            v = wl.check(unit, out, deep)
            failures.append(v.failed)
            if deep:
                quality_verdicts.append(v)
        scale = CAL_REF_S / statistics.median(probes)
        raw += times
        scaled += [dt * scale for dt in times]
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_S:
            break
        if r >= wl.quality_rounds and len(raw) >= MIN_UNITS and elapsed >= seconds:
            break
    return raw, scaled, failures, quality_verdicts


def run_pass(wl, rounds):
    total, verdicts = 0.0, []
    for units in rounds:
        for unit in units:
            out, dt = run_unit(wl, unit)
            total += dt
            verdicts.append(wl.check(unit, out, False))
    return total, verdicts


def end_to_end(wl, seconds: float, tiny: bool):
    import tracer

    tracer.assert_pristine()
    setup_raw, setup = setup_seconds(3 if tiny else SETUP_SAMPLES)
    raw, latencies, failures, deep = measure(wl, seconds)
    tracer.assert_pristine()
    q = quality(deep)
    ordered = sorted(latencies)
    k = -(-len(ordered) * TAIL_PCT // 100) - 1
    metrics = {
        "problems_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (ordered[k] * 1e3, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": (q["ok_share"], "share"),
        "sound_share": (q["sound_share"], "share"),
    }
    print(
        f"{wl.name}: {len(latencies)} units; latency_tail_ms is p{TAIL_PCT} "
        f"with {len(ordered) - k - 1} samples beyond it; shares over the first "
        f"{len(deep)} units ({wl.quality_rounds} rounds)"
    )
    print(
        f"raw wall time: latency p50 {statistics.median(raw) * 1e3:.4g} ms, "
        f"{len(raw) / sum(raw):.4g} units/s, setup {setup_raw:.4g} s; "
        f"timing metrics are scaled to a {CAL_REF_S * 1e3:g} ms calibration probe"
    )
    print("quality: " + " ".join(f"{key}={value:.6g}" for key, value in q.items()))
    return metrics, failures


def per_layer(wl):
    import tracer as tracing

    rounds = [wl.round(r) for r in range(wl.trace_rounds)]
    plain_s, plain_verdicts = run_pass(wl, rounds)
    t = tracing.Tracer()
    t.install()
    try:
        traced_s, verdicts = run_pass(wl, rounds)
    finally:
        t.uninstall()
    tracing.assert_pristine()
    q = quality(verdicts)
    map_s = t.total_s["map.map"]
    engine_s = t.total_s["picard.run_picard"]
    count, secs, ratio, share = "count", "s", "ratio", "share"
    metrics = {
        "solid.vec_init.calls": (t.calls["solid.vec_init"], count),
        "solid.order.calls": (sum(t.calls[f"solid.{n}"] for n in tracing.ORDER_PREDICATES), count),
        "solid.self_s": (t.layer_self_s("solid"), secs),
        "gauge.mink_norm.calls": (t.calls["gauge.mink_norm"], count),
        "gauge.self_s": (t.layer_self_s("gauge"), secs),
        "metrics.validate_point.calls": (t.calls["metrics.validate_point"], count),
        "metrics.distance.calls": (t.calls["metrics.distance"], count),
        "metrics.self_s": (t.layer_self_s("metrics"), secs),
        "picard.iterations": (t.iterations["picard"], count),
        "picard.map.calls": (t.calls["map.map"], count),
        "picard.map.self_s": (t.self_s["map.map"], secs),
        "picard.engine_overhead_ratio": ((engine_s - map_s) / map_s if map_s else 0.0, ratio),
        "picard.run_picard.self_s": (t.self_s["picard.run_picard"], secs),
        "picard.bounds.calls": (sum(t.calls[f"picard.{n}"] for n in tracing.BOUND_FUNCTIONS), count),
        "picard.certify.self_s": (sum(t.self_s[f"picard.{n}"] for n in tracing.CERTIFY_FUNCTIONS), secs),
        "picard.write_trace_csv.self_s": (t.self_s["picard.write_trace_csv"], secs),
        "picard.trace_csv_bytes": (sum(v.trace_csv_bytes for v in verdicts), "bytes"),
        "picard.certificate_to_dict.self_s": (t.self_s["picard.certificate_to_dict"], secs),
        "roots.iterations": (t.iterations["roots"], count),
        "roots.weierstrass_step.calls": (t.calls["roots.weierstrass_step"], count),
        "roots.weierstrass_step.self_s": (t.self_s["roots.weierstrass_step"], secs),
        "roots.compare_bounds.self_s": (t.self_s["roots.compare_bounds"], secs),
        "roots.solve_roots.self_s": (t.self_s["roots.solve_roots"], secs),
        "cli.main.self_s": (t.layer_self_s("cli"), secs),
        "cli.artifact_bytes": (sum(v.artifact_bytes for v in verdicts), "bytes"),
        "axioms.checks": (t.axiom_checks, count),
        "axioms.run_all.self_s": (t.self_s["axioms.run_all"], secs),
        "normality.normality_table.self_s": (t.self_s["normality.normality_table"], secs),
        "trace.overhead_ratio": (traced_s / plain_s, ratio),
        "certified_share": (q["certified_share"], share),
        "unsound_share": (q["unsound_share"], share),
        "failed_share": (q["failed_share"], share),
        "bound_over_error_p50": (q["bound_over_error_p50"], ratio),
    }
    print(
        f"{wl.name}: {len(verdicts)} units in {wl.trace_rounds} rounds; "
        f"untraced {plain_s:.3f} s, traced {traced_s:.3f} s"
    )
    return metrics, [v.failed for v in plain_verdicts + verdicts]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke check")
    args = parser.parse_args(argv)

    import_program()
    wl = make_workload(args.workload, args.seed, args.tiny)
    try:
        if args.trace:
            metrics, outcomes = per_layer(wl)
        else:
            metrics, outcomes = end_to_end(wl, args.seconds, args.tiny)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    failures = [reason for reason in outcomes if reason]
    for reason in sorted(set(failures)):
        print(f"failed: {reason} ({failures.count(reason)}x)")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(outcomes),
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
