#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny sizes.

    python3 bench/smoke.py

Checks that every workload prints every metric named in BENCHMARK.json with
its unit, in both modes; that the oracle flags planted wrong answers; and
that the benchmark refuses to run without the program's sources.  Exits 0
when all hold.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_emission() -> None:
    for w in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run_bench(ROOT, w["name"], trace)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["attempted"] >= 1, (w["name"], trace, done.stdout)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            print(f"ok: {w['name']} --trace {trace} emits {len(got)} metrics with units")


def check_planted_answers() -> None:
    import run

    run.import_program()
    import workloads

    wl = workloads.PicardWide(3, tiny=True)
    verdicts = []
    for u in wl.round(0):
        # The map's offset moves, the exact reference does not.
        planted = dataclasses.replace(u, offset=[o + 1e-6 for o in u.offset])
        out, _ = run.run_unit(wl, planted)
        verdicts.append(wl.check(planted, out, True))
    q = run.quality(verdicts)
    assert q["unsound_share"] > 0 and q["failed_share"] > 0, q
    assert all(v.failed for v in verdicts), [v.failed for v in verdicts]
    print(f"ok: perturbed offsets flagged (unsound_share={q['unsound_share']:.3g}, failed_share={q['failed_share']:.3g})")

    wl = workloads.RootsBatch(3, tiny=True)
    u = next(u for u in wl.round(0) if u.kind == "separated")
    planted = dataclasses.replace(u, reference=[z + 0.01 for z in u.reference])
    out, _ = run.run_unit(wl, planted)
    assert wl.check(planted, out, True).failed, "shifted root reference not flagged"
    print("ok: shifted root reference flagged")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run_bench(bare, SPEC["workloads"][0]["name"], 0)
        assert done.returncode != 0 and '"metrics"' not in done.stdout, (done.returncode, done.stdout)
    finally:
        shutil.rmtree(bare.parent, ignore_errors=True)
    print(f"ok: without src/ the run exits {done.returncode} and prints no result")


if __name__ == "__main__":
    check_emission()
    check_planted_answers()
    check_refuses_without_sources()
