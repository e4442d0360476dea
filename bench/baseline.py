#!/usr/bin/env python3
"""Record one run of every workload, both modes, with the machine's facts.

    python3 bench/baseline.py --seed 9001 > bench/baseline-seed.json

The seed should be one that was not used while tuning the code measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", w["name"], "--seed", str(args.seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
            )
            lines = done.stdout.strip().splitlines()
            runs[f"{w['name']} --trace {trace}"] = {"summary": lines[:-1], "result": json.loads(lines[-1])}
    machine = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
    }
    print(json.dumps({"seed": args.seed, "machine": machine, "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
