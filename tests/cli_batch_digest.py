"""One sha256 over the cli-batch fixture: every unit's exit code and artifacts.

Runs the benchmark's cli-batch units (``bench/workloads.py``'s ``CliBatch``)
for seeds 1-3, rounds 0-3, in process, each in a fresh output directory, and
hashes each unit's outcome (its exit code, or the name of the exception it
raised) and then the name and bytes of every artifact it wrote, in name
order.  Equal digests mean byte-identical CLI output on the whole fixture.

    PYTHONPATH=src python tests/cli_batch_digest.py

prints the digest and the number of units and artifact files, and exits 1
when they differ from the golden values.  The script needs only the standard
library, so any Python the package accepts can run it; Python 3.10.13,
3.11.7, 3.12.1 and 3.13.0 all give ``GOLDEN``.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
ROUNDS = range(4)
GOLDEN = "d955d434409cd4b9e6b44da2ff6f1cdbd3f30b015f491793acb8b26b6ed0e19c"
UNITS, FILES = 144, 276


def cli_batch_digest(workdir: Path) -> tuple[str, int, int]:
    """``(sha256 hex digest, units, artifact files)`` of the fixture under ``workdir``."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    h = hashlib.sha256()
    units = files = 0
    for seed in SEEDS:
        batch = workloads.CliBatch(seed, False, workdir / f"seed{seed}")
        for r in ROUNDS:
            for u in batch.round(r):
                try:
                    with contextlib.redirect_stderr(io.StringIO()):
                        out = batch.run(u)
                except Exception as exc:
                    out = type(exc).__name__
                h.update(f"unit {units}: {out}\n".encode())
                for name, data in batch._artifacts(u.out_dir).items():
                    h.update(f"{name} {len(data)}\n".encode())
                    h.update(data)
                    files += 1
                units += 1
    return h.hexdigest(), units, files


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        got = cli_batch_digest(Path(tmp))
    digest, units, files = got
    print(f"{digest}  ({units} units, {files} artifact files, Python {sys.version.split()[0]})")
    if got != (GOLDEN, UNITS, FILES):
        print(f"mismatch: expected {(GOLDEN, UNITS, FILES)}", file=sys.stderr)
        sys.exit(1)
