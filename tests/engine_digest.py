"""One sha256 per workload over library runs: every halting decision and every step bit.

Runs the benchmark's picard-wide and roots-batch units (``bench/workloads.py``'s
``PicardWide`` and ``RootsBatch``) for seeds 1-2, rounds 0-1, and hashes each
unit's outcome into its workload's digest: its halt and iterate count (or the
name of the exception it raised), the ``float.hex`` of every iterate and step
coordinate (a complex entry as its real and imaginary parts),
:func:`certificate_to_dict` of its certificate and the certificate's
``start``.  Equal digests mean the engine took the same decisions and gave
the same bits on that workload's part of the fixture; a change to one
workload's code path moves only that workload's digest.

    PYTHONPATH=src python tests/engine_digest.py

prints each workload's digest and number of units, and exits 1 when they
differ from the golden values.  The script needs only the standard library,
so any Python the package accepts can run it; Python 3.10.13, 3.11.7, 3.12.1
and 3.13.0 all give ``GOLDEN``.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)
ROUNDS = range(2)
# workload name -> (sha256 hex digest, units)
GOLDEN = {
    "picard-wide": ("39be192e19967165014bba93bc528794f18ccd5b7839da5ec5f3b210570a3a39", 40),
    "roots-batch": ("2e70cd8ed4de1122e28916ae5d0bd6f2e78aaf06ed48934e38cb57cd6e65258f", 52),
}


def _hexes(point) -> str:
    parts = []
    for c in point:
        if isinstance(c, complex):
            parts += (c.real.hex(), c.imag.hex())
        else:
            parts.append(float(c).hex())
    return " ".join(parts)


def engine_digest() -> dict[str, tuple[str, int]]:
    """``{workload name: (sha256 hex digest, units)}`` of the fixture."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    from conecert.picard import certificate_to_dict

    got = {}
    for workload in (workloads.PicardWide, workloads.RootsBatch):
        h = hashlib.sha256()
        units = 0
        for seed in SEEDS:
            batch = workload(seed, False)
            for r in ROUNDS:
                for u in batch.round(r):
                    try:
                        result = batch.run(u)
                    except Exception as exc:
                        h.update(f"unit {units}: {type(exc).__name__}\n".encode())
                        units += 1
                        continue
                    trace, cert = result.trace, result.certificate
                    h.update(f"unit {units}: {result.halt} {len(trace.iterates)}\n".encode())
                    for x in trace.iterates:
                        h.update(f"x {_hexes(x)}\n".encode())
                    for s in trace.step_dists:
                        h.update(f"s {_hexes(s.coords)}\n".encode())
                    cert_dict = json.dumps(certificate_to_dict(cert), sort_keys=True)
                    start = None if cert is None else cert.start
                    h.update(f"cert {cert_dict} start {start}\n".encode())
                    units += 1
        got[workload.name] = (h.hexdigest(), units)
    return got


if __name__ == "__main__":
    got = engine_digest()
    for name, (digest, units) in got.items():
        print(f"{name}: {digest}  ({units} units, Python {sys.version.split()[0]})")
    if got != GOLDEN:
        print(f"mismatch: expected {GOLDEN}", file=sys.stderr)
        sys.exit(1)
