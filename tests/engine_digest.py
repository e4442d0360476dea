"""One sha256 over library runs: every halting decision and every step bit.

Runs the benchmark's picard-wide and roots-batch units (``bench/workloads.py``'s
``PicardWide`` and ``RootsBatch``) for seeds 1-2, rounds 0-1, and hashes each
unit's outcome: its halt and iterate count (or the name of the exception it
raised), the ``float.hex`` of every iterate and step coordinate (a complex
entry as its real and imaginary parts), :func:`certificate_to_dict` of its
certificate and the certificate's ``start``.  Equal digests mean the engine
took the same decisions and gave the same bits on the whole fixture.

    PYTHONPATH=src python tests/engine_digest.py

prints the digest and the number of units, and exits 1 when they differ from
the golden values.  The script needs only the standard library, so any
Python the package accepts can run it; Python 3.10.13, 3.11.7, 3.12.1 and
3.13.0 all give ``GOLDEN``.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)
ROUNDS = range(2)
GOLDEN = "4552a45fcec7a2e8d668a0f4cae5c1ef05a4b87de273ab326e8882453a6cf70d"
UNITS = 92


def _hexes(point) -> str:
    parts = []
    for c in point:
        if isinstance(c, complex):
            parts += (c.real.hex(), c.imag.hex())
        else:
            parts.append(float(c).hex())
    return " ".join(parts)


def engine_digest() -> tuple[str, int]:
    """``(sha256 hex digest, units)`` of the fixture."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    from conecert.picard import certificate_to_dict

    h = hashlib.sha256()
    units = 0
    for seed in SEEDS:
        for batch in (workloads.PicardWide(seed, False), workloads.RootsBatch(seed, False)):
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
    return h.hexdigest(), units


if __name__ == "__main__":
    got = engine_digest()
    digest, units = got
    print(f"{digest}  ({units} units, Python {sys.version.split()[0]})")
    if got != (GOLDEN, UNITS):
        print(f"mismatch: expected {(GOLDEN, UNITS)}", file=sys.stderr)
        sys.exit(1)
