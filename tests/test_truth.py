"""The truth ledger: each known false claim, asserted true against an exact oracle.

Every case is a strict xfail that fails on its assertion today, and its
reason names the ROADMAP item that makes the claim true.  A strict xfail that
starts to pass fails the suite, so the PR that fixes a claim must drop its
mark.  The references are exact: ``Fraction`` over the float coefficients,
or ``bench/oracle.py`` through the benchmark's own units
(``bench/workloads.py``), imported as ``tests/engine_digest.py`` imports them.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conecert.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
try:
    import workloads
finally:
    sys.path.remove(str(BENCH))

FAMILIES = ("apriori", "apost_forward", "apost_backward")

# x -> 0.9x + 1 with lambda 0.9 given; its fixed point is 1 / (1 - 0.9).
NINE_TENTHS = {
    "map": {"name": "affine", "matrix": [[0.9]], "offset": [1]},
    "metric": {"kind": "weighted", "alpha": [1]},
    "x0": [0],
    "lambda": 0.9,
    "max_iter": 1000,
}
NINE_TENTHS_FIXED_POINT = Fraction(1) / (1 - Fraction(0.9))


def xfail(item: str, what: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP {item}: {what}")


def picard_run(tmp_path, stop_c: float) -> tuple:
    """``(exit code, certificate.json, orbit)`` of ``conecert picard`` on
    ``NINE_TENTHS`` with ``stop_c``."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**NINE_TENTHS, "stop_c": [stop_c]}))
    out = tmp_path / "out"
    code = main(["picard", "--config", str(cfg), "--out", str(out)])
    orbit = [float(row.split(",")[1]) for row in (out / "trace.csv").read_text().splitlines()[1:]]
    return code, json.loads((out / "certificate.json").read_text()), orbit


def unsound_final_bounds(payload: dict, orbit: list) -> list:
    """``(family, bound, error)`` of each final bound below its true error.

    ``apriori`` and ``apost_backward`` bound the last iterate, and
    ``apost_forward`` the one before it.
    """
    cert = payload["certificate"]
    out = []
    for family in FAMILIES:
        point = orbit[-2] if family == "apost_forward" else orbit[-1]
        error = abs(Fraction(point) - NINE_TENTHS_FIXED_POINT)
        bound = cert[family][-1][0]
        if Fraction(bound) < error:
            out.append((family, bound, float(error)))
    return out


@xfail("item 2(b)", "the backward bound reads 0 at the rounding floor")
def test_false_zero_bounds_are_sound(tmp_path):
    # Today: exit 0 after 329 iterations, halt stop_c, status heuristic, and
    # apost_backward [0.0] against an error of 7.549516567451064e-15.
    _, payload, orbit = picard_run(tmp_path, 1e-15)
    assert unsound_final_bounds(payload, orbit) == []


@xfail("item 20", "exit 0 says stop_c was met, but no sound claim proves it")
def test_false_zero_exits_two(tmp_path):
    code, _, _ = picard_run(tmp_path, 1e-15)
    assert code == 2


@xfail("item 2(b)", "the run ends heuristic with bounds below the error")
def test_nine_tenths_is_certified_and_sound(tmp_path):
    # Today: status heuristic, and apost_backward 9.384493182551524e-11
    # against an error of 9.385248134208268e-11.
    _, payload, orbit = picard_run(tmp_path, 1e-10)
    assert payload["certificate"]["status"] == "certified"
    assert unsound_final_bounds(payload, orbit) == []


@xfail("item 2(b)", "a lambda-given picard-wide unit makes unsound claims")
def test_picard_wide_claims_are_sound():
    batch = workloads.PicardWide(9001, False)
    unit = batch.round(0)[0]  # n = 200, lambda 0.9 given
    verdict = batch.check(unit, batch.run(unit), False)
    assert verdict.failed is None
    assert [sound for sound, _ in verdict.claims] == [True] * len(unit.diag)


@xfail("items 4 and 22", "the estimated-lambda tail claims bounds below the error")
def test_cli_batch_weierstrass_claims_are_sound(tmp_path):
    # Today the claims read (False, 5.37e-06), (False, 0.0) and (True, 1.31).
    batch = workloads.CliBatch(7, False, tmp_path)
    unit = next(u for u in batch.round(6) if u.kind == "weierstrass")
    verdict = batch.check(unit, batch.run(unit), False)
    assert verdict.failed is None and len(verdict.claims) == 3
    assert [sound for sound, _ in verdict.claims] == [True] * 3
