import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conecert import axioms, cli
from conecert.cli import main
from conecert.gauge import GaugeNorm
from conecert.metrics import WeightedConeMetric
from conecert.picard import (
    Problem,
    apost_backward_bound,
    apost_forward_bound,
    apriori_bound,
    run_picard,
)
from conecert.roots import Polynomial, default_starts, solve_roots
from conecert.solid import SpaceSpec, Vec

from helpers import greedy_match, poly_from_roots

HALVE = {
    "map": {"name": "halve"},
    "x0": [1.0],
    "metric": {"kind": "weighted_norm", "alpha": [1.0]},
    "lambda": 0.5,
}
EXPANDING = {
    "map": {"name": "affine", "matrix": [[2.0]], "offset": [0.0]},
    "x0": [1.0],
    "metric": {"kind": "weighted_norm", "alpha": [1.0]},
    "max_iter": 30,
}
# Leaves the ball of radius 2.5 at iterate 3.
ESCAPING = {
    "map": {"name": "affine", "matrix": [[1.0]], "offset": [1.0]},
    "x0": [0.0],
    "metric": {"kind": "weighted_norm", "alpha": [1.0]},
    "domain": {"center": [0.0], "radius": [2.5]},
}
# Valid configs whose iterates overflow: the step distance |1e308 - (-1e308)|
# in the first, the map output 2 * 2**27 * 1e300 in the second.
OVERFLOWING_STEP = {
    "map": {"name": "affine", "matrix": [[-1.0]], "offset": [0.0]},
    "metric": {"kind": "weighted", "alpha": [1.0]},
    "x0": [1e308],
    "lambda": 0.5,
}
OVERFLOWING_MAP = {
    "map": {"name": "affine", "matrix": [[2.0]], "offset": [0.0]},
    "metric": {"kind": "weighted", "alpha": [1.0]},
    "x0": [1e300],
}
# Finite iterates whose certificate radius d(x0, x1) / (1 - lam) = 3e308
# overflows, with lam estimated or given.
OVERFLOWING_RADIUS = {
    "map": {"name": "affine", "matrix": [[-0.5]], "offset": [0.0]},
    "metric": {"kind": "weighted", "alpha": [1.0]},
    "x0": [1e308],
}
# Steps that grow until one overflows; with lam 0.5 the forward bound's
# factor 2 overflows a step before the halting bound's factor 1 does.
GROWING = {
    "map": {"name": "affine", "matrix": [[-2.0]], "offset": [0.0]},
    "metric": {"kind": "weighted", "alpha": [1.0]},
    "x0": [1.0],
    "lambda": 0.5,
    "max_iter": 2000,
}
# Default starts of radius 1 + 1e200: the first correction overflows.
OVERFLOW_CUBIC = {"coefficients": [1e200, 0, 0, 1]}
# Distinct finite starts whose pairwise differences multiply below the float
# range: the first sweep divides by a denominator that underflowed to zero.
UNDERFLOW_STARTS = {
    "coefficients": [-6, 11, -6, 1],
    "z0": [[0, 0], [1e-200, 0], [2e-200, 0]],
}
# Distinct starts on a double root: the first sweep moves 0 onto 1, where
# the other start sits, so the second sweep divides by exactly zero.
COLLIDING_STARTS = {"coefficients": [1, -2, 1], "z0": [[1, 0], [0, 0]]}
COLLIDING_WEIERSTRASS = {
    "map": {"name": "weierstrass", "coefficients": COLLIDING_STARTS["coefficients"]},
    "metric": {"kind": "weighted", "alpha": [1, 1], "field": "complex"},
    "x0": COLLIDING_STARTS["z0"],
}
# Finite radius and final entries, but the forward bound 2 * 1.52e308 of
# iterate 1 overflows.
OVERFLOWING_ENTRY = {
    "map": {"name": "affine", "matrix": [[0, 1.9], [0, 0]], "offset": [0, 0]},
    "metric": {"kind": "weighted", "alpha": [1, 1]},
    "x0": [1e308, 0.8e308],
    "lambda": 0.5,
}
WILKINSON_12 = {"coefficients": [c.real for c in poly_from_roots(range(1, 13))], "max_iter": 300}
# The step 1e308 is finite; with lambda given the radius 1e308 / (1 - 0.5) is not.
OVERFLOWING_ROOT_RADIUS = {"coefficients": [-0.5e308, 1.0], "z0": [[-0.5e308, 0]], "lambda": 0.5}
# Steps contract from iterate 4 on, so the estimated certificate starts there.
TAIL_CUBIC = [0.0, 5.0, -2.0, 1.0]
CUBIC_ROOTS = {
    "coefficients": [-6.0, 11.0, -6.0, 1.0],
    "z0": [[1.3, 0.0], [1.8, 0.0], [3.4, 0.0]],
}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestPicardCommand:
    def test_halve_run_certified(self, tmp_path):
        cfg = write_cfg(tmp_path, HALVE)
        out = tmp_path / "out"
        assert main(["picard", "--config", cfg, "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["converged"] is True
        assert cert["halt"] == "stop_c"
        assert cert["certificate"]["status"] == "certified"
        assert cert["certificate"]["lambda_source"] == "given"
        assert cert["fixed_point"][0] == pytest.approx(0.0, abs=1e-9)
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "iter,x0,step_d0"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, HALVE)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["picard", "--config", cfg, "--out", str(out)]) == 0
            blobs.append(
                (
                    (out / "trace.csv").read_bytes(),
                    (out / "certificate.json").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]

    def test_expanding_map_exits_two(self, tmp_path):
        cfg = write_cfg(tmp_path, EXPANDING)
        out = tmp_path / "out"
        assert main(["picard", "--config", cfg, "--out", str(out)]) == 2
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["converged"] is False
        assert cert["halt"] == "max_iter"
        assert cert["certificate"] is None

    @pytest.mark.parametrize(
        "payload, iterations",
        [
            (OVERFLOWING_STEP, 0),
            (OVERFLOWING_MAP, 27),
            (OVERFLOWING_RADIUS, 200),
            ({**OVERFLOWING_RADIUS, "lambda": 0.5}, 200),
            (GROWING, 1023),
            (COLLIDING_WEIERSTRASS, 1),
        ],
        ids=["step", "map", "radius-estimated", "radius-given", "growth", "collision"],
    )
    def test_divergence_to_overflow_exits_two(self, tmp_path, capsys, payload, iterations):
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["picard", "--config", cfg, "--out", str(out)]) == 2
        assert "error" not in capsys.readouterr().err
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["converged"] is False
        assert cert["halt"] == "overflow"
        assert cert["iterations"] == iterations
        assert cert["certificate"] is None
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(iterations + 1))
        # The trace stops at the last finite iterate.
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(",") if v)

    def test_domain_escape_exits_two_with_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, ESCAPING)
        out = tmp_path / "out"
        assert main(["picard", "--config", cfg, "--out", str(out)]) == 2
        cert = json.loads((out / "certificate.json").read_text())
        assert cert == {
            "certificate": None,
            "converged": False,
            "fixed_point": None,
            "halt": "domain_escape",
            "iterations": 3,
            "schema": 4,
        }
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["0", "1", "2", "3"]
        assert capsys.readouterr().err == "iterate 3 left the domain\n"

    def test_input_error_leaves_no_out(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, {**HALVE, "x0": [5.0], "domain": {"center": [0.0], "radius": [1.0]}}
        )
        out = tmp_path / "out"
        assert main(["picard", "--config", cfg, "--out", str(out)]) == 1
        assert "start point is outside the declared domain" in capsys.readouterr().err
        assert not out.exists()

    def test_stop_c_override_shortens_run(self, tmp_path):
        cfg = write_cfg(tmp_path, HALVE)
        coarse, fine = tmp_path / "coarse", tmp_path / "fine"
        assert main(["picard", "--config", cfg, "--out", str(fine)]) == 0
        assert (
            main(
                ["picard", "--config", cfg, "--out", str(coarse), "--stop-c", "[0.25]"]
            )
            == 0
        )
        n_coarse = len((coarse / "trace.csv").read_text().splitlines())
        n_fine = len((fine / "trace.csv").read_text().splitlines())
        assert n_coarse < n_fine

    def test_max_iter_override_blocks_convergence(self, tmp_path):
        cfg = write_cfg(tmp_path, HALVE)
        out = tmp_path / "out"
        code = main(["picard", "--config", cfg, "--out", str(out), "--max-iter", "3"])
        assert code == 2

    def test_complex_metric_through_weierstrass_map(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "map": {"name": "weierstrass", "coefficients": [-1.0, 0.0, 1.0]},
                "x0": [[2.0, 0.0], [-2.0, 0.0]],
                "metric": {"kind": "weighted_norm", "alpha": [1.0, 1.0], "field": "complex"},
            },
        )
        out = tmp_path / "out"
        assert main(["picard", "--config", cfg, "--out", str(out)]) == 0
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header.startswith("iter,x0_re,x0_im,x1_re,x1_im")

    def test_weierstrass_zero_denominator_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            {
                "map": {"name": "weierstrass", "coefficients": UNDERFLOW_STARTS["coefficients"]},
                "x0": UNDERFLOW_STARTS["z0"],
                "metric": {"kind": "weighted_norm", "alpha": [1.0] * 3, "field": "complex"},
            },
        )
        out = tmp_path / "out"
        assert main(["picard", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == ""
        assert json.loads((out / "certificate.json").read_text())["converged"] is False

    def test_overflowing_intermediate_entry_writes_every_row(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, OVERFLOWING_ENTRY)
        out = tmp_path / "out"
        assert main(["picard", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "1", "2", "3"]
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["halt"] == "stop_c"
        assert cert["certificate"]["status"] == "heuristic"

    def test_weierstrass_stalled_wilkinson_exits_zero_at_the_noise_floor(self, tmp_path, capsys):
        poly = Polynomial(WILKINSON_12["coefficients"])
        cfg = write_cfg(
            tmp_path,
            {
                "map": {"name": "weierstrass", "coefficients": WILKINSON_12["coefficients"]},
                "x0": [[z.real, z.imag] for z in default_starts(poly)],
                "metric": {"kind": "weighted_norm", "alpha": [1.0] * 12, "field": "complex"},
                "max_iter": 300,
            },
        )
        out = tmp_path / "out"
        assert main(["picard", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["converged"] is True
        assert cert["halt"] == "noise_floor"
        assert cert["iterations"] < 300
        roots = [complex(re, im) for re, im in cert["fixed_point"]]
        order = greedy_match(roots, list(range(1, 13)))
        for z, j in zip(roots, order):
            assert abs(z - (j + 1)) <= 1e-5
        # The same predicate as under ``roots``: neither run reaches its
        # stop_c, so both take the same sweeps and emit the same trace.
        roots_out = tmp_path / "roots"
        assert main(["roots", "--config", write_cfg(tmp_path, WILKINSON_12, "w.json"), "--out", str(roots_out)]) == 0
        assert (out / "trace.csv").read_bytes() == (roots_out / "trace.csv").read_bytes()

    def test_weierstrass_tail_certificate_matches_roots(self, tmp_path, capsys):
        # Both commands certify from the same contracting tail: one engine rule.
        starts = [[z.real, z.imag] for z in default_starts(Polynomial(TAIL_CUBIC))]
        settings = {"stop_c": [1e-12] * 3, "max_iter": 100}
        picard_cfg = write_cfg(
            tmp_path,
            {
                "map": {"name": "weierstrass", "coefficients": TAIL_CUBIC},
                "x0": starts,
                "metric": {"kind": "weighted_norm", "alpha": [1.0] * 3, "field": "complex"},
                **settings,
            },
        )
        roots_cfg = write_cfg(tmp_path, {"coefficients": TAIL_CUBIC, "z0": starts, **settings}, "r.json")
        out, roots_out = tmp_path / "out", tmp_path / "roots"
        assert main(["picard", "--config", picard_cfg, "--out", str(out)]) == 0
        assert main(["roots", "--config", roots_cfg, "--out", str(roots_out)]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "trace.csv").read_bytes() == (roots_out / "trace.csv").read_bytes()
        # One writer: the two certificate.json files are the same bytes.
        assert (out / "certificate.json").read_bytes() == (roots_out / "certificate.json").read_bytes()
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["certificate"]["lambda_used"] == 0.43163485433436494
        assert cert["certificate"]["status"] == "heuristic"


def trace_rows(path):
    """Header names and rows of a trace.csv, as lists of cells."""
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    return header, rows


def trace_steps(path):
    """The step cells of a trace.csv, as one Vec per row that has them.

    The step block ends every row, and the last row's cells are empty.
    """
    header, rows = trace_rows(path)
    cols = [j for j, name in enumerate(header) if name.startswith("step_d")]
    assert cols == list(range(len(header) - len(cols), len(header)))
    assert [rows[-1][j] for j in cols] == [""] * len(cols)
    return [Vec([float(row[j]) for j in cols]) for row in rows[:-1]]


FAMILIES = ("apriori", "apost_forward", "apost_backward")
# Roots {0, +-1, +-2, +-i}: from the default starts the tail begins at iterate 10.
SEPTIC = {"coefficients": [0.0, 4.0, 0.0, -1.0, 0.0, -4.0, 0.0, 1.0]}
# A diagonal affine map with no lambda: its factor is estimated.
AFFINE_ESTIMATED = {
    "map": {"name": "affine", "matrix": [[0.5, 0.0], [0.0, 0.25]], "offset": [1.0, 0.3]},
    "x0": [0.0, 0.0],
    "metric": {"kind": "weighted_norm", "alpha": [1.0, 1.0]},
}


def library_certificate(command):
    """The certificate the library gives for the estimated configs above."""
    if command == "roots":
        return solve_roots(Polynomial(SEPTIC["coefficients"])).certificate
    problem = Problem(
        # The CLI's affine map, row sums in the same order.
        map_fn=lambda x: (0.5 * x[0] + 0.0 * x[1] + 1.0, 0.0 * x[0] + 0.25 * x[1] + 0.3),
        x0=(0.0, 0.0),
        metric=WeightedConeMetric([1.0, 1.0]),
        gauge=GaugeNorm(SpaceSpec(2, Vec.ones(2))),
        stop_c=Vec([1e-10, 1e-10]),
    )
    return run_picard(problem).certificate


class TestCertificateSchema:
    @pytest.mark.parametrize(
        "command, payload, source",
        [("picard", HALVE, "given"), ("picard", AFFINE_ESTIMATED, "estimated"), ("roots", SEPTIC, "estimated")],
        ids=["picard-given", "picard-estimated", "roots-tail"],
    )
    def test_final_entries_are_the_last_trace_cells(self, tmp_path, command, payload, source):
        """Each final entry is a closed form of ``lambda_used`` and the step
        cells of ``trace.csv``, so the table needs no bound columns."""
        out = tmp_path / "out"
        assert main([command, "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())["certificate"]
        assert cert["lambda_source"] == source
        steps = trace_steps(out / "trace.csv")
        lam = cert["lambda_used"]
        if source == "given":
            # apriori and apost_backward bound the last iterate, apost_forward the one before.
            expected = {
                "apriori": apriori_bound(len(steps), lam, steps[0]),
                "apost_forward": apost_forward_bound(steps[-1], lam),
                "apost_backward": apost_backward_bound(steps[-1], lam),
            }
        else:
            lib = library_certificate(command)
            assert lib.lambda_used == lam
            assert [s.coords for s in lib.steps] == [s.coords for s in steps[lib.start :]]
            expected = {family: getattr(lib, family)[-1] for family in FAMILIES}
        for family in FAMILIES:
            assert len(cert[family]) == 1
            assert [c.hex() for c in cert[family][0]] == [c.hex() for c in expected[family].coords]

    @pytest.mark.parametrize(
        "command, payload, code",
        [("picard", HALVE, 0), ("picard", EXPANDING, 2), ("picard", ESCAPING, 2), ("roots", CUBIC_ROOTS, 0)],
        ids=["picard", "picard-unconverged", "picard-escape", "roots"],
    )
    def test_every_certificate_names_its_schema(self, tmp_path, capsys, command, payload, code):
        out = tmp_path / "out"
        assert main([command, "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == code
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["schema"] == 4
        assert sorted(cert) == ["certificate", "converged", "fixed_point", "halt", "iterations", "schema"]


class TestInputErrors:
    def test_missing_config(self, tmp_path, capsys):
        code = main(["picard", "--config", str(tmp_path / "absent.json")])
        assert code == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"x": [1,')
        assert main(["gauge", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "malformed JSON" in err
        assert "line 1" in err
        assert "column" in err

    def test_non_object_config(self, tmp_path, capsys):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        assert main(["picard", "--config", str(path)]) == 1
        assert "JSON object" in capsys.readouterr().err

    def test_unknown_map(self, tmp_path):
        cfg = write_cfg(tmp_path, {**HALVE, "map": {"name": "mystery"}})
        assert main(["picard", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_affine_matrix_wider_than_the_metric(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            {**HALVE, "map": {"name": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [1.0, 1.0]}},
        )
        assert main(["picard", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: point has 2 coordinates, expected 1\n"

    def test_degree_cap(self, tmp_path, capsys):
        coeffs = [1.0] + [0.0] * 12 + [1.0]
        cfg = write_cfg(tmp_path, {"coefficients": coeffs})
        assert main(["roots", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "cap" in capsys.readouterr().err


class TestRootsCommand:
    def test_cubic_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, CUBIC_ROOTS)
        out = tmp_path / "out"
        assert main(["roots", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["halt"] == "stop_c"
        roots = [complex(re, im) for re, im in report["roots"]]
        order = greedy_match(roots, [1.0, 2.0, 3.0])
        assert sorted(order) == [0, 1, 2]
        for z, j in zip(roots, order):
            assert abs(z - [1.0, 2.0, 3.0][j]) <= 1e-8
        assert all(r <= 1e-8 for r in report["residuals"])
        comparison = report["comparison"]
        assert comparison["any_exceeded"] is False
        assert comparison["rows"] >= 1
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["certificate"]["status"] == "heuristic"
        assert cert["certificate"]["lambda_used"] < 1.0

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, CUBIC_ROOTS)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["roots", "--config", cfg, "--out", str(out)]) == 0
            blobs.append(
                (
                    (out / "trace.csv").read_bytes(),
                    (out / "certificate.json").read_bytes(),
                    (out / "report.json").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]

    def test_default_starts_without_z0(self, tmp_path):
        cfg = write_cfg(tmp_path, {"coefficients": [-1.0, 0.0, 1.0]})
        out = tmp_path / "out"
        assert main(["roots", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        roots = sorted(re for re, _ in report["roots"])
        assert roots[0] == pytest.approx(-1.0, abs=1e-8)
        assert roots[1] == pytest.approx(1.0, abs=1e-8)

    def test_overflow_exits_two_with_repeatable_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, OVERFLOW_CUBIC)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["roots", "--config", cfg, "--out", str(out)]) == 2
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert capsys.readouterr().err == ""
        assert blobs[0] == blobs[1]
        assert sorted(blobs[0]) == ["certificate.json", "report.json", "trace.csv"]
        report = json.loads(blobs[0]["report.json"])
        assert report["converged"] is False
        assert report["halt"] == "overflow"
        assert report["roots"] is None
        assert json.loads(blobs[0]["certificate.json"])["certificate"] is None
        rows = blobs[0]["trace.csv"].decode().splitlines()[1:]
        assert len(rows) == 1 and rows[0].startswith("0,")

    def test_given_lambda_overflow_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, OVERFLOWING_ROOT_RADIUS)
        out = tmp_path / "out"
        assert main(["roots", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == ""
        report = json.loads((out / "report.json").read_text())
        assert report["halt"] == "overflow"
        assert report["roots"] is None
        assert report["comparison"]["rows"] == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["certificate"] is None
        assert (cert["halt"], cert["fixed_point"]) == ("overflow", None)

    def test_zero_denominator_exits_two_with_repeatable_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, UNDERFLOW_STARTS)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["roots", "--config", cfg, "--out", str(out)]) == 2
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert capsys.readouterr().err == ""
        assert blobs[0] == blobs[1]
        assert sorted(blobs[0]) == ["certificate.json", "report.json", "trace.csv"]
        assert json.loads(blobs[0]["report.json"])["roots"] is None
        rows = blobs[0]["trace.csv"].decode().splitlines()[1:]
        assert len(rows) == 1 and rows[0].startswith("0,")


    def test_colliding_iterates_exit_two_with_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COLLIDING_STARTS)
        out = tmp_path / "out"
        assert main(["roots", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == ""
        assert sorted(p.name for p in out.iterdir()) == ["certificate.json", "report.json", "trace.csv"]
        report = json.loads((out / "report.json").read_text())
        assert report["halt"] == "overflow"
        assert report["roots"] is None
        assert len((out / "trace.csv").read_text().splitlines()) == 3

    def test_stalled_wilkinson_exits_zero_at_the_noise_floor(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, WILKINSON_12)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["roots", "--config", cfg, "--out", str(out)]) == 0
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert capsys.readouterr().err == ""
        assert blobs[0] == blobs[1]
        report = json.loads(blobs[0]["report.json"])
        assert report["converged"] is True
        assert report["halt"] == "noise_floor"
        roots = [complex(re, im) for re, im in report["roots"]]
        order = greedy_match(roots, list(range(1, 13)))
        for z, j in zip(roots, order):
            assert abs(z - (j + 1)) <= 1e-5
        assert json.loads(blobs[0]["certificate.json"])["certificate"] is None

    @pytest.mark.parametrize("roots", [(1, 1, 1, 3), (1, 1, 2, 2)])
    def test_clustered_roots_exit_two(self, tmp_path, roots):
        coefficients = [c.real for c in poly_from_roots(roots)]
        cfg = write_cfg(tmp_path, {"coefficients": coefficients, "max_iter": 300})
        out = tmp_path / "out"
        assert main(["roots", "--config", cfg, "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["halt"] == "max_iter"
        assert report["roots"] is None


class TestAxiomsCommand:
    def test_report_and_pass_lines(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["axioms", "--samples", "25", "--out", str(out)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert all(l.startswith("PASS ") for l in lines)
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is True
        assert len(report["suites"]) == len(lines)

    def test_seed_replay_matches(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["axioms", "--samples", "25", "--seed", "7", "--out", str(out)]) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]


class TestGaugeCommand:
    def test_frozen_example(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"x": [2.0, -3.0], "base": [1.0, 2.0]})
        assert main(["gauge", "--config", cfg]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_missing_field(self, tmp_path):
        cfg = write_cfg(tmp_path, {"x": [1.0]})
        assert main(["gauge", "--config", cfg]) == 1


class TestDemoNormality:
    def test_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["demo-normality", "--samples", "10", "--out", str(out)]) == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "n,sup_x,sup_dx,c1_norm_x,c1_norm_y,order_ok"
        assert len(lines) == 11
        assert lines[9].startswith("9,")
        summary = capsys.readouterr().out
        assert "n=10" in summary
        assert "1.100000" in summary

    def test_default_is_fifty_rows(self, tmp_path):
        out = tmp_path / "out"
        assert main(["demo-normality", "--out", str(out)]) == 0
        assert len((out / "report.csv").read_text().splitlines()) == 51

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_nonpositive_samples_are_an_input_error(self, tmp_path, capsys, samples):
        out = tmp_path / "out"
        assert main(["demo-normality", "--samples", samples, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: need n_max >= 1 and at least two grid points\n"
        assert not (out / "report.csv").exists()


def artifacts(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestParserReuse:
    """main() builds its parser once per process and reuses it."""

    def test_back_to_back_calls_match_fresh_ones(self, tmp_path, monkeypatch, capsys):
        # axioms keeps its default of 1000 samples, on one dimension only.
        # cmd_axioms imports run_all when it runs, so the patch goes there.
        real_run_all = axioms.run_all
        monkeypatch.setattr(
            axioms, "run_all", lambda seed, samples: real_run_all(seed=seed, samples=samples, dims=[1])
        )
        cfg = write_cfg(tmp_path, HALVE)
        calls = [
            ["picard", "--config", cfg, "--max-iter", "3"],
            ["picard", "--config", cfg],
            ["axioms", "--samples", "5", "--seed", "3"],
            ["axioms"],
        ]

        def run(tag, fresh):
            cli._parser.cache_clear()
            outcomes = []
            for i, argv in enumerate(calls):
                if fresh:
                    cli._parser.cache_clear()
                out = tmp_path / f"{tag}{i}"
                code = main([*argv, "--out", str(out)])
                outcomes.append((code, capsys.readouterr(), artifacts(out)))
            return outcomes

        reused = run("reused", fresh=False)
        assert cli._parser.cache_info().misses == 1
        assert reused == run("fresh", fresh=True)
        assert [code for code, _, _ in reused] == [2, 0, 0, 0]
        report = json.loads(reused[3][2]["report.json"])
        assert (report["seed"], report["samples"]) == (0, 1000)

    def test_handler_rebound_after_the_first_call_runs(self, tmp_path, monkeypatch, capsys):
        cfg = write_cfg(tmp_path, {"x": [2.0], "base": [1.0]})
        assert main(["gauge", "--config", cfg]) == 0
        assert capsys.readouterr().out == "2\n"
        seen = []
        monkeypatch.setattr(cli, "cmd_gauge", lambda args: seen.append(args.config) or 7)
        assert main(["gauge", "--config", cfg]) == 7
        assert seen == [cfg]

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_import_builds_no_parser(self):
        src = Path(__file__).resolve().parents[1] / "src"
        probe = "import conecert.cli as c; print(c._parser.cache_info().currsize)"
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # -S keeps site from preloading anything; dataclasses imports inspect,
        # and the two together cost most of what importing the CLI used to.
        src = Path(__file__).resolve().parents[1] / "src"
        probe = (
            "import sys, conecert.cli, conecert\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestUsageErrors:
    """Usage errors are input errors: exit 1, never the no-convergence 2."""

    @pytest.mark.parametrize("command", ["gauge", "picard", "roots"])
    def test_missing_config_exits_one(self, command, capsys):
        assert main([command]) == 1
        assert capsys.readouterr().err == f"error: {command} needs --config\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["picard", "--max-iter", "x"], "invalid int value: 'x'"),
            (["solve"], "invalid choice: 'solve'"),
        ],
    )
    def test_argparse_error_returns_one(self, argv, message, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: conecert")
        assert message in err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: conecert" in capsys.readouterr().out

    def test_process_exit_code(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "conecert.cli", "picard", "--max-iter", "x"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert "invalid int value" in proc.stderr


# Valid configs for the value table below; each row changes one key of one.
HALVE_2D = {
    "map": {"name": "halve"},
    "x0": [1.0, 2.0],
    "metric": {"kind": "weighted", "alpha": [1.0, 2.0]},
    "lambda": 0.5,
}
AFFINE = {
    "map": {"name": "affine", "matrix": [[0.5]], "offset": [1.0]},
    "x0": [0.0],
    "metric": {"kind": "weighted", "alpha": [1.0]},
    "lambda": 0.5,
}
DISCRETE = {
    "map": {"name": "halve"},
    "x0": [1.0],
    "metric": {"kind": "discrete", "a": [1.0]},
}
WEIERSTRASS = {
    "map": {"name": "weierstrass", "coefficients": [-1, 0, 1]},
    "x0": [0.5, 0.3],
    "metric": {"kind": "weighted", "alpha": [1.0, 1.0], "field": "complex"},
}
# Three coordinates everywhere; AFFINE_2X2 is a map for two.
AFFINE_3D = {
    "map": {"name": "affine", "matrix": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]], "offset": [0] * 3},
    "x0": [1.0, 2.0, 3.0],
    "metric": {"kind": "weighted", "alpha": [1.0, 1.0, 1.0]},
    "lambda": 0.5,
}
AFFINE_2X2 = {"name": "affine", "matrix": [[0.5, 0], [0, 0.5]], "offset": [0, 0]}
PLUS_2D = {
    "map": {"name": "halve"},
    "x0": [1.0, 2.0],
    "metric": {"kind": "plus", "n": 2},
    "lambda": 0.5,
}
INF = float("inf")  # json.dumps writes it as the literal Infinity


def with_key(base, path, value):
    cfg = copy.deepcopy(base)
    *parents, key = path
    node = cfg
    for name in parents:
        node = node[name]
    node[key] = value
    return cfg


# (command, valid config, path of the key changed, bad value)
BAD_VALUES = [
    # Each of these once ended in a traceback.
    ("roots", CUBIC_ROOTS, ["z0"], [[1], [2], [3]]),
    ("roots", CUBIC_ROOTS, ["z0"], 5),
    ("roots", CUBIC_ROOTS, ["coefficients"], [["1", "2"], 11, -6, 1]),
    ("roots", CUBIC_ROOTS, ["weights"], 5),
    ("roots", CUBIC_ROOTS, ["lambda"], [1]),
    ("roots", CUBIC_ROOTS, ["max_iter"], [1]),
    ("picard", HALVE, ["lambda"], [0.5]),
    ("picard", AFFINE, ["map", "matrix"], 5),
    ("picard", AFFINE, ["map", "offset"], 1),
    ("picard", HALVE, ["metric", "alpha"], 5),
    ("picard", HALVE, ["max_iter"], INF),
    ("picard", DISCRETE, ["x0"], None),
    ("picard", DISCRETE, ["x0"], "1"),
    ("picard", DISCRETE, ["x0"], [[1]]),
    ("picard", DISCRETE, ["x0"], [None]),
    ("picard", DISCRETE, ["x0"], [10**400]),
    ("picard", HALVE, ["metric"], {"kind": "plus", "n": 10**400}),
    ("picard", WEIERSTRASS, ["metric"], {"kind": "discrete", "a": [1.0]}),
    ("picard", WEIERSTRASS, ["metric"], {"kind": "plus", "n": 2}),
    # Each of these was once misread without an error.
    ("roots", CUBIC_ROOTS, ["z0", 1], [1.8, 0, 9]),
    ("roots", CUBIC_ROOTS, ["z0", 1], "1"),
    ("roots", CUBIC_ROOTS, ["z0", 1], True),
    ("roots", CUBIC_ROOTS, ["coefficients", 0], [True, False]),
    ("roots", CUBIC_ROOTS, ["weights"], ["1", "1", "1"]),
    ("picard", HALVE_2D, ["metric", "alpha"], "12"),
    ("picard", HALVE, ["lambda"], False),
    ("picard", HALVE, ["lambda"], "0.5"),
    ("picard", HALVE, ["max_iter"], "7"),
    ("picard", HALVE, ["max_iter"], 2.7),
    ("picard", AFFINE, ["map", "matrix"], [["0.5"]]),
    ("picard", AFFINE, ["map", "offset"], [True]),
    ("picard", HALVE, ["metric"], {"kind": "plus", "n": True}),
    ("picard", AFFINE, ["map", "offset"], [INF]),
    # Each of these once failed late, or not at all, with a length mismatch.
    ("picard", {**DISCRETE, "map": AFFINE["map"]}, ["x0"], [1, 2, 3]),
    ("picard", DISCRETE, ["map"], AFFINE_2X2),
    ("picard", AFFINE_3D, ["map"], AFFINE_2X2),
    ("picard", {**AFFINE_3D, "map": AFFINE_2X2}, ["metric"], {"kind": "plus", "n": 3}),
    ("roots", CUBIC_ROOTS, ["weights"], [1, 1]),
    ("picard", WEIERSTRASS, ["map", "coefficients"], CUBIC_ROOTS["coefficients"]),
    ("picard", ESCAPING, ["domain", "center"], [0.0, 0.0]),
    ("picard", ESCAPING, ["domain", "radius"], [2.5, 2.5]),
]


class TestConfigValues:
    """Every config value is read strictly: a bad one is an input error."""

    @pytest.mark.parametrize(
        "command, base, path, value",
        BAD_VALUES,
        # Values are cut to 40 characters, so 10**400 gives a readable id.
        ids=[f"{c}-{'.'.join(map(str, p))}={json.dumps(v):.40}" for c, _, p, v in BAD_VALUES],
    )
    def test_bad_value_exits_one(self, tmp_path, capsys, command, base, path, value):
        cfg = write_cfg(tmp_path, with_key(base, path, value))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, cfg, message",
        [
            (
                "picard",
                {**DISCRETE, "map": AFFINE["map"], "x0": [1, 2, 3]},
                '"x0" has 3 coordinates, but the affine "matrix" is 1x1',
            ),
            # A wider matrix is worded as a metric rejects its image.
            ("picard", {**DISCRETE, "map": AFFINE_2X2}, "point has 2 coordinates, expected 1"),
            (
                "picard",
                {**AFFINE_3D, "map": AFFINE_2X2},
                '"x0" has 3 coordinates, but the affine "matrix" is 2x2',
            ),
            (
                "picard",
                {**AFFINE_3D, "map": AFFINE_2X2, "metric": {"kind": "plus", "n": 3}},
                '"x0" has 3 coordinates, but the affine "matrix" is 2x2',
            ),
            (
                "roots",
                {**CUBIC_ROOTS, "weights": [1, 1]},
                '"weights" needs one entry per root of the degree-3 polynomial, got 2',
            ),
            (
                "roots",
                {"coefficients": CUBIC_ROOTS["coefficients"], "weights": [1, 1]},
                '"weights" needs one entry per root of the degree-3 polynomial, got 2',
            ),
            (
                "picard",
                with_key(WEIERSTRASS, ["map", "coefficients"], CUBIC_ROOTS["coefficients"]),
                '"x0" has 2 approximations, but the weierstrass "coefficients" have degree 3',
            ),
            # A ball domain's error names the field it concerns.
            (
                "picard",
                with_key(ESCAPING, ["domain", "center"], [0.0, 0.0]),
                "domain center: point has 2 coordinates, expected 1",
            ),
            (
                "picard",
                with_key(ESCAPING, ["domain", "radius"], [2.5, 2.5]),
                "domain radius: 2 coordinates, expected 1",
            ),
        ],
        ids=[
            "discrete", "discrete-wider", "weighted", "plus", "weights-z0", "weights",
            "weierstrass", "domain-center", "domain-radius",
        ],
    )
    def test_length_mismatch_names_the_key(self, tmp_path, capsys, command, cfg, message):
        path = write_cfg(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_integral_float_dimension_reads_as_a_count(self, tmp_path, capsys):
        runs = []
        for tag, n in (("float", 2.0), ("int", 2)):
            out = tmp_path / tag
            cfg = write_cfg(tmp_path, with_key(PLUS_2D, ["metric", "n"], n), f"{tag}.json")
            code = main(["picard", "--config", cfg, "--out", str(out)])
            runs.append((code, capsys.readouterr(), artifacts(out)))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0

    def test_discrete_point_the_map_fixes_takes_one_zero_step(self, tmp_path):
        # The point is read as numbers, like the map's output, so d(x0, T x0)
        # compares equal coordinates rather than a list with a tuple.
        cfg = write_cfg(tmp_path, with_key(DISCRETE, ["x0"], [0.0]))
        out = tmp_path / "out"
        assert main(["picard", "--config", cfg, "--out", str(out)]) == 0
        row0 = (out / "trace.csv").read_text().splitlines()[1]
        assert row0.split(",")[:3] == ["0", "0", "0"]  # iter, x0, step_d0
        assert json.loads((out / "certificate.json").read_text())["iterations"] == 1

    @pytest.mark.parametrize(
        "command, base, key",
        [
            ("roots", CUBIC_ROOTS, "z0"),
            ("roots", CUBIC_ROOTS, "max_iter"),
            ("picard", HALVE, "stop_c"),
        ],
    )
    def test_null_reads_like_an_absent_key(self, tmp_path, capsys, command, base, key):
        runs = []
        for tag, payload in (
            ("null", {**base, key: None}),
            ("absent", {k: v for k, v in base.items() if k != key}),
        ):
            out = tmp_path / tag
            cfg = write_cfg(tmp_path, payload, f"{tag}.json")
            code = main([command, "--config", cfg, "--out", str(out)])
            runs.append((code, capsys.readouterr(), artifacts(out)))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0

    @pytest.mark.parametrize("constant", ["NaN", "-Infinity"])
    def test_stop_c_flag_rejects_non_json_numbers(self, tmp_path, capsys, constant):
        cfg = write_cfg(tmp_path, HALVE)
        out = tmp_path / "out"
        argv = ["picard", "--config", cfg, "--out", str(out), "--stop-c", f"[{constant}]"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: --stop-c holds {constant}, which is not a JSON number\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, base", [("picard", HALVE), ("roots", CUBIC_ROOTS)])
    def test_stop_c_flag_rejects_null(self, tmp_path, capsys, command, base):
        cfg = write_cfg(tmp_path, base)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), "--stop-c", "null"]) == 1
        assert capsys.readouterr().err == 'error: "--stop-c" needs a JSON array, got null\n'
        assert not out.exists()


class TestOutputDirectory:
    """An --out that names a file, or a path under one, is an input error."""

    def test_gauge_out_is_a_file(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"x": [2.0], "base": [1.0]})
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(["gauge", "--config", cfg, "--out", str(afile)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot use output directory {str(afile)!r}: ")
        assert captured.out == ""

    def test_axioms_out_under_a_file(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(["axioms", "--samples", "2", "--out", str(afile / "sub")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot use output directory {str(afile / 'sub')!r}: ")
        assert afile.read_text() == ""
