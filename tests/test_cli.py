import json
import math

import pytest

from conecert.cli import main

from helpers import greedy_match

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
        assert cert["certificate"]["status"] == "certified"
        assert cert["certificate"]["lambda_source"] == "given"
        assert cert["fixed_point"][0] == pytest.approx(0.0, abs=1e-9)
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "iter,x0,step_d0,apriori_0,apost_fwd_0,apost_bwd_0"

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
        assert cert["certificate"] is None

    @pytest.mark.parametrize(
        "payload, iterations",
        [(OVERFLOWING_STEP, 0), (OVERFLOWING_MAP, 27)],
        ids=["step", "map"],
    )
    def test_divergence_to_overflow_exits_two(self, tmp_path, capsys, payload, iterations):
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["picard", "--config", cfg, "--out", str(out)]) == 2
        assert "error" not in capsys.readouterr().err
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["converged"] is False
        assert cert["iterations"] == iterations
        assert cert["certificate"] is None
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert len(rows) == iterations + 1
        # The trace stops at the last finite iterate.
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(",") if v)

    def test_domain_escape_exits_two_with_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            {
                "map": {"name": "affine", "matrix": [[1.0]], "offset": [1.0]},
                "x0": [0.0],
                "metric": {"kind": "weighted_norm", "alpha": [1.0]},
                "domain": {"center": [0.0], "radius": [2.5]},
            },
        )
        out = tmp_path / "out"
        assert main(["picard", "--config", cfg, "--out", str(out)]) == 2
        assert (out / "trace.csv").exists()
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["certificate"] is None
        assert capsys.readouterr().err != ""

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
        assert cert["lambda_used"] < 1.0

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
