"""Per-layer micro-benchmarks: ``Vec``, the order predicates, metric distance,
the gauge, record construction, the Picard engine, the Weierstrass sweep, the
artifact writers, the CLI's fixed cost and a whole ``picard`` call, the CLI's
import, and the axiom suites.

One row per operation and size n in {2, 50, 200}, one per writer input, one
``run_picard`` call per way of getting the factor, one
``weierstrass_step`` sweep over the roots 1..m at m in {3, 12}, one
``run_all(seed, 20)`` call, the unit of the axioms-suite workload, and
one ``Sampler.vec`` draw at the suites' sizes n in {2, 8}.  The
``import_cli`` rows start a fresh ``python -I``, as the benchmark's
``setup_s`` probe does: ``cli`` runs ``import conecert.cli`` and ``base``
runs ``pass``, so their difference is the import alone.  Distance
and gauge take rows with unit and with non-unit weights or base, since unit
ones skip a multiply or a division.  The ``calibration_probe`` row times the
fixed pure-Python kernel that ``bench/run.py`` scales its timings by: on a
shared machine a core's speed drifts between runs, so compare a row across
runs as its ratio to this one.  This directory is not in the suite's
``testpaths``, so a plain ``pytest`` never collects it.  Run it from the
repository root with pytest-benchmark:

    python3 -m pytest benchmarks/test_layers.py -q \
        --benchmark-columns=median,iqr,rounds --benchmark-sort=name

The inputs use only the public API, so the same file times any checkout.
Coordinates are small dyadic values, so every operation below is exact and
the timings measure the Python layer, not rounding.
"""

import importlib.util
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

import conecert
from conecert import GaugeNorm, Polynomial, Problem, SpaceSpec, mink_norm, run_picard, solve_roots
from conecert.axioms import Sampler, run_all
from conecert.cli import main
from conecert.metrics import WeightedConeMetric
from conecert.picard import Certificate, certificate_to_dict, write_trace_csv
from conecert.roots import ComparisonRow, default_starts, weierstrass_step
from conecert.solid import Vec, leq, lt

SIZES = (2, 50, 200)


def coords(n, shift=0.0):
    return [(k % 17) / 8 + shift for k in range(n)]


def weights(n):
    """Dyadic weights in [0.5, 0.875], none of them 1.0."""
    return [0.5 + (k % 4) / 8 for k in range(n)]


def ordered_pair(n, holds):
    """x and y = x + 1, except that a false case breaks at the last coordinate.

    Breaking the order only at the end makes the false case scan every
    coordinate, like the true case: the slower of the two false cases.
    """
    x = coords(n)
    y = coords(n, 1.0)
    if not holds:
        y[-1] = x[-1] - 1.0
    return Vec(x), Vec(y)


@pytest.mark.parametrize("n", SIZES)
def test_vec_init(benchmark, n):
    values = coords(n)
    benchmark(Vec, values)


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
@pytest.mark.parametrize("n", SIZES)
def test_vec_arithmetic(benchmark, op, n):
    x, y = Vec(coords(n)), Vec(coords(n, 0.5))
    if op == "add":
        benchmark(x.__add__, y)
    elif op == "sub":
        benchmark(x.__sub__, y)
    else:
        benchmark(x.__mul__, 0.75)


@pytest.mark.parametrize("holds", [True, False], ids=["true", "false"])
@pytest.mark.parametrize("pred", [leq, lt], ids=["leq", "lt"])
@pytest.mark.parametrize("n", SIZES)
def test_order(benchmark, pred, holds, n):
    x, y = ordered_pair(n, holds)
    assert benchmark(pred, x, y) is holds


def points(field, n):
    if field == "real":
        return tuple(coords(n)), tuple(coords(n, 0.25))
    return (
        tuple(complex(c, -c) for c in coords(n)),
        tuple(complex(c, 0.5) for c in coords(n, 0.25)),
    )


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n", SIZES)
def test_distance(benchmark, field, n):
    inst = WeightedConeMetric([1.0] * n, field=field)
    x, y = points(field, n)
    benchmark(inst.distance, x, y)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n", SIZES)
def test_distance_weighted(benchmark, field, n):
    inst = WeightedConeMetric(weights(n), field=field)
    x, y = points(field, n)
    benchmark(inst.distance, x, y)


@pytest.mark.parametrize("base", ["unit", "weighted"])
@pytest.mark.parametrize("n", SIZES)
def test_mink_norm(benchmark, base, n):
    g = GaugeNorm(SpaceSpec(n, Vec.ones(n) if base == "unit" else Vec(weights(n))))
    benchmark(mink_norm, Vec(coords(n, -1.0)), g)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n", SIZES)
def test_validate_point(benchmark, field, n):
    inst = WeightedConeMetric([1.0] * n, field=field)
    x, _ = points(field, n)
    benchmark(inst.validate_point, x)


@pytest.mark.parametrize("record", ["certificate", "comparison_row"])
def test_record_init(benchmark, record):
    """One record built by the shared constructor: a ``Certificate`` by
    position with its default ``start``, a ``ComparisonRow`` by keyword."""
    v = Vec(coords(2, 0.5))
    if record == "certificate":
        benchmark(Certificate, 0.5, "given", v, [v], "certified", None)
    else:
        benchmark(
            lambda: ComparisonRow(
                iteration=0,
                componentwise=v,
                scalar_value=1.0,
                broadcast=v,
                exceeded=False,
                strict_improvement=True,
            )
        )


def diagonal_problem(n=200, lam=0.9):
    """x -> l*x + o with l in [0.5, 0.9); with lambda 0.9 given, 217 iterates."""
    diag = [0.5 + (k % 40) / 100 for k in range(n)]
    offset = [0.1 + (k % 9) / 10 for k in range(n)]
    return Problem(
        map_fn=lambda x: tuple([l * c + o for l, c, o in zip(diag, x, offset)]),
        x0=(0.0,) * n,
        metric=WeightedConeMetric([1.0] * n),
        gauge=GaugeNorm(SpaceSpec(n, Vec.ones(n))),
        stop_c=Vec([1e-10] * n),
        max_iter=1000,
        lam=lam,
    )


def diagonal_run(n=200):
    p = diagonal_problem(n)
    result = run_picard(p)
    return result.trace, result.certificate, p.metric


@pytest.mark.parametrize("lam", [0.9, None], ids=["given", "estimated"])
def test_run_picard(benchmark, lam):
    """The whole engine at n=200, certificate included, no artifacts."""
    assert benchmark(run_picard, diagonal_problem(lam=lam)).converged


def wilkinson(m):
    """The monic polynomial with roots 1..m."""
    coeffs = [1]
    for r in range(1, m + 1):  # multiply by (z - r); integers stay exact
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return Polynomial([float(c) for c in coeffs])


def wilkinson_run(m=12):
    """solve_roots on the roots 1..m from the default starts, stopped at 1e-8
    per root, above its noise floor: halt stop_c after 242 sweeps, with a
    certificate."""
    result = solve_roots(wilkinson(m), stop_c=Vec([1e-8] * m), max_iter=300)
    return result.trace, result.certificate, WeightedConeMetric([1.0] * m, field="complex")


@pytest.mark.parametrize("m", [3, 12])
def test_weierstrass_step(benchmark, m):
    """One sweep over the roots 1..m from their default starts."""
    p = wilkinson(m)
    assert len(benchmark(weierstrass_step, p, default_starts(p))) == m


@pytest.mark.parametrize("case", [diagonal_run, wilkinson_run], ids=["picard_n200", "wilkinson12"])
def test_write_trace_csv(benchmark, case):
    trace, _, metric = case()

    def write():
        write_trace_csv(io.StringIO(), trace, metric)

    benchmark(write)


def test_certificate_to_dict(benchmark):
    """The n=200 certificate of ``diagonal_run``: each family's final entry."""
    _, cert, _ = diagonal_run()
    out = benchmark(certificate_to_dict, cert)
    assert [len(out[k]) for k in ("apriori", "apost_forward", "apost_backward")] == [1, 1, 1]
    assert math.isfinite(out["apriori"][-1][0])


def test_cli_main_gauge(benchmark, tmp_path):
    """The CLI's fixed cost per call: argument parsing, config load, dispatch."""
    cfg = tmp_path / "gauge.json"
    cfg.write_text(json.dumps({"x": [2.0], "base": [1.0]}))
    assert benchmark(main, ["gauge", "--config", str(cfg)]) == 0


def test_cli_main_picard(benchmark, tmp_path):
    """A whole ``picard`` call at n=200, lambda given: config, solve and both artifacts."""
    n = 200
    cfg = tmp_path / "picard.json"
    cfg.write_text(
        json.dumps(
            {
                "map": {"name": "halve"},
                "metric": {"kind": "weighted", "alpha": [1.0] * n},
                "x0": coords(n, 0.5),
                "lambda": 0.5,
            }
        )
    )
    out = tmp_path / "out"
    assert benchmark(main, ["picard", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "certificate.json").read_text())["certificate"]["status"] == "certified"


def _calibration_probe():
    """``calibration_probe`` built from ``CAL_KERNEL`` of ``bench/run.py``."""
    path = Path(__file__).resolve().parent.parent / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    namespace = {"perf_counter": time.perf_counter}
    exec(run.CAL_KERNEL, namespace)
    return namespace["calibration_probe"]


def test_calibration_probe(benchmark):
    """The speed yardstick of ``bench/run.py``: the same code every run."""
    assert benchmark(_calibration_probe()) > 0.0


@pytest.mark.parametrize("statement", ["pass", "import conecert.cli"], ids=["base", "cli"])
def test_import_cli(benchmark, statement):
    """A fresh interpreter that finds this ``conecert`` and runs ``statement``."""
    src = str(Path(conecert.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); {statement}"
    benchmark(subprocess.run, [sys.executable, "-I", "-c", code], check=True)


def test_axioms_run_all(benchmark):
    """Every axiom suite, 20 samples over dims 1-8."""
    assert all(r.passed for r in benchmark(run_all, 0, 20))


@pytest.mark.parametrize("n", [2, 8])
def test_sampler_vec(benchmark, n):
    """One sampled vector of the axiom suites: n dyadic coordinates."""
    assert len(benchmark(Sampler(0).vec, n)) == n
