"""Command line front door: JSON config in, CSV/JSON artifacts out.

Subcommands: axioms, gauge, picard, roots, demo-normality.  Exit codes:
0 on success or convergence, 2 when an iteration fails to converge,
diverges to a non-finite value or escapes its domain, 1 on any input
error.  All runs are single-threaded and all emitted files are
byte-identical for identical config and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .axioms import report_dict, run_all
from .gauge import GaugeNorm, mink_norm
from .metrics import (
    Ball,
    WeightedConeMetric,
    instance_from_json,
    parse_point,
    point_to_json,
)
from .normality import normality_table
from .picard import (
    DomainEscape,
    Problem,
    certificate_to_dict,
    run_picard,
    write_trace_csv,
)
from .roots import Polynomial, solve_roots, weierstrass_map
from .solid import SpaceSpec, Vec, vec_from_json

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2

MAX_CLI_DEGREE = 12


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config {path!r}: {exc.strerror}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed JSON in {path!r} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path!r} must hold a JSON object")
    return cfg


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _affine_map(matrix, offset):
    rows = [[float(v) for v in row] for row in matrix]
    c = [float(v) for v in offset]
    n = len(c)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("affine map needs a square matrix matching the offset length")

    def apply(x):
        return tuple(
            sum(rows[i][j] * x[j] for j in range(n)) + c[i] for i in range(n)
        )

    return apply


def _map_from_config(spec: dict):
    if not isinstance(spec, dict) or "name" not in spec:
        raise ValueError('map config needs a "name" field')
    name = spec["name"]
    if name == "halve":
        return lambda x: tuple(c / 2 for c in x)
    if name == "affine":
        if "matrix" not in spec or "offset" not in spec:
            raise ValueError('affine map needs "matrix" and "offset"')
        return _affine_map(spec["matrix"], spec["offset"])
    if name == "weierstrass":
        if "coefficients" not in spec:
            raise ValueError('weierstrass map needs "coefficients"')
        poly = Polynomial(_coeffs_from_json(spec["coefficients"]))
        return weierstrass_map(poly)
    raise ValueError(f"unknown map {name!r}")


def _coeffs_from_json(raw) -> list[complex]:
    if not isinstance(raw, (list, tuple)):
        raise ValueError("coefficients must be a JSON array, constant term first")
    out = []
    for v in raw:
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            out.append(complex(v))
        elif isinstance(v, (list, tuple)) and len(v) == 2:
            out.append(complex(v[0], v[1]))
        else:
            raise ValueError(f"cannot parse coefficient {v!r}")
    return out


def _problem_from_config(cfg: dict, args) -> Problem:
    for key in ("map", "metric", "x0"):
        if key not in cfg:
            raise ValueError(f'problem config needs a "{key}" field')
    inst = instance_from_json(cfg["metric"])
    n = inst.dim
    base = vec_from_json(cfg["gauge_base"]) if "gauge_base" in cfg else Vec.ones(n)
    gauge = GaugeNorm(SpaceSpec(n, base))
    stop_raw = cfg.get("stop_c", [1e-10] * n)
    if args.stop_c is not None:
        stop_raw = json.loads(args.stop_c)
    stop_c = vec_from_json(stop_raw)
    max_iter = args.max_iter if args.max_iter is not None else cfg.get("max_iter", 200)
    domain = None
    if "domain" in cfg:
        dom = cfg["domain"]
        if not isinstance(dom, dict) or "center" not in dom or "radius" not in dom:
            raise ValueError('domain needs "center" and "radius"')
        domain = Ball(
            center=parse_point(inst, dom["center"]),
            radius=vec_from_json(dom["radius"]),
            closed=True,
        )
    return Problem(
        map_fn=_map_from_config(cfg["map"]),
        x0=parse_point(inst, cfg["x0"]),
        metric=inst,
        gauge=gauge,
        stop_c=stop_c,
        max_iter=int(max_iter),
        lam=cfg.get("lambda"),
        domain=domain,
    )


def cmd_axioms(args) -> int:
    results = run_all(seed=args.seed, samples=args.samples)
    report = report_dict(results, seed=args.seed, samples=args.samples)
    out = _out_dir(args)
    _write_json(out / "report.json", report)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.checks} checks)")
    return EXIT_OK


def cmd_gauge(args) -> int:
    cfg = _load_config(args.config)
    for key in ("x", "base"):
        if key not in cfg:
            raise ValueError(f'gauge config needs an "{key}" array')
    x = vec_from_json(cfg["x"])
    g = GaugeNorm(SpaceSpec(len(x), vec_from_json(cfg["base"])))
    value = mink_norm(x, g)
    print(format(value, ".17g"))
    if args.out:
        out = _out_dir(args)
        _write_json(out / "report.json", {"norm": value})
    return EXIT_OK


def cmd_picard(args) -> int:
    cfg = _load_config(args.config)
    problem = _problem_from_config(cfg, args)
    out = _out_dir(args)
    try:
        result = run_picard(problem)
    except DomainEscape as exc:
        with open(out / "trace.csv", "w", newline="") as fh:
            write_trace_csv(fh, exc.trace, None, problem.metric)
        _write_json(out / "certificate.json", {"certificate": None, "converged": False, "reason": str(exc)})
        print(str(exc), file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    with open(out / "trace.csv", "w", newline="") as fh:
        write_trace_csv(fh, result.trace, result.certificate, problem.metric)
    payload = {
        "converged": result.converged,
        "iterations": len(result.trace.iterates) - 1,
        "certificate": certificate_to_dict(result.certificate),
        "fixed_point": None
        if result.fixed_point is None
        else point_to_json(problem.metric, result.fixed_point),
    }
    _write_json(out / "certificate.json", payload)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_roots(args) -> int:
    cfg = _load_config(args.config)
    if "coefficients" not in cfg:
        raise ValueError('roots config needs a "coefficients" array')
    poly = Polynomial(_coeffs_from_json(cfg["coefficients"]))
    if poly.degree > MAX_CLI_DEGREE:
        raise ValueError(f"degree {poly.degree} exceeds the CLI cap of {MAX_CLI_DEGREE}")
    z0 = None
    if "z0" in cfg:
        z0 = [complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v) for v in cfg["z0"]]
    weights = cfg.get("weights")
    stop_raw = cfg.get("stop_c")
    if args.stop_c is not None:
        stop_raw = json.loads(args.stop_c)
    stop_c = vec_from_json(stop_raw) if stop_raw is not None else None
    max_iter = args.max_iter if args.max_iter is not None else cfg.get("max_iter", 100)
    result = solve_roots(
        poly, z0=z0, weights=weights, stop_c=stop_c, max_iter=int(max_iter), lam=cfg.get("lambda")
    )
    out = _out_dir(args)
    metric = WeightedConeMetric(
        weights if weights is not None else [1.0] * poly.degree, field="complex"
    )
    with open(out / "trace.csv", "w", newline="") as fh:
        write_trace_csv(fh, result.trace, result.certificate, metric)
    _write_json(
        out / "certificate.json",
        {
            "converged": result.converged,
            "certificate": certificate_to_dict(result.certificate),
            "lambda_used": result.lambda_used,
            "tail_start": result.tail_start,
        },
    )
    _write_json(
        out / "report.json",
        {
            "converged": result.converged,
            "roots": None
            if result.roots is None
            else [[z.real, z.imag] for z in result.roots],
            "residuals": result.residuals,
            "comparison": {
                "rows": len(result.report.rows),
                "any_exceeded": result.report.any_exceeded,
                "strict_improvement_rows": result.report.strict_improvement_rows,
            },
        },
    )
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_demo_normality(args) -> int:
    rows = normality_table(n_max=args.samples or 50)
    out = _out_dir(args)
    with open(out / "report.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "sup_x", "sup_dx", "c1_norm_x", "c1_norm_y", "order_ok"])
        for r in rows:
            writer.writerow(
                [
                    r["n"],
                    format(r["sup_x"], ".17g"),
                    format(r["sup_dx"], ".17g"),
                    format(r["c1_norm_x"], ".17g"),
                    format(r["c1_norm_y"], ".17g"),
                    int(r["order_ok"]),
                ]
            )
    first, last = rows[0], rows[-1]
    print(
        f"n={first['n']}: |x|={first['c1_norm_x']:.6f} |y|={first['c1_norm_y']:.6f}; "
        f"n={last['n']}: |x|={last['c1_norm_x']:.6f} |y|={last['c1_norm_y']:.6f}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conecert",
        description="Fixed-point iteration with componentwise certificates over cone metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("axioms", cmd_axioms, "run the seeded axiom suites"),
        ("gauge", cmd_gauge, "print the gauge of a vector"),
        ("picard", cmd_picard, "iterate a configured map and certify the run"),
        ("roots", cmd_roots, "refine all roots of a polynomial simultaneously"),
        ("demo-normality", cmd_demo_normality, "tabulate the sandwiched C^1 pair"),
    ]
    for name, handler, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a JSON config file")
        p.add_argument("--out", help="output directory (default: current)")
        p.add_argument("--seed", type=int, default=0, help="root seed for sampled suites")
        p.add_argument("--samples", type=int, default=None, help="sample count override")
        p.add_argument("--max-iter", type=int, default=None, help="iteration cap override")
        p.add_argument("--stop-c", default=None, help="halting vector as a JSON array")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.samples is None and args.handler is cmd_axioms:
        args.samples = 1000
    try:
        return args.handler(args)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
