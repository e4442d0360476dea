"""Command line front door: JSON config in, CSV/JSON artifacts out.

Subcommands: axioms, gauge, picard, roots, demo-normality.  Exit codes:
0 on success or convergence (a ``roots`` run, or a ``picard`` run of the
``weierstrass`` map, that halts at its noise floor has converged), 2 when
an iteration fails to converge, escapes its domain or overflows (an iterate,
a Weierstrass sweep that divides by zero, or a certificate's radius or final
bound), 1 on any input error, a usage error included.  ``picard`` and
``roots`` write ``trace.csv`` and ``certificate.json`` for every run through
one writer, so both files have one layout; ``certificate.json`` and
``roots``' ``report.json`` name the halt cause: ``stop_c``,
``noise_floor``, ``max_iter``, ``overflow`` or ``domain_escape``.
``--out`` is created after the run, so an input error leaves none behind.
Every ``certificate.json`` carries ``"schema": 4``: its bound families hold
only their final entries, and ``trace.csv`` holds data, not claims: each
iterate and the step that leaves it.  Every other entry of a family is a
closed form of ``lambda_used`` and those steps.  All runs are
single-threaded and all emitted files are byte-identical for identical
config and seed.

Importing this module (or the package) loads neither ``dataclasses`` nor
``inspect``: the package's record types are plain slotted classes whose
constructors ``solid._Record`` builds from ``__slots__``, and ``cmd_axioms``
imports ``axioms``, whose two dataclasses stay, when it runs.

This module is the only one that knows the config format.  Each JSON value
kind has one reader here, and every config value passes through one of them:
a number is a finite JSON number, never a string or a boolean; a count
(``max_iter``, a ``plus`` metric's ``n``) is a whole number (``1000.0`` reads
as 1000); a complex scalar is a number or ``[re, im]``; an affine map's
``x0``, a ``weierstrass`` map's ``x0`` and ``roots``' ``weights`` are checked
against the matrix size and the degree; NaN and Infinity are rejected; an
optional key set to null reads like an absent key, while a null
``--stop-c`` is rejected.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from operator import mul
from pathlib import Path

from .gauge import GaugeNorm, mink_norm
from .metrics import (
    Ball,
    ConeMetric,
    DiscreteConeMetric,
    PlusConeMetric,
    WeightedConeMetric,
)
from .normality import normality_table
from .picard import PicardResult, Problem, certificate_to_dict, run_picard, write_trace_csv
from .roots import Polynomial, noise_floor, solve_roots, weierstrass_map
from .solid import SpaceSpec, Vec

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2

# Version of the certificate.json layout.
CERT_SCHEMA = 4

MAX_CLI_DEGREE = 12


def _loads(text: str, source: str):
    """The JSON value of ``text``; ``source`` names it in error messages."""

    def reject(name):
        raise ValueError(f"{source} holds {name}, which is not a JSON number")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed JSON in {source} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _load_config(args) -> dict:
    path = args.config
    if path is None:
        raise ValueError(f"{args.command} needs --config")
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config {path!r}: {exc.strerror}") from exc
    cfg = _loads(text, repr(path))
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path!r} must hold a JSON object")
    return cfg


def _optional(obj: dict, key: str, default=None):
    """``obj[key]``, or ``default`` when the key is absent or null."""
    value = obj.get(key)
    return default if value is None else value


def _number(v, key: str):
    """A finite JSON number, returned as parsed (an int stays an int).

    The range test also rejects an int too large to become a float.
    """
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ValueError(f'"{key}" needs a finite number, got {json.dumps(v)}')
    return v


def _count(v, key: str) -> int:
    """A whole JSON number; an integral float such as ``1000.0`` reads as 1000."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f'"{key}" needs a whole number, got {json.dumps(v)}')
    return v


def _array(v, key: str) -> list:
    """A JSON array, as parsed."""
    if not isinstance(v, list):
        raise ValueError(f'"{key}" needs a JSON array, got {json.dumps(v)}')
    return v


def _numbers(v, key: str) -> tuple[float, ...]:
    """An array of finite numbers, as a tuple of floats."""
    return tuple([float(_number(x, key)) for x in _array(v, key)])


def vec_from_json(v, key: str = "vector") -> Vec:
    """An array of finite numbers, as a :class:`Vec`."""
    return Vec(_numbers(v, key))


def _complex(v, key: str) -> complex:
    """A complex scalar: a number, or a pair ``[re, im]`` of numbers."""
    if isinstance(v, list):
        if len(v) != 2:
            raise ValueError(f'"{key}" needs a number or [re, im], got {json.dumps(v)}')
        return complex(_number(v[0], key), _number(v[1], key))
    return complex(_number(v, key))


def _coordinates(inst: ConeMetric, raw, key: str):
    """A point's JSON form read as the metric's coordinates, not yet validated.

    Numbers for a real weighted, a plus or a discrete instance, complex
    scalars for a complex weighted one.  A discrete point could be any value,
    but every CLI map does arithmetic on it, so it is read as numbers too.
    """
    if isinstance(inst, WeightedConeMetric) and inst.field == "complex":
        return tuple([_complex(v, key) for v in _array(raw, key)])
    if isinstance(inst, PlusConeMetric):
        return vec_from_json(raw, key)
    return _numbers(raw, key)


def parse_point(inst: ConeMetric, raw, key: str = "point"):
    """Point from its JSON form, per metric, validated by the metric."""
    return inst.validate_point(_coordinates(inst, raw, key))


def point_to_json(inst: ConeMetric, p):
    if isinstance(inst, WeightedConeMetric) and inst.field == "complex":
        return [[c.real, c.imag] for c in p]
    return list(p)


def instance_from_json(obj) -> ConeMetric:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError('metric instance needs a "kind" field')
    kind = obj["kind"]
    if kind in ("weighted", "weighted_norm"):
        if "alpha" not in obj:
            raise ValueError('weighted instance needs an "alpha" weight list')
        return WeightedConeMetric(_numbers(obj["alpha"], "alpha"), _optional(obj, "field", "real"))
    if kind == "discrete":
        if "a" not in obj:
            raise ValueError('discrete instance needs an "a" distance vector')
        return DiscreteConeMetric(vec_from_json(obj["a"], "a"))
    if kind in ("plus", "plus_metric"):
        if "n" not in obj:
            raise ValueError('plus instance needs a dimension "n"')
        return PlusConeMetric(_count(obj["n"], "n"))
    raise ValueError(f"unknown metric kind {kind!r}")


def _polynomial(raw) -> Polynomial:
    """Polynomial from its complex coefficients, constant term first."""
    return Polynomial([_complex(v, "coefficients") for v in _array(raw, "coefficients")])


def _run_settings(cfg: dict, args, max_iter: int) -> tuple:
    """``(stop_c, max_iter, lam)`` shared by ``picard`` and ``roots``.

    ``--stop-c`` and ``--max-iter`` override the config keys; a null
    ``--stop-c`` is an error, not an absent flag.  An absent ``stop_c`` or
    ``lambda`` reads as None; ``max_iter`` is the default.
    """
    if args.stop_c is not None:
        stop_c = vec_from_json(_loads(args.stop_c, "--stop-c"), "--stop-c")
    else:
        stop = _optional(cfg, "stop_c")
        stop_c = None if stop is None else vec_from_json(stop, "stop_c")
    if args.max_iter is not None:
        max_iter = args.max_iter
    else:
        max_iter = _count(_optional(cfg, "max_iter", max_iter), "max_iter")
    lam = _optional(cfg, "lambda")
    return (
        stop_c,
        max_iter,
        None if lam is None else _number(lam, "lambda"),
    )


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _out_dir(args) -> Path:
    out = args.out or "."
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot use output directory {out!r}: {exc.strerror}") from exc
    return Path(out)


def _affine_map(matrix, offset, x0):
    rows = [_numbers(row, "matrix") for row in _array(matrix, "matrix")]
    c = _numbers(offset, "offset")
    n = len(c)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("affine map needs a square matrix matching the offset length")
    if len(x0) > n:
        raise ValueError(f'"x0" has {len(x0)} coordinates, but the affine "matrix" is {n}x{n}')
    if len(x0) < n:
        # The image would not fit the point; worded as a metric rejects it.
        raise ValueError(f"point has {n} coordinates, expected {len(x0)}")

    def apply(x):
        return tuple([sum(map(mul, row, x)) + ci for row, ci in zip(rows, c)])

    return apply


def _map_from_config(spec: dict, inst: ConeMetric, x0):
    if not isinstance(spec, dict) or "name" not in spec:
        raise ValueError('map config needs a "name" field')
    name = spec["name"]
    if name == "halve":
        return lambda x: tuple(c / 2 for c in x)
    if name == "affine":
        if "matrix" not in spec or "offset" not in spec:
            raise ValueError('affine map needs "matrix" and "offset"')
        return _affine_map(spec["matrix"], spec["offset"], x0)
    if name == "weierstrass":
        if "coefficients" not in spec:
            raise ValueError('weierstrass map needs "coefficients"')
        poly = _polynomial(spec["coefficients"])
        # Its iterates are complex, which only a complex weighted metric measures.
        if not (isinstance(inst, WeightedConeMetric) and inst.field == "complex"):
            raise ValueError("weierstrass map needs a complex weighted metric")
        if len(x0) != poly.degree:
            raise ValueError(
                f'"x0" has {len(x0)} approximations, but the weierstrass "coefficients" '
                f"have degree {poly.degree}"
            )
        return weierstrass_map(poly)
    raise ValueError(f"unknown map {name!r}")


def _problem_from_config(cfg: dict, args) -> Problem:
    for key in ("map", "metric", "x0"):
        if key not in cfg:
            raise ValueError(f'problem config needs a "{key}" field')
    inst = instance_from_json(cfg["metric"])
    # Checked against the metric before anything of its dimension is built.
    x0 = parse_point(inst, cfg["x0"], "x0")
    n = inst.dim
    base = _optional(cfg, "gauge_base")
    base = Vec.ones(n) if base is None else vec_from_json(base, "gauge_base")
    gauge = GaugeNorm(SpaceSpec(n, base))
    stop_c, max_iter, lam = _run_settings(cfg, args, max_iter=200)
    domain = _optional(cfg, "domain")
    if domain is not None:
        if not isinstance(domain, dict) or "center" not in domain or "radius" not in domain:
            raise ValueError('domain needs "center" and "radius"')
        # Problem validates the center and checks both lengths.
        domain = Ball(
            center=_coordinates(inst, domain["center"], "center"),
            radius=vec_from_json(domain["radius"], "radius"),
            closed=True,
        )
    return Problem(
        map_fn=_map_from_config(cfg["map"], inst, x0),
        x0=x0,
        metric=inst,
        gauge=gauge,
        stop_c=Vec((1e-10,) * n) if stop_c is None else stop_c,
        max_iter=max_iter,
        lam=lam,
        domain=domain,
    )


def cmd_axioms(args) -> int:
    # Imported here, not at module top: ``axioms`` keeps its dataclasses, and
    # ``dataclasses`` with the ``inspect`` it loads would triple the time
    # ``import conecert.cli`` takes.
    from .axioms import report_dict, run_all

    results = run_all(seed=args.seed, samples=args.samples)
    report = report_dict(results, seed=args.seed, samples=args.samples)
    out = _out_dir(args)
    _write_json(out / "report.json", report)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.checks} checks)")
    return EXIT_OK


def cmd_gauge(args) -> int:
    cfg = _load_config(args)
    for key in ("x", "base"):
        if key not in cfg:
            raise ValueError(f'gauge config needs an "{key}" array')
    x = vec_from_json(cfg["x"], "x")
    g = GaugeNorm(SpaceSpec(len(x), vec_from_json(cfg["base"], "base")))
    out = _out_dir(args) if args.out else None
    value = mink_norm(x, g)
    print(format(value, ".17g"))
    if out is not None:
        _write_json(out / "report.json", {"norm": value})
    return EXIT_OK


def _write_run(out: Path, result: PicardResult, metric: ConeMetric) -> None:
    """``trace.csv`` and ``certificate.json`` of an engine run, ``roots`` included."""
    with open(out / "trace.csv", "w", newline="") as fh:
        write_trace_csv(fh, result.trace, metric)
    point = result.fixed_point
    payload = {
        "converged": result.converged,
        "halt": result.halt,
        "iterations": len(result.trace.iterates) - 1,
        "certificate": certificate_to_dict(result.certificate),
        "fixed_point": None if point is None else point_to_json(metric, point),
        "schema": CERT_SCHEMA,
    }
    _write_json(out / "certificate.json", payload)


def cmd_picard(args) -> int:
    cfg = _load_config(args)
    problem = _problem_from_config(cfg, args)
    # A Weierstrass run halts at its noise floor, as it does under ``roots``.
    stalled = noise_floor(problem) if cfg["map"]["name"] == "weierstrass" else None
    result = run_picard(problem, stalled=stalled)
    _write_run(_out_dir(args), result, problem.metric)
    if result.halt == "domain_escape":
        print(f"iterate {len(result.trace.iterates) - 1} left the domain", file=sys.stderr)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_roots(args) -> int:
    cfg = _load_config(args)
    if "coefficients" not in cfg:
        raise ValueError('roots config needs a "coefficients" array')
    poly = _polynomial(cfg["coefficients"])
    if poly.degree > MAX_CLI_DEGREE:
        raise ValueError(f"degree {poly.degree} exceeds the CLI cap of {MAX_CLI_DEGREE}")
    weights = _optional(cfg, "weights")
    weights = (1.0,) * poly.degree if weights is None else _numbers(weights, "weights")
    if len(weights) != poly.degree:
        raise ValueError(
            f'"weights" needs one entry per root of the degree-{poly.degree} polynomial, '
            f"got {len(weights)}"
        )
    metric = WeightedConeMetric(weights, field="complex")
    z0 = _optional(cfg, "z0")
    if z0 is not None:
        z0 = parse_point(metric, z0, "z0")
    stop_c, max_iter, lam = _run_settings(cfg, args, max_iter=100)
    result = solve_roots(
        poly, z0=z0, weights=metric.alpha, stop_c=stop_c, max_iter=max_iter, lam=lam
    )
    out = _out_dir(args)
    _write_run(out, result, metric)
    _write_json(
        out / "report.json",
        {
            "converged": result.converged,
            "halt": result.halt,
            "roots": None if result.roots is None else point_to_json(metric, result.roots),
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
    rows = normality_table(n_max=50 if args.samples is None else args.samples)
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


_COMMANDS = (
    ("axioms", "run the seeded axiom suites"),
    ("gauge", "print the gauge of a vector"),
    ("picard", "iterate a configured map and certify the run"),
    ("roots", "refine all roots of a polynomial simultaneously"),
    ("demo-normality", "tabulate the sandwiched C^1 pair"),
)


def _handler(command: str):
    # Looked up on every call, so a rebound ``cmd_*`` is the one that runs.
    return {
        "axioms": cmd_axioms,
        "gauge": cmd_gauge,
        "picard": cmd_picard,
        "roots": cmd_roots,
        "demo-normality": cmd_demo_normality,
    }[command]


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser; ``args.command`` names the subcommand."""
    parser = argparse.ArgumentParser(
        prog="conecert",
        description="Fixed-point iteration with componentwise certificates over cone metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a JSON config file")
        p.add_argument("--out", help="output directory (default: current)")
        p.add_argument("--seed", type=int, default=0, help="root seed for sampled suites")
        p.add_argument("--samples", type=int, default=None, help="sample count override")
        p.add_argument("--max-iter", type=int, default=None, help="iteration cap override")
        p.add_argument("--stop-c", default=None, help="halting vector as a JSON array")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first main() call, not at import, and reused afterwards:
    # parse_args leaves a parser unchanged, and building one costs about a
    # millisecond.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its message; a usage error is an input error,
        # while --help exits 0 as before.
        if not exc.code:
            raise
        return EXIT_INPUT
    if args.samples is None and args.command == "axioms":
        args.samples = 1000
    try:
        return _handler(args.command)(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
