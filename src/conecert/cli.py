"""Command line front door: JSON config in, CSV/JSON artifacts out.

Subcommands: axioms, gauge, picard, roots, demo-normality.  Exit codes:
0 on success or convergence (a ``roots`` run, or a ``picard`` run of the
``weierstrass`` map, that halts at its noise floor has converged), 2 when
an iteration fails to converge, escapes its domain or overflows (an iterate,
a Weierstrass sweep that divides by zero, or a certificate's radius or final
bound), 1 on any input error: a usage error, or a ``weierstrass`` start
(``roots``' ``z0``, ``picard``'s ``x0``) with two equal entries, among
others, or an artifact that cannot be written (the error names its path,
and a ``picard`` or ``roots`` run then leaves none of its artifacts).
``picard`` and ``roots`` write ``trace.csv`` and
``certificate.json`` for every run through one writer, so both files have
one layout; ``certificate.json`` and ``roots``' ``report.json`` name the
halt cause: ``stop_c``, ``noise_floor``, ``max_iter``, ``overflow`` or
``domain_escape``.
``--out`` is created after the run, so an input error leaves none behind.
Every ``certificate.json`` carries ``"schema": 5``: its bound families hold
only their final entries, and ``trace.csv`` holds the orbit alone, one row
per iterate.  Step k is d(x_k, x_{k+1}) under the config's metric, read from
rows k and k + 1, and every other entry of a family is a closed form of
``lambda_used`` and those steps.  All runs are single-threaded and all
emitted files are byte-identical for identical config and seed.

Importing this module (or the package) loads neither ``dataclasses`` nor
``inspect``: the package's record types are plain slotted classes whose
constructors ``solid._Record`` builds from ``__slots__``, and ``cmd_axioms``
imports ``axioms``, whose two dataclasses stay, when it runs.  Nor does it
load ``csv``: no cell of ``trace.csv`` or ``report.csv`` needs quoting, so
each row is one ``%`` template.  Nor ``argparse`` and the ``gettext`` it
imports: ``_parse_args`` reads the command line from ``_COMMANDS``.

This module is the only one that knows the config format.  Each JSON value
kind has one reader here, and every config value passes through one of them:
a number is a finite JSON number, never a string or a boolean; a count
(``max_iter``, a ``plus`` metric's ``n``) is a whole number (``1000.0`` reads
as 1000); a complex scalar is a number or ``[re, im]``; NaN and Infinity
are rejected; an optional key set to null reads like an absent key, and a
required key that is absent, or whose object is not a JSON object, is an
error of one form: ``metric needs "kind"``.  The config is the one way to
set a run: no flag overrides a key.  The library checks that values fit
one another, for library callers too: ``Problem`` asks the map whether
``x0`` fits it, and ``solve_roots`` checks ``weights`` and ``z0``.

Each subcommand takes ``--config`` and ``--out``, and only the other flags
it reads: ``axioms`` takes ``--seed`` and ``--samples``, ``demo-normality``
takes ``--samples``.  ``_COMMANDS`` lists them with their defaults, so a new
flag is one entry there.  A flag is given as ``--flag value`` or
``--flag=value``, spelled out in full; a usage error prints argparse's usage
line and message to stderr and exits 1.

This module defines no map.  ``_map_from_config`` reads a map's keys and
constructs a record: ``maps.Halve``, ``maps.Affine`` or
``roots.Weierstrass``.  It refuses one pairing, a ``weierstrass`` map under
a metric that is not complex weighted, whose points the writers cannot put
into JSON or CSV.  So two problems built from one config compare, hash,
pickle and run alike: ``picard`` has no case of its own for a
``Weierstrass``, which owns its noise floor.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path
from types import SimpleNamespace

from .gauge import GaugeNorm, mink_norm
from .maps import Affine, Halve
from .metrics import (
    Ball,
    ConeMetric,
    DiscreteConeMetric,
    PlusConeMetric,
    WeightedConeMetric,
)
from .normality import normality_table
from .picard import PicardResult, Problem, certificate_to_dict, run_picard, write_trace_csv
from .roots import Polynomial, Weierstrass, solve_roots
from .solid import SpaceSpec, Vec

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2

# Version of the certificate.json layout.
CERT_SCHEMA = 5

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


def _required(obj, key: str, what: str):
    """``obj[key]``; ``what`` names ``obj`` in the error when it is not a
    JSON object or lacks the key."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f'{what} needs "{key}"')
    return obj[key]


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
    return _numbers(raw, key)


def parse_point(inst: ConeMetric, raw, key: str = "point"):
    """Point from its JSON form, per metric, validated by the metric."""
    return inst.validate_point(_coordinates(inst, raw, key))


def point_to_json(inst: ConeMetric, p):
    if isinstance(inst, WeightedConeMetric) and inst.field == "complex":
        return [[c.real, c.imag] for c in p]
    return list(p)


def instance_from_json(obj) -> ConeMetric:
    kind = _required(obj, "kind", "metric")
    if kind in ("weighted", "weighted_norm"):
        alpha = _numbers(_required(obj, "alpha", "weighted metric"), "alpha")
        return WeightedConeMetric(alpha, _optional(obj, "field", "real"))
    if kind == "discrete":
        return DiscreteConeMetric(vec_from_json(_required(obj, "a", "discrete metric"), "a"))
    if kind in ("plus", "plus_metric"):
        return PlusConeMetric(_count(_required(obj, "n", "plus metric"), "n"))
    raise ValueError(f"unknown metric kind {kind!r}")


def _polynomial(raw) -> Polynomial:
    """Polynomial from its complex coefficients, constant term first, of degree
    at most ``MAX_CLI_DEGREE``."""
    poly = Polynomial([_complex(v, "coefficients") for v in _array(raw, "coefficients")])
    if poly.degree > MAX_CLI_DEGREE:
        raise ValueError(f"degree {poly.degree} exceeds the CLI cap of {MAX_CLI_DEGREE}")
    return poly


def _run_settings(cfg: dict, max_iter: int) -> tuple:
    """``(stop_c, max_iter, lam)`` shared by ``picard`` and ``roots``.

    An absent ``stop_c`` or ``lambda`` reads as None; ``max_iter`` is the
    default.
    """
    stop_c = _optional(cfg, "stop_c")
    lam = _optional(cfg, "lambda")
    return (
        None if stop_c is None else vec_from_json(stop_c, "stop_c"),
        _count(_optional(cfg, "max_iter", max_iter), "max_iter"),
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


def _map_from_config(spec: dict, inst: ConeMetric):
    """The configured map, built once its keys are read; ``Problem`` checks ``x0`` against it."""
    name = _required(spec, "name", "map")
    if name == "halve":
        return Halve()
    if name == "affine":
        matrix = _array(_required(spec, "matrix", "affine map"), "matrix")
        rows = [_numbers(row, "matrix") for row in matrix]
        return Affine(rows, _numbers(_required(spec, "offset", "affine map"), "offset"))
    if name == "weierstrass":
        poly = _polynomial(_required(spec, "coefficients", "weierstrass map"))
        # The writers put complex points into JSON and CSV under this metric alone.
        if not (isinstance(inst, WeightedConeMetric) and inst.field == "complex"):
            raise ValueError("weierstrass map needs a complex weighted metric")
        return Weierstrass(poly)
    raise ValueError(f"unknown map {name!r}")


def _problem_from_config(cfg: dict) -> Problem:
    map_cfg, metric, x0 = [_required(cfg, key, "picard config") for key in ("map", "metric", "x0")]
    inst = instance_from_json(metric)
    # Checked against the metric before anything of its dimension is built.
    x0 = parse_point(inst, x0, "x0")
    n = inst.dim
    base = _optional(cfg, "gauge_base")
    base = Vec.ones(n) if base is None else vec_from_json(base, "gauge_base")
    gauge = GaugeNorm(SpaceSpec(n, base))
    stop_c, max_iter, lam = _run_settings(cfg, max_iter=200)
    domain = _optional(cfg, "domain")
    if domain is not None:
        # Problem validates the center and checks both lengths.
        domain = Ball(
            center=_coordinates(inst, _required(domain, "center", "domain"), "center"),
            radius=vec_from_json(_required(domain, "radius", "domain"), "radius"),
        )
    return Problem(
        map_fn=_map_from_config(map_cfg, inst),
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
    x = vec_from_json(_required(cfg, "x", "gauge config"), "x")
    g = GaugeNorm(SpaceSpec(len(x), vec_from_json(_required(cfg, "base", "gauge config"), "base")))
    value = mink_norm(x, g)
    if not math.isfinite(value):
        raise ValueError(f"the gauge of x is {value!r}: some |x_i| / base_i overflows")
    if args.out:
        _write_json(_out_dir(args) / "report.json", {"norm": value})
    print(format(value, ".17g"))
    return EXIT_OK


def _write_run(out: Path, result: PicardResult, report=None) -> None:
    """``trace.csv`` and ``certificate.json`` of an engine run, ``roots``
    included, then ``report.json`` holding ``report`` when one is given.

    An ``OSError`` removes every file opened so far before it propagates, so
    a run that cannot write one of its artifacts leaves none in ``out``.
    """
    point = result.fixed_point
    payloads = {
        "certificate.json": {
            "converged": result.converged,
            "halt": result.halt,
            "iterations": len(result.trace.iterates) - 1,
            "certificate": certificate_to_dict(result.certificate),
            "fixed_point": None if point is None else point_to_json(result.trace.metric, point),
            "schema": CERT_SCHEMA,
        },
    }
    if report is not None:
        payloads["report.json"] = report
    written = []
    try:
        path = out / "trace.csv"
        with open(path, "w", newline="") as fh:
            written.append(path)
            write_trace_csv(fh, result.trace)
        for name, payload in payloads.items():
            path = out / name
            with open(path, "w") as fh:
                written.append(path)
                fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def cmd_picard(args) -> int:
    cfg = _load_config(args)
    problem = _problem_from_config(cfg)
    result = run_picard(problem)
    _write_run(_out_dir(args), result)
    if result.halt == "domain_escape":
        print(f"iterate {len(result.trace.iterates) - 1} left the domain", file=sys.stderr)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_roots(args) -> int:
    cfg = _load_config(args)
    poly = _polynomial(_required(cfg, "coefficients", "roots config"))
    weights, z0 = _optional(cfg, "weights"), _optional(cfg, "z0")
    weights = None if weights is None else _numbers(weights, "weights")
    z0 = None if z0 is None else [_complex(v, "z0") for v in _array(z0, "z0")]
    stop_c, max_iter, lam = _run_settings(cfg, max_iter=100)
    # solve_roots checks the weights and the start: one of each per root,
    # the weights positive and the start's entries distinct.
    result = solve_roots(poly, z0=z0, weights=weights, stop_c=stop_c, max_iter=max_iter, lam=lam)
    comparison = result.report  # built on each read
    report = {
        "converged": result.converged,
        "halt": result.halt,
        "roots": None if result.roots is None else point_to_json(result.trace.metric, result.roots),
        "residuals": result.residuals,
        "comparison": {
            "rows": len(comparison.rows),
            "any_exceeded": comparison.any_exceeded,
            "strict_improvement_rows": comparison.strict_improvement_rows,
        },
    }
    _write_run(_out_dir(args), result, report)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_demo_normality(args) -> int:
    rows = normality_table(n_max=args.samples)
    out = _out_dir(args)
    # Written as write_trace_csv writes: no cell needs quoting, and '%.17g'
    # gives the bytes of format(v, ".17g").
    with open(out / "report.csv", "w", newline="") as fh:
        fh.write("n,sup_x,sup_dx,c1_norm_x,c1_norm_y,order_ok\n")
        for r in rows:
            fh.write(
                "%d,%.17g,%.17g,%.17g,%.17g,%d\n"
                % (r["n"], r["sup_x"], r["sup_dx"], r["c1_norm_x"], r["c1_norm_y"], r["order_ok"])
            )
    first, last = rows[0], rows[-1]
    print(
        f"n={first['n']}: |x|={first['c1_norm_x']:.6f} |y|={first['c1_norm_y']:.6f}; "
        f"n={last['n']}: |x|={last['c1_norm_x']:.6f} |y|={last['c1_norm_y']:.6f}"
    )
    return EXIT_OK


# Each subcommand's help, and the flags it reads besides --config and --out,
# as (flag, default, help); every such flag takes an int.  main() runs
# cmd_<name>, looked up at call time, so a rebound cmd_* is the one that runs.
_COMMANDS = {
    "axioms": (
        "run the seeded axiom suites",
        [("--seed", 0, "root seed of the suites"), ("--samples", 1000, "samples per suite")],
    ),
    "gauge": ("print the gauge of a vector", []),
    "picard": ("iterate a configured map and certify the run", []),
    "roots": ("refine all roots of a polynomial simultaneously", []),
    "demo-normality": ("tabulate the sandwiched C^1 pair", [("--samples", 50, "largest n tabulated")]),
}

# A word that starts with "-" is a flag unless it is a negative number.
_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")


def _flags(command: str) -> list:
    """``(flag, default, help)`` of every flag ``command`` takes."""
    return [
        ("--config", None, "path to a JSON config file"),
        ("--out", None, "output directory (default: current)"),
        *[(flag, default, f"{text} (default: {default})") for flag, default, text in _COMMANDS[command][1]],
    ]


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _usage(command) -> str:
    if command is None:
        return f"usage: conecert [-h] {{{','.join(_COMMANDS)}}} ...\n"
    flags = "".join(f" [{flag} {_dest(flag).upper()}]" for flag, _, _ in _flags(command))
    return f"usage: conecert {command} [-h]{flags}\n"


def _help(command) -> str:
    """``-h``'s text: the subcommands, or ``command``'s flags with their defaults."""
    options = [("-h, --help", "show this help message and exit")]
    if command is None:
        intro = "\nFixed-point iteration with componentwise certificates over cone metrics\n"
        sections = {"subcommands": [(name, text) for name, (text, _) in _COMMANDS.items()]}
    else:
        intro, sections = "", {}
        options += [(f"{flag} {_dest(flag).upper()}", text) for flag, _, text in _flags(command)]
    sections["options"] = options
    width = max(len(name) for rows in sections.values() for name, _ in rows) + 2
    return _usage(command) + intro + "".join(
        f"\n{title}:\n" + "".join(f"  {name:<{width}}{text}\n" for name, text in rows)
        for title, rows in sections.items()
    )


class _UsageError(Exception):
    """A refused command line; ``str()`` is the usage line and argparse's message."""

    def __init__(self, command, message: str):
        prog = "conecert" if command is None else f"conecert {command}"
        super().__init__(f"{_usage(command)}{prog}: error: {message}")


def _parse_args(argv: list) -> SimpleNamespace:
    """The subcommand and its flags, read from ``argv`` as argparse read them.

    ``--flag value`` and ``--flag=value``; a repeated flag keeps its last
    value, and a flag that is not spelled out in full is unrecognized.
    ``-h`` prints help and raises ``SystemExit(0)``.
    """
    if not argv:
        raise _UsageError(None, "the following arguments are required: command")
    command, *words = argv
    if command in ("-h", "--help"):
        print(_help(None), end="")
        raise SystemExit(0)
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise _UsageError(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    flags = {flag: default for flag, default, _ in _flags(command)}
    args = SimpleNamespace(command=command, **{_dest(flag): d for flag, d in flags.items()})
    unrecognized = []
    words = iter(words)
    for word in words:
        if word in ("-h", "--help"):
            print(_help(command), end="")
            raise SystemExit(0)
        flag, eq, value = word.partition("=")
        if flag not in flags:
            unrecognized.append(word)
            continue
        if not eq:
            value = next(words, None)
            if value is None or (value[:1] == "-" and value != "-" and not _NEGATIVE.match(value)):
                raise _UsageError(command, f"argument {flag}: expected one argument")
        if flags[flag] is not None:  # --config and --out alone default to None
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(command, f"argument {flag}: invalid int value: {value!r}") from None
        setattr(args, _dest(flag), value)
    if unrecognized:
        raise _UsageError(None, f"unrecognized arguments: {' '.join(unrecognized)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INPUT
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, OSError) as exc:  # an OSError names the artifact it could not write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
