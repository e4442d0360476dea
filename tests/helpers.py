"""Shared test oracles and strategies, a ``trace.csv`` reader, a call counter,
and the other installed interpreters with a runner for the plain scripts in
this directory.

The oracles recompute expected values through a route independent of the
implementation under test: interval bisection against the raw order
predicates, brute-force tail sums, fraction arithmetic, greedy matching.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from conecert import roots
from conecert.gauge import GaugeNorm
from conecert.solid import SpaceSpec, Vec, bounding_scale, leq

# Dyadic grids keep every sum/product below exactly representable, so the
# algebraic properties under test are genuinely exact in binary64.
dyadic_coord = st.integers(-(2**14), 2**14).map(lambda k: k / 2**10)
dyadic_pos_coord = st.integers(1, 2**14).map(lambda k: k / 2**10)
dyadic_nonneg_coord = st.integers(0, 2**14).map(lambda k: k / 2**10)
dyadic_scalar = st.integers(-(2**12), 2**12).map(lambda k: k / 2**8)
dyadic_pos_scalar = st.integers(1, 2**12).map(lambda k: k / 2**8)
dyadic_nonneg_scalar = st.integers(0, 2**12).map(lambda k: k / 2**8)

# Gauge bases stay in [1/16, 16]: the bisection bracket is then at most a
# few hundred, so 50 halvings resolve the gauge to ~2e-13, comfortably
# inside the 1e-12 comparisons the oracle tests make.
dyadic_base_coord = st.integers(2**6, 2**14).map(lambda k: k / 2**10)

dims = st.integers(1, 8)


def vec_st(n, coord=dyadic_coord):
    return st.lists(coord, min_size=n, max_size=n).map(Vec)


@st.composite
def sized_vecs(draw, count=1, coord=dyadic_coord):
    n = draw(dims)
    return tuple(draw(vec_st(n, coord)) for _ in range(count))


@st.composite
def vec_with_gauge(draw, coord=dyadic_coord):
    n = draw(dims)
    x = draw(vec_st(n, coord))
    g = GaugeNorm(SpaceSpec(n, draw(vec_st(n, dyadic_base_coord))))
    return x, g


def bisect_gauge(x: Vec, g: GaugeNorm, iterations: int = 50) -> float:
    """Gauge of x by pure interval bisection on the containment predicate.

    Uses only the order predicate and the bounding-scale witness for the
    upper bracket; 50 halvings pin the value far below 1e-12 for the
    magnitudes the tests sample.
    """
    b = g.spec.base

    def contained(lam: float) -> bool:
        scaled = lam * b
        return leq(-scaled, x) and leq(x, scaled)

    lo = 0.0
    if contained(lo):
        return 0.0
    hi = bounding_scale([x], g.spec)
    assert contained(hi)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if contained(mid):
            hi = mid
        else:
            lo = mid
    return hi


def geometric_tail(lam: Fraction, d01: Vec, n: int, terms: int = 400) -> Vec:
    """Brute-force tail sum of the geometric step bounds, in exact fractions."""
    total = [Fraction(0)] * len(d01)
    coords = [Fraction(c) for c in d01.coords]
    for j in range(n, n + terms):
        w = lam**j
        for i, c in enumerate(coords):
            total[i] += w * c
    # Closing the tail analytically keeps the oracle independent of where we cut.
    closing = lam ** (n + terms) / (1 - lam)
    return Vec(float(t + closing * c) for t, c in zip(total, coords))


def greedy_match(approx, targets) -> list[int]:
    """Nearest-target assignment: index into ``targets`` for each approximation."""
    remaining = list(range(len(targets)))
    out = []
    for z in approx:
        best = min(remaining, key=lambda j: abs(z - targets[j]))
        remaining.remove(best)
        out.append(best)
    return out


def poly_from_roots(roots) -> list[complex]:
    """Coefficients, constant term first, of the monic polynomial with ``roots``.

    Small Gaussian-integer roots give Gaussian-integer coefficients that
    binary64 holds exactly.
    """
    coeffs = [1 + 0j]
    for r in roots:
        coeffs = [0j, *coeffs]
        for k in range(len(coeffs) - 1):
            coeffs[k] -= r * coeffs[k + 1]
    return coeffs


def trace_csv_points(text: str) -> list[tuple]:
    """The iterates of a ``trace.csv``, one tuple per row, read back from
    the cells: each row holds the iterate number and the point, a complex
    coordinate as its ``_re`` and ``_im`` cells, and so as many cells as
    the header names."""
    header, *rows = [line.split(",") for line in text.splitlines()]
    assert header[0] == "iter" and all(len(row) == len(header) for row in rows)
    assert [int(row[0]) for row in rows] == list(range(len(rows)))
    points = [tuple(map(float, row[1:])) for row in rows]
    if header[1].endswith("_re"):
        points = [tuple(map(complex, x[::2], x[1::2])) for x in points]
    return points


def count_compare_bounds(monkeypatch) -> list:
    """Rebind ``roots.compare_bounds`` so each call appends its arguments to
    the returned list, and still returns the real report."""
    calls = []
    real = roots.compare_bounds

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(roots, "compare_bounds", counted)
    return calls


def other_pythons() -> list:
    """Interpreters of Python 3.10 or later installed next to the running one,
    in pyenv's layout: ``<versions>/<X.Y.Z>/bin/python3``, one pytest param
    each, with the version as its id."""
    found = []
    for home in sorted(Path(sys.base_prefix).parent.iterdir()):
        try:
            version = tuple(map(int, home.name.split(".")))
        except ValueError:
            continue
        exe = home / "bin" / "python3"
        if version >= (3, 10) and home != Path(sys.base_prefix) and exe.is_file():
            found.append(pytest.param(exe, id=home.name))
    return found


def run_script(python, name: str) -> subprocess.CompletedProcess:
    """Run ``tests/<name>`` as a plain script under ``python``, with this
    checkout's ``src`` on its path."""
    root = Path(__file__).resolve().parents[1]
    return subprocess.run(
        [str(python), str(root / "tests" / name)],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
