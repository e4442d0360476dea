"""Exact references the benchmark checks answers against, outside any timed region.

Affine fixed points are rational, so they are computed with
``fractions.Fraction`` and every emitted bound is compared with the exact
error, not with a float estimate of it.  Root references are seeded
Gaussian-integer roots of polynomials whose integer coefficients are exactly
representable in binary64, so they are exact too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence


@dataclass
class Verdict:
    """What the oracle concluded about one unit of work.

    ``failed`` marks an answer the program must never give: a wrong value,
    an unexpected exception or exit code, non-deterministic artifacts.
    ``defect`` names a known defect of the program that the unit showed; it
    is tolerated (the benchmark still reports a correct run) but the unit no
    longer counts as ok.  ``claims`` holds one (sound, bound / error) pair
    per checked coordinate bound; ``statements`` holds claims that are plain
    true/false statements, such as an axiom suite's pass flag.
    """

    failed: Optional[str] = None
    defect: Optional[str] = None
    claims: list = field(default_factory=list)
    statements: list = field(default_factory=list)
    lambda_given: bool = False
    certified: bool = False
    artifact_bytes: int = 0
    trace_csv_bytes: int = 0

    @property
    def ok(self) -> bool:
        return self.failed is None and self.defect is None


def exact_diagonal_fixed_point(diag: Sequence[float], offset: Sequence[float]) -> list[Fraction]:
    """Fixed point o_i / (1 - l_i) of x -> l*x + o, coordinate by coordinate."""
    return [Fraction(o) / (1 - Fraction(l)) for l, o in zip(diag, offset)]


def exact_affine_fixed_point(matrix: Sequence[Sequence[float]], offset: Sequence[float]) -> list[Fraction]:
    """Solution of (I - A) x = o in exact rational arithmetic.

    Fraction-free (Bareiss) elimination on the integer matrix obtained by
    scaling each row by the common denominator of its binary64 entries;
    intermediate entries never grow beyond the size of a minor.
    """
    n = len(offset)
    rows = []
    for i in range(n):
        row = [(1 if i == j else 0) - Fraction(matrix[i][j]) for j in range(n)]
        row.append(Fraction(offset[i]))
        scale = math.lcm(*(v.denominator for v in row))
        rows.append([int(v * scale) for v in row])
    prev = 1
    for k in range(n):
        pivot = next(i for i in range(k, n) if rows[i][k] != 0)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(rows[i][n]) - sum(rows[i][j] * x[j] for j in range(i + 1, n))
        x[i] = acc / rows[i][i]
    return x


def real_claims(point: Sequence[float], exact: Sequence[Fraction], bound: Sequence[float]) -> list:
    """(sound, bound / error) per coordinate of a real point against its exact value.

    Soundness is decided exactly; the ratio floors the error at one ulp of
    the reference so that exact answers do not divide by zero.
    """
    out = []
    for x, e, b in zip(point, exact, bound):
        err = abs(Fraction(x) - e)
        floor = math.ulp(float(e))
        out.append((Fraction(b) >= err, b / max(float(err), floor)))
    return out


def complex_claims(point: Sequence[complex], exact: Sequence[complex], bound: Sequence[float]) -> list:
    """Same as :func:`real_claims` for complex coordinates.

    The modulus is compared through its square, so no square root rounds.
    """
    out = []
    for z, r, b in zip(point, exact, bound):
        dr = Fraction(z.real) - Fraction(r.real)
        di = Fraction(z.imag) - Fraction(r.imag)
        err_sq = dr * dr + di * di
        floor = math.ulp(abs(r))
        out.append((Fraction(b) ** 2 >= err_sq, b / max(math.sqrt(err_sq), floor)))
    return out


def within(point: Sequence, exact: Sequence, rel_tol: float) -> bool:
    """Every coordinate within rel_tol * max(1, |exact|) of its reference."""
    return all(
        abs(complex(x) - complex(e)) <= rel_tol * max(1.0, abs(complex(e)))
        for x, e in zip(point, exact)
    )


def match_roots(found: Sequence[complex], reference: Sequence[complex]) -> list[complex]:
    """Reference roots reordered to pair greedily with the found ones.

    Pairs are taken closest first; each reference root is used once.
    """
    pairs = sorted(
        (abs(z - r), i, j) for i, z in enumerate(found) for j, r in enumerate(reference)
    )
    out: list = [None] * len(found)
    used = set()
    for _, i, j in pairs:
        if out[i] is None and j not in used:
            out[i] = reference[j]
            used.add(j)
    return out


def tightest(*bounds: Sequence[float]) -> list[float]:
    """Coordinatewise minimum of several bound vectors for the same point."""
    return [min(cs) for cs in zip(*bounds)]


def poly_from_roots(roots: Sequence[complex]) -> list[complex]:
    """Monic coefficients, constant term first, of prod (z - r) in exact integers.

    Roots must be Gaussian integers; raises if a coefficient would not be
    exactly representable, so the reference roots stay exact roots of the
    float polynomial the program receives.
    """
    coeffs = [(1, 0)]
    for r in roots:
        a, b = int(r.real), int(r.imag)
        new = [(0, 0)] * (len(coeffs) + 1)
        for i, (cr, ci) in enumerate(coeffs):
            nr, ni = new[i + 1]
            new[i + 1] = (nr + cr, ni + ci)
            nr, ni = new[i]
            new[i] = (nr - (a * cr - b * ci), ni - (a * ci + b * cr))
        coeffs = new
    if any(abs(c) >= 2**53 for pair in coeffs for c in pair):
        raise ValueError("coefficient not exactly representable")
    return [complex(cr, ci) for cr, ci in coeffs]
