"""Directed rounding for bounds: results rounded up (or down) past the exact value.

Each scalar operation is the round-to-nearest result moved one step with
:func:`math.nextafter`.  Round-to-nearest is off by at most half an ulp, so
one step toward the bound's side lands on or past the exact value, at most
two ulps from it.  Overflow stays on the safe side: a result that rounds to
``+inf`` stays ``inf`` when rounded up, and one that rounds to ``-inf``
comes back as ``-max``, which still lies above the exact value (rounding
down mirrors this).  Underflow does too: a product or quotient that rounds
to ``0.0`` or ``-0.0`` rounds up to the smallest subnormal.

Inputs are finite floats; :func:`div_up` by zero raises
``ZeroDivisionError`` as ``/`` does.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

__all__ = ["add_up", "sub_down", "mul_up", "div_up", "dot_up"]

_INF = math.inf
_MAX = sys.float_info.max


def add_up(a: float, b: float) -> float:
    """An upper bound on ``a + b``."""
    return math.nextafter(a + b, _INF)


def sub_down(a: float, b: float) -> float:
    """A lower bound on ``a - b``."""
    return math.nextafter(a - b, -_INF)


def mul_up(a: float, b: float) -> float:
    """An upper bound on ``a * b``."""
    return math.nextafter(a * b, _INF)


def div_up(a: float, b: float) -> float:
    """An upper bound on ``a / b``."""
    return math.nextafter(a / b, _INF)


def dot_up(xs: Sequence[float], ys: Sequence[float]) -> float:
    """An upper bound on ``sum(x * y)`` over the pairs of ``xs`` and ``ys``.

    A recursive float sum of ``n`` terms can be off by up to
    ``gamma_n * sum(|x y|)`` (Higham), far more than one ulp of the result,
    so the terms are not summed that way: each product is rounded up,
    :func:`math.fsum` rounds their exact sum to nearest, and one step up
    covers that rounding.  A term of ``inf`` gives ``inf``.  When a partial
    sum leaves the float range, ``fsum`` raises, and the terms are summed
    exactly as fractions instead.  Sequences of different lengths raise
    ``ValueError``.
    """
    if len(xs) != len(ys):
        raise ValueError(f"dot product of lengths {len(xs)} and {len(ys)}")
    terms = list(map(mul_up, xs, ys))
    try:
        total = math.fsum(terms)
    except OverflowError:
        if _INF in terms:
            return _INF
        # Rare, so the import is paid here and not by every importer.
        from fractions import Fraction

        exact = sum(map(Fraction, terms))
        if exact > _MAX:
            return _INF
        if exact < -_MAX:
            return -_MAX
        total = float(exact)
    return math.nextafter(total, _INF)
