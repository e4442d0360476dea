"""The lemma behind ``run_picard``'s overflow guard: a finite ``sum(xs)`` of
finite floats >= 0 is at least ``max(xs)``.

With a given factor, ``run_picard`` rules out an overflowing halting bound
with one product, ``sum(step) * factor``, and takes ``max(step) * factor``
only when that product is not finite.  That is exact only if a finite sum
times the factor makes the max times the factor finite, which the lemma
gives: rounded multiplication is monotone.  Up to Python 3.11 ``sum`` adds
floats naively; from 3.12 it uses Neumaier's compensated summation, so the
lemma is checked on every interpreter.

    PYTHONPATH=src python tests/sum_bound_check.py [CASES]

draws CASES seeded lists (20000 by default) built to be hard for the lemma:
subnormals, values a few ulps apart, terms of about a quarter of the largest
float whose sum may overflow, one large term next to many below half its
ulp, and values of any exponent.  On each it checks ``sum(xs) >= max(xs)``
and, for the halting factors of lambda 0.5, 0.9 and ``LAMBDA_CEILING``, that
a finite ``sum(xs) * factor`` comes with a finite ``max(xs) * factor``.  It
prints the number of cases and exits 1 on the first violation.  The script
needs only the standard library and the package.
"""

import math
import random
import sys

from conecert.picard import LAMBDA_CEILING, _backward_factor

FACTORS = tuple(_backward_factor(lam) for lam in (0.5, 0.9, LAMBDA_CEILING))
MAX = sys.float_info.max
TINY = 5e-324


def _subnormals(rng):
    return [rng.randrange(2**52) * TINY for _ in range(rng.randint(1, 30))]


def _ulps_apart(rng):
    x = math.ldexp(rng.random() + 0.5, rng.randint(-1074, 1023))
    xs = [x]
    for _ in range(rng.randint(1, 30)):
        xs.append(math.nextafter(xs[rng.randrange(len(xs))], math.inf))
    rng.shuffle(xs)
    return xs


def _quarters(rng):
    """Terms near MAX/4 scaled by one of the factors, so the sum times that
    factor lands on either side of overflow."""
    scale = rng.choice((1.0,) + FACTORS)
    quarter = MAX / 4 / scale
    xs = [math.nextafter(quarter, rng.choice((0.0, math.inf))) for _ in range(rng.randint(2, 8))]
    return xs + [rng.random() * quarter / 4 for _ in range(rng.randint(0, 3))]


def _large_among_tiny(rng):
    big = math.ldexp(rng.random() + 0.5, rng.randint(-1000, 1023))
    tiny = [big * math.ldexp(rng.random(), -55) for _ in range(rng.randint(1, 500))]
    tiny.insert(rng.randrange(len(tiny) + 1), big)
    return tiny


def _any_exponent(rng):
    return [math.ldexp(rng.random(), rng.randint(-1074, 1024)) for _ in range(rng.randint(1, 30))]


KINDS = (_subnormals, _ulps_apart, _quarters, _large_among_tiny, _any_exponent)


def cases(count: int, seed: int = 0):
    """``count`` lists of finite floats >= 0, each kind in turn."""
    rng = random.Random(seed)
    for k in range(count):
        xs = KINDS[k % len(KINDS)](rng)
        yield [x if math.isfinite(x) else MAX for x in xs]


def first_violation(count: int, seed: int = 0):
    """The first case that breaks the lemma or the guard, or None."""
    for xs in cases(count, seed):
        s, m = sum(xs), max(xs)
        if not s >= m:
            return xs
        for f in FACTORS:
            if math.isfinite(s * f) and not math.isfinite(m * f):
                return xs
    return None


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
    bad = first_violation(count)
    print(f"{count} cases, Python {sys.version.split()[0]}")
    if bad is not None:
        print(f"violation: sum {sum(bad)!r} max {max(bad)!r} of {bad!r}", file=sys.stderr)
        sys.exit(1)
