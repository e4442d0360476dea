"""Per-layer micro-benchmarks: ``Vec``, the order predicates, metric distance.

One row per operation and size n in {2, 50, 200}.  This directory is not in
the suite's ``testpaths``, so a plain ``pytest`` never collects it.  Run it
from the repository root with pytest-benchmark:

    python3 -m pytest benchmarks/test_layers.py -q \
        --benchmark-columns=median,iqr,rounds --benchmark-sort=name

The inputs use only the public API, so the same file times any checkout.
Coordinates are small dyadic values, so every operation below is exact and
the timings measure the Python layer, not rounding.
"""

import pytest

from conecert.metrics import WeightedConeMetric
from conecert.solid import Vec, leq, lt

SIZES = (2, 50, 200)


def coords(n, shift=0.0):
    return [(k % 17) / 8 + shift for k in range(n)]


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
def test_validate_point(benchmark, field, n):
    inst = WeightedConeMetric([1.0] * n, field=field)
    x, _ = points(field, n)
    benchmark(inst.validate_point, x)
