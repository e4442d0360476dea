"""Componentwise versus broadcast-scalar error bounds on root refinement.

Runs the simultaneous root iteration on polynomials whose roots converge at
visibly different speeds and prints, per iteration of the contraction tail,
the componentwise forward bound next to the scalar bound broadcast through
the gauge base.  The componentwise column never exceeds the broadcast one;
on lopsided problems it is strictly smaller on the fast components.
"""

import argparse

from conecert.roots import Polynomial, solve_roots

CASES = [
    ("well separated cubic", Polynomial([-6.0, 11.0, -6.0, 1.0]), (1.1, 1.8, 3.3)),
    ("one slow root", Polynomial([-0.999, 2.999, -3.0, 1.0]), (0.8, 1.2, 1.5)),
    ("symmetric pair", Polynomial([-1.0, 0.0, 1.0]), (2.0, -2.0)),
]


def show(name, poly, z0):
    result = solve_roots(poly, z0=z0)
    print(f"\n== {name} (degree {poly.degree}) ==")
    if not result.converged:
        print("did not converge; no comparison emitted")
        return
    print(f"roots: {', '.join(format(z, '.12g') for z in result.roots)}")
    if result.lambda_used is None:
        print(f"halted at {result.halt} with no contracting tail; no comparison emitted")
        return
    print(f"tail starts at iteration {result.tail_start}, "
          f"estimated factor {result.lambda_used:.6g}")
    report = result.report  # built on each read
    print(f"{'iter':>4}  {'componentwise bound':<42} {'broadcast scalar':<20} better")
    for row in report.rows:
        comp = " ".join(format(c, ".3e") for c in row.componentwise.coords)
        mark = "yes" if row.strict_improvement else "no"
        print(f"{row.iteration:>4}  {comp:<42} {row.scalar_value:<20.3e} {mark}")
    improved = report.strict_improvement_rows
    print(f"rows with a strictly smaller component: {improved}/{len(report.rows)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--coefficients", type=float, nargs="+", default=None,
                        help="extra polynomial, constant term first")
    args = parser.parse_args()
    for name, poly, z0 in CASES:
        show(name, poly, z0)
    if args.coefficients:
        show("user polynomial", Polynomial(args.coefficients), None)


if __name__ == "__main__":
    main()
