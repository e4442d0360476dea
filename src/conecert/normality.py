"""Order-sandwiched C^1 curves whose C^1 norms refuse to follow.

Tabulates x_n(t) = t^n / n against y_n(t) = 1/n on a uniform grid of [0, 1]:
x_n sits between 0 and y_n pointwise at every grid node, yet in the norm
sup|f| + sup|f'| the dominating sequence vanishes while the dominated one
tends to 1.  This is the standard witness that a pointwise order on C^1
admits no constant that turns order domination into norm domination.
"""

from __future__ import annotations

from operator import le

__all__ = ["normality_table"]


def normality_table(n_max: int = 50, grid_points: int = 1001) -> list[dict]:
    """Per-n grid suprema and C^1 norms of the sandwiched pair."""
    if n_max < 1 or grid_points < 2:
        raise ValueError("need n_max >= 1 and at least two grid points")
    ts = [i / (grid_points - 1) for i in range(grid_points)]
    rows = []
    for n in range(1, n_max + 1):
        xs = [t**n / n for t in ts]
        dxs = [t ** (n - 1) for t in ts]
        ys = [1.0 / n] * grid_points
        sup_x = max(map(abs, xs))
        sup_dx = max(map(abs, dxs))
        norm_x = sup_x + sup_dx
        norm_y = max(map(abs, ys))  # derivative of a constant is zero
        # xs holds no NaN, so this is 0 <= x <= y at every node.
        order_ok = min(xs) >= 0.0 and all(map(le, xs, ys))
        rows.append(
            {
                "n": n,
                "sup_x": sup_x,
                "sup_dx": sup_dx,
                "c1_norm_x": norm_x,
                "c1_norm_y": norm_y,
                "order_ok": order_ok,
            }
        )
    return rows
