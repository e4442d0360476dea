"""Order-sandwiched C^1 curves whose C^1 norms refuse to follow.

Tabulates x_n(t) = t^n / n against y_n(t) = 1/n on a uniform grid of [0, 1]:
x_n sits between 0 and y_n pointwise at every grid node, yet in the norm
sup|f| + sup|f'| the dominating sequence vanishes while the dominated one
tends to 1.  This is the standard witness that a pointwise order on C^1
admits no constant that turns order domination into norm domination.
"""

from __future__ import annotations

__all__ = ["normality_table"]


def normality_table(n_max: int = 50, grid_points: int = 1001) -> list[dict]:
    """Per-n grid suprema and C^1 norms of the sandwiched pair."""
    if n_max < 1 or grid_points < 2:
        raise ValueError("need n_max >= 1 and at least two grid points")
    ts = [i / (grid_points - 1) for i in range(grid_points)]
    rows = []
    dxs = [1.0] * grid_points  # x_1' = t**0
    for n in range(1, n_max + 1):
        pows = [t**n for t in ts]
        y = 1.0 / n  # y_n is constant, so its C^1 norm is its value
        # Every t is >= 0, so every power is, and rounded division by n > 0
        # is monotone: the largest t**n / n is max(t**n) / n, bit for bit.
        sup_x = max(pows) / n
        sup_dx = max(dxs)
        norm_x = sup_x + sup_dx
        # The powers hold no NaN, so this is 0 <= x <= y at every node.
        order_ok = min(pows) >= 0.0 and sup_x <= y
        rows.append(
            {
                "n": n,
                "sup_x": sup_x,
                "sup_dx": sup_dx,
                "c1_norm_x": norm_x,
                "c1_norm_y": y,
                "order_ok": order_ok,
            }
        )
        dxs = pows  # x_{n+1}' = t**n
    return rows
