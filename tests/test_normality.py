import pytest

from conecert.normality import normality_table


class TestTable:
    def test_first_row_exact(self):
        row = normality_table(n_max=1)[0]
        assert row["c1_norm_x"] == 2.0  # sup t = 1, sup of constant slope 1
        assert row["c1_norm_y"] == 1.0
        assert row["order_ok"] is True

    def test_round_numbers_at_n_ten(self):
        row = normality_table(n_max=10)[9]
        assert row["c1_norm_x"] == pytest.approx(1.1, abs=1e-12)
        assert row["c1_norm_y"] == pytest.approx(0.1, abs=1e-12)

    def test_matches_analytic_norms(self):
        for row in normality_table(n_max=50):
            n = row["n"]
            assert row["sup_x"] == pytest.approx(1.0 / n, abs=1e-9)
            assert row["sup_dx"] == pytest.approx(1.0, abs=1e-9)
            assert row["c1_norm_x"] == pytest.approx(1.0 + 1.0 / n, abs=1e-9)
            assert row["c1_norm_y"] == pytest.approx(1.0 / n, abs=1e-9)

    def test_order_holds_while_norm_ratio_blows_up(self):
        rows = normality_table(n_max=50)
        assert all(r["order_ok"] for r in rows)
        ratios = [r["c1_norm_x"] / r["c1_norm_y"] for r in rows]
        # ratio is n + 1: strictly increasing and unbounded in n
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(51.0, abs=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            normality_table(n_max=0)
        with pytest.raises(ValueError):
            normality_table(grid_points=1)

    def test_grid_resolution_does_not_change_endpoint_suprema(self):
        coarse = normality_table(n_max=5, grid_points=11)
        fine = normality_table(n_max=5, grid_points=2001)
        for a, b in zip(coarse, fine):
            assert a["sup_x"] == b["sup_x"]  # attained at t = 1 exactly
            assert a["sup_dx"] == b["sup_dx"]


def reference_table(n_max, grid_points):
    """Every node's x_n, x_n' and y_n tabulated in full, then reduced."""
    ts = [i / (grid_points - 1) for i in range(grid_points)]
    rows = []
    for n in range(1, n_max + 1):
        xs = [t**n / n for t in ts]
        dxs = [t ** (n - 1) for t in ts]
        ys = [1.0 / n] * grid_points
        sup_x, sup_dx = max(map(abs, xs)), max(map(abs, dxs))
        rows.append(
            {
                "n": n,
                "sup_x": sup_x,
                "sup_dx": sup_dx,
                "c1_norm_x": sup_x + sup_dx,
                "c1_norm_y": max(map(abs, ys)),
                "order_ok": all(0.0 <= x <= y for x, y in zip(xs, ys)),
            }
        )
    return rows


@pytest.mark.parametrize("n_max, grid_points", [(1, 2), (7, 3), (60, 11), (200, 1000), (50, 1001)])
def test_matches_the_full_node_table_bit_for_bit(n_max, grid_points):
    """The table reduces powers once per row; the bits are those of the full per-node table."""
    fast, ref = normality_table(n_max, grid_points), reference_table(n_max, grid_points)
    assert [r["order_ok"] for r in fast] == [r["order_ok"] for r in ref]
    for key in ("sup_x", "sup_dx", "c1_norm_x", "c1_norm_y"):
        assert [r[key].hex() for r in fast] == [r[key].hex() for r in ref]
