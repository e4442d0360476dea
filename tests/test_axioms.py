import pytest

from conecert.axioms import DEFAULT_OPS, OrderOps, SUITES, report_dict, run_all
from conecert.solid import in_cone, in_interior, leq, lt


def run(samples=120, **kw):
    return run_all(seed=0, samples=samples, **kw)


class TestHealthySuites:
    def test_all_pass(self):
        results = run()
        failed = [r.name for r in results if not r.passed]
        assert failed == []
        assert len(results) == len(SUITES)
        assert all(r.checks == 120 for r in results)

    def test_deterministic_for_fixed_seed(self):
        a = report_dict(run(), seed=0, samples=120)
        b = report_dict(run(), seed=0, samples=120)
        assert a == b

    def test_scalarized_triangle_no_rounding_false_alarm(self):
        # At seed 5 the scalarized gauges reach ~1e4, where one rounding in
        # the triangle sum exceeds an absolute 1e-12 pad.
        failed = [r.name for r in run_all(seed=5, samples=1000) if not r.passed]
        assert failed == []

    def test_report_shape(self):
        report = report_dict(run(samples=5), seed=0, samples=5)
        assert report["all_passed"] is True
        assert report["seed"] == 0
        names = [s["name"] for s in report["suites"]]
        assert "antisymmetry" in names
        assert "gauge_triangle" in names
        assert len(names) == len(set(names))


class TestMutantDetection:
    def test_strict_order_mutant_fails_antisymmetry(self):
        # Substituting the strict comparison for the weak one kills
        # reflexivity and the equality direction of antisymmetry.
        mutant = OrderOps(leq=lt, lt=lt, in_cone=in_cone, in_interior=in_interior)
        results = {r.name: r for r in run(ops=mutant)}
        assert not results["reflexivity"].passed
        assert not results["antisymmetry"].passed
        assert results["antisymmetry"].counterexample is not None

    def test_interior_mutant_fails_correspondence(self):
        mutant = OrderOps(
            leq=lambda x, y: True,
            lt=lt,
            in_cone=in_cone,
            in_interior=in_interior,
        )
        results = {r.name: r for r in run(ops=mutant)}
        assert not results["correspondence_leq_cone"].passed

    def test_cone_mutant_fails_weak_correspondence(self):
        # x <= y iff y - x lies in the cone: an interior test for the cone
        # rejects the equal and boundary pairs the weak order accepts.
        mutant = OrderOps(leq=leq, lt=lt, in_cone=in_interior, in_interior=in_interior)
        results = {r.name: r for r in run(ops=mutant)}
        assert not results["correspondence_leq_cone"].passed

    def test_interior_mutant_fails_strict_correspondence(self):
        mutant = OrderOps(leq=leq, lt=lt, in_cone=in_cone, in_interior=in_cone)
        results = {r.name: r for r in run(ops=mutant)}
        assert not results["correspondence_lt_interior"].passed

    WEAK_TWINS = ["transitivity", "V5_scalar_monotone_pos", "V6_scalar_monotone_neg", "V7_addition"]
    STRICT_TWINS = ["S7_scalar_strict_pos", "S8_scalar_strict_neg", "S10_mixed_addition"]

    def test_reversed_weak_order_fails_only_the_weak_twins(self):
        mutant = OrderOps(
            leq=lambda x, y: leq(y, x), lt=lt, in_cone=in_cone, in_interior=in_interior
        )
        passed = {r.name: r.passed for r in run(ops=mutant)}
        assert [passed[name] for name in self.WEAK_TWINS] == [False] * 4
        assert [passed[name] for name in self.STRICT_TWINS] == [True] * 3

    def test_reversed_strict_order_fails_only_the_strict_twins(self):
        mutant = OrderOps(
            leq=leq, lt=lambda x, y: lt(y, x), in_cone=in_cone, in_interior=in_interior
        )
        passed = {r.name: r.passed for r in run(ops=mutant)}
        assert [passed[name] for name in self.STRICT_TWINS] == [False] * 3
        assert [passed[name] for name in self.WEAK_TWINS] == [True] * 4

    def test_counterexamples_are_json_safe(self):
        import json

        mutant = OrderOps(leq=lt, lt=lt, in_cone=in_cone, in_interior=in_interior)
        report = report_dict(run(ops=mutant), seed=0, samples=120)
        json.dumps(report)
        assert report["all_passed"] is False


class TestParameterValidation:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            run_all(dims=[])
        with pytest.raises(ValueError):
            run_all(dims=[0, 1])

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            run_all(samples=0)

    def test_single_dim_run(self):
        results = run_all(seed=3, samples=40, dims=[2])
        assert all(r.passed for r in results)
