"""Integration tests for the experiment runners (tiny configurations)."""

import pytest

from repro.bench import experiments as exp


TINY = ["FTB"]
SMALL_PAIR = ["Swallow", "Tortoise"]
KS = (3, 4)


class TestTable1:
    def test_runs_and_reports(self):
        result = exp.run_table1(names=TINY, ks=KS)
        assert result.name == "table1"
        assert "FTB" in result.text
        assert result.data["FTB"]["n"] == 115
        assert result.data["FTB"]["k3"] == 424


class TestStaticSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return exp.run_static_sweep(names=TINY, ks=KS, time_budget=20)

    def test_grid_complete(self, sweep):
        for k in KS:
            for method in exp.STATIC_METHODS:
                assert ("FTB", k, method) in sweep

    def test_heuristics_succeed(self, sweep):
        for k in KS:
            for method in ("hg", "gc", "l", "lp"):
                assert sweep[("FTB", k, method)].ok

    def test_gc_equals_lp_sizes(self, sweep):
        for k in KS:
            assert sweep[("FTB", k, "gc")].value == sweep[("FTB", k, "lp")].value

    def test_fig6_table2_table3_render(self, sweep):
        fig6 = exp.run_fig6(sweep, names=TINY, ks=KS)
        t2 = exp.run_table2(sweep, names=TINY, ks=KS)
        t3 = exp.run_table3(sweep, names=TINY, ks=KS)
        assert "Figure 6(FTB)" in fig6.text
        assert "Table II" in t2.text and "+" in t2.text or "-" in t2.text
        assert "Table III" in t3.text


class TestTable4:
    def test_error_ratio_non_negative(self):
        result = exp.run_table4(names=SMALL_PAIR, ks=(3,), time_budget=30)
        for name in SMALL_PAIR:
            cell = result.data[name][3]
            if isinstance(cell["opt"], int):
                assert cell["lp"] <= cell["opt"]


class TestSyntheticSweep:
    def test_tables5_and_6(self):
        sweep = exp.run_synthetic_sweep(
            degrees=(8,), n=120, ks=(3,), time_budget=20
        )
        t5 = exp.run_table5(sweep, degrees=(8,), ks=(3,))
        t6 = exp.run_table6(sweep, degrees=(8,), ks=(3,))
        assert "Table V" in t5.text and "Table VI" in t6.text
        assert sweep[(8, 3, "hg")].ok


class TestDynamicExperiments:
    def test_table7(self):
        result = exp.run_table7(names=TINY, ks=(3,))
        assert result.data["FTB"][3]["index_size"] >= 0

    def test_fig7_and_table8(self):
        sweep = exp.run_dynamic_sweep(names=TINY, ks=(3,), count=15)
        fig7 = exp.run_fig7(sweep, names=TINY, ks=(3,))
        t8 = exp.run_table8(sweep, names=TINY, ks=(3,))
        assert "Figure 7(FTB)" in fig7.text
        assert "Table VIII" in t8.text
        for workload in ("deletion", "insertion", "mixed"):
            cell = sweep[("FTB", 3, workload)]
            assert cell["mean_seconds"] > 0
            assert abs(cell["size"] - cell["rebuild"]) <= 5


class TestAblations:
    def test_ordering_ablation(self):
        result = exp.run_ablation_ordering(names=TINY, k=3)
        assert "HG/degree" in result.text
        assert result.data["FTB"]["lp"] >= 0

    def test_pruning_ablation(self):
        result = exp.run_ablation_pruning(names=TINY, ks=(3,))
        assert "branches pruned" in result.text

