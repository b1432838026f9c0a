"""Tests for the experiment harness, runners and CLI (at a reduced scale)."""

import pytest

from repro.experiments import ablations, figures, runtime, tables
from repro.experiments.cli import main
from repro.experiments.harness import ExperimentResult, compare_methods
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments
from repro.core.config import ISLAConfig
from repro.errors import ConfigurationError

#: small sizes so the whole module runs in seconds
SMALL = dict(data_size=60_000, datasets=2, seed=1)
#: the paper-scale checks run 150k-row data sets at seed 0
PAPER_ROWS = 150_000


class TestHarness:
    def test_result_rendering(self):
        result = ExperimentResult("x", "A title", columns=["a", "b"])
        result.add_row("row1", a=1.0, b=2.0)
        result.add_row("row2", a=3.0)
        text = result.to_text()
        assert "A title" in text
        assert "row1" in text and "row2" in text
        assert result.column_values("a") == [1.0, 3.0]
        assert result.column_values("b") == [2.0]

    def test_compare_methods_includes_truth(self, normal_store):
        comparison = compare_methods(
            ["US", "MV"], normal_store, ISLAConfig(precision=0.5), seed=0
        )
        assert set(comparison.answers) == {"US", "MV"}
        assert comparison.error("US") < comparison.error("MV")


class TestRunners:
    def test_fig6a(self):
        result = figures.run_fig6a_precision(
            precisions=(0.1, 0.2), data_size=60_000, datasets=2, seed=1
        )
        assert len(result.rows) == 2
        for answer in result.column_values("dataset1"):
            assert answer == pytest.approx(100.0, abs=1.0)

    def test_fig6c_blocks(self):
        result = figures.run_fig6c_blocks(
            block_counts=(4, 8), data_size=60_000, datasets=2, seed=1
        )
        assert [row.label for row in result.rows] == ["b=4", "b=8"]

    def test_varying_data_size(self):
        result = figures.run_varying_data_size(sizes=(30_000, 60_000), seed=1)
        errors = result.column_values("abs_error")
        assert all(error < 1.0 for error in errors)

    def test_table3_shape(self):
        result = tables.run_table3_accuracy(**SMALL)
        # The last row is the average; MV should sit near 104, ISLA near 100.
        average = result.rows[-1].values
        assert average["MV"] == pytest.approx(104.0, abs=1.5)
        assert average["ISLA"] == pytest.approx(100.0, abs=0.5)
        assert average["ISLA"] < average["MVB"] < average["MV"]

    def test_table5_isla_uses_less_budget_and_meets_precision(self):
        result = tables.run_table5_uniform_stratified(**SMALL)
        for row in result.rows:
            assert row.values["ISLA_error"] <= 1.5  # e = 0.5 with slack for noise

    def test_table4_partial_answers(self):
        result = tables.run_table4_modulation(data_size=60_000, seed=1)
        assert len(result.rows) == 10
        for row in result.rows:
            assert row.values["ISLA_partial"] == pytest.approx(100.0, abs=1.5)

    def test_table6_exponential_ordering(self):
        result = tables.run_table6_exponential(
            rates=(0.1, 0.2), data_size=60_000, seed=1
        )
        for row in result.rows:
            truth = row.values["accurate"]
            assert abs(row.values["ISLA"] - truth) < abs(row.values["MV"] - truth)

    def test_table7_uniform_ordering(self):
        result = tables.run_table7_uniform(datasets=2, data_size=60_000, seed=1)
        for row in result.rows:
            assert abs(row.values["ISLA"] - 100.0) < abs(row.values["MV"] - 100.0)
            assert abs(row.values["ISLA"] - 100.0) < abs(row.values["MVB"] - 100.0)

    def test_noniid_runner(self):
        result = tables.run_noniid(rows_per_block=20_000, runs=2, seed=1)
        for row in result.rows:
            assert row.values["abs_error"] < 1.5

    def test_real_data_runner(self):
        result = tables.run_real_data(salary_rows=40_000, trip_rows=40_000, seed=1)
        assert {row.label for row in result.rows} == {"salary", "tlc_trip"}
        for row in result.rows:
            truth = row.values["truth"]
            assert abs(row.values["ISLA"] - truth) < abs(row.values["MV"] - truth)

    def test_runtime_runner(self):
        result = runtime.run_runtime_comparison(rows=50_000, repetitions=1, seed=1)
        methods = [row.label for row in result.rows]
        assert methods == ["ISLA", "MV", "MVB", "US", "STS"]
        assert all(row.values["total_seconds"] > 0 for row in result.rows)

    def test_alpha_ablation(self):
        result = ablations.run_alpha_ablation(
            alphas=(0.0, 0.5), data_size=60_000, datasets=2, seed=1
        )
        assert "ISLA_iterative" in result.columns

    def test_q_ablation(self):
        result = ablations.run_q_ablation(
            sketch_biases=(-0.5, 0.5), data_size=60_000, seed=1
        )
        assert len(result.rows) == 2


class TestPaperScale:
    """Section VIII's qualitative claims at 150k rows per data set, seed 0."""

    def test_e1_sample_size_does_not_grow_with_m(self):
        result = figures.run_varying_data_size(
            sizes=(PAPER_ROWS, 2 * PAPER_ROWS, 4 * PAPER_ROWS),
            precision=0.5,
            seed=0,
        )
        assert max(result.column_values("abs_error")) < 0.75
        # Eq. 1 depends on sigma, e and beta only, not on M.
        samples = result.column_values("sample_size")
        assert max(samples) <= 1.3 * min(samples) + 1

    def test_fig6a_looser_precision_spreads_answers(self):
        result = figures.run_fig6a_precision(
            precisions=(0.05, 0.1, 0.2), data_size=PAPER_ROWS, datasets=5, seed=0
        )
        spreads = result.column_values("spread")
        assert spreads[-1] >= 0.0
        assert min(spreads) <= spreads[0] * 4 + 0.2

    def test_fig6b_answers_stay_near_truth_at_every_confidence(self):
        result = figures.run_fig6b_confidence(
            confidences=(0.8, 0.95, 0.99), data_size=PAPER_ROWS, datasets=5, seed=0
        )
        for column in (f"dataset{i}" for i in range(1, 6)):
            for answer in result.column_values(column):
                assert answer == pytest.approx(100.0, abs=0.5)

    def test_fig6c_block_count_hardly_matters(self):
        result = figures.run_fig6c_blocks(
            block_counts=(6, 12, 24), data_size=PAPER_ROWS, datasets=5, seed=0
        )
        for row in result.rows:
            for key, value in row.values.items():
                if key.startswith("dataset"):
                    assert value == pytest.approx(100.0, abs=0.5)

    def test_fig6d_moderate_p1_beats_large_p1(self):
        result = figures.run_fig6d_boundaries(
            p1_values=(0.25, 0.5, 0.75, 1.5), data_size=PAPER_ROWS, datasets=5, seed=0
        )
        spread = {row.label: row.values["spread"] for row in result.rows}
        assert spread["p1=0.5"] <= spread["p1=1.5"] + 0.3

    def test_table3_isla_100_mv_104_mvb_100_5(self):
        result = tables.run_table3_accuracy(
            datasets=10, data_size=PAPER_ROWS, precision=0.1, seed=0
        )
        average = result.rows[-1].values
        assert average["ISLA"] == pytest.approx(100.0, abs=0.3)
        assert average["MV"] == pytest.approx(104.0, abs=1.0)
        assert average["MVB"] == pytest.approx(100.5, abs=0.5)
        assert abs(average["ISLA"] - 100.0) < abs(average["MVB"] - 100.0) < abs(
            average["MV"] - 100.0
        )

    def test_table4_every_isla_partial_beats_mv(self):
        result = tables.run_table4_modulation(
            data_size=PAPER_ROWS, precision=0.1, seed=0
        )
        assert len(result.rows) == 10
        for row in result.rows:
            assert abs(row.values["ISLA_partial"] - 100.0) < abs(
                row.values["MV_partial"] - 100.0
            )

    def test_table5_isla_meets_precision_on_a_third_of_the_budget(self):
        result = tables.run_table5_uniform_stratified(
            datasets=5, data_size=PAPER_ROWS, precision=0.5, seed=0
        )
        isla_errors = result.column_values("ISLA_error")
        # a majority within e and every run within 3e
        assert sum(error <= 0.5 for error in isla_errors) >= (len(isla_errors) + 1) // 2
        assert max(isla_errors) <= 1.5
        assert len(result.column_values("US_error")) == len(isla_errors)

    def test_table6_mv_doubles_the_exponential_mean(self):
        result = tables.run_table6_exponential(
            rates=(0.05, 0.1, 0.15, 0.2), data_size=PAPER_ROWS, seed=0
        )
        for row in result.rows:
            truth = row.values["accurate"]
            assert abs(row.values["ISLA"] - truth) / truth < 0.25
            assert row.values["MV"] == pytest.approx(2.0 * truth, rel=0.15)
            assert abs(row.values["ISLA"] - truth) < abs(row.values["MV"] - truth)

    def test_table7_mv_near_133_on_uniform_data(self):
        result = tables.run_table7_uniform(datasets=5, data_size=PAPER_ROWS, seed=0)
        for row in result.rows:
            assert row.values["ISLA"] == pytest.approx(100.0, abs=2.0)
            assert row.values["MV"] == pytest.approx(133.0, abs=3.0)
            assert abs(row.values["ISLA"] - 100.0) < abs(row.values["MVB"] - 100.0)

    def test_e9_noniid_runs_meet_precision(self):
        result = tables.run_noniid(
            rows_per_block=PAPER_ROWS // 5, precision=0.5, runs=5, seed=0
        )
        errors = result.column_values("abs_error")
        assert sum(error <= 0.5 for error in errors) >= len(errors) // 2
        assert max(errors) <= 1.5

    def test_e12_isla_costs_at_most_12x_uniform_sampling(self):
        result = runtime.run_runtime_comparison(rows=200_000, repetitions=3, seed=0)
        by_method = {row.label: row.values for row in result.rows}
        # MV and MVB are biased by design (Table III); only US/STS/ISLA are
        # held to the true mean of 25.5.
        for method in ("ISLA", "US", "STS"):
            assert by_method[method]["abs_error"] < 2.0
        assert (
            by_method["ISLA"]["total_seconds"] <= 12 * by_method["US"]["total_seconds"]
        )

    def test_e13_isla_beats_mv_and_mvb_on_skewed_columns(self):
        result = tables.run_real_data(
            salary_rows=PAPER_ROWS, trip_rows=PAPER_ROWS, seed=0
        )
        for row in result.rows:
            truth = row.values["truth"]
            isla_error = abs(row.values["ISLA"] - truth)
            assert isla_error < abs(row.values["MV"] - truth)
            assert isla_error < abs(row.values["MVB"] - truth)

    def test_a1_iterated_alpha_matches_best_fixed_alpha(self):
        result = ablations.run_alpha_ablation(
            alphas=(0.0, 0.1, 0.3, 0.5), data_size=PAPER_ROWS, datasets=5, seed=0
        )
        iterative = [abs(v - 100.0) for v in result.column_values("ISLA_iterative")]
        fixed_half = [abs(v - 100.0) for v in result.column_values("alpha=0.5")]
        assert sum(iterative) <= sum(fixed_half) + 0.5

    def test_a2_q_guard_never_hurts_a_biased_sketch(self):
        result = ablations.run_q_ablation(
            sketch_biases=(-1.0, -0.5, 0.5, 1.0), data_size=PAPER_ROWS, seed=0
        )
        with_q = result.column_values("with_q_error")
        without_q = result.column_values("without_q_error")
        assert sum(with_q) <= sum(without_q) + 0.5


class TestRegistryAndCli:
    def test_registry_contains_every_paper_artifact(self):
        for key in ("fig6a", "fig6b", "fig6c", "fig6d", "table3", "table4",
                    "table5", "table6", "table7", "noniid", "realdata", "runtime"):
            assert key in EXPERIMENTS

    def test_get_experiment_unknown(self):
        with pytest.raises(ConfigurationError):
            get_experiment("nope")

    def test_list_experiments_descriptions(self):
        descriptions = list_experiments()
        assert descriptions["table3"].startswith("Table III")

    def test_cli_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out

    def test_cli_runs_one_experiment(self, capsys):
        assert main(["table7", "--data-size", "30000", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table VII" in out
