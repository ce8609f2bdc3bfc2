"""Integration tests for the evaluation harnesses (one per paper figure).

These run each experiment at reduced size and assert the *shape* of the
paper's findings — monotone accuracy in sample size, FEDEX beating the
baselines in the simulated study, assisted > unassisted, RATH's OOM.
"""
import pandas as pd
import pytest

from repro import experiments as E


class TestSamplingAccuracy:
    @pytest.fixture(scope="class")
    def result(self, spark):
        return E.sampling_accuracy(
            spark,
            query_nums=(6, 7),
            sample_sizes=(50, 500, 5000),
            scale="test",
        )

    def test_one_row_per_sample_size(self, result):
        assert list(result["sample_size"]) == [50, 500, 5000]

    def test_metrics_in_range(self, result):
        assert result["precision_at_3"].between(0, 1).all()
        assert result["ndcg"].between(0, 1).all()
        assert (result["kendall_tau"] >= 0).all()

    def test_large_sample_highly_accurate(self, result):
        # Fig. 7: at 5K the sample covers the test data: exact agreement.
        last = result.iloc[-1]
        assert last["precision_at_3"] >= 0.99
        assert last["ndcg"] >= 0.99
        assert last["kendall_tau"] == pytest.approx(0.0, abs=1e-9)

    def test_accuracy_improves_with_sample_size(self, result):
        assert result["ndcg"].iloc[-1] >= result["ndcg"].iloc[0] - 1e-9
        assert result["kendall_tau"].iloc[-1] <= result["kendall_tau"].iloc[0] + 1e-9


class TestAccuracyVsRows:
    def test_fixed_sample_stays_accurate(self, spark):
        out = E.accuracy_vs_rows(
            spark,
            row_counts=(10_000, 30_000),
            query_nums=(4,),
            sample_size=5000,
        )
        # Fig. 8: accuracy stays high as rows grow with a fixed 5K sample.
        assert (out["ndcg"] > 0.9).all()
        assert list(out["n_rows"]) == [10_000, 30_000]


class TestRuntimeHarnesses:
    def test_runtime_vs_columns_shape(self, spark):
        out = E.runtime_vs_columns(
            spark, "bank", column_counts=(4, 8), scale="test"
        )
        assert set(out.columns) >= {"n_columns", "fedex_sampling_s", "seedb_s", "rath_s"}
        assert (out["fedex_sampling_s"] > 0).all()

    def test_runtime_vs_rows_shape(self, spark):
        out = E.runtime_vs_rows(
            spark,
            "bank",
            row_counts=(1000, 3000),
            include_exact=True,
            query_nums=(11,),
        )
        assert {"fedex_s", "fedex_sampling_s"} <= set(out.columns)
        assert (out["fedex_s"] > 0).all()
        assert (out["fedex_sampling_s"] > 0).all()

    def test_rath_oom_recorded_as_none(self, spark):
        out = E.runtime_vs_rows(
            spark,
            "bank",
            row_counts=(2000,),
            include_exact=False,
            rath_budget_bytes=10_000,
            query_nums=(11,),
        )
        assert out["rath_s"].isna().all()


class TestSetsSweep:
    def test_contribution_reported_per_n_sets(self, spark):
        out = E.contribution_vs_n_sets(
            spark, query_nums=(7,), n_sets_values=(3, 5, 10), scale="test"
        )
        assert len(out) == 3
        assert (out["top_contribution"] >= 0).all()


class TestUserStudy:
    @pytest.fixture(scope="class")
    def study(self, spark):
        return E.user_study(spark, scale="test")

    def test_all_cells_present(self, study):
        assert set(study["notebook"]) == {"spotify", "bank", "products"}
        assert set(study["method"]) == {"fedex", "io", "seedb", "rath", "expert"}

    def test_fedex_beats_automated_baselines(self, study):
        # Fig. 3's headline: FEDEX clearly preferred over IO/SeeDB/RATH.
        mean = study.groupby("method")["score_1_to_7"].mean()
        assert mean["fedex"] > mean["io"]
        assert mean["fedex"] > mean["seedb"]
        assert mean["fedex"] > mean["rath"]

    def test_scores_on_1_7_scale(self, study):
        assert study["score_1_to_7"].between(1, 7).all()

    def test_fedex_near_expert_on_products(self, study):
        # §4.2: FEDEX ~ EXPERT on Products because EXPERT missed the join.
        s = study.set_index(["notebook", "method"])["score_1_to_7"]
        assert s["products", "fedex"] >= s["products", "expert"] - 0.5

    def test_interactive_assisted_wins(self, spark):
        # Fig. 5's reproducible claim: assisted EDA finds strictly more
        # insights on both notebooks. (The paper's *relative* gap sizes —
        # 9.5/2.5 Spotify vs 2.5/1 Bank — reflect human browsing behavior
        # our deterministic model does not capture; see EXPERIMENTS.md.)
        out = E.interactive_study(spark, scale="test")
        assert (out["with_fedex"] > out["without_fedex"]).all()
