"""Tests for the leave-one-out contribution engine (paper §3.3).

The key invariant: the incremental per-``__pid`` aggregate computation
must equal the *naive* Def. 3.3 recompute (drop the set, re-run q,
re-score) exactly — asserted below for every step type.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.contribution import (
    compute_contributions,
    diversity_contributions_multi,
    exceptionality_contributions_multi,
    naive_contribution,
)
from repro.core.model import Aggregation, FilterStep, GroupByStep, JoinStep, UnionStep
from repro.core.partition import (
    frequency_partition,
    numeric_partition,
    partition_stats,
    partitions_for_attribute,
)


def _freq(df, attr, n):
    return frequency_partition(partition_stats(df, [attr], (n,)), attr, n)


def _numeric(df, attr, n):
    return numeric_partition(partition_stats(df, [attr], (n,)), attr, n)


@pytest.fixture(scope="module")
def songs_pdf():
    g = np.random.default_rng(7)
    n = 800
    year = g.integers(1970, 2020, n)
    decade = (year // 10) * 10
    # Plant: popularity strongly tied to decade 2010.
    pop = np.where(
        decade == 2010, g.normal(75, 8, n), g.normal(40, 15, n)
    ).round(0)
    loud = np.where(decade == 1990, g.normal(-12, 1, n), g.normal(-8, 1, n))
    return pd.DataFrame(
        {
            "year": year,
            "decade": decade,
            "popularity": pop,
            "loudness": loud.round(2),
        }
    )


@pytest.fixture(scope="module")
def songs(spark, songs_pdf):
    return spark.createDataFrame(songs_pdf)


@pytest.fixture(scope="module")
def genre_songs(spark, songs_pdf):
    """``songs`` plus a categorical 'genre' that leans to 'pop' in the 2010s."""
    g = np.random.default_rng(11)
    n = len(songs_pdf)
    other = g.choice(["rock", "jazz", "folk"], n)
    pop = (songs_pdf["decade"] == 2010) & (g.random(n) < 0.7)
    return spark.createDataFrame(songs_pdf.assign(genre=np.where(pop, "pop", other)))


def _assert_matches_naive(step, results):
    for res in results:
        for i in res.partition.set_ids:
            assert res.contributions[i] == pytest.approx(
                naive_contribution(step, res.partition, res.column, i), abs=1e-9
            ), (res.partition.key(), res.column, i)


class TestFilterContribution:
    def test_matches_naive_recompute(self, songs):
        step = FilterStep(songs, "popularity > 65")
        p = _freq(songs, "decade", 5)
        results = exceptionality_contributions_multi(step, [(p, ["decade"])])
        assert len(results) == 1
        res = results[0]
        for i in p.set_ids:
            naive = naive_contribution(step, p, "decade", i)
            assert res.contributions[i] == pytest.approx(naive, abs=1e-9), i

    def test_batched_partitions_match_naive(self, genre_songs):
        # One engine call over every partition built on a categorical and
        # a numeric column (below max_distinct, so unbinned), each scored
        # on both columns, equals Def. 3.3 for every set.
        step = FilterStep(genre_songs, "popularity > 65")
        cols = ["genre", "year"]
        parts = partitions_for_attribute(genre_songs, cols, (5,))
        assert {p.method for p in parts} >= {"frequency", "numeric"}
        assert {p.attr for p in parts} == set(cols)
        results = exceptionality_contributions_multi(step, [(p, cols) for p in parts])
        assert len(results) == len(parts) * len(cols)
        _assert_matches_naive(step, results)

    def test_planted_set_contributes_most(self, songs):
        step = FilterStep(songs, "popularity > 65")
        p = _freq(songs, "decade", 5)
        res = exceptionality_contributions_multi(step, [(p, ["decade"])])[0]
        best = max(res.contributions, key=res.contributions.get)
        assert p.labels[best] == "2010"

    def test_contribution_positive_for_planted(self, songs):
        step = FilterStep(songs, "popularity > 65")
        p = _freq(songs, "decade", 5)
        res = exceptionality_contributions_multi(step, [(p, ["decade"])])[0]
        planted = next(i for i, l in p.labels.items() if l == "2010")
        assert res.contributions[planted] > 0

    def test_share_stats_for_captions(self, songs, songs_pdf):
        step = FilterStep(songs, "popularity > 65")
        p = _freq(songs, "decade", 5)
        res = exceptionality_contributions_multi(step, [(p, ["decade"])])[0]
        planted = next(i for i, l in p.labels.items() if l == "2010")
        share_in_expected = (songs_pdf["decade"] == 2010).mean()
        assert res.stats[planted]["share_in"] == pytest.approx(
            share_in_expected, abs=1e-9
        )
        assert res.stats[planted]["share_out"] > res.stats[planted]["share_in"]

    def test_numeric_partition_matches_naive(self, songs):
        step = FilterStep(songs, "popularity > 65")
        p = _numeric(songs, "year", 5)
        res = exceptionality_contributions_multi(step, [(p, ["year"])])[0]
        for i in p.set_ids[:3]:
            assert res.contributions[i] == pytest.approx(
                naive_contribution(step, p, "year", i), abs=1e-9
            )

    def test_multiple_columns_one_partition(self, songs):
        step = FilterStep(songs, "popularity > 65")
        p = _freq(songs, "decade", 5)
        results = exceptionality_contributions_multi(step, [(p, ["decade", "year"])])
        assert {r.column for r in results} == {"decade", "year"}

    def test_standardized_zscores(self, songs):
        step = FilterStep(songs, "popularity > 65")
        p = _freq(songs, "decade", 5)
        res = exceptionality_contributions_multi(step, [(p, ["decade"])])[0]
        std = res.standardized
        vals = np.array(list(res.contributions.values()))
        assert np.mean(list(std.values())) == pytest.approx(0.0, abs=1e-9)
        top = max(std, key=std.get)
        assert std[top] == pytest.approx(
            (res.contributions[top] - vals.mean()) / vals.std(ddof=1)
        )


class TestGroupByContribution:
    def test_matches_naive_recompute_mean(self, songs):
        step = GroupByStep(
            songs, ["decade"], [Aggregation("mean", "loudness", "ml")]
        )
        p = _freq(songs, "decade", 5)
        res = diversity_contributions_multi(step, [(p, ["ml"])])[0]
        for i in p.set_ids:
            assert res.contributions[i] == pytest.approx(
                naive_contribution(step, p, "ml", i), abs=1e-9
            ), i

    def test_matches_naive_all_agg_fns(self, songs):
        aggs = [
            Aggregation("mean", "loudness", "a_mean"),
            Aggregation("sum", "popularity", "a_sum"),
            Aggregation("count", None, "a_cnt"),
            Aggregation("min", "loudness", "a_min"),
            Aggregation("max", "popularity", "a_max"),
        ]
        step = GroupByStep(songs, ["decade"], aggs)
        p = _freq(songs, "year", 10)
        results = {
            r.column: r for r in diversity_contributions_multi(step, [(p, [a.alias for a in aggs])])
        }
        for alias in ["a_mean", "a_sum", "a_cnt", "a_min", "a_max"]:
            for i in p.set_ids[:4]:
                assert results[alias].contributions[i] == pytest.approx(
                    naive_contribution(step, p, alias, i), abs=1e-9
                ), (alias, i)

    def test_batched_keys_match_naive_all_agg_fns(self, genre_songs):
        # One engine call over the partitions of both group keys, every
        # aggregate function, equals Def. 3.3 for every set.
        aggs = [
            Aggregation("mean", "loudness", "a_mean"),
            Aggregation("sum", "popularity", "a_sum"),
            Aggregation("count", None, "a_cnt"),
            Aggregation("min", "loudness", "a_min"),
            Aggregation("max", "popularity", "a_max"),
        ]
        keys = ["decade", "genre"]
        step = GroupByStep(genre_songs, keys, aggs)
        parts = partitions_for_attribute(genre_songs, keys, (5,))
        assert {p.attr for p in parts} == set(keys)
        aliases = [a.alias for a in aggs]
        results = compute_contributions(step, [(p, aliases) for p in parts])
        assert len(results) == len(parts) * len(aliases)
        _assert_matches_naive(step, results)

    def test_planted_quiet_decade_contributes(self, songs):
        # 1990s songs are planted ~4dB quieter: removing them shrinks the
        # diversity of mean loudness across decades.
        step = GroupByStep(
            songs, ["decade"], [Aggregation("mean", "loudness", "ml")]
        )
        p = _freq(songs, "decade", 5)
        res = diversity_contributions_multi(step, [(p, ["ml"])])[0]
        best = max(res.contributions, key=res.contributions.get)
        assert p.labels[best] == "1990"
        assert res.contributions[best] > 0

    def test_group_vanishes_when_set_removed(self, spark):
        # Paper §3.3's negative-contribution example: d_in = {(x,1),(x,2),
        # (y,3)}; removing (x,2) makes diversity go 0 -> positive.
        pdf = pd.DataFrame({"g": ["x", "x", "y"], "v": [1.0, 2.0, 3.0]})
        d = spark.createDataFrame(pdf)
        step = GroupByStep(d, ["g"], [Aggregation("sum", "v", "sv")])
        p = _freq(d, "v", 3)  # each row its own set
        res = diversity_contributions_multi(step, [(p, ["sv"])])[0]
        set_of_2 = next(i for i, l in p.labels.items() if l == "2")
        assert res.score_full == 0.0  # {(x,3),(y,3)} has zero diversity
        assert res.contributions[set_of_2] < 0  # removal increases CV

    def test_positive_contribution_example(self, spark):
        # Second §3.3 example: d_in = {(x,1),(x,1),(y,1)} -> out {(x,2),(y,1)};
        # removing one (x,1) zeroes the diversity => positive contribution.
        pdf = pd.DataFrame({"g": ["x", "x", "y"], "v": [1.0, 1.0, 1.0], "id": [0, 1, 2]})
        d = spark.createDataFrame(pdf)
        step = GroupByStep(d, ["g"], [Aggregation("sum", "v", "sv")])
        p = _numeric(d, "id", 3)
        res = diversity_contributions_multi(step, [(p, ["sv"])])[0]
        assert res.score_full > 0
        # Removing the set holding row id=0 (an (x,1) row) zeroes CV.
        assert res.contributions[0] == pytest.approx(res.score_full)

    def test_numeric_group_key_scored(self, songs):
        step = GroupByStep(
            songs, ["decade"], [Aggregation("mean", "loudness", "ml")]
        )
        p = _freq(songs, "decade", 5)
        results = diversity_contributions_multi(step, [(p, ["decade", "ml"])])
        assert {r.column for r in results} == {"decade", "ml"}

    def test_caption_stats_set_means(self, songs, songs_pdf):
        step = GroupByStep(
            songs, ["decade"], [Aggregation("mean", "loudness", "ml")]
        )
        p = _freq(songs, "decade", 5)
        res = diversity_contributions_multi(step, [(p, ["ml"])])[0]
        planted = next(i for i, l in p.labels.items() if l == "1990")
        expected = songs_pdf[songs_pdf["decade"] == 1990]["loudness"].mean()
        assert res.stats[planted]["set_mean"] == pytest.approx(expected, abs=1e-6)
        assert res.extra["overall_mean"] == pytest.approx(
            songs_pdf.groupby("decade")["loudness"].mean().mean(), abs=1e-6
        )


class TestJoinUnionContribution:
    def test_join_matches_naive(self, spark):
        g = np.random.default_rng(1)
        left = spark.createDataFrame(
            pd.DataFrame(
                {
                    "k": g.integers(0, 20, 300),
                    "lv": g.choice(["a", "b", "c"], 300),
                }
            )
        )
        right = spark.createDataFrame(
            pd.DataFrame({"k": np.arange(0, 10), "rv": np.arange(0, 10) * 1.0})
        )
        step = JoinStep(left, right, on=["k"])
        p = _freq(left, "lv", 3)
        res = exceptionality_contributions_multi(step, [(p, ["lv"])])[0]
        for i in p.set_ids:
            assert res.contributions[i] == pytest.approx(
                naive_contribution(step, p, "lv", i), abs=1e-9
            )

    def test_union_matches_naive(self, spark):
        g = np.random.default_rng(2)
        d1 = spark.createDataFrame(
            pd.DataFrame({"x": g.choice(["a", "b"], 200)})
        )
        d2 = spark.createDataFrame(
            pd.DataFrame({"x": g.choice(["b", "c"], 100)})
        )
        step = UnionStep([d1, d2])
        p = _freq(d1, "x", 2)
        res = exceptionality_contributions_multi(step, [(p, ["x"])])[0]
        # naive_contribution uses the partitioned input's KS (d1 side),
        # matching how the incremental path scores this partition.
        for i in p.set_ids:
            assert res.contributions[i] == pytest.approx(
                naive_contribution(step, p, "x", i), abs=1e-9
            )

    def test_dispatch_by_step_type(self, songs):
        fstep = FilterStep(songs, "popularity > 65")
        gstep = GroupByStep(
            songs, ["decade"], [Aggregation("mean", "loudness", "ml")]
        )
        p = _freq(songs, "decade", 5)
        f_res = compute_contributions(fstep, [(p, ["decade"])])
        g_res = compute_contributions(gstep, [(p, ["ml"])])
        assert f_res and g_res
