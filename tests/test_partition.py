"""Unit tests for the row-partition methods (paper §3.5, Def. 3.8)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.model import IGNORE_PID, PID
from repro.core.partition import (
    find_many_to_one,
    frequency_partition,
    many_to_one_partitions,
    numeric_partition,
    partition_stats,
    partitions_for_attribute,
)


@pytest.fixture(scope="module")
def songs(spark):
    g = np.random.default_rng(0)
    year = g.integers(1970, 2024, 600)
    return spark.createDataFrame(
        pd.DataFrame(
            {
                "year": year,
                "decade": (year // 10) * 10,
                "artist": g.choice([f"artist_{i}" for i in range(40)], 600),
                "loudness": g.normal(-9, 2, 600).round(3),
            }
        )
    )


def _stats(df, attr, n=5, **kw):
    """The batched statistics ``partitions_for_attribute`` builds from."""
    return partition_stats(df, [attr], (n,), **kw)


def _pid_counts(p):
    return {
        r[PID]: r["n"]
        for r in p.df.groupBy(PID).agg(F.count(F.lit(1)).alias("n")).collect()
    }


class TestFrequencyPartition:
    def test_top_n_values_selected(self, spark):
        pdf = pd.DataFrame({"x": ["a"] * 50 + ["b"] * 30 + ["c"] * 15 + ["d"] * 5})
        p = frequency_partition(_stats(spark.createDataFrame(pdf), "x", 2), "x", 2)
        assert p.labels == {0: "a", 1: "b"}
        counts = _pid_counts(p)
        assert counts[0] == 50 and counts[1] == 30
        assert counts[IGNORE_PID] == 20  # c + d in the ignore-set

    def test_covers_all_rows(self, songs):
        p = frequency_partition(_stats(songs, "artist", 5), "artist", 5)
        assert sum(_pid_counts(p).values()) == songs.count()

    def test_disjoint_sets(self, songs):
        # Each row gets exactly one pid — partition is disjoint by
        # construction; check no row was duplicated or lost.
        p = frequency_partition(_stats(songs, "artist", 5), "artist", 5)
        assert p.df.count() == songs.count()

    def test_fewer_values_than_n(self, spark):
        pdf = pd.DataFrame({"x": ["a", "a", "b"]})
        p = frequency_partition(_stats(spark.createDataFrame(pdf), "x", 10), "x", 10)
        assert set(p.labels.values()) == {"a", "b"}
        assert _pid_counts(p).get(IGNORE_PID, 0) == 0

    def test_single_value_returns_none(self, spark):
        pdf = pd.DataFrame({"x": ["a", "a", "a"]})
        assert frequency_partition(_stats(spark.createDataFrame(pdf), "x", 5), "x", 5) is None

    def test_deterministic_tiebreak(self, spark):
        pdf = pd.DataFrame({"x": ["b", "a", "b", "a", "c"]})
        p = frequency_partition(_stats(spark.createDataFrame(pdf), "x", 2), "x", 2)
        assert p.labels == {0: "a", 1: "b"}  # ties broken by value asc

    def test_nulls_in_ignore_set(self, spark):
        pdf = pd.DataFrame({"x": ["a", "a", None, "b", "b", "b"]})
        p = frequency_partition(_stats(spark.createDataFrame(pdf), "x", 2), "x", 2)
        assert _pid_counts(p)[IGNORE_PID] == 1

    def test_numeric_attribute_supported(self, songs):
        p = frequency_partition(_stats(songs, "decade", 3), "decade", 3)
        assert p is not None and len(p.labels) == 3

    def test_method_metadata(self, songs):
        p = frequency_partition(_stats(songs, "artist", 5), "artist", 5)
        assert p.method == "frequency" and p.attr == "artist"
        assert p.n_requested == 5 and p.via is None


class TestNumericPartition:
    def test_equal_frequency_bins(self, spark):
        pdf = pd.DataFrame({"x": np.arange(1000, dtype=float)})
        p = numeric_partition(_stats(spark.createDataFrame(pdf), "x", 5), "x", 5)
        counts = _pid_counts(p)
        assert len(p.labels) == 5
        for i in range(5):
            assert counts[i] == pytest.approx(200, abs=25)

    def test_no_ignore_set_without_nulls(self, spark):
        pdf = pd.DataFrame({"x": np.arange(100, dtype=float)})
        p = numeric_partition(_stats(spark.createDataFrame(pdf), "x", 4), "x", 4)
        assert IGNORE_PID not in _pid_counts(p)

    def test_nulls_go_to_ignore_set(self, spark):
        pdf = pd.DataFrame({"x": [1.0, 2.0, None, 4.0, 5.0, 6.0, 7.0, 8.0]})
        p = numeric_partition(_stats(spark.createDataFrame(pdf), "x", 2), "x", 2)
        assert _pid_counts(p)[IGNORE_PID] == 1

    def test_categorical_returns_none(self, spark):
        pdf = pd.DataFrame({"x": ["a", "b", "c"]})
        assert numeric_partition(_stats(spark.createDataFrame(pdf), "x", 3), "x", 3) is None

    def test_constant_returns_none(self, spark):
        pdf = pd.DataFrame({"x": [5.0] * 20})
        assert numeric_partition(_stats(spark.createDataFrame(pdf), "x", 3), "x", 3) is None

    def test_heavy_ties_collapse_bins(self, spark):
        pdf = pd.DataFrame({"x": [1.0] * 90 + [2.0] * 10})
        p = numeric_partition(_stats(spark.createDataFrame(pdf), "x", 5), "x", 5)
        # Only one boundary survives the ties: two intervals.
        assert p is not None and len(p.labels) <= 3
        assert sum(_pid_counts(p).values()) == 100

    def test_interval_labels(self, spark):
        pdf = pd.DataFrame({"x": np.arange(100, dtype=float)})
        p = numeric_partition(_stats(spark.createDataFrame(pdf), "x", 2), "x", 2)
        assert all("[" in lab and "]" in lab for lab in p.labels.values())

    def test_infinite_edge_labels(self, spark):
        # An inf max becomes the last edge; its label keeps it as "inf".
        pdf = pd.DataFrame({"x": np.r_[np.arange(99, dtype=float), np.inf]})
        p = numeric_partition(_stats(spark.createDataFrame(pdf), "x", 2), "x", 2)
        assert p.labels[max(p.labels)].endswith(", inf]")
        assert sum(_pid_counts(p).values()) == 100

    def test_covers_all_rows(self, songs):
        p = numeric_partition(_stats(songs, "loudness", 10), "loudness", 10)
        assert sum(_pid_counts(p).values()) == songs.count()


class TestManyToOne:
    def test_detects_year_decade(self, songs):
        assert "decade" in find_many_to_one(_stats(songs, "year"), "year")

    def test_rejects_inconsistent_mapping(self, songs):
        # loudness is (nearly) unique per row — year does not determine it
        assert "loudness" not in find_many_to_one(_stats(songs, "year"), "year")

    def test_rejects_equally_fine_mapping(self, spark):
        # Bijective mapping is consistent but NOT strictly coarser (cond 2).
        pdf = pd.DataFrame({"a": [1, 2, 3], "b": ["x", "y", "z"]})
        assert find_many_to_one(_stats(spark.createDataFrame(pdf), "a"), "a") == []

    def test_reverse_direction_not_fd(self, songs):
        # decade -> year is one-to-many, not a function.
        assert "year" not in find_many_to_one(_stats(songs, "decade"), "decade")

    def test_partition_uses_b_labels(self, songs):
        ps = many_to_one_partitions(_stats(songs, "year", 5), "year", 5)
        assert len(ps) >= 1
        p = next(p for p in ps if p.via == "decade")
        assert p.method == "many_to_one" and p.attr == "year"
        assert all(lab.isdigit() for lab in p.labels.values())

    def test_candidates_restriction(self, songs):
        assert find_many_to_one(
            _stats(songs, "year", many_to_one_candidates=["artist"]), "year"
        ) == []

    def test_max_targets_cap(self, spark):
        pdf = pd.DataFrame(
            {
                "a": [1, 2, 3, 4],
                "b": ["x", "x", "y", "y"],
                "c": ["p", "p", "q", "q"],
                "d": ["m", "m", "m", "n"],
            }
        )
        stats = _stats(spark.createDataFrame(pdf), "a", 5, max_m2o_targets=1)
        ps = many_to_one_partitions(stats, "a", 5)
        assert len(ps) == 1


class TestPartitionsForAttribute:
    def test_numeric_attr_gets_all_methods(self, songs):
        ps = partitions_for_attribute(songs, ["year"], n_sets=(5,))
        methods = {p.method for p in ps}
        assert methods == {"frequency", "numeric", "many_to_one"}

    def test_categorical_attr_no_numeric(self, songs):
        ps = partitions_for_attribute(songs, ["artist"], n_sets=(5,))
        assert {p.method for p in ps} == {"frequency"}

    def test_both_sizes_generated(self, songs):
        ps = partitions_for_attribute(songs, ["loudness"], n_sets=(5, 10))
        sizes = {p.n_requested for p in ps}
        assert sizes == {5, 10}

    def test_partition_key_stable_identity(self, songs):
        ps = partitions_for_attribute(songs, ["year"], n_sets=(5,))
        keys = [p.key() for p in ps]
        assert len(keys) == len(set(keys))

    def test_batched_stats_match_single_attribute(self, songs):
        # One batched statistics pass over several attributes (what
        # explain runs) reads the same figures as one pass per attribute.
        attrs = ["year", "artist", "loudness", "decade"]
        batched = partition_stats(songs, attrs, (5, 10))
        for a in attrs:
            single = partition_stats(songs, [a], (5, 10))
            assert batched.top[a] == single.top[a], a
            assert batched.quantiles.get(a) == single.quantiles.get(a), a
            assert batched.lo.get(a) == single.lo.get(a), a
            assert batched.hi.get(a) == single.hi.get(a), a
            assert find_many_to_one(batched, a) == find_many_to_one(single, a), a

    def test_batched_call_ties_nulls_and_collapse(self, spark):
        pdf = pd.DataFrame(
            {
                "x": ["b", "a", "b", "a", "c", None] * 10,
                "y": [1.0] * 54 + [2.0] * 6,
            }
        )
        ps = partitions_for_attribute(spark.createDataFrame(pdf), ["x", "y"], (2, 5))
        fx = next(p for p in ps if (p.attr, p.method, p.n_requested) == ("x", "frequency", 2))
        assert fx.labels == {0: "a", 1: "b"}  # 20/20 tie broken by value
        assert _pid_counts(fx)[IGNORE_PID] == 20  # 'c' and the nulls
        # Heavy ties collapse n=5 to the same intervals as n=2 (deduplicated).
        ny = [p for p in ps if (p.attr, p.method) == ("y", "numeric")]
        assert len(ny) == 1 and len(ny[0].labels) <= 3
        assert sum(_pid_counts(ny[0]).values()) == 60
