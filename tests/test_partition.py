"""Unit tests for the row-partition methods (paper §3.5, Def. 3.8)."""
import datetime as dt
import gc
import weakref
from decimal import Decimal

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core import partition
from repro.core.interestingness import input_profile, is_numeric, present
from repro.core.model import IGNORE_PID, PID
from repro.core.partition import (
    PartitionStats,
    frequency_partition,
    many_to_one_partitions,
    numeric_partition,
    partition_stats,
    partitions_for_attribute,
    value_scan,
)
from repro.datasets.bank import bank_pdf
from repro.datasets.spotify import spotify_pdf
from repro.workload.queries import SCALES
from tests.test_explain import _actions, _spark_jobs


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


def _stats(df, attr, n=5):
    """The batched statistics ``partitions_for_attribute`` builds from."""
    return partition_stats(df, [attr], (n,))


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


class TestExactBounds:
    """Equal-frequency bounds are numpy's inverted-CDF quantiles of the
    present values (nulls and NaN left out), however the input is split."""

    @staticmethod
    def _want(values, n: int) -> list[float]:
        v = np.array([x for x in values if x is not None and x == x], dtype=float)
        return [float(np.quantile(v, i / n, method="inverted_cdf")) for i in range(1, n)]

    @pytest.mark.parametrize("dataset", ["bank", "spotify"])
    def test_every_numeric_workload_column(self, spark, dataset):
        pdf = {"bank": bank_pdf, "spotify": spotify_pdf}[dataset](SCALES["test"][dataset])
        df = spark.createDataFrame(pdf)
        cols = [c for c in df.columns if is_numeric(df, c)]
        assert len(cols) > 10
        stats = partition_stats(df, cols, (5, 10))
        for c in cols:
            for n in (5, 10):
                assert stats.quantiles[c][n] == self._want(pdf[c], n), (c, n)

    @pytest.mark.parametrize("parts", [1, 3, 8])
    def test_nulls_nan_infinities_and_ties(self, spark, parts):
        inf, nan = float("inf"), float("nan")
        x = [None] * 7 + [nan] * 5 + [-inf] * 3 + [inf] * 4 + [1.0] * 40 + [-0.0] * 6
        x += [float(v) for v in range(2, 30)] + [2.5] * 11
        i = [None] * 9 + [7] * 50 + list(range(-20, 22))
        rows = list(zip(x, i + [3] * (len(x) - len(i))))
        np.random.default_rng(parts).shuffle(rows)
        df = spark.createDataFrame(rows, "x double, i long").repartition(parts)
        n_sets = (2, 3, 5, 7, 10)
        stats = partition_stats(df, ["x", "i"], n_sets)
        for c, values in zip(["x", "i"], zip(*rows)):
            for n in n_sets:
                assert stats.quantiles[c][n] == self._want(values, n), (c, n)


class TestManyToOne:
    def test_detects_year_decade(self, songs):
        assert "decade" in _stats(songs, "year").fd["year"]

    def test_rejects_inconsistent_mapping(self, songs):
        # loudness is (nearly) unique per row — year does not determine it
        assert "loudness" not in _stats(songs, "year").fd["year"]

    def test_rejects_equally_fine_mapping(self, spark):
        # Bijective mapping is consistent but NOT strictly coarser (cond 2).
        pdf = pd.DataFrame({"a": [1, 2, 3], "b": ["x", "y", "z"]})
        assert _stats(spark.createDataFrame(pdf), "a").fd["a"] == []

    def test_reverse_direction_not_fd(self, songs):
        # decade -> year is one-to-many, not a function.
        assert "year" not in _stats(songs, "decade").fd["decade"]

    def test_partition_uses_b_labels(self, songs):
        ps = many_to_one_partitions(_stats(songs, "year", 5), "year", 5)
        assert len(ps) >= 1
        p = next(p for p in ps if p.via == "decade")
        assert p.method == "many_to_one" and p.attr == "year"
        assert all(lab.isdigit() for lab in p.labels.values())

    def test_candidates_restriction(self, songs):
        # artist varies within a year (code 2), so it is no target of year.
        _, codes, _ = value_scan(songs, ["year"], ["artist"], (5,))
        assert codes["year"]["artist"] == 2
        assert "artist" not in _stats(songs, "year").fd["year"]

    def test_max_targets_cap(self, spark):
        pdf = pd.DataFrame(
            {
                "a": [1, 2, 3, 4],
                "b": ["x", "x", "y", "y"],
                "c": ["p", "p", "q", "q"],
                "d": ["m", "m", "m", "n"],
            }
        )
        df = spark.createDataFrame(pdf)
        _, codes, _ = value_scan(df, ["a"], ["b", "c", "d"], (5,))
        assert codes["a"] == {"b": 1, "c": 1, "d": 1}  # three FD targets
        ps = many_to_one_partitions(_stats(df, "a", 5), "a", 5)
        assert len(ps) == 2


class TestFunctionalDependencyScan:
    """The min == max FD test decides as the ``countDistinct`` scan did."""

    @pytest.fixture(scope="class")
    def df(self, spark):
        nan = float("nan")
        rows = [
            # a  b_nonnull  b_null  b_nan  b_zero  b_mixed  s
            (1, "x", None, nan, 0.0, nan, "p"),
            (1, "x", None, nan, -0.0, 1.0, "p"),
            (2, "x", "p", 1.0, 1.0, 1.0, "q"),
            (2, "x", "p", 1.0, 1.0, 1.0, "q"),
            (3, "y", "q", 1.0, 2.0, 2.0, "r"),
            (3, "y", "q", 1.0, 2.0, 2.0, None),
            (4, "y", "q", 2.0, 2.0, 2.0, "r"),
            # Rows with a null A belong to no A-group: b_nonnull maps
            # A -> B only on the non-null A values.
            (None, "x", "p", 2.0, 1.0, 1.0, "s"),
            (None, "y", "q", 1.0, 2.0, 2.0, "s"),
        ]
        schema = (
            "a long, b_nonnull string, b_null string, b_nan double, "
            "b_zero double, b_mixed double, s string"
        )
        return spark.createDataFrame(rows, schema)

    @pytest.fixture(scope="class")
    def old_scan(self, df):
        """The replaced check: for every attribute A and column c, max over
        A-groups of countDistinct(c)."""
        return {
            a: df.where(present(df, a))
            .groupBy(a)
            .agg(*[F.countDistinct(c).alias(f"nd_{c}") for c in df.columns])
            .agg(*[F.max(f"nd_{c}").alias(c) for c in df.columns])
            .collect()[0]
            .asDict()
            for a in df.columns
        }

    def test_matches_count_distinct_scan(self, df, old_scan):
        cols = df.columns
        _, got, _ = value_scan(df, cols, cols, (5,))
        for a in cols:
            for c in cols:
                assert got[a][c] == min(old_scan[a][c], 2), (a, c)

    def test_same_fd_targets(self, df, old_scan):
        cols = df.columns
        nd = df.agg(*[F.countDistinct(c).alias(c) for c in cols]).collect()[0]
        stats = partition_stats(df, cols, (5,))
        for a in cols:
            expected = sorted(
                (c for c in cols if c != a and old_scan[a][c] == 1 and 0 < nd[c] < nd[a]),
                key=lambda c: nd[c],
            )
            assert stats.fd[a] == expected[:2], a
        # The cases the fixture plants, read from the new scan:
        _, codes, _ = value_scan(df, ["a"], cols, (5,))
        assert {c for c in cols if codes["a"][c] == 1} >= {"b_nonnull", "b_null", "b_nan", "b_zero"}
        assert codes["a"]["b_mixed"] == 2


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
        # explain runs) reads the same figures as one pass per attribute,
        # each on a new DataFrame, which shares no memoized statistics.
        attrs = ["year", "artist", "loudness", "decade"]
        batched = partition_stats(songs.select("*"), attrs, (5, 10))
        for a in attrs:
            single = partition_stats(songs.select("*"), [a], (5, 10))
            assert batched.top[a] == single.top[a], a
            assert batched.quantiles.get(a) == single.quantiles.get(a), a
            assert batched.lo.get(a) == single.lo.get(a), a
            assert batched.hi.get(a) == single.hi.get(a), a
            assert batched.fd[a] == single.fd[a], a

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


class TestValueScan:
    """The top-n of the value scan equals pandas' ``value_counts`` with
    ties broken by value ascending, for every value type."""

    @pytest.fixture(scope="class")
    def table(self, spark):
        g = np.random.default_rng(3)
        n = 240
        days = [dt.date(2020, 1, d) for d in (1, 2, 3, 4)] + [None]
        rows = list(
            zip(
                g.choice(["a", "b", "c", "d", None], n).tolist(),
                g.choice([0.0, -0.0, 1.5, float("nan"), None, 2.5, -1.0], n).tolist(),
                g.choice([True, False, None], n).tolist(),
                [days[i] for i in g.integers(0, 5, n)],
                g.integers(0, 7, n).tolist(),
                ["y", "x", "z", "w"] * (n // 4),  # four-way tie
            )
        )
        schema = "s string, d double, b boolean, t date, i long, tie string"
        pdf = pd.DataFrame(rows, columns=["s", "d", "b", "t", "i", "tie"])
        return spark.createDataFrame(rows, schema), pdf

    @staticmethod
    def _oracle(series: pd.Series, n: int) -> list:
        counts = series.dropna().value_counts()
        return [v for v, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))][:n]

    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_matches_value_counts(self, table, n):
        df, pdf = table
        top, codes, _ = value_scan(df, df.columns, [], (n,))
        assert codes == {c: {} for c in df.columns}
        for c in df.columns:
            assert top[c] == self._oracle(pdf[c], n), c
        assert top["tie"] == ["w", "x", "y", "z"][:n]
        assert 0.0 in top["d"] and not any(v != v for v in top["d"])  # -0.0 is 0.0, no NaN

    def test_partition_stats_reads_the_scan(self, table):
        df, pdf = table
        stats = partition_stats(df.select("*"), df.columns, (3, 5))
        for c in df.columns:
            assert stats.top[c] == self._oracle(pdf[c], 5), c


class TestLiteralFidelity:
    """Set ids reach Spark as literals of the collected values (frequency)
    or as SQL text of the quantile bounds (numeric); either way every row
    gets the set id of the ``==`` / ``<=`` when-chain over the same
    values, on every value type."""

    @pytest.fixture(scope="class")
    def table(self, spark):
        g = np.random.default_rng(11)
        inf, nan = float("inf"), float("nan")
        domains = {
            "s string": ["it's", "back\\slash", "new\nline", "naïve 日本", "plain", None],
            "i int": [1, 2, 3, -4, None],
            "l long": [2**31 + 5, 2**40, -(2**33), 7, None],
            "d double": [-0.0, 0.0, inf, -inf, nan, 1.5, None],
            "f float": [0.1, 2.5, nan, -1.25, None],
            "b boolean": [True, False, None],
            "t date": [dt.date(2020, 1, 1), dt.date(1999, 12, 31), None],
            "m decimal(10,2)": [Decimal("1.23"), Decimal("-4.50"), Decimal("99999999.99"), None],
        }
        picks = [[d[i] for i in g.integers(0, len(d), 150)] for d in domains.values()]
        return spark.createDataFrame(list(zip(*picks)), ", ".join(domains))

    @staticmethod
    def _ids(df, got, want):
        rows = df.select(got.alias("got"), want.alias("want")).collect()
        return [r.got for r in rows], [r.want for r in rows]

    @pytest.mark.parametrize("n", [2, 10])
    def test_frequency_ids_match_when_chain(self, table, n):
        stats = partition_stats(table, table.columns, (n,))
        for a in table.columns:
            p = frequency_partition(stats, a, n)
            values = stats.top[a][:n]
            want = F.lit(IGNORE_PID)
            for i in reversed(range(len(values))):
                want = F.when(F.col(a) == F.lit(values[i]), F.lit(i)).otherwise(want)
            got, expected = self._ids(table, p.pid, want)
            assert got == expected, a
            assert set(got) >= {0, 1}, a
            assert table.select(p.pid).schema[0].dataType == T.IntegerType(), a

    def test_numeric_infinite_bounds_keep_ids_and_labels(self, spark):
        inf, nan = float("inf"), float("nan")
        values = [-inf] * 30 + [float(v) for v in range(1, 41)] + [inf] * 30 + [nan, None]
        df = spark.createDataFrame([(v,) for v in values], "x double")
        stats = partition_stats(df, ["x"], (4,))
        p = numeric_partition(stats, "x", 4)
        bounds = sorted(set(stats.quantiles["x"][4]))
        assert bounds[0] == -inf and bounds[-1] == inf
        want = F.lit(len(bounds))
        for i in reversed(range(len(bounds))):
            want = F.when(F.col("x") <= F.lit(bounds[i]), F.lit(i)).otherwise(want)
        want = F.when(F.col("x").isNull(), F.lit(IGNORE_PID)).otherwise(want)
        got, expected = self._ids(df, p.pid, want)
        assert got == expected
        assert p.labels == {0: "[-inf, -inf]", 1: "[-inf, 20]", 2: "[20, inf]", 3: "[inf, inf]"}


class TestStatsActions:
    """``partition_stats`` on a profiled input: one ``collect`` for every
    attribute; numeric ones add no action, their bounds ride on it."""

    def test_categorical_one_collect(self, spark, songs):
        df = songs.select("*")
        input_profile(df)
        assert _actions(spark, lambda: partition_stats(df, ["artist"], (5, 10))) == ["collect"]

    def test_numeric_adds_no_action(self, spark, songs):
        df = songs.select("*")
        input_profile(df)
        actions = _actions(spark, lambda: partition_stats(df, ["artist", "decade"], (5, 10)))
        assert actions == ["collect"]


def _same_stats(a, b) -> bool:
    return (a.lo, a.hi, a.quantiles, a.fd, a.top) == (b.lo, b.hi, b.quantiles, b.fd, b.top)


class TestStatsMemo:
    """Partition statistics are memoized per DataFrame object: what an
    earlier call computed on the same DataFrame costs no Spark job."""

    def test_subset_runs_no_job(self, spark, songs):
        df = songs.select("*")
        partitions_for_attribute(df, ["year", "artist", "loudness"], (5, 10))
        jobs = _spark_jobs(spark, lambda: partitions_for_attribute(df, ["year", "loudness"]))
        assert jobs == 0

    def test_new_attribute_computed_alone(self, spark, songs, monkeypatch):
        df = songs.select("*")
        partition_stats(df, ["artist", "loudness"], (5, 10))
        scans = []
        scan = partition.value_scan
        monkeypatch.setattr(
            partition, "value_scan", lambda d, cols, *a: scans.append(cols) or scan(d, cols, *a)
        )
        stats = partition_stats(df, ["artist", "loudness", "decade"], (5, 10))
        assert [c for c in scans if c] == [["decade"]]
        assert _same_stats(stats, partition_stats(songs.select("*"), ["artist", "loudness", "decade"]))

    def test_more_sets_match_a_new_dataframe(self, songs):
        attrs = ["year", "artist", "loudness"]
        df = songs.select("*")
        partition_stats(df, attrs, (5, 10))
        wider = partition_stats(df, attrs, (5, 20))
        assert len(wider.top["artist"]) == 20
        assert _same_stats(wider, partition_stats(songs.select("*"), attrs, (5, 20)))
        assert _same_stats(partition_stats(df, attrs, (5,)), partition_stats(songs.select("*"), attrs, (5,)))

    def test_new_dataframe_recomputes(self, spark, songs):
        df = songs.select("*")
        partition_stats(df, ["artist"])
        again = df.select("*")
        input_profile(again)
        assert _spark_jobs(spark, lambda: partition_stats(again, ["artist"])) > 0

    def test_entry_dies_with_its_dataframe(self, songs):
        df = songs.select("*")
        partitions_for_attribute(df, ["year"], (5,))
        ref = weakref.ref(df)
        assert ref() in partition._MEMO
        del df
        gc.collect()
        assert ref() is None
        assert not [v for v in _memo_leaves() if isinstance(v, (DataFrame, Column, PartitionStats))]


def _memo_leaves():
    """Every value in the memo, containers opened."""
    stack = list(partition._MEMO.values())
    while stack:
        x = stack.pop()
        if isinstance(x, partition._Memo):
            stack.extend([x.quantiles, x.top, x.fd])
        elif isinstance(x, dict):
            stack.extend(x.keys())
            stack.extend(x.values())
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        else:
            yield x
