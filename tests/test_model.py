"""Tests for the EDA step model (paper §3.1) incl. oracle checks."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.model import (
    IGNORE_PID,
    PID,
    Aggregation,
    FilterStep,
    GroupByStep,
    JoinStep,
    UnionStep,
)
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def pdf():
    g = np.random.default_rng(5)
    return pd.DataFrame(
        {
            "k": g.integers(0, 10, 300),
            "cat": g.choice(list("xyz"), 300),
            "v": g.random(300).round(4),
        }
    )


@pytest.fixture(scope="module")
def df(spark, pdf):
    return spark.createDataFrame(pdf)


class TestAggregation:
    def test_rejects_unknown_fn(self):
        with pytest.raises(ValueError):
            Aggregation("median", "v", "m")

    def test_count_star_allows_none(self):
        assert Aggregation("count", None, "c").column is None

    def test_non_count_requires_column(self):
        with pytest.raises(ValueError):
            Aggregation("mean", None, "m")


class TestFilterStep:
    def test_oracle(self, df, pdf):
        step = FilterStep(df, "v > 0.5 AND cat = 'x'")
        assert_equivalent(
            step.output(), "SELECT * FROM t WHERE v > 0.5 AND cat = 'x'", t=pdf
        )

    def test_propagates_pid(self, df):
        ann = df.withColumn(PID, (F.col("k") % 3).cast("int"))
        out = FilterStep(df, "v > 0.5").apply_annotated(ann)
        assert PID in out.columns

    def test_predicate_columns(self, df):
        step = FilterStep(df, "v > 0.5 AND cat = 'x'")
        assert step.predicate_columns == {"v", "cat"}

    def test_predicate_columns_skip_string_literals(self, spark):
        d = spark.createDataFrame(pd.DataFrame({"genre": ["year"], "year": [2000]}))
        assert FilterStep(d, "genre = 'year'").predicate_columns == {"genre"}
        assert FilterStep(d, 'genre = "year"').predicate_columns == {"genre"}
        assert FilterStep(d, r"genre = 'it\'s year' OR year > 1").predicate_columns == {
            "genre",
            "year",
        }


class TestGroupByStep:
    def test_oracle_all_aggs(self, df, pdf):
        step = GroupByStep(
            df,
            ["cat"],
            [
                Aggregation("mean", "v", "mv"),
                Aggregation("sum", "v", "sv"),
                Aggregation("count", None, "cnt"),
                Aggregation("min", "v", "minv"),
                Aggregation("max", "v", "maxv"),
            ],
        )
        assert_equivalent(
            step.output(),
            "SELECT cat, avg(v) AS mv, sum(v) AS sv, count(*) AS cnt, "
            "min(v) AS minv, max(v) AS maxv FROM t GROUP BY cat",
            t=pdf,
        )

    def test_pid_not_propagated(self, df):
        ann = df.withColumn(PID, F.lit(0))
        step = GroupByStep(df, ["cat"], [Aggregation("mean", "v", "mv")])
        assert PID not in step.apply_annotated(ann).columns

    def test_partials_reconstruct_mean(self, df, pdf):
        step = GroupByStep(df, ["cat"], [Aggregation("mean", "v", "mv")])
        ann = df.withColumn(PID, (F.col("k") % 2).cast("int"))
        partials = step.partial_aggregates(ann).toPandas()
        combined = partials.groupby("cat").agg(
            s=("__sum__mv", "sum"), c=("__cnt__mv", "sum")
        )
        expected = pdf.groupby("cat")["v"].mean()
        for cat in expected.index:
            assert combined.loc[cat, "s"] / combined.loc[cat, "c"] == pytest.approx(
                expected[cat]
            )


class TestJoinStep:
    def test_oracle(self, spark, df, pdf):
        right_pdf = pd.DataFrame({"k": np.arange(5), "w": np.arange(5) * 10.0})
        right = spark.createDataFrame(right_pdf)
        step = JoinStep(df, right, on=["k"])
        assert_equivalent(
            step.output(),
            "SELECT * FROM t INNER JOIN r USING (k)",
            t=pdf,
            r=right_pdf,
        )

    def test_rejects_non_inner_join(self, spark, df):
        # Leave-one-out by pid is exact only for inner joins: an outer join
        # null-pads the rows a removed set would take away.
        right = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "w": [1.0, 2.0]}))
        for how in ("left", "right", "outer", "left_anti"):
            with pytest.raises(ValueError, match="inner"):
                JoinStep(df, right, on=["k"], how=how, partition_side="right")

    def test_partition_side_right(self, spark, df):
        right = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "w": [1.0, 2.0]}))
        step = JoinStep(df, right, on=["k"], partition_side="right")
        assert step.partitioned_input is right
        ann = right.withColumn(PID, F.lit(0))
        assert PID in step.apply_annotated(ann).columns


class TestUnionStep:
    def test_oracle(self, spark, pdf):
        half = len(pdf) // 2
        a, b = pdf.iloc[:half], pdf.iloc[half:]
        step = UnionStep([spark.createDataFrame(a), spark.createDataFrame(b)])
        assert_equivalent(
            step.output(),
            "SELECT * FROM a UNION ALL SELECT * FROM b",
            a=a,
            b=b,
        )

    def test_other_inputs_get_ignore_pid(self, spark, pdf):
        half = len(pdf) // 2
        a = spark.createDataFrame(pdf.iloc[:half])
        b = spark.createDataFrame(pdf.iloc[half:])
        step = UnionStep([a, b])
        ann = a.withColumn(PID, F.lit(3))
        out = step.apply_annotated(ann)
        pids = {r[PID] for r in out.select(PID).distinct().collect()}
        assert pids == {3, IGNORE_PID}
