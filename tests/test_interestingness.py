"""Unit tests for the interestingness measures (paper §3.2)."""
import math

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core import contribution, interestingness, reference
from repro.core.contribution import exceptionality_contributions_multi
from repro.core.interestingness import (
    bin_edges,
    input_profile,
    is_numeric,
    ks_scores_bulk,
    present,
    scoreable_columns,
    step_interestingness,
)
from repro.core.partition import partitions_for_attribute
from repro.core.model import PID, Aggregation, FilterStep, GroupByStep, JoinStep, UnionStep
from repro.oracle import assert_equivalent


def _df(spark, pdf):
    return spark.createDataFrame(pdf)


def _ks_scores(din, dout, max_distinct=2000):
    """Phase 1's KS of column ``x`` between any two DataFrames, binned on
    the edges of a union of both: the span of both sides' ranges."""
    edges = bin_edges(UnionStep([din, dout]), din, ["x"], max_distinct)
    (scores,) = ks_scores_bulk(dout, [(din, ["x"], edges)], max_distinct=max_distinct)
    return scores


def _ks(din, dout, **kw):
    """Phase 1's KS of column ``x``."""
    return _ks_scores(din, dout, **kw)["x"]


def _cv(spark, vals):
    """Phase 1's CV of a one-key group-by whose output column ``x`` holds
    ``vals`` (one group per value)."""
    pdf = pd.DataFrame({"g": range(len(vals)), "v": vals})
    step = GroupByStep(_df(spark, pdf), ["g"], [Aggregation("mean", "v", "x")])
    return step_interestingness(step, columns=["x"])["x"]


# ---------------------------------------------------------------- reference
class TestReferenceKS:
    def test_identical_distributions_zero(self):
        assert reference.ks_2samp([1, 2, 3, 4], [1, 2, 3, 4]) == 0.0

    def test_disjoint_distributions_one(self):
        assert reference.ks_2samp([1, 1, 2], [5, 6, 7]) == 1.0

    def test_known_value(self):
        # in: {1:2, 2:2}; out: {1:1, 2:3} -> CDFs .5/.25 then 1/1 -> KS .25
        assert reference.ks_2samp([1, 1, 2, 2], [1, 2, 2, 2]) == pytest.approx(0.25)

    def test_empty_side_zero(self):
        assert reference.ks_2samp([1, 2], []) == 0.0
        assert reference.ks_2samp([], [1, 2]) == 0.0

    def test_subset_shift(self):
        # Removing the low half shifts mass: KS = share removed below cut.
        a = [1] * 50 + [2] * 50
        b = [2] * 50
        assert reference.ks_2samp(a, b) == pytest.approx(0.5)

    def test_nan_dropped(self):
        assert reference.ks_2samp([1.0, np.nan, 2.0], [1.0, 2.0]) == 0.0

    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=30),
        st.lists(st.integers(0, 5), min_size=1, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, a, b):
        ks = reference.ks_2samp(a, b)
        assert 0.0 <= ks <= 1.0

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_self_ks_zero(self, a):
        assert reference.ks_2samp(a, a) == 0.0

    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=30),
        st.lists(st.integers(0, 5), min_size=1, max_size=30),
    )
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, a, b):
        assert reference.ks_2samp(a, b) == pytest.approx(reference.ks_2samp(b, a))


class TestReferenceCV:
    def test_known_value(self):
        vals = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        expected = np.std(vals, ddof=1) / np.mean(vals)
        assert reference.cv(vals) == pytest.approx(expected)

    def test_negative_mean_uses_abs(self):
        # The paper's loudness example: mean ~ -10 but CV reported positive.
        vals = [-11.0, -9.0, -10.0]
        assert reference.cv(vals) == pytest.approx(1.0 / 10.0)

    def test_constant_zero_variance(self):
        assert reference.cv([3.0, 3.0, 3.0]) == 0.0

    def test_single_value_zero(self):
        assert reference.cv([42.0]) == 0.0

    def test_zero_mean_guard(self):
        assert reference.cv([-1.0, 1.0]) == 0.0

    def test_infinite_value_zero(self):
        # An inf makes the mean or the std non-finite; CV is then 0.0,
        # not NaN (a NaN interestingness breaks the skyline sweep).
        assert reference.cv([1.0, np.inf, 2.0]) == 0.0
        assert reference.cv([-np.inf, np.inf]) == 0.0

    @given(st.lists(st.floats(0.1, 100.0), min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_for_positive_data(self, vals):
        assert reference.cv(vals) >= 0.0

    @given(
        st.lists(st.floats(0.1, 100.0), min_size=2, max_size=30),
        st.floats(0.5, 10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_scale_invariant(self, vals, k):
        assert reference.cv([v * k for v in vals]) == pytest.approx(
            reference.cv(vals), rel=1e-6
        )


# ---------------------------------------------------------------- Spark KS
class TestSparkKS:
    def test_matches_reference_numeric(self, spark):
        g = np.random.default_rng(0)
        a = g.integers(0, 20, 500)
        b = g.integers(5, 25, 300)
        din = _df(spark, pd.DataFrame({"x": a}))
        dout = _df(spark, pd.DataFrame({"x": b}))
        assert _ks(din, dout) == pytest.approx(
            reference.ks_2samp(a, b)
        )

    def test_matches_reference_categorical(self, spark):
        a = ["a"] * 30 + ["b"] * 20 + ["c"] * 10
        b = ["a"] * 5 + ["b"] * 20 + ["c"] * 30
        din = _df(spark, pd.DataFrame({"x": a}))
        dout = _df(spark, pd.DataFrame({"x": b}))
        assert _ks(din, dout) == pytest.approx(
            reference.ks_2samp(a, b)
        )

    def test_identical_zero(self, spark):
        d = _df(spark, pd.DataFrame({"x": [1, 2, 3, 4, 5]}))
        assert _ks(d, d) == 0.0

    def test_empty_output_zero(self, spark):
        din = _df(spark, pd.DataFrame({"x": [1, 2, 3]}))
        dout = din.filter("x > 100")
        assert _ks(din, dout) == 0.0

    def test_missing_column_zero(self, spark):
        din = _df(spark, pd.DataFrame({"x": [1, 2]}))
        dout = _df(spark, pd.DataFrame({"y": [1, 2]}))
        # No score: step_interestingness reads a missing score as 0.0.
        assert _ks_scores(din, dout) == {}

    def test_binning_approximates_high_cardinality(self, spark):
        g = np.random.default_rng(1)
        a = g.normal(0, 1, 4000)
        b = g.normal(1, 1, 2000)
        din = _df(spark, pd.DataFrame({"x": a}))
        dout = _df(spark, pd.DataFrame({"x": b}))
        exact = reference.ks_2samp(a, b)
        binned = _ks(din, dout, max_distinct=200)
        assert binned == pytest.approx(exact, abs=0.03)

    def test_nulls_dropped(self, spark):
        din = _df(spark, pd.DataFrame({"x": [1.0, None, 2.0, 2.0]}))
        dout = _df(spark, pd.DataFrame({"x": [1.0, 2.0, 2.0]}))
        assert _ks(din, dout) == 0.0

    def test_filter_shift_positive(self, spark):
        pdf = pd.DataFrame({"x": list(range(100))})
        din = _df(spark, pdf)
        dout = din.filter("x >= 50")
        assert _ks(din, dout) == pytest.approx(0.5)


class TestInputProfile:
    """The profile's statistics equal the aggregates they replace."""

    @pytest.fixture(scope="class")
    def df(self, spark):
        nan, inf = float("nan"), float("inf")
        schema = T.StructType(
            [
                T.StructField("d", T.DoubleType()),
                T.StructField("f", T.FloatType()),
                T.StructField("i", T.LongType()),
                T.StructField("s", T.StringType()),
                T.StructField("b", T.BooleanType()),
                T.StructField("n", T.DoubleType()),
            ]
        )
        rows = [
            (0.0, -0.0, 3, "a", True, None),
            (-0.0, 0.0, None, "b", False, None),
            (nan, nan, 3, None, None, None),
            (nan, nan, -2, "a", True, None),
            (None, None, 7, "", None, None),
            (1.5, 1.5, 7, "b", True, None),
            (inf, -inf, -2, "c", False, None),
            (-inf, 2.5, None, "a", True, None),
        ]
        return spark.createDataFrame(rows, schema)

    def test_distinct_counts_match_count_distinct(self, df):
        profile = input_profile(df)
        expected = df.agg(*[F.countDistinct(c).alias(c) for c in df.columns])
        assert dict(profile.distinct) == expected.collect()[0].asDict()
        assert profile.rows == df.count()

    def test_ranges_match_min_max(self, df):
        # raw_lo/raw_hi: the bin rule's min/max (NaN ordered last);
        # lo/hi: partition_stats' min/max with nulls and NaNs left out.
        profile = input_profile(df)
        numeric = ["d", "f", "i", "n"]
        kept = {c: F.when(F.expr(present(df, c)), F.col(c)) for c in numeric}
        row = df.agg(
            *[F.min(c).alias(f"raw_lo_{c}") for c in numeric],
            *[F.max(c).alias(f"raw_hi_{c}") for c in numeric],
            *[F.min(v).alias(f"lo_{c}") for c, v in kept.items()],
            *[F.max(v).alias(f"hi_{c}") for c, v in kept.items()],
        ).collect()[0]

        def same(a, b):
            return a == b or (
                isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)
            )

        for field in ("raw_lo", "raw_hi", "lo", "hi"):
            got = getattr(profile, field)
            assert set(got) == set(numeric), field
            for c in numeric:
                assert same(got[c], row[f"{field}_{c}"]), (field, c)
        assert math.isnan(profile.raw_hi["d"]) and profile.hi["d"] == math.inf

    def test_one_profile_per_dataframe_object(self, df):
        assert input_profile(df) is input_profile(df)
        copy = df.select("*")
        assert input_profile(copy) is not input_profile(df)
        assert input_profile(copy).distinct == input_profile(df).distinct


class TestBinRule:
    """One binning rule for both phases: a numeric column is binned when
    its exact distinct count on the input exceeds ``max_distinct``."""

    @staticmethod
    def _scores(spark, values, max_distinct=10):
        """Phase 1's I and phase 2's full KS of ``x`` for the filter
        ``x = 0``, unsampled."""
        # From rows, not pandas: a pandas NaN would arrive as a null.
        df = spark.createDataFrame([(float(v),) for v in np.repeat(values, 3)], "x double")
        step = FilterStep(df, "x = 0")
        phase1 = step_interestingness(step, columns=["x"], max_distinct=max_distinct)
        p = partitions_for_attribute(df, ["x"], (2,))[0]
        (res,) = exceptionality_contributions_multi(
            step, [(p, ["x"])], max_distinct=max_distinct
        )
        return phase1["x"], res.score_full

    @staticmethod
    def _values(n):
        """``n`` distinct values; 0 and 0.5 share bin 0 when binned."""
        return [0.0, 0.5] + [float(v) for v in range(2, n)]

    def test_exactly_max_distinct_stays_unbinned(self, spark):
        # Exact KS: only the value 0 is kept, 1 of 10 input values.
        for score in self._scores(spark, self._values(10)):
            assert score == pytest.approx(1 - 1 / 10)

    def test_one_more_is_binned(self, spark):
        # Binned: 0 and 0.5 fall in one bin, 2 of 11 input values.
        for score in self._scores(spark, self._values(11)):
            assert score == pytest.approx(1 - 2 / 11)

    @pytest.mark.parametrize("extra", [float("nan"), float("inf")])
    def test_non_finite_range_left_unbinned(self, spark, extra):
        # A NaN or inf makes the range not finite: exact KS over the
        # present values (NaN is dropped, inf is one more value).
        values = self._values(11) + [extra]
        n = 11 if math.isnan(extra) else 12
        for score in self._scores(spark, values):
            assert score == pytest.approx(1 - 1 / n)

    def test_union_edges_span_every_input(self, spark, monkeypatch):
        # The second input extends x past the partitioned input's range:
        # both phases bin on the span of both profiles, and every set's C
        # equals a re-run of the union binned on that span.
        g = np.random.default_rng(8)
        a, b = g.normal(0, 1, 300).round(3), g.normal(4, 1, 200).round(3)
        d0, d1 = (_df(spark, pd.DataFrame({"x": v})) for v in (a, b))
        step, md = UnionStep([d0, d1]), 20
        lo, hi = min(a.min(), b.min()), max(a.max(), b.max())
        assert b.max() > a.max()
        edges = []
        real = interestingness.binned
        for module in (interestingness, contribution):
            monkeypatch.setattr(
                module, "binned", lambda attr, edge, m: edges.append(edge) or real(attr, edge, m)
            )

        def bins(v):
            return np.minimum(np.floor((np.asarray(v) - lo) / ((hi - lo) / md)), md - 1)

        def ks(d_in, others):
            return reference.ks_2samp(bins(d_in), bins(np.concatenate([d_in, others])))

        phase1 = step_interestingness(step, columns=["x"], max_distinct=md)["x"]
        assert edges == [(lo, hi)]
        assert phase1 == pytest.approx(max(ks(a, b), ks(b, a)), abs=1e-9)

        edges.clear()
        partitions = partitions_for_attribute(d0, ["x"], (5,))
        results = exceptionality_contributions_multi(
            step, [(p, ["x"]) for p in partitions], max_distinct=md
        )
        assert edges == [(lo, hi)] * len(partitions) and results
        for res in results:
            pdf = res.partition.df.toPandas()
            full = ks(a, b)
            assert res.score_full == pytest.approx(full, abs=1e-9)
            for i in res.partition.set_ids:
                kept = pdf.loc[pdf[PID] != i, "x"].to_numpy()
                assert res.contributions[i] == pytest.approx(full - ks(kept, b), abs=1e-9)


# ---------------------------------------------------------------- Spark CV
class TestSparkCV:
    def test_matches_reference(self, spark):
        vals = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        assert _cv(spark, vals) == pytest.approx(reference.cv(vals))

    def test_oracle_equivalence(self, spark):
        """The CV aggregate agrees with DuckDB's stddev_samp/avg."""
        pdf = pd.DataFrame({"x": np.random.default_rng(2).random(200) + 0.5})
        d = _df(spark, pdf)
        from pyspark.sql import functions as F

        spark_cv = d.agg(
            (F.stddev_samp("x") / F.abs(F.avg("x"))).alias("cv")
        )
        assert_equivalent(
            spark_cv,
            "SELECT stddev_samp(x) / abs(avg(x)) AS cv FROM t",
            t=pdf,
        )

    def test_phase1_cv_matches_oracle(self, spark):
        """Phase 1's CV (``reference.cv`` of the collected output) agrees
        with DuckDB's stddev_samp/abs(avg) over the same values."""
        pdf = pd.DataFrame({"x": np.random.default_rng(2).random(200) - 0.2})
        got = _df(spark, pd.DataFrame({"cv": [_cv(spark, pdf["x"].tolist())]}))
        assert_equivalent(
            got, "SELECT stddev_samp(x) / abs(avg(x)) AS cv FROM t", t=pdf
        )

    def test_constant_column(self, spark):
        assert _cv(spark, [5.0] * 10) == 0.0

    def test_single_row(self, spark):
        assert _cv(spark, [5.0]) == 0.0

    def test_negative_mean(self, spark):
        assert _cv(spark, [-11.0, -9.0, -10.0]) == pytest.approx(0.1)


# ------------------------------------------------------- step-level scoring
class TestStepInterestingness:
    def test_filter_step_scores_all_columns(self, spark):
        pdf = pd.DataFrame(
            {
                "year": np.repeat([1970, 1990, 2010], 100),
                "pop": np.concatenate(
                    [
                        np.full(100, 10.0),
                        np.full(100, 40.0),
                        np.full(100, 80.0),
                    ]
                ),
            }
        )
        step = FilterStep(_df(spark, pdf), "pop > 65")
        scores = step_interestingness(step)
        # The predicate column 'pop' is excluded (its deviation is a
        # tautology of the filter); 'year' is scored.
        assert set(scores) == {"year"}
        # The filter keeps only 2010 rows: year distribution shifts fully.
        assert scores["year"] == pytest.approx(2 / 3)

    def test_groupby_step_scores_numeric_outputs(self, spark):
        pdf = pd.DataFrame(
            {
                "g": list("aabbcc"),
                "v": [1.0, 1.0, 10.0, 10.0, 100.0, 100.0],
            }
        )
        step = GroupByStep(
            _df(spark, pdf), ["g"], [Aggregation("mean", "v", "mv")]
        )
        scores = step_interestingness(step)
        assert "mv" in scores
        assert scores["mv"] == pytest.approx(reference.cv([1.0, 10.0, 100.0]))
        assert "g" not in scores  # non-numeric key

    def test_union_takes_max_over_inputs(self, spark):
        d1 = _df(spark, pd.DataFrame({"x": [1] * 50}))
        d2 = _df(spark, pd.DataFrame({"x": [2] * 50}))
        step = UnionStep([d1, d2])
        scores = step_interestingness(step)
        # Union is half 1s, half 2s; each input deviates by 0.5 from it.
        assert scores["x"] == pytest.approx(0.5)

    def test_join_scores_against_owning_side(self, spark):
        left = _df(spark, pd.DataFrame({"k": [1, 1, 2, 3], "lv": [1, 1, 2, 3]}))
        right = _df(spark, pd.DataFrame({"k": [1, 1, 1, 1], "rv": [9, 9, 9, 9]}))
        step = JoinStep(left, right, on=["k"])
        scores = step_interestingness(step)
        # Join keeps only k=1 rows: lv distribution collapses onto 1.
        assert scores["lv"] > 0.0
        assert scores["rv"] == 0.0  # rv was constant already

    def test_sampling_close_to_exact(self, spark):
        g = np.random.default_rng(3)
        pdf = pd.DataFrame(
            {"x": g.normal(0, 1, 20000).round(2), "y": g.integers(0, 10, 20000)}
        )
        step = FilterStep(_df(spark, pdf), "x > 0.5")
        exact = step_interestingness(step)
        sampled = step_interestingness(step, sample_size=5000, seed=7)
        for c in exact:
            assert sampled[c] == pytest.approx(exact[c], abs=0.07)

    def test_user_specified_columns(self, spark):
        pdf = pd.DataFrame({"a": [1, 2, 3, 4], "b": [1, 1, 2, 2]})
        step = FilterStep(_df(spark, pdf), "a > 2")
        scores = step_interestingness(step, columns=["b"])
        assert set(scores) == {"b"}

    def test_scoreable_columns_filter_excludes_predicate(self, spark):
        pdf = pd.DataFrame({"a": [1], "b": ["x"]})
        step = FilterStep(_df(spark, pdf), "a > 0")
        assert set(scoreable_columns(step)) == {"b"}
        assert step.predicate_columns == {"a"}

    def test_user_columns_override_predicate_exclusion(self, spark):
        # §3.8 user-specified columns bypass scoreable_columns entirely.
        pdf = pd.DataFrame({"a": [1, 2, 3, 4], "b": [1, 1, 2, 2]})
        step = FilterStep(_df(spark, pdf), "a > 2")
        assert set(step_interestingness(step, columns=["a"])) == {"a"}

    def test_is_numeric(self, spark):
        d = _df(spark, pd.DataFrame({"a": [1.0], "b": ["x"], "c": [1]}))
        assert is_numeric(d, "a") and is_numeric(d, "c")
        assert not is_numeric(d, "b")
