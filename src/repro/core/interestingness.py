"""Interestingness measures (paper §3.2) as Spark DataFrame aggregations.

* :func:`ks_statistic` — exceptionality (Eq. 1): two-sample
  Kolmogorov–Smirnov statistic between the value distributions of
  ``d_in[A]`` and ``d_out[A]``, computed as one Catalyst plan
  (per-value frequency aggregate → full outer join → windowed cumulative
  sums → max absolute CDF gap). Used for filter, join, and union steps.
* :func:`cv_diversity` — diversity (Eq. 2): coefficient of variation of an
  aggregated output column. Used for group-by steps.
* :func:`step_interestingness` — per-output-column scores ``I_A(Q)`` for a
  whole step, with the paper's §3.7 uniform-sampling optimization
  (interestingness on a ≤``sample_size``-row sample; contribution later
  still uses all rows).
"""
from __future__ import annotations

import math

from pyspark.sql import Column, DataFrame, Window
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.model import (
    PID,
    FilterStep,
    GroupByStep,
    JoinStep,
    Step,
    UnionStep,
)

#: Spark types treated as numeric for binning / CV purposes.
NUMERIC_TYPES = (
    T.ByteType,
    T.ShortType,
    T.IntegerType,
    T.LongType,
    T.FloatType,
    T.DoubleType,
    T.DecimalType,
)


def is_numeric(df: DataFrame, attr: str) -> bool:
    """True if ``df[attr]`` has a numeric Spark type."""
    return isinstance(df.schema[attr].dataType, NUMERIC_TYPES)


def range_exprs(cols: list[str]) -> list[Column]:
    """min/max aggregate expressions per column, the ranges
    :func:`bin_edges` reads (one row of them per side)."""
    return [
        e
        for c in cols
        for e in (F.min(c).alias(f"__lo_{c}"), F.max(c).alias(f"__hi_{c}"))
    ]


def bin_edges(
    n_distinct: dict[str, int], ranges: list, max_distinct: int
) -> dict[str, tuple[float, float]]:
    """The one binning rule of both phases: which numeric columns are
    equal-width binned, and over which range.

    A column is binned when its (approximate) distinct count on the
    *input* exceeds ``max_distinct``. Its edges span the min/max of every
    side in ``ranges`` (rows of :func:`range_exprs`), since output values
    of a join/union may exceed the partitioned input's range, so bin ids
    are comparable across sides for the KS CDF alignment. A column whose
    range is empty, degenerate or not finite is left unbinned.

    KS compares CDFs over the *value order*; equal-width binning compacts
    the value domain to ≤ ``max_distinct`` points while preserving CDF
    gaps at bin resolution (documented substitution in DESIGN.md).
    """
    edges: dict[str, tuple[float, float]] = {}
    for c, nd in n_distinct.items():
        if nd <= max_distinct:
            continue
        los = [r[f"__lo_{c}"] for r in ranges if r[f"__lo_{c}"] is not None]
        his = [r[f"__hi_{c}"] for r in ranges if r[f"__hi_{c}"] is not None]
        if not los or not his:
            continue
        lo, hi = float(min(los)), float(max(his))
        if math.isfinite(hi - lo) and hi > lo:
            edges[c] = (lo, hi)
    return edges


def binned(attr: str, edge: tuple[float, float], max_distinct: int) -> Column:
    """Bin id of ``attr`` on the equal-width grid of :func:`bin_edges`;
    nulls stay null."""
    lo, hi = edge
    width = (hi - lo) / max_distinct
    b = F.least(
        F.floor((F.col(attr).cast("double") - F.lit(lo)) / F.lit(width)),
        F.lit(max_distinct - 1),
    )
    return F.when(F.col(attr).isNull(), None).otherwise(b)


def bin_pair(
    d_in: DataFrame, d_out: DataFrame, attr: str, max_distinct: int
) -> tuple[DataFrame, DataFrame]:
    """Replace a high-cardinality numeric column by its :func:`bin_edges`
    bin ids on both sides. No-op for categorical columns and for columns
    the rule leaves unbinned."""
    if not is_numeric(d_in, attr) or not is_numeric(d_out, attr):
        return d_in, d_out
    row_in = d_in.agg(
        F.approx_count_distinct(attr).alias("n"), *range_exprs([attr])
    ).collect()[0]
    if row_in["n"] <= max_distinct:
        return d_in, d_out
    row_out = d_out.agg(*range_exprs([attr])).collect()[0]
    edges = bin_edges({attr: row_in["n"]}, [row_in, row_out], max_distinct)
    if attr not in edges:
        return d_in, d_out
    b = binned(attr, edges[attr], max_distinct)
    return d_in.withColumn(attr, b), d_out.withColumn(attr, b)


def value_counts(df: DataFrame, attr: str) -> DataFrame:
    """``groupBy(attr).count()`` with nulls dropped — the relative-frequency
    distribution Pr(d[A]) of Eq. 1 in aggregate form."""
    return df.select(attr).na.drop().groupBy(attr).agg(
        F.count(F.lit(1)).alias("__cnt")
    )


def ks_statistic(
    d_in: DataFrame, d_out: DataFrame, attr: str, *, max_distinct: int = 2000
) -> float:
    """Two-sample KS between ``d_in[attr]`` and ``d_out[attr]`` (Eq. 1).

    Entirely a DataFrame computation: two frequency aggregates, one full
    outer join on the value, window cumulative sums in value order, and a
    single max — only the scalar crosses to the driver. Returns 0.0 when
    either side is empty.
    """
    if attr not in d_out.columns or attr not in d_in.columns:
        return 0.0
    d_in, d_out = bin_pair(d_in, d_out, attr, max_distinct)
    cin = value_counts(d_in, attr).withColumnRenamed("__cnt", "__cin")
    cout = value_counts(d_out, attr).withColumnRenamed("__cnt", "__cout")
    joined = cin.join(cout, on=attr, how="full_outer").select(
        F.col(attr).alias("__v"),
        F.coalesce("__cin", F.lit(0)).alias("__cin"),
        F.coalesce("__cout", F.lit(0)).alias("__cout"),
    )
    w_cum = Window.orderBy("__v").rowsBetween(Window.unboundedPreceding, 0)
    w_all = Window.rowsBetween(Window.unboundedPreceding, Window.unboundedFollowing)
    row = (
        joined.select(
            (F.sum("__cin").over(w_cum)).alias("__cum_in"),
            (F.sum("__cout").over(w_cum)).alias("__cum_out"),
            F.sum("__cin").over(w_all).alias("__tot_in"),
            F.sum("__cout").over(w_all).alias("__tot_out"),
        )
        .select(
            # try_divide: an empty side yields NULL (handled below), not a
            # Spark-4 ANSI division-by-zero error.
            F.max(
                F.abs(
                    F.try_divide("__cum_in", "__tot_in")
                    - F.try_divide("__cum_out", "__tot_out")
                )
            ).alias("ks"),
            F.min("__tot_in").alias("tin"),
            F.min("__tot_out").alias("tout"),
        )
        .collect()
    )
    if (
        not row
        or row[0]["ks"] is None
        or row[0]["tin"] in (0, None)
        or row[0]["tout"] in (0, None)
    ):
        return 0.0
    return float(row[0]["ks"])


def cv_diversity(d_out: DataFrame, attr: str) -> float:
    """Coefficient of variation of ``d_out[attr]`` (Eq. 2), one aggregate.

    Sample standard deviation over |mean| (see ``reference.cv`` for the
    sign convention); 0.0 for <2 values or a ~zero mean.
    """
    row = d_out.agg(
        F.stddev_samp(attr).alias("s"),
        F.avg(attr).alias("m"),
        F.count(attr).alias("n"),
    ).collect()[0]
    if row["n"] is None or row["n"] < 2 or row["s"] is None:
        return 0.0
    if row["m"] is None or abs(row["m"]) < 1e-12:
        return 0.0
    return float(row["s"] / abs(row["m"]))


def ks_scores_bulk(
    d_in: DataFrame,
    d_out: DataFrame,
    columns: list[str],
    *,
    max_distinct: int = 2000,
) -> dict[str, float]:
    """KS of *every* column in one constant number of Spark jobs.

    Per-column :func:`ks_statistic` costs ~4 jobs each; at 20+ columns the
    scheduling overhead dominates (the paper's Fig. 9 sweeps column
    count). This melt-based variant does: one ``approx_count_distinct``
    aggregate, one min/max aggregate per side for shared bin edges, then
    one ``explode``→``groupBy(column, value).count()`` aggregate per side
    — ~6 jobs total for the full schema. High-cardinality numeric columns
    are equal-width binned by :func:`bin_edges`, the rule phase 2 uses;
    the driver-side KS combine is O(distinct values).
    """
    cols = [c for c in columns if c in d_in.columns and c in d_out.columns]
    if not cols:
        return {}
    num = [c for c in cols if is_numeric(d_in, c) and is_numeric(d_out, c)]
    cat = [c for c in cols if c not in num]
    scores: dict[str, float] = {c: 0.0 for c in cols}

    edges: dict[str, tuple[float, float]] = {}
    if num:
        nd = d_in.agg(
            *[F.approx_count_distinct(c).alias(c) for c in num]
        ).collect()[0]
        hi_card = {c: nd[c] for c in num if nd[c] > max_distinct}
        if hi_card:
            ranges = [
                df.agg(*range_exprs(list(hi_card))).collect()[0] for df in (d_in, d_out)
            ]
            edges = bin_edges(hi_card, ranges, max_distinct)

    def _melt_counts(df: DataFrame, cols_: list[str], numeric: bool):
        structs = []
        for c in cols_:
            if numeric:
                v = binned(c, edges[c], max_distinct) if c in edges else F.col(c)
                v = v.cast("double")
            else:
                v = F.col(c).cast("string")
            structs.append(F.struct(F.lit(c).alias("c"), v.alias("v")))
        melted = df.select(F.explode(F.array(*structs)).alias("kv")).select(
            "kv.c", "kv.v"
        )
        return (
            melted.na.drop(subset=["v"])
            .groupBy("c", "v")
            .agg(F.count(F.lit(1)).alias("n"))
            .toPandas()
        )

    import pandas as pd  # local import keeps module deps explicit

    from repro.core import reference

    for group, numeric in ((num, True), (cat, False)):
        if not group:
            continue
        cin = _melt_counts(d_in, group, numeric)
        cout = _melt_counts(d_out, group, numeric)
        for c in group:
            a = cin[cin["c"] == c].set_index("v")["n"]
            b = cout[cout["c"] == c].set_index("v")["n"]
            if a.empty or b.empty:
                scores[c] = 0.0
                continue
            idx = a.index.union(b.index)
            idx = idx[
                pd.Index(idx).to_numpy(dtype=float if numeric else str).argsort()
            ]
            scores[c] = reference.ks_from_counts(
                a.reindex(idx, fill_value=0).to_numpy(float),
                b.reindex(idx, fill_value=0).to_numpy(float),
            )
    return scores


def _sample_cap(df: DataFrame, sample_size: int | None, seed: int) -> DataFrame:
    """Uniform row sample of ~``sample_size`` rows (paper §3.7). ``None``
    disables sampling (exact FEDEX)."""
    if sample_size is None:
        return df
    n = df.count()
    if n <= sample_size:
        return df
    return df.sample(fraction=min(1.0, sample_size / n * 1.05), seed=seed)


def scoreable_columns(step: Step) -> list[str]:
    """Output columns eligible for an interestingness score.

    Exceptionality steps score every output column that also exists in an
    input (the KS needs both sides). Group-by steps score numeric output
    columns (aggregates, plus numeric group keys) with CV.
    """
    out_cols = [c for c in step.output().columns if c != PID]
    if isinstance(step, GroupByStep):
        return [c for c in out_cols if is_numeric(step.output(), c)]
    if isinstance(step, FilterStep):
        # The predicate column's deviation is a tautology of the filter,
        # not an insight — see FilterStep.predicate_columns.
        out_cols = [c for c in out_cols if c not in step.predicate_columns]
    in_cols = set()
    for df in step.inputs.values():
        in_cols.update(df.columns)
    return [c for c in out_cols if c in in_cols]


def step_interestingness(
    step: Step,
    *,
    columns: list[str] | None = None,
    sample_size: int | None = None,
    max_distinct: int = 2000,
    seed: int = 0,
) -> dict[str, float]:
    """``I_A(Q)`` for each output column A (paper Algorithm 1, lines 1-2).

    Filter/join: KS of each column between the *relevant* input and the
    output (for a join, the input side that carries the column — §3.2).
    Union: max KS over the inputs containing the column. Group-by: CV of
    each numeric output column.
    """
    cols = columns if columns is not None else scoreable_columns(step)
    scores: dict[str, float] = {}
    if isinstance(step, GroupByStep):
        d_out = _sample_cap(step.output(), sample_size, seed)
        d_out = d_out.persist()
        try:
            for c in cols:
                scores[c] = cv_diversity(d_out, c)
        finally:
            d_out.unpersist()
        return scores

    d_out = _sample_cap(step.output(), sample_size, seed).persist()
    sampled_inputs = {
        name: _sample_cap(df, sample_size, seed + 1 + i).persist()
        for i, (name, df) in enumerate(step.inputs.items())
    }
    try:
        # One bulk KS pass per input side (constant Spark jobs per side);
        # a column is scored against the side that owns it — §3.2's d'_in
        # for joins (only join keys appear on both sides, first side
        # wins) — and against every side for unions (max).
        per_side: dict[str, dict[str, float]] = {}
        owner: dict[str, str] = {}
        for name, df in sampled_inputs.items():
            side_cols = [
                c
                for c in cols
                if c in df.columns
                and (isinstance(step, UnionStep) or c not in owner)
            ]
            for c in side_cols:
                owner.setdefault(c, name)
            per_side[name] = ks_scores_bulk(
                df, d_out, side_cols, max_distinct=max_distinct
            )
        for c in cols:
            if isinstance(step, UnionStep):
                vals = [s[c] for s in per_side.values() if c in s]
                scores[c] = max(vals) if vals else 0.0
            else:
                scores[c] = per_side.get(owner.get(c, ""), {}).get(c, 0.0)
    finally:
        d_out.unpersist()
        for df in sampled_inputs.values():
            df.unpersist()
    return scores
