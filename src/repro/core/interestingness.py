"""Interestingness measures (paper §3.2) over Spark DataFrames.

* **Exceptionality** (Eq. 1), for filter, join and union steps: the
  two-sample Kolmogorov–Smirnov statistic between the value distributions
  of ``d_in[A]`` and ``d_out[A]``. Both phases count values through one
  path: :func:`side_aggregates` (at most one aggregate per side: row
  count, set shares, the bin decisions), :func:`melted_counts` (one count
  aggregate per side over the side exploded to one row per (set id,
  column) pair) and :func:`aligned_pivots` (both sides' counts in CDF
  order). The KS itself is :func:`repro.core.reference.ks_from_counts` /
  :func:`~repro.core.reference.leave_one_out_ks` on those counts.
  :func:`ks_scores_bulk` is phase 1's caller, with one constant set id;
  ``contribution.exceptionality_contributions_multi`` is phase 2's.
* **Diversity** (Eq. 2), for group-by steps: the coefficient of variation
  :func:`repro.core.reference.cv` of each aggregated output column,
  scored on the collected (one row per group) output.
* :func:`step_interestingness` — per-output-column scores ``I_A(Q)`` for a
  whole step, with the paper's §3.7 uniform-sampling optimization
  (interestingness on a ≤``sample_size``-row sample; contribution later
  still uses all rows).
"""
from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, Row
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core import reference
from repro.core.model import (
    IGNORE_PID,
    PID,
    FilterStep,
    GroupByStep,
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


def side_aggregates(
    d_in: DataFrame,
    d_out: DataFrame,
    numeric: list[str],
    max_distinct: int,
    extra: Sequence[Column] = (),
) -> tuple[Row | None, Row | None, dict[str, tuple[float, float]]]:
    """At most one aggregate per side of a KS comparison, and the one
    binning rule of both phases.

    The input's row holds its row count ``__total``, the ``extra``
    expressions, and the min/max and approximate (HyperLogLog) distinct
    count of every ``numeric`` column. A numeric column is equal-width
    binned when that distinct count exceeds ``max_distinct``. The output's
    row holds ``__total``, ``extra`` and the min/max of the binned columns
    only; the bin edges span both sides, since output values of a
    join/union may exceed the partitioned input's range, so bin ids are
    comparable across sides for the KS CDF alignment. A column whose range
    is empty, degenerate or not finite is left unbinned.

    A side's aggregate runs only when its row is read: the input's when
    there is a numeric column or an ``extra`` expression, the output's
    when a column is binned or there is an ``extra`` expression. A row
    not computed is ``None``.

    KS compares CDFs over the *value order*; equal-width binning compacts
    the value domain to ≤ ``max_distinct`` points while preserving CDF
    gaps at bin resolution (documented substitution in DESIGN.md).

    Returns ``(row_in, row_out, edges)``, ``edges`` mapping each binned
    column to its ``(lo, hi)``.
    """

    def ranges(cols: list[str]) -> list[Column]:
        return [
            e
            for c in cols
            for e in (F.min(c).alias(f"__lo_{c}"), F.max(c).alias(f"__hi_{c}"))
        ]

    total = F.count(F.lit(1)).alias("__total")
    n_distinct = [F.approx_count_distinct(c).alias(f"__nd_{c}") for c in numeric]
    row_in = (
        d_in.agg(*extra, total, *ranges(numeric), *n_distinct).collect()[0]
        if extra or numeric
        else None
    )
    wide = [c for c in numeric if row_in[f"__nd_{c}"] > max_distinct]
    row_out = (
        d_out.agg(*extra, total, *ranges(wide)).collect()[0] if extra or wide else None
    )
    edges: dict[str, tuple[float, float]] = {}
    for c in wide:
        los = [r[f"__lo_{c}"] for r in (row_in, row_out) if r[f"__lo_{c}"] is not None]
        his = [r[f"__hi_{c}"] for r in (row_in, row_out) if r[f"__hi_{c}"] is not None]
        if not los or not his:
            continue
        lo, hi = float(min(los)), float(max(his))
        if math.isfinite(hi - lo) and hi > lo:
            edges[c] = (lo, hi)
    return row_in, row_out, edges


def binned(attr: str, edge: tuple[float, float], max_distinct: int) -> Column:
    """Bin id of ``attr`` on the equal-width grid of
    :func:`side_aggregates`; nulls stay null."""
    lo, hi = edge
    width = (hi - lo) / max_distinct
    b = F.least(
        F.floor((F.col(attr).cast("double") - F.lit(lo)) / F.lit(width)),
        F.lit(max_distinct - 1),
    )
    return F.when(F.col(attr).isNull(), None).otherwise(b)


def melted_counts(
    df: DataFrame,
    pairs: list[tuple[Column, str]],
    numeric: set[str],
    edges: dict[str, tuple[float, float]],
    max_distinct: int,
) -> dict[int, pd.DataFrame]:
    """Per-(value, set) row counts of every (set-id expression, column)
    pair in ``pairs``, keyed by the pair's index — one Spark aggregate
    over ``df`` exploded to one row per pair.

    Numeric values go to ``__vn`` as doubles (bin ids for columns in
    ``edges``), other values to ``__vs`` as strings; nulls and NaNs are
    dropped, as from a value distribution. A pair whose column has no
    value on ``df`` has no entry.
    """
    elems = []
    for j, (pid, c) in enumerate(pairs):
        if c in numeric:
            v = binned(c, edges[c], max_distinct) if c in edges else F.col(c)
            vn = v.cast("double")
            vs = F.lit(None).cast("string")
        else:
            vn, vs = F.lit(None).cast("double"), F.col(c).cast("string")
        elems.append(
            F.struct(
                F.lit(j).alias("__j"),
                vn.alias("__vn"),
                vs.alias("__vs"),
                pid.alias(PID),
            )
        )
    counts = (
        df.select(F.inline(F.array(*elems)))
        .where(
            (F.col("__vn").isNotNull() & ~F.isnan("__vn")) | F.col("__vs").isNotNull()
        )
        .groupBy("__j", "__vn", "__vs", PID)
        .agg(F.count(F.lit(1)).alias("__cnt"))
        .toPandas()
    )
    return dict(tuple(counts.groupby("__j")))


def aligned_pivots(
    counts_in: pd.DataFrame | None, counts_out: pd.DataFrame | None, numeric: bool
) -> tuple[pd.DataFrame, pd.DataFrame] | None:
    """One pair's :func:`melted_counts` of both sides as value × set count
    tables, aligned on the union of values in CDF order (ascending
    numeric, else lexicographic). ``None`` when a side has no value."""
    if counts_in is None or counts_out is None:
        return None
    value = "__vn" if numeric else "__vs"
    piv_in, piv_out = (
        pdf.set_index([value, PID])["__cnt"].unstack(fill_value=0)
        for pdf in (counts_in, counts_out)
    )
    values = piv_in.index.union(piv_out.index)
    values = values[np.argsort(values.to_numpy(dtype=float if numeric else str))]
    return piv_in.reindex(values, fill_value=0), piv_out.reindex(values, fill_value=0)


def ks_scores_bulk(
    d_in: DataFrame,
    d_out: DataFrame,
    columns: list[str],
    *,
    max_distinct: int = 2000,
) -> dict[str, float]:
    """KS of every column of ``columns`` present on both sides, in a
    constant number of Spark jobs: the :func:`side_aggregates` aggregate
    of the input (none when every column is categorical; one more on the
    output when a column is binned) and one :func:`melted_counts`
    aggregate per side, numeric and categorical columns together.
    High-cardinality numeric columns are binned by the rule phase 2 uses;
    the driver-side KS combine is O(distinct values). A column with no
    value on a side scores 0.0.
    """
    cols = [c for c in columns if c in d_in.columns and c in d_out.columns]
    if not cols:
        return {}
    numeric = [c for c in cols if is_numeric(d_in, c) and is_numeric(d_out, c)]
    _, _, edges = side_aggregates(d_in, d_out, numeric, max_distinct)
    pairs = [(F.lit(IGNORE_PID), c) for c in cols]
    counts_in, counts_out = (
        melted_counts(df, pairs, set(numeric), edges, max_distinct)
        for df in (d_in, d_out)
    )
    scores: dict[str, float] = {}
    for j, c in enumerate(cols):
        piv = aligned_pivots(counts_in.get(j), counts_out.get(j), c in numeric)
        scores[c] = (
            0.0
            if piv is None
            else reference.ks_from_counts(*(p.to_numpy(float).sum(axis=1) for p in piv))
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
    each numeric output column, on the output's scored columns collected
    to the driver — a sample of ~``sample_size`` rows, or with sampling
    off (``None``, exact FEDEX) the whole output, one row per group.
    """
    cols = columns if columns is not None else scoreable_columns(step)
    if isinstance(step, GroupByStep):
        # One row per group: collected once, as phase 2 collects its
        # per-(group, set) partials.
        out = _sample_cap(step.output(), sample_size, seed).select(*cols).toPandas()
        return {c: reference.cv(out[c]) for c in cols}

    scores: dict[str, float] = {}
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
