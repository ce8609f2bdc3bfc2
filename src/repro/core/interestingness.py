"""Interestingness measures (paper §3.2) over Spark DataFrames.

* **Exceptionality** (Eq. 1), for filter, join and union steps: the
  two-sample Kolmogorov–Smirnov statistic between the value distributions
  of ``d_in[A]`` and ``d_out[A]``. Both phases count values through one
  path, in **one** Spark aggregate per phase: :func:`bin_edges` (the bin
  decisions and edges, from the memoized :func:`input_profile` alone),
  :func:`melted_counts` (every side exploded to one row per (set id,
  column) element, tagged with its side, unioned and counted by one
  ``groupBy``) and :func:`aligned_pivots` (both sides' counts in CDF
  order). The KS itself is :func:`repro.core.reference.ks_from_counts` /
  :func:`~repro.core.reference.leave_one_out_ks` on those counts.
  :func:`ks_scores_bulk` is phase 1's caller, with one constant set id,
  for every input side of a step at once;
  ``contribution.exceptionality_contributions_multi`` is phase 2's.
* **Diversity** (Eq. 2), for group-by steps: the coefficient of variation
  :func:`repro.core.reference.cv` of each aggregated output column, read
  by ``Fedex`` from the diversity contribution pass, not scored here.
* :func:`step_interestingness` — per-output-column KS scores ``I_A(Q)``
  for a whole filter, join or union step, with the paper's §3.7
  uniform-sampling optimization (interestingness on a ≤``sample_size``-row
  sample; contribution later still uses all rows).
"""
from __future__ import annotations

import functools
import math
import weakref
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core import reference
from repro.core.model import (
    IGNORE_PID,
    PID,
    FilterStep,
    GroupByStep,
    JoinStep,
    Step,
    UnionStep,
    quote,
    sql_double,
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


@dataclass(frozen=True)
class InputProfile:
    """What both phases read about one input DataFrame alone; see
    :func:`input_profile`."""

    rows: int
    distinct: Mapping[str, int]  # exact; nulls out, NaN once, -0.0 == 0.0
    raw_lo: Mapping[str, object]  # numeric min/max, NaN above +inf: bin edges
    raw_hi: Mapping[str, object]
    lo: Mapping[str, object]  # numeric min/max without nulls/NaNs: partition labels
    hi: Mapping[str, object]


_PROFILES: weakref.WeakKeyDictionary[DataFrame, InputProfile] = weakref.WeakKeyDictionary()


def is_float(df: DataFrame, c: str) -> bool:
    """True if ``df[c]`` is a float or double column, which may hold NaN."""
    return isinstance(df.schema[c].dataType, (T.FloatType, T.DoubleType))


def present(df: DataFrame, c: str) -> str:
    """SQL condition: ``df[c]`` is neither null nor NaN — the rows
    ``na.drop`` keeps."""
    cond = f"{quote(c)} IS NOT NULL"
    return f"{cond} AND NOT isnan({quote(c)})" if is_float(df, c) else cond


def input_profile(df: DataFrame) -> InputProfile:
    """The :class:`InputProfile` of ``df``, from one Spark aggregate, once
    per DataFrame object (a weak-keyed memo): both phases and every step
    over one input share it. A DataFrame is an immutable plan; one over a
    source that changes under it is out of scope."""
    if df not in _PROFILES:
        numeric = [c for c in df.columns if is_numeric(df, c)]
        stats = {("distinct", c): f"size(collect_set({quote(c)}))" for c in df.columns}
        for c in numeric:
            q = quote(c)
            kept = f"CASE WHEN {present(df, c)} THEN {q} END"
            if is_float(df, c):
                # collect_set keeps each NaN apart from the others: count
                # NaN once, as countDistinct does.
                has_nan = f"CAST(count(CASE WHEN isnan({q}) THEN 1 END) > 0 AS INT)"
                stats["distinct", c] = f"size(collect_set({kept})) + {has_nan}"
            stats["raw_lo", c], stats["raw_hi", c] = f"min({q})", f"max({q})"
            stats["lo", c], stats["hi", c] = f"min({kept})", f"max({kept})"
        exprs = [f"{e} AS __{i}" for i, e in enumerate(stats.values())]
        row = df.selectExpr("count(1)", *exprs).collect()[0]
        fields: dict[str, dict] = {f: {} for f in ("distinct", "raw_lo", "raw_hi", "lo", "hi")}
        for (f, c), v in zip(stats, row[1:]):
            fields[f][c] = v
        _PROFILES[df] = InputProfile(row[0], **{f: MappingProxyType(m) for f, m in fields.items()})
    return _PROFILES[df]


def bin_edges(
    step: Step, compared: DataFrame, columns: Sequence[str], max_distinct: int
) -> dict[str, tuple[float, float]]:
    """The one binning rule of both phases, for the comparison of the
    input ``compared`` (unsampled) with ``step``'s output: a numeric
    column is equal-width binned when its exact distinct count on
    ``compared`` exceeds ``max_distinct``.

    The edges span the range of every input whose values reach the
    output, read from the memoized :func:`input_profile` (no Spark job):
    the compared input for a filter or a join, whose output values of the
    column are a subset of its values, and every input for a union, whose
    output is their union. So bin ids are comparable across sides for the
    KS CDF alignment. A column whose range is empty, degenerate or not
    finite is left unbinned.

    KS compares CDFs over the *value order*; equal-width binning compacts
    the value domain to ≤ ``max_distinct`` points while preserving CDF
    gaps at bin resolution (documented substitution in DESIGN.md).

    Returns ``{column: (lo, hi)}`` for the binned columns.
    """
    profile = input_profile(compared)
    span = (
        [input_profile(df) for df in step.inputs.values()]
        if isinstance(step, UnionStep)
        else [profile]
    )
    edges: dict[str, tuple[float, float]] = {}
    for c in columns:
        if c not in profile.raw_lo or profile.distinct[c] <= max_distinct:
            continue
        bounds = [
            float(v) for p in span for v in (p.raw_lo.get(c), p.raw_hi.get(c)) if v is not None
        ]
        if not bounds or any(math.isnan(v) for v in bounds):
            continue
        lo, hi = min(bounds), max(bounds)
        if math.isfinite(hi - lo) and hi > lo:
            edges[c] = (lo, hi)
    return edges


def binned(attr: str, edge: tuple[float, float] | None, max_distinct: int) -> str:
    """SQL: bin id of ``attr`` on the equal-width grid of :func:`bin_edges`
    (nulls stay null), or ``attr`` itself when ``edge`` is ``None``."""
    q = quote(attr)
    if edge is None:
        return q
    lo, hi = edge
    width = sql_double((hi - lo) / max_distinct)
    b = f"floor((CAST({q} AS DOUBLE) - {sql_double(lo)}) / {width})"
    return f"CASE WHEN {q} IS NULL THEN NULL ELSE least({b}, {max_distinct - 1}) END"


def melt_element(j: int, value: str, numeric: bool, pid: str) -> str:
    """SQL: element ``j`` of a :func:`melted_counts` melt, ``value`` (a
    number or bin id, else cast to a string) counted per set id ``pid``."""
    vn, vs = "CAST(NULL AS DOUBLE)", "CAST(NULL AS STRING)"
    if numeric:
        vn = f"CAST({value} AS DOUBLE)"
    else:
        vs = f"CAST({value} AS STRING)"
    return f"named_struct('__j', {j}, '__vn', {vn}, '__vs', {vs}, '{PID}', {pid})"


def melted_counts(
    sides: Sequence[tuple[DataFrame, Sequence[str]]],
) -> dict[tuple[int, int], pd.DataFrame]:
    """Per-(value, set) row counts of every :func:`melt_element` of every
    side, keyed by ``(side index, element index)`` — **one** Spark
    aggregate: each side is exploded to one row per element and tagged
    with its index, the melts are unioned, and one
    ``groupBy(side, element, value, set).count()`` is collected.

    Numeric values go to ``__vn`` as doubles, other values to ``__vs`` as
    strings; nulls and NaNs are dropped, as from a value distribution. An
    element with no value on a side has no entry.
    """
    melts = [
        df.selectExpr(f"{s} AS __side", f"inline(array({', '.join(elems)}))")
        for s, (df, elems) in enumerate(sides)
        if elems
    ]
    if not melts:
        return {}
    counts = (
        functools.reduce(DataFrame.unionByName, melts)
        .where("(__vn IS NOT NULL AND NOT isnan(__vn)) OR __vs IS NOT NULL")
        .groupBy("__side", "__j", "__vn", "__vs", PID)
        .agg(F.expr("count(1) AS __cnt"))
        .toPandas()
    )
    return dict(tuple(counts.groupby(["__side", "__j"])))


def aligned_pivots(
    counts_in: pd.DataFrame | None, counts_out: pd.DataFrame | None, numeric: bool
) -> tuple[pd.DataFrame, pd.DataFrame] | None:
    """One element's :func:`melted_counts` on both sides as value × set
    count tables, aligned on the union of values in CDF order (ascending
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
    d_out: DataFrame,
    comparisons: Sequence[tuple[DataFrame, Sequence[str], Mapping[str, tuple[float, float]]]],
    *,
    max_distinct: int = 2000,
) -> list[dict[str, float]]:
    """KS against ``d_out`` of the columns of every ``(d_in, columns,
    edges)`` comparison present on both sides, from one
    :func:`melted_counts` aggregate: each input melts its own columns, and
    the output one element per (column, edges) pair some comparison uses;
    columns in ``edges`` (:func:`bin_edges`) are binned. The driver-side KS
    combine is O(distinct values). Returns one ``{column: KS}`` per
    comparison; a column with no value on a side scores 0.0.
    """
    elements: dict[tuple, tuple[int, str]] = {}  # (c, numeric, edge) -> (j, elem)
    plan: list[tuple[int, str, int, bool]] = []  # (side, column, j, numeric)
    in_elems: list[list[str]] = []
    for s, (d_in, columns, edges) in enumerate(comparisons, start=1):
        elems = []
        for c in columns:
            if c not in d_in.columns or c not in d_out.columns:
                continue
            num = is_numeric(d_in, c) and is_numeric(d_out, c)
            key = (c, num, edges.get(c) if num else None)
            if key not in elements:
                j = len(elements)
                value = binned(c, key[2], max_distinct)
                elements[key] = (j, melt_element(j, value, num, str(IGNORE_PID)))
            j, elem = elements[key]
            elems.append(elem)
            plan.append((s, c, j, num))
        in_elems.append(elems)
    out_elems = [elem for _, elem in elements.values()]
    counts = melted_counts(
        [(d_out, out_elems)] + [(d_in, e) for (d_in, _, _), e in zip(comparisons, in_elems)]
    )
    scores: list[dict[str, float]] = [{} for _ in comparisons]
    for s, c, j, num in plan:
        piv = aligned_pivots(counts.get((s, j)), counts.get((0, j)), num)
        scores[s - 1][c] = (
            0.0
            if piv is None
            else reference.ks_from_counts(*(p.to_numpy(float).sum(axis=1) for p in piv))
        )
    return scores


def _sample_cap(df: DataFrame, sample_size: int | None, seed: int, rows=None) -> DataFrame:
    """Uniform row sample of ~``sample_size`` rows (paper §3.7) of ``df``,
    which has ``rows`` rows (counted if not given). ``None`` disables
    sampling (exact FEDEX)."""
    if sample_size is None:
        return df
    n = df.count() if rows is None else rows
    if n <= sample_size:
        return df
    return df.sample(fraction=min(1.0, sample_size / n * 1.05), seed=seed)


def scoreable_columns(step: Step) -> list[str]:
    """Output columns eligible for an interestingness score.

    Exceptionality steps score every output column that also exists in an
    input (the KS needs both sides). Group-by steps score numeric output
    columns (aggregates, plus numeric group keys) with CV.
    """
    out = step.output()
    out_cols = [c for c in out.columns if c != PID]
    if isinstance(step, GroupByStep):
        return [c for c in out_cols if is_numeric(out, c)]
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
    """``I_A(Q)`` for each output column A (paper Algorithm 1, lines 1-2)
    of a filter, join or union step.

    Filter/join: KS of each column between the *relevant* input and the
    output (for a join, the input side that carries the column — §3.2).
    Union: max KS over the inputs containing the column. A group-by step
    raises ``TypeError``: its CVs come from the diversity contribution
    pass (module docstring).
    """
    if isinstance(step, GroupByStep):
        raise TypeError("group-by interestingness comes from the diversity contribution pass")
    cols = columns if columns is not None else scoreable_columns(step)
    # A filter or union output has at most its inputs' rows: within
    # sample_size, it is kept whole without being counted. A join's is counted.
    rows = sum(input_profile(df).rows for df in step.inputs.values())
    fits = sample_size is not None and rows <= sample_size and not isinstance(step, JoinStep)
    d_out = _sample_cap(step.output(), sample_size, seed, rows if fits else None)
    # One KS comparison per input side, all in one aggregate that reads
    # every side once, so nothing is persisted; a column is scored against
    # the side that owns it — §3.2's d'_in for joins (only join keys
    # appear on both sides, first side wins) — and against every side for
    # unions (max).
    comparisons = []
    taken: set[str] = set()
    for i, df in enumerate(step.inputs.values()):
        side_cols = [
            c
            for c in cols
            if c in df.columns and (isinstance(step, UnionStep) or c not in taken)
        ]
        taken.update(side_cols)
        sample = _sample_cap(df, sample_size, seed + 1 + i, input_profile(df).rows)
        comparisons.append((sample, side_cols, bin_edges(step, df, side_cols, max_distinct)))
    per_side = ks_scores_bulk(d_out, comparisons, max_distinct=max_distinct)
    return {c: max((s[c] for s in per_side if c in s), default=0.0) for c in cols}
