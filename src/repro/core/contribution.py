"""Contribution of sets-of-rows (paper §3.3, Def. 3.3) — leave-one-out
interventions computed from a fixed number of Spark aggregates per
partitioned input.

Def. 3.3 asks for ``C(R, A, Q) = I_A(Q) − I_A(D_in − R, q, d'_out)`` for
every set-of-rows R in a partition. Recomputing ``q`` per set would cost
|partition| full jobs; instead we exploit provenance:

* **filter/join/union** — removing input set ``i`` removes exactly the
  output rows annotated ``__pid == i`` (the operations commute with row
  removal on the partitioned side). So per-``(value, __pid)`` frequency
  aggregates of the input and output columns, computed **once**, determine
  every leave-one-out KS by column subtraction
  (:func:`repro.core.reference.leave_one_out_ks`).
* **group-by** — per-``(group, __pid)`` algebraic partials (sum/count/
  min/max), computed once, recombine into every leave-one-out aggregate;
  groups whose rows all belonged to the removed set vanish, exactly as if
  the query had been re-run (Def. 3.3 semantics, asserted by tests against
  the naive recompute).

Job budget per partitioned input, whatever the number of partitions and
scored columns (SeeDB-style shared computation, Vartak et al. 2015):

* exceptionality — one aggregate over both sides (input and output), each
  exploded to one row per (partition, column) pair plus one share element
  per partition; the bin decisions and edges read the memoized
  ``input_profile`` of the inputs and run no job;
* diversity — one ``groupBy(keys, partition, set)`` aggregate over the
  input exploded to one row per partition.

Driver-side work is O(|distinct values| × |sets|) numpy — never raw rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core import reference
from repro.core.interestingness import (
    aligned_pivots,
    bin_edges,
    binned,
    is_numeric,
    melt_element,
    melted_counts,
)
from repro.core.model import PID, GroupByStep, Step, quote, sql_double
from repro.core.partition import Partition


@dataclass
class ContributionResult:
    """Contributions of one partition's sets to one output column."""

    column: str
    partition: Partition
    score_full: float  # I_A(Q) computed on the full data
    contributions: dict[int, float]  # set id -> C(R_i, A, Q)
    stats: dict[int, dict] = field(default_factory=dict)  # caption stats
    extra: dict = field(default_factory=dict)  # column-level caption stats

    @property
    def standardized(self) -> dict[int, float]:
        """C̄ per set (z-score within this partition, §3.6)."""
        return reference.standardize(self.contributions)


def exceptionality_contributions_multi(
    step: Step,
    groups: list[tuple[Partition, list[str]]],
    *,
    max_distinct: int = 2000,
) -> list[ContributionResult]:
    """Leave-one-out KS contributions for many partitions of the *same*
    input dataframe, from one Spark aggregate.

    All partitions' pid expressions are attached to one annotated input
    and the operation is applied **once**. One
    :func:`~repro.core.interestingness.melted_counts` aggregate reads each
    side once (so neither is persisted) and counts, per set, every
    (partition, column) pair's values (phase 1's KS counting path, binned
    by :func:`~repro.core.interestingness.bin_edges`) and one constant
    value per partition, whose counts give the caption's set shares.
    """
    if not groups:
        return []
    base = groups[0][0].base
    ann_in, pid_cols = _annotated(groups)
    ann_out = step.apply_annotated(ann_in)
    columns = sorted(
        {c for _, cols in groups for c in cols if c in ann_in.columns and c in ann_out.columns}
    )
    pairs = [(k, c) for k, (_, cols) in enumerate(groups) for c in cols if c in columns]
    if not pairs:
        return []
    numeric = [c for c in columns if is_numeric(ann_in, c) and is_numeric(ann_out, c)]
    edges = bin_edges(step, base, numeric, max_distinct)
    # Elements 0..n-1 count the pairs' values; element n + k counts a
    # constant per set of partition k: its shares.
    n = len(pairs)
    elems = [
        melt_element(j, binned(c, edges.get(c), max_distinct), c in numeric, quote(pid_cols[k]))
        for j, (k, c) in enumerate(pairs)
    ] + [
        melt_element(n + k, sql_double(0.0), True, quote(pc)) for k, pc in enumerate(pid_cols)
    ]
    counts = melted_counts([(ann_in, elems), (ann_out, elems)])

    stats = []
    for k, (p, _) in enumerate(groups):
        share_in, share_out = (_shares(counts.get((s, n + k)), p.set_ids) for s in (0, 1))
        stats.append({i: {"share_in": share_in[i], "share_out": share_out[i]} for i in p.set_ids})
    results: list[ContributionResult] = []
    for j, (k, c) in enumerate(pairs):
        p = groups[k][0]
        piv = aligned_pivots(counts.get((0, j)), counts.get((1, j)), c in numeric)
        if piv is None:
            continue
        full, loo = reference.leave_one_out_ks(*piv, p.set_ids)
        results.append(
            ContributionResult(
                column=c,
                partition=p,
                score_full=full,
                contributions={i: full - loo[i] for i in p.set_ids},
                stats=stats[k],
            )
        )
    return results


def _annotated(groups: list[tuple[Partition, list[str]]]) -> tuple[DataFrame, list[str]]:
    """The partitions' common input with each partition k's set id as
    column ``__pid_k``, and those column names."""
    pid_cols = [f"{PID}_{k}" for k in range(len(groups))]
    pids = {pc: p.pid for (p, _), pc in zip(groups, pid_cols)}
    return groups[0][0].base.withColumns(pids), pid_cols


def _shares(counts: pd.DataFrame | None, set_ids: list[int]) -> dict[int, float]:
    """Each set's share of a side's rows, from a share element's per-set
    counts (the ignore-set included in the total); 0.0 on an empty side."""
    per_set = {} if counts is None else dict(zip(counts[PID], counts["__cnt"]))
    total = int(sum(per_set.values()))
    return {i: int(per_set.get(i, 0)) / total if total else 0.0 for i in set_ids}


def _recombine(partials: pd.DataFrame, step: GroupByStep, keep: pd.Series) -> pd.DataFrame:
    """Combine per-(group, set) partials over the sets selected by ``keep``
    into per-group aggregate values — the dataframe ``q(D_in − R)`` would
    produce. Groups left with zero rows disappear, as in a real re-run."""
    sub = partials[keep]
    if sub.empty:
        return pd.DataFrame(columns=step.keys + [a.alias for a in step.aggs])
    spec: dict[str, tuple] = {"__n": ("__n", "sum")}
    for a in step.aggs:
        if a.fn == "mean":
            spec[f"__sum__{a.alias}"] = (f"__sum__{a.alias}", "sum")
            spec[f"__cnt__{a.alias}"] = (f"__cnt__{a.alias}", "sum")
        elif a.fn == "sum":
            spec[f"__sum__{a.alias}"] = (f"__sum__{a.alias}", "sum")
        elif a.fn == "count":
            spec[f"__cnt__{a.alias}"] = (f"__cnt__{a.alias}", "sum")
        elif a.fn == "min":
            spec[f"__min__{a.alias}"] = (f"__min__{a.alias}", "min")
        elif a.fn == "max":
            spec[f"__max__{a.alias}"] = (f"__max__{a.alias}", "max")
    g = sub.groupby(step.keys, dropna=False, as_index=False).agg(**spec)
    g = g[g["__n"] > 0]
    out = g[step.keys].copy()
    for a in step.aggs:
        if a.fn == "mean":
            cnt = g[f"__cnt__{a.alias}"].to_numpy(float)
            with np.errstate(invalid="ignore", divide="ignore"):
                out[a.alias] = np.where(
                    cnt > 0, g[f"__sum__{a.alias}"].to_numpy(float) / cnt, np.nan
                )
        elif a.fn == "sum":
            out[a.alias] = g[f"__sum__{a.alias}"]
        elif a.fn == "count":
            out[a.alias] = g[f"__cnt__{a.alias}"]
        elif a.fn == "min":
            out[a.alias] = g[f"__min__{a.alias}"]
        elif a.fn == "max":
            out[a.alias] = g[f"__max__{a.alias}"]
    return out


def diversity_contributions_multi(
    step: GroupByStep,
    groups: list[tuple[Partition, list[str]]],
) -> list[ContributionResult]:
    """Leave-one-out CV contributions of many partitions of a group-by
    step's input, from one Spark aggregate.

    The input is exploded to one row per (partition ``__k``, set
    ``__pid``), and a single ``groupBy(keys, __k, __pid)`` job computes
    every partition's per-(group, set) partials; CVs are recomputed on the
    (small) per-group values.
    """
    if not groups:
        return []
    ann, pid_cols = _annotated(groups)
    elems = (f"named_struct('__k', {k}, '{PID}', {quote(pc)})" for k, pc in enumerate(pid_cols))
    exploded = ann.selectExpr("*", f"inline(array({', '.join(elems)}))")
    all_partials = step.partial_aggregates(exploded, by=("__k", PID)).toPandas()
    by_k = dict(tuple(all_partials.groupby("__k")))
    results: list[ContributionResult] = []
    for k, (partition, columns) in enumerate(groups):
        if k in by_k:
            partials = by_k[k].drop(columns="__k").reset_index(drop=True)
            results += _diversity_results(step, partition, columns, partials)
    return results


def _diversity_results(
    step: GroupByStep,
    partition: Partition,
    columns: list[str],
    partials: pd.DataFrame,
) -> list[ContributionResult]:
    """One partition's CV contributions from its per-(group, set) partials.
    Caption statistics ``overall_mean``/``overall_std`` are
    :func:`~repro.core.reference.mean_std` of the group values: both 0.0
    where CV is 0.0 for a non-finite moment or fewer than two groups."""
    full_vals = _recombine(partials, step, partials[PID].notna())
    loo_vals = {
        i: _recombine(partials, step, partials[PID] != i)
        for i in partition.set_ids
    }
    # Dominant set per group (by row count) — caption attribution only.
    dom = (
        partials.groupby(step.keys, dropna=False)
        .apply(lambda g: g.loc[g["__n"].idxmax(), PID], include_groups=False)
        .rename("__dom")
        .reset_index()
    )
    full_dom = full_vals.merge(dom, on=step.keys, how="left")
    results: list[ContributionResult] = []
    for c in columns:
        if c not in full_vals.columns:
            continue
        full_cv = reference.cv(full_vals[c])
        contribs = {
            i: full_cv - reference.cv(loo_vals[i][c]) if c in loo_vals[i] else 0.0
            for i in partition.set_ids
        }
        overall_mean, overall_std = reference.mean_std(full_vals[c])
        stats = {}
        for i in partition.set_ids:
            vals = pd.to_numeric(
                full_dom.loc[full_dom["__dom"] == i, c], errors="coerce"
            ).dropna()
            stats[i] = {
                "set_mean": float(vals.mean()) if len(vals) else float("nan"),
                "n_groups": int(len(vals)),
            }
        results.append(
            ContributionResult(
                column=c,
                partition=partition,
                score_full=full_cv,
                contributions=contribs,
                stats=stats,
                extra={"overall_mean": overall_mean, "overall_std": overall_std},
            )
        )
    return results


def compute_contributions(
    step: Step,
    groups: list[tuple[Partition, list[str]]],
    *,
    max_distinct: int = 2000,
) -> list[ContributionResult]:
    """Dispatch one input's partitions to the measure matching the step
    type (§3.2)."""
    if isinstance(step, GroupByStep):
        return diversity_contributions_multi(step, groups)
    return exceptionality_contributions_multi(step, groups, max_distinct=max_distinct)


def naive_contribution(
    step: Step, partition: Partition, column: str, set_id: int
) -> float:
    """Literal Def. 3.3: drop set ``set_id`` from the input, re-run ``q``
    in Spark, and re-score ``column`` on both outputs with
    :func:`repro.core.reference.ks_2samp` / :func:`~repro.core.reference.cv`
    over the collected values. Used by tests as ground truth for the
    engines above, with which it shares no code (and by no production
    path — it is |sets|× slower). It never bins, so it equals the engines
    where no column exceeds ``max_distinct`` distinct values. Union steps
    are scored against the partitioned input.
    """
    d_in_minus = partition.df.where(f"{PID} != {set_id}").drop(PID)
    d_out_minus = step.apply_annotated(d_in_minus)

    def values(df: DataFrame) -> pd.Series:
        return df.selectExpr(quote(column)).toPandas()[column]

    if isinstance(step, GroupByStep):
        return reference.cv(values(step.output())) - reference.cv(values(d_out_minus))
    full = reference.ks_2samp(values(step.partitioned_input), values(step.output()))
    return full - reference.ks_2samp(values(d_in_minus), values(d_out_minus))
