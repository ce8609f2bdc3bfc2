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

* exceptionality — per side (input, output), one aggregate for every set
  share (on the output also the ranges of binned columns; the bin
  decisions read the input's memoized ``input_profile``), and one
  aggregate over the side exploded to one row per (partition, column) pair;
* diversity — one ``groupBy(keys, partition, set)`` aggregate over the
  input exploded to one row per partition.

Driver-side work is O(|distinct values| × |sets|) numpy — never raw rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import reference
from repro.core.interestingness import (
    aligned_pivots,
    input_profile,
    is_numeric,
    melted_counts,
    side_aggregates,
)
from repro.core.model import PID, GroupByStep, Step
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
    input dataframe, in a fixed number of Spark jobs.

    All partitions' pid expressions are attached to one annotated input,
    the operation is applied **once**, and both sides are persisted. Per
    side, one aggregate computes every (partition, set) share (caption
    stats), the output's also the ranges of binned columns
    (:func:`~repro.core.interestingness.side_aggregates`), and one melted
    aggregate counts every (partition, column) pair's values per set
    (:func:`~repro.core.interestingness.melted_counts`, phase 1's KS
    counting path).
    """
    if not groups:
        return []
    base = groups[0][0].base
    pid_cols = [f"{PID}_{k}" for k in range(len(groups))]
    ann_in = base.select(
        "*", *[p.pid.alias(pc) for (p, _), pc in zip(groups, pid_cols)]
    ).persist()
    ann_out = step.apply_annotated(ann_in).persist()
    results: list[ContributionResult] = []
    try:
        columns = sorted(
            {
                c
                for _, cols in groups
                for c in cols
                if c in ann_in.columns and c in ann_out.columns
            }
        )
        pairs = [
            (k, c) for k, (_, cols) in enumerate(groups) for c in cols if c in columns
        ]
        if not pairs:
            return results
        numeric = [
            c for c in columns if is_numeric(ann_in, c) and is_numeric(ann_out, c)
        ]
        share_exprs = [
            F.sum((F.col(pc) == s).cast("long")).alias(f"{pc}__{s}")
            for (p, _), pc in zip(groups, pid_cols)
            for s in p.set_ids
        ]
        sin, sout, edges = side_aggregates(
            input_profile(base), ann_in, ann_out, numeric, max_distinct, share_exprs
        )

        melt = [(F.col(pid_cols[k]), c) for k, c in pairs]
        counts_in, counts_out = (
            melted_counts(ann, melt, set(numeric), edges, max_distinct)
            for ann in (ann_in, ann_out)
        )

        tot_in, tot_out = sin["__total"], sout["__total"]
        stats = [
            {
                i: {
                    "share_in": (sin[f"{pc}__{i}"] or 0) / tot_in if tot_in else 0.0,
                    "share_out": (sout[f"{pc}__{i}"] or 0) / tot_out if tot_out else 0.0,
                }
                for i in p.set_ids
            }
            for (p, _), pc in zip(groups, pid_cols)
        ]
        for j, (k, c) in enumerate(pairs):
            p = groups[k][0]
            piv = aligned_pivots(counts_in.get(j), counts_out.get(j), c in numeric)
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
    finally:
        ann_in.unpersist()
        ann_out.unpersist()
    return results


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
    base = groups[0][0].base
    exploded = base.select(
        "*",
        F.inline(
            F.array(
                *[
                    F.struct(F.lit(k).alias("__k"), p.pid.alias(PID))
                    for k, (p, _) in enumerate(groups)
                ]
            )
        ),
    )
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
    d_in_minus = partition.df.filter(F.col(PID) != F.lit(set_id)).drop(PID)
    d_out_minus = step.apply_annotated(d_in_minus)

    def values(df: DataFrame) -> pd.Series:
        return df.select(column).toPandas()[column]

    if isinstance(step, GroupByStep):
        return reference.cv(values(step.output())) - reference.cv(values(d_out_minus))
    full = reference.ks_2samp(values(step.partitioned_input), values(step.output()))
    return full - reference.ks_2samp(values(d_in_minus), values(d_out_minus))
