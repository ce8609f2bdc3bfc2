"""SeeDB-style visualization recommender (paper §4.1, baseline 1; [76]).

SeeDB recommends the top-k "views" (dimension attribute a, measure
attribute m, aggregate f) whose grouped-aggregate distribution over the
*target* dataframe (the step's output) deviates most from the *reference*
(the step's input), scored by KL divergence of the normalized aggregate
vectors — the algorithm of Vartak et al., including its shared-aggregation
optimization (all measures & aggregates of one dimension computed in a
single Spark ``groupBy`` pass over each side).

As in the paper's study, SeeDB "could not generate explanations for
group-by queries as it compares d_in and d_out, but in group-by
operations the input and output columns are different" — ``seedb_views``
raises ``UnsupportedStepError`` for group-by steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.interestingness import is_numeric
from repro.core.model import GroupByStep, Step

#: Max distinct values for a usable grouping dimension (SeeDB prunes
#: high-cardinality dimensions).
MAX_DIM_CARDINALITY = 50


class UnsupportedStepError(ValueError):
    """SeeDB cannot explain group-by steps (input/output columns differ)."""


@dataclass
class SeeDBView:
    dimension: str
    measure: str
    agg: str
    utility: float  # KL divergence target || reference

    @property
    def caption(self) -> str:
        return (
            f"View {self.agg}({self.measure}) GROUP BY {self.dimension} "
            f"deviates (KL {self.utility:.3f}) from the input."
        )


def _dimensions(df: DataFrame, limit: int = 12) -> list[str]:
    """Grouping candidates: low-cardinality attributes."""
    cols = [c for c in df.columns][:limit * 2]
    if not cols:
        return []
    counts = df.agg(
        *[F.approx_count_distinct(c).alias(c) for c in cols]
    ).collect()[0]
    return [c for c in cols if 2 <= counts[c] <= MAX_DIM_CARDINALITY][:limit]


def _measures(df: DataFrame, limit: int = 12) -> list[str]:
    return [c for c in df.columns if is_numeric(df, c)][:limit]


def _grouped(df: DataFrame, dim: str, measures: list[str]) -> pd.DataFrame:
    """SeeDB's shared-aggregation pass: every measure × aggregate for one
    dimension in a single groupBy."""
    exprs = [F.count(F.lit(1)).alias("count__*")]
    for m in measures:
        exprs.append(F.avg(m).alias(f"avg__{m}"))
        exprs.append(F.sum(m).alias(f"sum__{m}"))
    return df.groupBy(dim).agg(*exprs).toPandas().set_index(dim)


def _kl(target: pd.Series, reference: pd.Series) -> float:
    """KL(target || reference) over normalized non-negative vectors with
    add-one-smoothing-style epsilon handling (SeeDB's utility)."""
    idx = target.index.union(reference.index)
    t = target.reindex(idx).fillna(0.0).astype(float).clip(lower=0.0)
    r = reference.reindex(idx).fillna(0.0).astype(float).clip(lower=0.0)
    if t.sum() <= 0 or r.sum() <= 0:
        return 0.0
    eps = 1e-9
    t = (t + eps) / (t + eps).sum()
    r = (r + eps) / (r + eps).sum()
    return float((t * (t / r).map(math.log)).sum())


def seedb_views(step: Step, *, top_k: int = 3) -> list[SeeDBView]:
    """Top-k deviating views for a filter/join/union step."""
    if isinstance(step, GroupByStep):
        raise UnsupportedStepError("SeeDB cannot explain group-by steps")
    reference = step.partitioned_input
    target = step.output()
    shared = [c for c in reference.columns if c in target.columns]
    ref_v = reference.select(*shared)
    tgt_v = target.select(*shared)
    dims = _dimensions(ref_v)
    measures = _measures(ref_v)
    views: list[SeeDBView] = []
    for dim in dims:
        ms = [m for m in measures if m != dim]
        g_ref = _grouped(ref_v, dim, ms)
        g_tgt = _grouped(tgt_v, dim, ms)
        for col in g_ref.columns:
            agg, _, m = col.partition("__")
            views.append(
                SeeDBView(
                    dimension=dim,
                    measure=m,
                    agg=agg,
                    utility=_kl(g_tgt.get(col, pd.Series(dtype=float)), g_ref[col]),
                )
            )
    views.sort(key=lambda v: (-v.utility, v.dimension, v.measure, v.agg))
    return views[:top_k]
