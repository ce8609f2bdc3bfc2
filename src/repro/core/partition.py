"""Row-partition methods (paper §3.5, Def. 3.8).

A :class:`Partition` divides an input dataframe into ``n`` disjoint
sets-of-rows plus an ignore-set, realized as an integer annotation column
``__pid`` (``0..n-1``; ignore-set = ``IGNORE_PID``) added by a pure Spark
expression (a broadcast-free ``when``-chain — no shuffle, no join).

Three methods, as in the paper:

* :func:`frequency_partition` — one set per top-``n`` most prevalent value
  of an attribute; everything else goes to the ignore-set.
* :func:`numeric_partition` — equal-frequency (quantile) intervals of a
  numeric attribute; ignore-set holds only nulls.
* :func:`many_to_one_partitions` — for attribute A, find attributes B with
  a functional dependency A→B that is strictly coarser, then
  frequency-partition on B (Ex. 3.9: 'year' → 'decade').

All three read one :class:`PartitionStats`, which :func:`partition_stats`
computes for *every* attribute partitioned on one input in a fixed budget
of four Spark actions, whatever the number of attributes or set counts:

1. one aggregate: ``countDistinct`` of every column, min/max of the
   numeric attributes (nulls and NaNs left out, as from the quantiles);
2. one multi-column ``approxQuantile`` for every numeric attribute and
   set count;
3. one functional-dependency scan over the input exploded to one row per
   (attribute, value);
4. one top-n over the exploded (attribute, value) counts, ranked by a
   window ordered by (count desc, typed value asc), for the attributes and
   their many-to-one targets.

:func:`partitions_for_attribute` builds all partitions of the requested
attributes and set counts from these statistics; it is called once per
partitioned input.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from pyspark.sql import Column, DataFrame, Window
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.interestingness import is_numeric
from repro.core.model import IGNORE_PID, PID


@dataclass
class Partition:
    """A realized row partition: a pure pid *expression* over the base
    dataframe plus metadata.

    ``labels`` maps each candidate set id (0..n-1) to a human-readable
    label used in captions; the ignore-set has no label and is never an
    explanation candidate (Def. 3.8). Carrying the expression (not a
    materialized column) lets the contribution engine annotate one
    dataframe with *many* partitions at once and share Spark passes.
    """

    base: DataFrame  # the input dataframe the partition divides
    pid: Column  # integer set-id expression (IGNORE_PID for ignore-set)
    attr: str  # attribute the partition was requested for
    method: str  # 'frequency' | 'numeric' | 'many_to_one'
    labels: dict[int, str]
    via: str | None = None  # the B attribute, for many-to-one
    n_requested: int = 0

    @property
    def df(self) -> DataFrame:
        """The base dataframe with the ``__pid`` annotation column."""
        return self.base.withColumn(PID, self.pid)

    @property
    def set_ids(self) -> list[int]:
        return sorted(self.labels)

    def key(self) -> tuple:
        """Stable identity of this partition for candidate ids."""
        return (self.attr, self.method, self.via, self.n_requested)


@dataclass
class PartitionStats:
    """Everything the partition methods read about one input, for a fixed
    set of attributes and set counts (see :func:`partition_stats`)."""

    d_in: DataFrame
    lo: dict[str, object]  # min per numeric attribute
    hi: dict[str, object]  # max per numeric attribute
    quantiles: dict[str, dict[int, list[float]]]  # attr -> n -> boundaries
    fd: dict[str, list[str]]  # attr -> its coarsest many-to-one targets
    top: dict[str, list]  # column -> its max(n_sets) most frequent values


def _fmt(v) -> str:
    """Stable display form for a partition-set label."""
    if isinstance(v, float) and math.isfinite(v) and v == int(v):
        return str(int(v))
    return str(v)


def _present(df: DataFrame, c: str) -> Column:
    """``df[c]`` is neither null nor NaN — the rows ``na.drop`` keeps."""
    cond = F.col(c).isNotNull()
    if isinstance(df.schema[c].dataType, (T.FloatType, T.DoubleType)):
        cond = cond & ~F.isnan(c)
    return cond


def _melt_values(df: DataFrame, cols: list[str], *keep: str) -> DataFrame:
    """One row per (column, present value) of ``cols``, plus ``keep``.

    ``__k`` is the column's index in ``cols``; slot ``__v{i}`` holds column
    i's value in its own Spark type and is null in every other column's
    rows. Grouping by ``(__k, __v0, __v1, ...)`` therefore groups each
    column's values exactly as ``groupBy(column)`` would, and ordering by
    the slots orders them by typed value.
    """
    types = [df.schema[c].dataType for c in cols]
    elems = [
        F.when(
            _present(df, c),
            F.struct(
                F.lit(i).alias("__k"),
                *[
                    (F.col(c) if j == i else F.lit(None).cast(t)).alias(f"__v{j}")
                    for j, t in enumerate(types)
                ],
            ),
        )
        for i, c in enumerate(cols)
    ]
    return (
        df.select(F.explode(F.array(*elems)).alias("__kv"), *keep)
        .where(F.col("__kv").isNotNull())
        .select("__kv.*", *keep)
    )


def _top_values(df: DataFrame, cols: list[str], n: int) -> dict[str, list]:
    """The ``n`` most frequent present values of every column in ``cols``
    (ties broken by value ascending, for determinism), in one Spark query."""
    if not cols:
        return {}
    slots = [f"__v{i}" for i in range(len(cols))]
    w = Window.partitionBy("__k").orderBy(
        F.desc("__cnt"), *[F.asc(s) for s in slots]
    )
    rows = (
        _melt_values(df, cols)
        .groupBy("__k", *slots)
        .agg(F.count(F.lit(1)).alias("__cnt"))
        .withColumn("__rank", F.row_number().over(w))
        .where(F.col("__rank") <= n)
        .collect()
    )
    top: dict[str, list] = {c: [] for c in cols}
    for r in sorted(rows, key=lambda r: (r["__k"], r["__rank"])):
        top[cols[r["__k"]]].append(r[f"__v{r['__k']}"])
    return top


def _max_distinct_per_value(
    df: DataFrame, attrs: list[str], cols: list[str]
) -> dict[str, dict[str, int | None]]:
    """For every attribute A: ``max over A-values of countDistinct(c)`` for
    each column c — the FD consistency check, one exploded scan for all
    attributes. Rows whose A is null or NaN are not part of A's groups."""
    slots = [f"__v{i}" for i in range(len(attrs))]
    rows = (
        _melt_values(df, attrs, *cols)
        .groupBy("__k", *slots)
        .agg(*[F.countDistinct(c).alias(c) for c in cols])
        .groupBy("__k")
        .agg(*[F.max(c).alias(c) for c in cols])
        .collect()
    )
    out: dict[str, dict[str, int | None]] = {a: {} for a in attrs}
    for r in rows:
        out[attrs[r["__k"]]] = {c: r[c] for c in cols}
    return out


def partition_stats(
    d_in: DataFrame,
    attrs: list[str],
    n_sets: tuple[int, ...] = (5, 10),
    *,
    many_to_one_candidates: list[str] | None = None,
    max_m2o_targets: int = 2,
) -> PartitionStats:
    """The statistics every partition of ``attrs`` over ``d_in`` needs, in
    at most four Spark actions (see the module docstring).

    Many-to-one targets of attribute A are the candidate columns B (all
    other columns by default) with a strictly coarser functional
    dependency A→B: every A-value maps to exactly one B-value
    (``max over A-groups of countDistinct(B) == 1``) and some B-value
    covers ≥2 A-values (``countDistinct(B) < countDistinct(A)``). Only the
    coarsest (fewest-distinct) ``max_m2o_targets`` of them are kept,
    bounding candidate blow-up on wide schemas.
    """
    attrs = list(dict.fromkeys(attrs))
    if many_to_one_candidates is None:
        many_to_one_candidates = d_in.columns
    candidates = [c for c in many_to_one_candidates if c != PID]
    numeric = [a for a in attrs if is_numeric(d_in, a)]
    counted = list(dict.fromkeys(attrs + candidates))
    # Nulls and NaNs are left out of each numeric attribute's range and
    # quantiles, as ``na.drop`` on that attribute alone would.
    present = {a: F.when(_present(d_in, a), F.col(a)) for a in numeric}
    row = d_in.agg(
        *[F.countDistinct(c).alias(f"__nd_{c}") for c in counted],
        *[F.min(v).alias(f"__lo_{a}") for a, v in present.items()],
        *[F.max(v).alias(f"__hi_{a}") for a, v in present.items()],
    ).collect()[0]
    distinct = {c: row[f"__nd_{c}"] for c in counted}

    quantiles: dict[str, dict[int, list[float]]] = {}
    if numeric:
        probs, spans = [], {}
        for n in sorted(set(n_sets)):
            grid = [i / n for i in range(1, n)]
            spans[n] = (len(probs), len(probs) + len(grid))
            probs.extend(grid)
        qss = d_in.select(*[v.alias(a) for a, v in present.items()]).approxQuantile(
            numeric, probs, 1e-3
        )
        for a, qs in zip(numeric, qss):
            if qs:
                quantiles[a] = {n: qs[lo:hi] for n, (lo, hi) in spans.items()}

    fd: dict[str, list[str]] = {}
    if candidates:
        per_value = _max_distinct_per_value(d_in, attrs, candidates)
        for a in attrs:
            targets = [
                c
                for c in candidates
                if c != a
                and per_value[a].get(c) == 1
                and 0 < distinct[c] < distinct[a]
            ]
            fd[a] = sorted(targets, key=lambda c: distinct[c])[:max_m2o_targets]

    top_cols = list(dict.fromkeys(attrs + [b for a in attrs for b in fd.get(a, [])]))
    return PartitionStats(
        d_in=d_in,
        lo={a: row[f"__lo_{a}"] for a in numeric},
        hi={a: row[f"__hi_{a}"] for a in numeric},
        quantiles=quantiles,
        fd=fd,
        top=_top_values(d_in, top_cols, max(n_sets)),
    )


def frequency_partition(stats: PartitionStats, attr: str, n: int) -> Partition | None:
    """Top-``n``-values partition of the input on ``attr`` (§3.5).

    Set ``i`` holds the rows whose ``attr`` equals the i-th most frequent
    value; remaining rows (and nulls) form the ignore-set. Returns ``None``
    when the column has fewer than 2 distinct values (no meaningful
    partition).
    """
    values = stats.top[attr][:n]
    if len(values) < 2:
        return None
    pid = F.lit(IGNORE_PID)
    # Build the when-chain in reverse so earlier (more frequent) values win.
    for i in reversed(range(len(values))):
        pid = F.when(F.col(attr) == F.lit(values[i]), F.lit(i)).otherwise(pid)
    return Partition(
        base=stats.d_in,
        pid=pid,
        attr=attr,
        method="frequency",
        labels={i: _fmt(v) for i, v in enumerate(values)},
        n_requested=n,
    )


def numeric_partition(stats: PartitionStats, attr: str, n: int) -> Partition | None:
    """Equal-frequency interval partition of a numeric attribute (§3.5).

    Interval boundaries are the ``1/n .. (n-1)/n`` quantiles
    (``approxQuantile`` with tight error — deterministic for a given
    dataframe). Every non-null row lands in a set (the paper's ignore-set
    is empty here; we route nulls to it). Collapsing quantiles (heavy
    ties) simply yield fewer, still-disjoint intervals; ``None`` when the
    column is non-numeric or effectively constant.
    """
    qs = stats.quantiles.get(attr, {}).get(n)
    lo, hi = stats.lo.get(attr), stats.hi.get(attr)
    if lo is None or lo == hi or not qs:
        return None
    bounds = sorted(set(qs))
    # Intervals: (-inf, b0], (b0, b1], ..., (b_last, +inf)
    pid = F.lit(len(bounds))
    for i in reversed(range(len(bounds))):
        pid = F.when(F.col(attr) <= F.lit(bounds[i]), F.lit(i)).otherwise(pid)
    pid = F.when(F.col(attr).isNull(), F.lit(IGNORE_PID)).otherwise(pid)
    edges = [lo, *bounds, hi]
    labels = {
        i: f"[{_fmt(edges[i])}, {_fmt(edges[i + 1])}]"
        for i in range(len(bounds) + 1)
    }
    return Partition(
        base=stats.d_in,
        pid=pid,
        attr=attr,
        method="numeric",
        labels=labels,
        n_requested=n,
    )


def find_many_to_one(stats: PartitionStats, attr: str) -> list[str]:
    """Attributes B with a strictly-coarser functional dependency A→B,
    coarsest first, at most ``max_m2o_targets`` (see :func:`partition_stats`)."""
    return stats.fd.get(attr, [])


def many_to_one_partitions(stats: PartitionStats, attr: str, n: int) -> list[Partition]:
    """Many-to-one partitions for ``attr`` (§3.5): frequency-partition on
    each FD target B of :func:`find_many_to_one`, labeled by B's values."""
    out: list[Partition] = []
    for b in find_many_to_one(stats, attr):
        p = frequency_partition(stats, b, n)
        if p is not None:
            out.append(
                Partition(
                    base=p.base,
                    pid=p.pid,
                    attr=attr,
                    method="many_to_one",
                    labels=p.labels,
                    via=b,
                    n_requested=n,
                )
            )
    return out


def partitions_for_attribute(
    d_in: DataFrame,
    attrs: list[str],
    n_sets: tuple[int, ...] = (5, 10),
    *,
    many_to_one_candidates: list[str] | None = None,
    max_m2o_targets: int = 2,
) -> list[Partition]:
    """All partitions FEDEX builds on one input (§3.5, §3.7): for each
    attribute in ``attrs`` and each requested size n — frequency, numeric
    (if numeric), and many-to-one partitions.

    One :func:`partition_stats` batch feeds every attribute and size.
    Partitions that different sizes realize identically for one attribute
    (e.g. many-to-one on a 4-value 'decade' at n=5 and n=10) are
    deduplicated.
    """
    stats = partition_stats(
        d_in,
        attrs,
        n_sets,
        many_to_one_candidates=many_to_one_candidates,
        max_m2o_targets=max_m2o_targets,
    )
    out: list[Partition] = []
    for attr in dict.fromkeys(attrs):
        seen: set[tuple] = set()
        for n in n_sets:
            built = [
                frequency_partition(stats, attr, n),
                numeric_partition(stats, attr, n),
                *many_to_one_partitions(stats, attr, n),
            ]
            for p in built:
                if p is None:
                    continue
                sig = (p.method, p.via, tuple(sorted(p.labels.values())))
                if sig not in seen:
                    seen.add(sig)
                    out.append(p)
    return out
