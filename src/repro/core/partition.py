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
computes for *every* attribute partitioned on one input, whatever the
number of attributes or set counts, from the input's memoized
:func:`~repro.core.interestingness.input_profile` (distinct counts and
ranges; one aggregate when no earlier step or phase computed it) and at
most two Spark actions:

1. one multi-column ``approxQuantile`` for every numeric attribute and
   set count;
2. one value scan (:func:`value_scan`) of the input exploded to one row
   per (attribute, value): every value's count and, for every
   many-to-one candidate the profile still allows, whether the candidate
   is constant in that value's rows; a window per attribute ranks the
   values (count desc, typed value asc) and takes each candidate's
   worst case, and only the top ``max(n_sets)`` values are collected.
   Many-to-one targets outside the requested attributes get their top
   values from one more scan with no candidates, run only when there are
   such targets whose values are not yet known.

The statistics are memoized per DataFrame object in a weak-keyed memo,
with the same validity as the profile's (a DataFrame is an immutable
plan): quantiles per (attribute, n), top values per column, FD targets
per attribute. A call scans only what it misses, so a step over
attributes an earlier step partitioned on the same DataFrame runs no
Spark job. The memo holds plain Python values only: a DataFrame
or Column in it would keep its weak key alive.

:func:`partitions_for_attribute` builds all partitions of the requested
attributes and set counts from these statistics; it is called once per
partitioned input.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

from pyspark.sql import Column, DataFrame, Window
from pyspark.sql import functions as F

from repro.core.interestingness import input_profile, is_numeric, present
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
            present(df, c),
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


def value_scan(
    df: DataFrame, cols: list[str], candidates: list[str], n: int
) -> tuple[dict[str, list], dict[str, dict[str, int]]]:
    """The ``n`` most frequent present values of every column in ``cols``
    (ties broken by value ascending, for determinism) and, for every such
    column A and every column c of ``candidates``, the FD code: ``max
    over A-values of`` 0 if c is all null in that value's rows, 1 if its
    min equals its max, else 2 (c's distinct count capped at 2).

    One Spark query: a ``groupBy(column, typed value)`` of the melted
    input with each value's count and codes, then one window per column
    that ranks its values and takes each code's maximum. Rows whose A is
    null or NaN are not part of A's values."""
    if not cols:
        return {}, {}
    slots = [f"__v{i}" for i in range(len(cols))]
    codes = [f"__c{i}" for i in range(len(candidates))]
    per_value = [
        F.when(F.min(c).isNull(), 0).when(F.min(c) == F.max(c), 1).otherwise(2).alias(code)
        for c, code in zip(candidates, codes)
    ]
    rank = Window.partitionBy("__k").orderBy(F.desc("__cnt"), *[F.asc(s) for s in slots])
    whole = rank.rowsBetween(Window.unboundedPreceding, Window.unboundedFollowing)
    rows = (
        _melt_values(df, cols, *candidates)
        .groupBy("__k", *slots)
        .agg(F.count(F.lit(1)).alias("__cnt"), *per_value)
        .select(
            "__k",
            *slots,
            F.row_number().over(rank).alias("__rank"),
            *[F.max(code).over(whole).alias(code) for code in codes],
        )
        .where(F.col("__rank") <= n)
        .collect()
    )
    top: dict[str, list] = {c: [] for c in cols}
    fd_codes: dict[str, dict[str, int]] = {c: {} for c in cols}
    for r in sorted(rows, key=lambda r: (r["__k"], r["__rank"])):
        col = cols[r["__k"]]
        top[col].append(r[slots[r["__k"]]])
        fd_codes[col] = {c: r[code] for c, code in zip(candidates, codes)}
    return top, fd_codes


@dataclass
class _Memo:
    """The statistics computed so far on one DataFrame: plain values only,
    nothing that refers back to the DataFrame (module docstring)."""

    quantiles: dict[tuple[str, int], list[float]] = field(default_factory=dict)
    top: dict[str, tuple[int, list]] = field(default_factory=dict)  # col -> (n, values)
    fd: dict[str, list[str]] = field(default_factory=dict)  # attr -> targets

    def top_values(self, col: str, n: int) -> list | None:
        """``col``'s ``n`` most frequent values, if known: a prefix of a
        longer top list, or every value of a column with fewer."""
        known, values = self.top.get(col, (0, []))
        return values[:n] if n <= known or len(values) < known else None


_MEMO: weakref.WeakKeyDictionary[DataFrame, _Memo] = weakref.WeakKeyDictionary()

#: Many-to-one targets kept per attribute: the coarsest ones, bounding
#: candidate blow-up on wide schemas.
MAX_M2O_TARGETS = 2


def partition_stats(
    d_in: DataFrame, attrs: list[str], n_sets: tuple[int, ...] = (5, 10)
) -> PartitionStats:
    """The statistics every partition of ``attrs`` over ``d_in`` needs:
    the input's profile, at most one ``approxQuantile`` and two value
    scans, and no Spark job for what the memo already holds (module
    docstring).

    Many-to-one targets of attribute A are the other columns B with a
    strictly coarser functional dependency A→B: every A-value maps to
    exactly one B-value (at most one distinct B-value in every A-group,
    one in some) and some B-value covers ≥2 A-values (B has fewer
    distinct values than A). Only the coarsest (fewest-distinct)
    :data:`MAX_M2O_TARGETS` of them are kept.
    """
    attrs = list(dict.fromkeys(attrs))
    candidates = [c for c in d_in.columns if c != PID]
    profile = input_profile(d_in)
    memo = _MEMO.setdefault(d_in, _Memo())
    n_top = max(n_sets)

    numeric = [a for a in attrs if is_numeric(d_in, a)]
    missing = [(a, n) for a in numeric for n in n_sets if (a, n) not in memo.quantiles]
    if missing:
        q_attrs = list(dict.fromkeys(a for a, _ in missing))
        probs, spans = [], {}
        for n in sorted({n for _, n in missing}):
            grid = [i / n for i in range(1, n)]
            spans[n] = (len(probs), len(probs) + len(grid))
            probs.extend(grid)
        # Nulls and NaNs are left out of each numeric attribute's range and
        # quantiles, as ``na.drop`` on that attribute alone would.
        kept = [F.when(present(d_in, a), F.col(a)).alias(a) for a in q_attrs]
        qss = d_in.select(*kept).approxQuantile(q_attrs, probs, 1e-3)
        for a, qs in zip(q_attrs, qss):
            for n, (lo, hi) in spans.items():
                memo.quantiles.setdefault((a, n), qs[lo:hi])

    # B can be A's target only if it has some values, fewer than A: the
    # scan carries no other candidate.
    allowed = {
        a: [c for c in candidates if c != a and 0 < profile.distinct[c] < profile.distinct[a]]
        for a in attrs
    }
    need_fd = [a for a in attrs if a not in memo.fd]
    batch = [a for a in attrs if a in need_fd or memo.top_values(a, n_top) is None]
    carried = list(dict.fromkeys(c for a in need_fd for c in allowed[a]))
    top, codes = value_scan(d_in, batch, carried, n_top)
    for a in need_fd:
        targets = [c for c in allowed[a] if codes[a].get(c) == 1]
        memo.fd[a] = sorted(targets, key=lambda c: profile.distinct[c])[:MAX_M2O_TARGETS]
    fd = {a: memo.fd[a] for a in attrs}
    top_cols = list(dict.fromkeys(attrs + [b for a in attrs for b in fd[a]]))
    # FD targets outside the batch whose top values are not yet known.
    rest = [b for b in top_cols if b not in top and memo.top_values(b, n_top) is None]
    top.update(value_scan(d_in, rest, [], n_top)[0])
    for c, values in top.items():
        if memo.top_values(c, n_top) is None:
            memo.top[c] = (n_top, values)

    return PartitionStats(
        d_in=d_in,
        lo={a: profile.lo[a] for a in numeric},
        hi={a: profile.hi[a] for a in numeric},
        quantiles={a: {n: memo.quantiles[a, n] for n in n_sets} for a in numeric},
        fd=fd,
        top={c: memo.top_values(c, n_top) for c in top_cols},
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


def many_to_one_partitions(stats: PartitionStats, attr: str, n: int) -> list[Partition]:
    """Many-to-one partitions for ``attr`` (§3.5): frequency-partition on
    each of ``attr``'s FD targets B (:func:`partition_stats`), labeled by
    B's values."""
    out: list[Partition] = []
    for b in stats.fd[attr]:
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
    d_in: DataFrame, attrs: list[str], n_sets: tuple[int, ...] = (5, 10)
) -> list[Partition]:
    """All partitions FEDEX builds on one input (§3.5, §3.7): for each
    attribute in ``attrs`` and each requested size n — frequency, numeric
    (if numeric), and many-to-one partitions.

    One :func:`partition_stats` batch feeds every attribute and size.
    Partitions that different sizes realize identically for one attribute
    (e.g. many-to-one on a 4-value 'decade' at n=5 and n=10) are
    deduplicated.
    """
    stats = partition_stats(d_in, attrs, n_sets)
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
