"""Row-partition methods (paper §3.5, Def. 3.8).

A :class:`Partition` divides an input dataframe into ``n`` disjoint
sets-of-rows plus an ignore-set, realized as an integer annotation column
``__pid`` (``0..n-1``; ignore-set = ``IGNORE_PID``) added by a pure Spark
expression — no shuffle, no join: a ``CASE`` over the quantile bounds, as
SQL text, or a ``coalesce`` of one ``when`` per top value, with the values
as literals.

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
ranges; one aggregate when no earlier step or phase computed it) and one
value scan (:func:`value_scan`) of the input exploded to one row per
(attribute, value): every value's count and, for every many-to-one
candidate the profile still allows, whether the candidate is constant in
that value's rows. Windows per attribute rank the values (count desc,
typed value asc), take each candidate's worst case and run the counts in
value order; only the top ``max(n_sets)`` values and the values that hold
an exact equal-frequency bound are collected, so the bounds depend on the
rows alone, not on how the input is split. Many-to-one targets outside
the requested attributes get their top values from one more scan with no
candidates, run only when such targets' values are not yet known.

The statistics are memoized per DataFrame object in a weak-keyed memo,
with the same validity as the profile's (a DataFrame is an immutable
plan): bounds per (attribute, n), top values per column, FD targets
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
from dataclasses import dataclass, field, replace

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.interestingness import input_profile, is_numeric, present
from repro.core.model import IGNORE_PID, PID, quote, sql_double


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
    types = [df.schema[c].dataType.simpleString() for c in cols]
    elems = []
    for i, c in enumerate(cols):
        slots = ", ".join(
            f"'__v{j}', {quote(c) if j == i else f'CAST(NULL AS {t})'}"
            for j, t in enumerate(types)
        )
        elems.append(f"CASE WHEN {present(df, c)} THEN named_struct('__k', {i}, {slots}) END")
    keep_cols = [quote(c) for c in keep]
    return (
        df.selectExpr(f"explode(array({', '.join(elems)})) AS __kv", *keep_cols)
        .where("__kv IS NOT NULL")
        .selectExpr("__kv.*", *keep_cols)
    )


def value_scan(
    df: DataFrame, cols: list[str], candidates: list[str], n_sets: tuple[int, ...]
) -> tuple[dict[str, list], dict[str, dict[str, int]], dict[tuple[str, int], list[float]]]:
    """The ``max(n_sets)`` most frequent present values of every column in
    ``cols`` (ties broken by value ascending, for determinism); for every
    such column A and every column c of ``candidates``, the FD code:
    ``max over A-values of`` 0 if c is all null in that value's rows, 1 if
    its min equals its max, else 2 (c's distinct count capped at 2); and
    the bounds of every numeric column per n: bound i (0 < i < n) is the
    value at rank ⌈i·N/n⌉ of its N present values in ascending order, the
    inverted-CDF quantile i/n.

    One Spark query: a ``groupBy(column, typed value)`` of the melted
    input with each value's count and codes, then windows per column that
    rank its values, take each code's maximum and run its count in value
    order. Rows whose A is null or NaN are not part of A's values."""
    if not cols:
        return {}, {}, {}
    n_top = max(n_sets)
    slots = [f"__v{i}" for i in range(len(cols))]
    codes = [f"__c{i}" for i in range(len(candidates))]
    per_value = [
        f"CASE WHEN min({q}) IS NULL THEN 0 WHEN min({q}) = max({q}) THEN 1 ELSE 2 END AS {code}"
        for q, code in zip(map(quote, candidates), codes)
    ]
    order = ", ".join(f"{s} ASC" for s in slots)
    rank = f"PARTITION BY __k ORDER BY __cnt DESC, {order}"
    # A value holds a bound of n when its ranks (__cum - __cnt, __cum] take
    # in a multiple of N/n: integer division, so no rounding.
    crosses = [f"(__cum * {n}) DIV __tot > ((__cum - __cnt) * {n}) DIV __tot" for n in n_sets]
    rows = (
        _melt_values(df, cols, *candidates)
        .groupBy("__k", *slots)
        .agg(F.expr("count(1) AS __cnt"), *map(F.expr, per_value))
        .selectExpr(
            "__k",
            *slots,
            f"row_number() OVER ({rank}) AS __rank",
            f"sum(__cnt) OVER (PARTITION BY __k ORDER BY {order} ROWS UNBOUNDED PRECEDING) AS __cum",
            "sum(__cnt) OVER (PARTITION BY __k) AS __tot",
            *[f"max({code}) OVER (PARTITION BY __k) AS {code}" for code in codes],
        )
        .where(" OR ".join([f"__rank <= {n_top}", *crosses]))
        .collect()
    )
    top: dict[str, list] = {c: [] for c in cols}
    fd_codes: dict[str, dict[str, int]] = {c: {} for c in cols}
    for r in sorted(rows, key=lambda r: (r["__k"], r["__rank"])):
        col = cols[r["__k"]]
        if r["__rank"] <= n_top:
            top[col].append(r[slots[r["__k"]]])
        fd_codes[col] = {c: r[code] for c, code in zip(candidates, codes)}
    bounds: dict[tuple[str, int], list[float]] = {}
    for k in [k for k, c in enumerate(cols) if is_numeric(df, c)]:
        held = sorted((r for r in rows if r["__k"] == k), key=lambda r: r["__cum"])
        for n in n_sets:
            # Bound i: the first value whose running count reaches i·N/n.
            bounds[cols[k], n] = [
                float(next(r[slots[k]] for r in held if r["__cum"] * n >= i * r["__tot"]))
                for i in range(1, n) if held
            ]
    return top, fd_codes, bounds


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
    the input's profile and at most two value scans, and no Spark job for
    what the memo already holds (module docstring).

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
    # B can be A's target only if it has some values, fewer than A: the
    # scan carries no other candidate.
    allowed = {
        a: [c for c in candidates if c != a and 0 < profile.distinct[c] < profile.distinct[a]]
        for a in attrs
    }
    need_fd = [a for a in attrs if a not in memo.fd]
    no_bounds = [a for a in numeric if any((a, n) not in memo.quantiles for n in n_sets)]
    batch = [a for a in attrs if a in need_fd or a in no_bounds or memo.top_values(a, n_top) is None]
    carried = list(dict.fromkeys(c for a in need_fd for c in allowed[a]))
    top, codes, bounds = value_scan(d_in, batch, carried, n_sets)
    memo.quantiles.update(bounds)
    for a in need_fd:
        targets = [c for c in allowed[a] if codes[a].get(c) == 1]
        memo.fd[a] = sorted(targets, key=lambda c: profile.distinct[c])[:MAX_M2O_TARGETS]
    fd = {a: memo.fd[a] for a in attrs}
    top_cols = list(dict.fromkeys(attrs + [b for a in attrs for b in fd[a]]))
    # FD targets outside the batch whose top values are not yet known.
    rest = [b for b in top_cols if b not in top and memo.top_values(b, n_top) is None]
    top.update(value_scan(d_in, rest, [], n_sets)[0])
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
    # The values come from the user's table: Spark gets them as literals,
    # never as SQL text. They are distinct, so at most one set matches.
    col = F.expr(quote(attr))
    pid = F.coalesce(
        *[F.when(F.equal_null(col, F.lit(v)), F.lit(i)) for i, v in enumerate(values)],
        F.lit(IGNORE_PID),
    )
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

    Interval boundaries are the exact ``1/n .. (n-1)/n`` quantiles of the
    present values (:func:`value_scan`), so they depend on the rows alone.
    Every non-null row lands in a set (the paper's ignore-set is empty
    here; we route nulls to it). Collapsing quantiles (heavy ties) simply
    yield fewer, still-disjoint intervals; ``None`` when the column is
    non-numeric or effectively constant.
    """
    qs = stats.quantiles.get(attr, {}).get(n)
    lo, hi = stats.lo.get(attr), stats.hi.get(attr)
    if lo is None or lo == hi or not qs:
        return None
    bounds = sorted(set(qs))
    # Intervals: (-inf, b0], (b0, b1], ..., (b_last, +inf)
    q = quote(attr)
    sets = " ".join(f"WHEN {q} <= {sql_double(b)} THEN {i}" for i, b in enumerate(bounds))
    pid = F.expr(f"CASE WHEN {q} IS NULL THEN {IGNORE_PID} {sets} ELSE {len(bounds)} END")
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
            out.append(replace(p, attr=attr, method="many_to_one", via=b))
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
