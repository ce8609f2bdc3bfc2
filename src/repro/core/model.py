"""Data model for notebook-based EDA steps (paper §3.1).

An exploratory step is ``Q = (D_in, q, d_out)``: one of the four EDA
operations the paper supports (filter, group-by, join, union) applied to
its input dataframe(s). Each step class knows how to

* produce its output (``output``), and
* propagate a partition annotation column ``__pid`` from the partitioned
  input through the operation (``apply_annotated``) — the provenance hook
  the leave-one-out contribution computation (``contribution.py``) relies
  on. Removing the set-of-rows with ``__pid == i`` from the input is
  equivalent to removing the output rows carrying ``__pid == i`` for
  filter/join/union, and to dropping set ``i``'s partial aggregates for
  group-by.

:data:`AGGREGATES` is the aggregate algebra of group-by steps: each
function's Spark SQL aggregate and the partials it is recombined from
(:meth:`Aggregation.combine`). A new aggregate function over the existing
kinds of partial is one entry there.

The internal annotation column name is :data:`PID`. Rows annotated with
``IGNORE_PID`` belong to the ignore-set (Def. 3.8) or to inputs that are
not being partitioned; they are never removed in an intervention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Callable

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

#: Name of the internal partition-set-id column, and the prefix of every
#: partition-annotation column (__pid_0, __pid_1, ... for several at once).
PID = "__pid"
#: Set id of the ignore-set / non-partitioned rows (never removed).
IGNORE_PID = -1


def pid_columns(df: DataFrame) -> list[str]:
    """All partition-annotation columns present on ``df``."""
    return [c for c in df.columns if c.startswith(PID)]


def quote(name: str) -> str:
    """``name`` as a Spark SQL identifier: in backticks, any backtick in it
    doubled. Every column reference the explainer builds goes through
    this, so names with ``.``, `` ` `` or spaces resolve as themselves."""
    return "`" + name.replace("`", "``") + "`"


_NON_FINITE = {
    math.inf: "CAST('Infinity' AS DOUBLE)",
    -math.inf: "CAST('-Infinity' AS DOUBLE)",
}


def sql_double(x: float) -> str:
    """A SQL double literal of a number the explainer makes itself (a bin
    edge or a quantile bound) that parses back to the same value. Values
    read from the user's table are never rendered as text: they stay
    ``F.lit``."""
    return f"{float(x)!r}D" if math.isfinite(x) else _NON_FINITE[x]


#: The aggregate algebra of group-by steps: fn -> (Spark SQL aggregate, the
#: kinds of its partials). Every function is distributive or algebraic
#: (Gray et al., "Data Cube", ICDE 1996), so its value over any union of
#: sets-of-rows follows from per-set partials: the merged value partial, or
#: the first over the second where there are two (a mean's sum / count),
#: and NaN where the merged ``nan`` partial is > 0.
AGGREGATES = {
    "mean": ("avg", ("sum", "count", "nan")),
    "sum": ("sum", ("sum", "nan")),
    "count": ("count", ("count",)),
    "min": ("min", ("min",)),
    "max": ("max", ("max", "nan")),
}
AGG_FNS = tuple(AGGREGATES)


def _sum(cells: np.ndarray, axis: int) -> np.ndarray:
    return np.where(np.isnan(cells).all(axis=axis), np.nan, np.nansum(cells, axis=axis))


#: Each partial kind's column prefix, SQL aggregate and merge across sets,
#: which skips NaN, the cell of a set without the group's rows (or, for a
#: sum, without a value): counts add (0 over none), sums add (NaN over
#: none), minima and maxima keep the least and the greatest. Spark's avg,
#: sum and max of a group holding a NaN value are NaN: ``nan`` counts those
#: values. Its min is NaN only when every value is, as ``fmin``'s.
_PARTIAL = {
    "sum": ("sum", "sum({})", _sum),
    "count": ("cnt", "count({})", np.nansum),
    "min": ("min", "min({})", partial(np.fmin.reduce, initial=np.nan)),
    "max": ("max", "max({})", partial(np.fmax.reduce, initial=np.nan)),
    "nan": ("nans", "count(CASE WHEN isnan({}) THEN 1 END)", np.nansum),
}


@dataclass(frozen=True)
class Aggregation:
    """One aggregate in a group-by step: ``alias = fn(column)``.

    ``column=None`` with ``fn='count'`` is ``count(*)``.
    """

    fn: str
    column: str | None
    alias: str

    def __post_init__(self) -> None:
        if self.fn not in AGG_FNS:
            raise ValueError(f"unsupported aggregate {self.fn!r}; use one of {AGG_FNS}")
        if self.column is None and self.fn != "count":
            raise ValueError(f"{self.fn} requires a column")

    @property
    def target(self) -> str:
        """The aggregated column as SQL (``1`` for ``count(*)``)."""
        return "1" if self.column is None else quote(self.column)

    def expr(self) -> str:
        """The Spark SQL aggregate expression for this aggregation."""
        return f"{AGGREGATES[self.fn][0]}({self.target}) AS {quote(self.alias)}"

    def partials(self) -> dict[str, str]:
        """The kind (:data:`_PARTIAL`) of each partial this aggregation is
        recombined from, by partial column (``__sum__<alias>``...)."""
        return {f"__{_PARTIAL[kind][0]}__{self.alias}": kind for kind in AGGREGATES[self.fn][1]}

    def combine(self, cells: Callable[[str], np.ndarray]) -> np.ndarray:
        """This aggregation's value per group over a union of sets, from
        ``cells(column)``: each partial's (group × set) cells of those
        sets, NaN where a set holds none of the group's rows. A mean over
        no value is NaN: its sum is."""
        merged = {k: _PARTIAL[k][2](cells(col), axis=1) for col, k in self.partials().items()}
        nans = merged.pop("nan", 0)
        value, *count = merged.values()
        with np.errstate(invalid="ignore", divide="ignore"):
            value = value / count[0] if count else value
        return np.where(nans > 0, np.nan, value)


class Step:
    """Base class for an exploratory step ``Q = (D_in, q, d_out)``."""

    op: str = "abstract"

    @property
    def inputs(self) -> dict[str, DataFrame]:
        """Named input dataframes ``D_in``."""
        raise NotImplementedError

    @property
    def partitioned_input(self) -> DataFrame:
        """The input dataframe row partitions are built over (paper builds
        partitions over one input at a time; for join/union the side is
        selected at construction)."""
        raise NotImplementedError

    def output(self) -> DataFrame:
        """``d_out = q(D_in)``."""
        return self.apply_annotated(self.partitioned_input)

    def apply_annotated(self, annotated: DataFrame) -> DataFrame:
        """Apply ``q`` with ``annotated`` substituted for the partitioned
        input. ``annotated`` may carry the extra ``__pid`` column, which is
        propagated to the output for filter/join/union."""
        raise NotImplementedError


@dataclass
class FilterStep(Step):
    """``SELECT * FROM d_in WHERE predicate`` (paper Ex. 3.1)."""

    d_in: DataFrame
    predicate: str  # Spark SQL boolean expression

    op: str = field(default="filter", init=False)

    @property
    def inputs(self) -> dict[str, DataFrame]:
        return {"d_in": self.d_in}

    @property
    def predicate_columns(self) -> set[str]:
        """Input columns referenced by the predicate. These are excluded
        from interestingness scoring: a filter on A trivially maximizes
        A's own KS deviation, and the paper's running example scores
        'decade' (0.56) as the top column for ``popularity > 65`` — the
        predicate column itself is never the explanation target."""
        import re

        # Words inside string literals ('...' or "...") are values, not
        # column names.
        code = re.sub(r"'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\"", " ", self.predicate)
        tokens = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", code))
        return {c for c in self.d_in.columns if c in tokens}

    @property
    def partitioned_input(self) -> DataFrame:
        return self.d_in

    def apply_annotated(self, annotated: DataFrame) -> DataFrame:
        return annotated.where(self.predicate)


@dataclass
class JoinStep(Step):
    """``SELECT * FROM left INNER JOIN right ON key`` (Table 2, queries 1-3).

    ``partition_side`` names the input whose rows are partitioned for the
    contribution analysis ('left' or 'right'). Join keys are equi-join
    column names shared by both sides (Spark's ``on=[...]`` form, so the
    key appears once in the output, as in the paper's SQL ``SELECT *``).
    """

    left: DataFrame
    right: DataFrame
    on: list[str]
    how: str = "inner"
    partition_side: str = "left"

    op: str = field(default="join", init=False)

    def __post_init__(self) -> None:
        # Leave-one-out removes a set's output rows by pid, which equals
        # re-running the join without the set only for inner joins; an
        # outer join would null-pad the rows instead.
        if self.how != "inner":
            raise ValueError(f"only inner joins are supported, got how={self.how!r}")

    @property
    def inputs(self) -> dict[str, DataFrame]:
        return {"left": self.left, "right": self.right}

    @property
    def partitioned_input(self) -> DataFrame:
        return self.left if self.partition_side == "left" else self.right

    def apply_annotated(self, annotated: DataFrame) -> DataFrame:
        if self.partition_side == "left":
            return annotated.join(self.right, on=self.on, how=self.how)
        return self.left.join(annotated, on=self.on, how=self.how)


@dataclass
class UnionStep(Step):
    """Union (by name) of two or more inputs. The first input is the
    partitioned one; rows of the other inputs are annotated with
    ``IGNORE_PID`` so interventions never remove them."""

    dfs: list[DataFrame]

    op: str = field(default="union", init=False)

    @property
    def inputs(self) -> dict[str, DataFrame]:
        return {f"d{i}": df for i, df in enumerate(self.dfs)}

    @property
    def partitioned_input(self) -> DataFrame:
        return self.dfs[0]

    def apply_annotated(self, annotated: DataFrame) -> DataFrame:
        extra = pid_columns(annotated)

        def _tag(df: DataFrame) -> DataFrame:
            for c in extra:
                df = df.withColumn(c, F.lit(IGNORE_PID))
            return df

        return reduce(lambda a, b: a.unionByName(_tag(b)), self.dfs[1:], annotated)


@dataclass
class GroupByStep(Step):
    """``SELECT aggs FROM d_in GROUP BY keys`` (Table 3 queries).

    The output schema is ``keys + [a.alias for a in aggs]``. Group keys are
    part of the output (the paper's Fig. 1b shows 'year' in the result),
    matching pandas' ``as_index=False`` semantics.
    """

    d_in: DataFrame
    keys: list[str]
    aggs: list[Aggregation]

    op: str = field(default="groupby", init=False)

    @property
    def inputs(self) -> dict[str, DataFrame]:
        return {"d_in": self.d_in}

    @property
    def partitioned_input(self) -> DataFrame:
        return self.d_in

    def apply_annotated(self, annotated: DataFrame) -> DataFrame:
        keys = [quote(k) for k in self.keys]
        return annotated.groupBy(*keys).agg(*[F.expr(a.expr()) for a in self.aggs])

    # ---- leave-one-out machinery -------------------------------------
    def partial_aggregates(
        self, annotated: DataFrame, by: tuple[str, ...] = (PID,)
    ) -> DataFrame:
        """Per-``(keys, *by)`` algebraic partials, one Spark aggregate: every
        aggregation's :meth:`Aggregation.partials`, and ``__n``, the raw row
        count per cell (a group vanishes when no kept set holds its rows).
        A floating-point key ``k`` also groups by ``__nan__<k>``, whether it
        is NaN: Spark keeps a NaN key's group apart from the null key's,
        and pandas reads both keys as NaN.
        """
        floating = {c for c, t in annotated.dtypes if t in ("double", "float")}
        exprs = ["count(1) AS __n"]
        for a in self.aggs:
            for col, kind in a.partials().items():
                # Only a floating-point value is NaN: isnan casts any other
                # type to double, which fails on a date or non-numeric text.
                sql = "0" if kind == "nan" and a.column not in floating else _PARTIAL[kind][1]
                exprs.append(f"{sql.format(a.target)} AS {quote(col)}")
        nan = [
            F.expr(f"isnan({quote(k)}) AS {quote(f'__nan__{k}')}")
            for k in self.keys
            if k in floating
        ]
        keys = [quote(k) for k in (*self.keys, *by)]
        return annotated.groupBy(*keys, *nan).agg(*[F.expr(e) for e in exprs])
