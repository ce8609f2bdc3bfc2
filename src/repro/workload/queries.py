"""The paper's experiment workload — all 30 queries of Tables 2 and 3.

Queries 1-15 (Table 2) are filter/join steps evaluated with the
exceptionality measure; queries 16-30 (Table 3) are group-by steps
evaluated with the diversity measure. Each :class:`WorkloadQuery` builds
the exploratory :class:`~repro.core.model.Step` over a
:class:`DatasetBundle` and carries the equivalent DuckDB SQL so tests can
oracle-check the Spark result row-for-row; one constructor per kind
(:func:`_filter`, :func:`_join`, :func:`_groupby`) derives both from one
statement of the query.

Column names follow the paper exactly where our synthetic schemas carry
the same attribute; the only mapping is query 18's ``products_sales_pack``
(a join-view prefix artifact in the paper's table) → ``products_pack``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.model import AGGREGATES, Aggregation, FilterStep, GroupByStep, JoinStep, Step
from repro.datasets.bank import bank_pdf
from repro.datasets.products import (
    _pandas_prefixed,
    counties_pdf,
    prefixed,
    prefixed_pdf,
    products_pdf,
    products_sales_view,
    sales_pdf,
    stores_pdf,
)
from repro.datasets.spotify import spotify_pdf

#: Row-count presets: 'test' for unit tests (~seconds), 'bench' for the
#: paper-scale benchmark runs (§4.1 sizes, Products scaled — DESIGN.md §5).
SCALES = {
    "test": {"spotify": 6000, "bank": 2000, "products": 500, "sales": 20000},
    "bench": {"spotify": 174_389, "bank": 10_127, "products": 9_977, "sales": 1_000_000},
}


@dataclass
class DatasetBundle:
    """Named Spark tables + their pandas twins (for the DuckDB oracle)."""

    name: str
    spark_tables: dict[str, DataFrame]
    pandas_tables: dict[str, pd.DataFrame]


def make_bundle(
    spark: SparkSession, dataset: str, scale: str | Mapping[str, int] = "test"
) -> DatasetBundle:
    """Materialize one of the three evaluation datasets at a scale: a
    :data:`SCALES` preset name or a ``{table: rows}`` mapping with the
    keys the dataset reads."""
    sz = SCALES[scale] if isinstance(scale, str) else scale
    if dataset == "spotify":
        pdf = spotify_pdf(sz["spotify"])
        return DatasetBundle(
            "spotify", {"spotify": spark.createDataFrame(pdf)}, {"spotify": pdf}
        )
    if dataset == "bank":
        pdf = bank_pdf(sz["bank"])
        return DatasetBundle("bank", {"bank": spark.createDataFrame(pdf)}, {"bank": pdf})
    if dataset == "products":
        p = products_pdf(sz["products"])
        s = sales_pdf(sz["sales"], sz["products"])
        st = stores_pdf()
        c = counties_pdf()
        sp_p = spark.createDataFrame(p)
        sp_s = spark.createDataFrame(s)
        view = products_sales_view(sp_p, sp_s)
        return DatasetBundle(
            "products",
            {
                "products": sp_p,
                "sales": sp_s,
                # Prefixed sides, used by query 1 (products⋈sales would
                # otherwise collide on the denormalized vendor/pack/...).
                "products_pfx": prefixed(sp_p, "products"),
                "sales_pfx": prefixed(sp_s, "sales"),
                "stores": spark.createDataFrame(st),
                "counties": spark.createDataFrame(c),
                "products_sales": view,
            },
            {
                "products": p,
                "sales": s,
                "products_pfx": prefixed_pdf(p, "products"),
                "sales_pfx": prefixed_pdf(s, "sales"),
                "stores": st,
                "counties": c,
                "products_sales": _pandas_prefixed(p, s),
            },
        )
    raise ValueError(f"unknown dataset {dataset!r}")


@dataclass
class WorkloadQuery:
    """One row of Table 2 or Table 3."""

    num: int
    dataset: str  # 'products' | 'spotify' | 'bank'
    kind: str  # 'F' | 'J' | 'GB'  (as in the paper's tables)
    sql: str  # DuckDB SQL over the bundle's pandas tables
    build: Callable[[DatasetBundle], Step]

    @property
    def measure(self) -> str:
        return "diversity" if self.kind == "GB" else "exceptionality"


def _filter(
    num: int, dataset: str, table: str, predicate: str, within: str | None = None
) -> WorkloadQuery:
    """A Table 2 filter on ``predicate``, over the rows of ``table`` that
    ``within`` keeps if given (a filter over a filter's output)."""
    source = table if within is None else f"(SELECT * FROM {table} WHERE {within})"

    def build(b: DatasetBundle) -> Step:
        d_in = b.spark_tables[table]
        return FilterStep(d_in if within is None else d_in.filter(within), predicate)

    return WorkloadQuery(num, dataset, "F", f"SELECT * FROM {source} WHERE {predicate}", build)


def _join(num: int, left: str, right: str, key: str) -> WorkloadQuery:
    """A Table 2 inner join of two Products tables; ``left`` is partitioned."""
    return WorkloadQuery(
        num, "products", "J", f"SELECT * FROM {left} INNER JOIN {right} USING ({key})",
        lambda b: JoinStep(b.spark_tables[left], b.spark_tables[right], on=[key]),
    )


def _groupby(
    num: int, dataset: str, table: str, keys: list[str], *aggs: Aggregation
) -> WorkloadQuery:
    """A Table 3 group-by of ``table`` on ``keys`` with ``aggs``."""
    sel = ", ".join(
        keys
        + [
            f"{AGGREGATES[a.fn][0]}({'*' if a.column is None else a.column}) AS {a.alias}"
            for a in aggs
        ]
    )
    return WorkloadQuery(
        num, dataset, "GB", f"SELECT {sel} FROM {table} GROUP BY {', '.join(keys)}",
        lambda b: GroupByStep(b.spark_tables[table], keys, list(aggs)),
    )


_A = Aggregation
_ATTRITED = "Attrition_Flag != 'Existing Customer'"

QUERIES: list[WorkloadQuery] = [
    # ---- Table 2: join / filter (exceptionality) ---------------------
    _join(1, "sales_pfx", "products_pfx", "item"),
    _join(2, "sales", "counties", "county"),
    _join(3, "sales", "stores", "store"),
    _filter(4, "products", "products_sales", "sales_liter_size <= 500"),
    _filter(5, "products", "products_sales", "sales_pack = 12"),
    _filter(6, "spotify", "spotify", "popularity > 65"),
    _filter(7, "spotify", "spotify", "year > 1990"),
    _filter(8, "spotify", "spotify", "loudness > -12"),
    _filter(9, "spotify", "spotify", "duration_minutes < 3"),
    _filter(10, "spotify", "spotify", "tempo > 100"),
    _filter(11, "bank", "bank", _ATTRITED),
    _filter(12, "bank", "bank", "Total_Count_Change_Q4_vs_Q1 > 0.75", within=_ATTRITED),
    _filter(13, "bank", "bank", "Months_Inactive_Count_Last_Year > 2"),
    _filter(14, "bank", "bank", "Customer_Age < 30"),
    _filter(15, "bank", "bank", "Income_Category = 'Less than $40K'"),
    # ---- Table 3: group-by (diversity) -------------------------------
    _groupby(16, "products", "products_sales", ["sales_vendor"], _A("count", "item", "count_item")),
    _groupby(17, "products", "products_sales", ["sales_county", "sales_category_name"],
             _A("count", "item", "count_item")),
    _groupby(18, "products", "products_sales", ["products_pack"], _A("count", "item", "count_item")),
    _groupby(19, "products", "products_sales", ["sales_bottle_quantity"],
             _A("mean", "sales_total", "mean_total"), _A("mean", "sales_pack", "mean_pack")),
    _groupby(20, "products", "products_sales", ["products_pack", "products_inner_pack"],
             _A("mean", "products_bottle_size", "mean_bottle_size")),
    _groupby(21, "spotify", "spotify", ["year"], _A("mean", "popularity", "mean_pop"),
             _A("max", "popularity", "max_pop"), _A("min", "popularity", "min_pop")),
    _groupby(22, "spotify", "spotify", ["year"],
             _A("mean", "danceability", "mean_dance"), _A("max", "danceability", "max_dance"),
             _A("mean", "instrumentalness", "mean_instr"),
             _A("max", "instrumentalness", "max_instr"), _A("mean", "liveness", "mean_live")),
    _groupby(23, "spotify", "spotify", ["key"],
             _A("mean", "danceability", "mean_dance"), _A("mean", "popularity", "mean_pop")),
    _groupby(24, "spotify", "spotify", ["decade"],
             _A("max", "duration_minutes", "max_dur"), _A("mean", "duration_minutes", "mean_dur")),
    _groupby(25, "spotify", "spotify", ["mode", "key"], _A("mean", "loudness", "mean_loud"),
             _A("mean", "liveness", "mean_live"), _A("mean", "tempo", "mean_tempo")),
    _groupby(26, "bank", "bank", ["Marital_Status", "Income_Category"],
             _A("mean", "Credit_Used", "mean_used"),
             _A("mean", "Total_Transitions_Amount", "mean_amount")),
    _groupby(27, "bank", "bank", ["Marital_Status", "Gender", "Education_Level"],
             _A("count", None, "cnt")),
    _groupby(28, "bank", "bank", ["Marital_Status"], _A("mean", "Credit_Used", "mean_used"),
             _A("mean", "Total_Transitions_Amount", "mean_amount")),
    _groupby(29, "bank", "bank", ["Gender", "Income_Category"], _A("mean", "Customer_Age", "mean_age")),
    _groupby(30, "bank", "bank", ["Registered_Products_Count", "Attrition_Flag"],
             _A("count", None, "cnt")),
]

#: Lookup by paper query number.
BY_NUM: dict[int, WorkloadQuery] = {q.num: q for q in QUERIES}

#: The per-notebook query groups used in the §4.2 user studies.
NOTEBOOKS: dict[str, list[int]] = {
    "spotify": [6, 7, 21, 22],
    "bank": [11, 12, 13, 27],
    "products": [1, 5, 16, 17, 18],
}


def filter_join_queries(dataset: str | None = None) -> list[WorkloadQuery]:
    return [
        q
        for q in QUERIES
        if q.kind in ("F", "J") and (dataset is None or q.dataset == dataset)
    ]


def groupby_queries(dataset: str | None = None) -> list[WorkloadQuery]:
    return [
        q
        for q in QUERIES
        if q.kind == "GB" and (dataset is None or q.dataset == dataset)
    ]
