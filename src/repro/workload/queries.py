"""The paper's experiment workload — all 30 queries of Tables 2 and 3.

Queries 1-15 (Table 2) are filter/join steps evaluated with the
exceptionality measure; queries 16-30 (Table 3) are group-by steps
evaluated with the diversity measure. Each :class:`WorkloadQuery` builds
the exploratory :class:`~repro.core.model.Step` over a
:class:`DatasetBundle` and carries the equivalent DuckDB SQL so tests can
oracle-check the Spark result row-for-row.

Column names follow the paper exactly where our synthetic schemas carry
the same attribute; the only mapping is query 18's ``products_sales_pack``
(a join-view prefix artifact in the paper's table) → ``products_pack``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.model import Aggregation, FilterStep, GroupByStep, JoinStep, Step
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


def _filter(table: str, predicate: str) -> Callable[[DatasetBundle], Step]:
    return lambda b: FilterStep(b.spark_tables[table], predicate)


def _groupby(
    table: str, keys: list[str], aggs: list[Aggregation]
) -> Callable[[DatasetBundle], Step]:
    return lambda b: GroupByStep(b.spark_tables[table], keys, aggs)


def _gb_sql(table: str, keys: list[str], aggs: list[Aggregation]) -> str:
    sel = ", ".join(
        keys
        + [
            f"{('avg' if a.fn == 'mean' else a.fn)}"
            f"({'*' if a.column is None else a.column}) AS {a.alias}"
            for a in aggs
        ]
    )
    return f"SELECT {sel} FROM {table} GROUP BY {', '.join(keys)}"


def _nested_bank_12(b: DatasetBundle) -> Step:
    inner = b.spark_tables["bank"].filter("Attrition_Flag != 'Existing Customer'")
    return FilterStep(inner, "Total_Count_Change_Q4_vs_Q1 > 0.75")


_A = Aggregation

QUERIES: list[WorkloadQuery] = [
    # ---- Table 2: join / filter (exceptionality) ---------------------
    WorkloadQuery(
        1, "products", "J",
        "SELECT * FROM sales_pfx INNER JOIN products_pfx USING (item)",
        lambda b: JoinStep(b.spark_tables["sales_pfx"], b.spark_tables["products_pfx"],
                           on=["item"], partition_side="left"),
    ),
    WorkloadQuery(
        2, "products", "J",
        "SELECT * FROM counties INNER JOIN sales USING (county)",
        lambda b: JoinStep(b.spark_tables["sales"], b.spark_tables["counties"],
                           on=["county"], partition_side="left"),
    ),
    WorkloadQuery(
        3, "products", "J",
        "SELECT * FROM stores INNER JOIN sales USING (store)",
        lambda b: JoinStep(b.spark_tables["sales"], b.spark_tables["stores"],
                           on=["store"], partition_side="left"),
    ),
    WorkloadQuery(
        4, "products", "F",
        "SELECT * FROM products_sales WHERE sales_liter_size <= 500",
        _filter("products_sales", "sales_liter_size <= 500"),
    ),
    WorkloadQuery(
        5, "products", "F",
        "SELECT * FROM products_sales WHERE sales_pack = 12",
        _filter("products_sales", "sales_pack = 12"),
    ),
    WorkloadQuery(
        6, "spotify", "F",
        "SELECT * FROM spotify WHERE popularity > 65",
        _filter("spotify", "popularity > 65"),
    ),
    WorkloadQuery(
        7, "spotify", "F",
        "SELECT * FROM spotify WHERE year > 1990",
        _filter("spotify", "year > 1990"),
    ),
    WorkloadQuery(
        8, "spotify", "F",
        "SELECT * FROM spotify WHERE loudness > -12",
        _filter("spotify", "loudness > -12"),
    ),
    WorkloadQuery(
        9, "spotify", "F",
        "SELECT * FROM spotify WHERE duration_minutes < 3",
        _filter("spotify", "duration_minutes < 3"),
    ),
    WorkloadQuery(
        10, "spotify", "F",
        "SELECT * FROM spotify WHERE tempo > 100",
        _filter("spotify", "tempo > 100"),
    ),
    WorkloadQuery(
        11, "bank", "F",
        "SELECT * FROM bank WHERE Attrition_Flag != 'Existing Customer'",
        _filter("bank", "Attrition_Flag != 'Existing Customer'"),
    ),
    WorkloadQuery(
        12, "bank", "F",
        "SELECT * FROM (SELECT * FROM bank WHERE Attrition_Flag != "
        "'Existing Customer') WHERE Total_Count_Change_Q4_vs_Q1 > 0.75",
        _nested_bank_12,
    ),
    WorkloadQuery(
        13, "bank", "F",
        "SELECT * FROM bank WHERE Months_Inactive_Count_Last_Year > 2",
        _filter("bank", "Months_Inactive_Count_Last_Year > 2"),
    ),
    WorkloadQuery(
        14, "bank", "F",
        "SELECT * FROM bank WHERE Customer_Age < 30",
        _filter("bank", "Customer_Age < 30"),
    ),
    WorkloadQuery(
        15, "bank", "F",
        "SELECT * FROM bank WHERE Income_Category = 'Less than $40K'",
        _filter("bank", "Income_Category = 'Less than $40K'"),
    ),
    # ---- Table 3: group-by (diversity) -------------------------------
    WorkloadQuery(
        16, "products", "GB",
        _gb_sql("products_sales", ["sales_vendor"], [_A("count", "item", "count_item")]),
        _groupby("products_sales", ["sales_vendor"], [_A("count", "item", "count_item")]),
    ),
    WorkloadQuery(
        17, "products", "GB",
        _gb_sql("products_sales", ["sales_county", "sales_category_name"],
                [_A("count", "item", "count_item")]),
        _groupby("products_sales", ["sales_county", "sales_category_name"],
                 [_A("count", "item", "count_item")]),
    ),
    WorkloadQuery(
        18, "products", "GB",
        _gb_sql("products_sales", ["products_pack"], [_A("count", "item", "count_item")]),
        _groupby("products_sales", ["products_pack"], [_A("count", "item", "count_item")]),
    ),
    WorkloadQuery(
        19, "products", "GB",
        _gb_sql("products_sales", ["sales_bottle_quantity"],
                [_A("mean", "sales_total", "mean_total"), _A("mean", "sales_pack", "mean_pack")]),
        _groupby("products_sales", ["sales_bottle_quantity"],
                 [_A("mean", "sales_total", "mean_total"), _A("mean", "sales_pack", "mean_pack")]),
    ),
    WorkloadQuery(
        20, "products", "GB",
        _gb_sql("products_sales", ["products_pack", "products_inner_pack"],
                [_A("mean", "products_bottle_size", "mean_bottle_size")]),
        _groupby("products_sales", ["products_pack", "products_inner_pack"],
                 [_A("mean", "products_bottle_size", "mean_bottle_size")]),
    ),
    WorkloadQuery(
        21, "spotify", "GB",
        _gb_sql("spotify", ["year"],
                [_A("mean", "popularity", "mean_pop"), _A("max", "popularity", "max_pop"),
                 _A("min", "popularity", "min_pop")]),
        _groupby("spotify", ["year"],
                 [_A("mean", "popularity", "mean_pop"), _A("max", "popularity", "max_pop"),
                  _A("min", "popularity", "min_pop")]),
    ),
    WorkloadQuery(
        22, "spotify", "GB",
        _gb_sql("spotify", ["year"],
                [_A("mean", "danceability", "mean_dance"), _A("max", "danceability", "max_dance"),
                 _A("mean", "instrumentalness", "mean_instr"),
                 _A("max", "instrumentalness", "max_instr"),
                 _A("mean", "liveness", "mean_live")]),
        _groupby("spotify", ["year"],
                 [_A("mean", "danceability", "mean_dance"), _A("max", "danceability", "max_dance"),
                  _A("mean", "instrumentalness", "mean_instr"),
                  _A("max", "instrumentalness", "max_instr"),
                  _A("mean", "liveness", "mean_live")]),
    ),
    WorkloadQuery(
        23, "spotify", "GB",
        _gb_sql("spotify", ["key"],
                [_A("mean", "danceability", "mean_dance"), _A("mean", "popularity", "mean_pop")]),
        _groupby("spotify", ["key"],
                 [_A("mean", "danceability", "mean_dance"), _A("mean", "popularity", "mean_pop")]),
    ),
    WorkloadQuery(
        24, "spotify", "GB",
        _gb_sql("spotify", ["decade"],
                [_A("max", "duration_minutes", "max_dur"), _A("mean", "duration_minutes", "mean_dur")]),
        _groupby("spotify", ["decade"],
                 [_A("max", "duration_minutes", "max_dur"), _A("mean", "duration_minutes", "mean_dur")]),
    ),
    WorkloadQuery(
        25, "spotify", "GB",
        _gb_sql("spotify", ["mode", "key"],
                [_A("mean", "loudness", "mean_loud"), _A("mean", "liveness", "mean_live"),
                 _A("mean", "tempo", "mean_tempo")]),
        _groupby("spotify", ["mode", "key"],
                 [_A("mean", "loudness", "mean_loud"), _A("mean", "liveness", "mean_live"),
                  _A("mean", "tempo", "mean_tempo")]),
    ),
    WorkloadQuery(
        26, "bank", "GB",
        _gb_sql("bank", ["Marital_Status", "Income_Category"],
                [_A("mean", "Credit_Used", "mean_used"),
                 _A("mean", "Total_Transitions_Amount", "mean_amount")]),
        _groupby("bank", ["Marital_Status", "Income_Category"],
                 [_A("mean", "Credit_Used", "mean_used"),
                  _A("mean", "Total_Transitions_Amount", "mean_amount")]),
    ),
    WorkloadQuery(
        27, "bank", "GB",
        _gb_sql("bank", ["Marital_Status", "Gender", "Education_Level"],
                [_A("count", None, "cnt")]),
        _groupby("bank", ["Marital_Status", "Gender", "Education_Level"],
                 [_A("count", None, "cnt")]),
    ),
    WorkloadQuery(
        28, "bank", "GB",
        _gb_sql("bank", ["Marital_Status"],
                [_A("mean", "Credit_Used", "mean_used"),
                 _A("mean", "Total_Transitions_Amount", "mean_amount")]),
        _groupby("bank", ["Marital_Status"],
                 [_A("mean", "Credit_Used", "mean_used"),
                  _A("mean", "Total_Transitions_Amount", "mean_amount")]),
    ),
    WorkloadQuery(
        29, "bank", "GB",
        _gb_sql("bank", ["Gender", "Income_Category"],
                [_A("mean", "Customer_Age", "mean_age")]),
        _groupby("bank", ["Gender", "Income_Category"],
                 [_A("mean", "Customer_Age", "mean_age")]),
    ),
    WorkloadQuery(
        30, "bank", "GB",
        _gb_sql("bank", ["Registered_Products_Count", "Attrition_Flag"],
                [_A("count", None, "cnt")]),
        _groupby("bank", ["Registered_Products_Count", "Attrition_Flag"],
                 [_A("count", None, "cnt")]),
    ),
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
