"""Synthetic Products & Sales dataset (paper §4.1, dataset 3).

The data.world original (products 9 977 × 16; sales 3 049 913 × 17, plus
stores and counties lookup tables) is not available offline. This
generator reproduces the multi-table shape, the join workload (queries
1-3 join sales with products / counties / stores), the prefixed join view
``products_sales`` the filter and group-by queries run on, and the skew
the paper highlights (§4.1: top-1 Fisher-Pearson skew ≈ 205 — our
``sales_total`` is a heavy lognormal):

* **vendor/store/county** columns are Zipf-skewed — group-by counts are
  highly diverse, driven by the head vendors.
* **planted join insight** (§4.2: "EXPERT did not explain this join while
  FEDEX noticed a change in the distribution"): ~25% of products never
  sell, and sales volume is Zipf in the product rank, so the
  products⋈sales view's product-attribute distributions deviate from the
  products table.
* **planted filter insights**: small bottles (``liter_size ≤ 500``) are
  concentrated in the 'Schnapps' category; 12-packs are dominated by the
  head vendor.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.functions import col as F_col

_CATEGORIES = [
    "Whiskey", "Vodka", "Rum", "Schnapps", "Tequila", "Gin", "Brandy", "Liqueur",
]
_CAT_W = np.array([0.24, 0.20, 0.13, 0.12, 0.10, 0.08, 0.07, 0.06])


def _zipf_choice(g, n_items: int, size: int, alpha: float) -> np.ndarray:
    ranks = np.arange(1, n_items + 1)
    w = 1.0 / ranks**alpha
    return g.choice(ranks, size=size, p=w / w.sum())


def products_pdf(n_products: int = 500, seed: int = 11) -> pd.DataFrame:
    g = np.random.default_rng(seed)
    category = g.choice(_CATEGORIES, n_products, p=_CAT_W / _CAT_W.sum())
    # Small bottles concentrated in Schnapps (planted filter insight, q4).
    liter_size = np.where(
        (category == "Schnapps") & (g.random(n_products) < 0.7),
        g.choice([50, 100, 200, 375, 500], n_products),
        # Non-Schnapps products are rarely small (<=500ml) — keeps the
        # planted q4 insight (small bottles ⇒ Schnapps) crisp.
        g.choice([375, 750, 1000, 1750], n_products, p=[0.03, 0.50, 0.34, 0.13]),
    ).astype("int64")
    vendor = _zipf_choice(g, 60, n_products, 1.1)
    pack = g.choice([1, 6, 12, 24, 48], n_products, p=[0.08, 0.42, 0.34, 0.12, 0.04])
    cost = np.exp(g.normal(2.2, 0.7, n_products)).round(2)
    return pd.DataFrame(
        {
            "item": np.arange(1, n_products + 1),
            "name": [f"product_{i}" for i in range(n_products)],
            "vendor": vendor,
            "vendor_name": [f"vendor_{v:03d}" for v in vendor],
            "category": pd.Categorical(category, categories=_CATEGORIES).codes + 100,
            "category_name": category,
            "pack": pack,
            "inner_pack": np.where(pack >= 12, pack // 2, pack).astype("int64"),
            "bottle_size": liter_size,  # ml per bottle
            "liter_size": liter_size,
            "proof": g.integers(40, 151, n_products),
            "cost": cost,
            "price": (cost * g.uniform(1.3, 1.8, n_products)).round(2),
            "case_cost": (cost * pack).round(2),
            "upc": g.integers(10**11, 10**12, n_products),
            "shelf_life_days": g.integers(180, 3650, n_products),
        }
    )


def stores_pdf(n_stores: int = 120, seed: int = 12) -> pd.DataFrame:
    g = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "store": np.arange(1, n_stores + 1),
            "store_name": [f"store_{i:03d}" for i in range(n_stores)],
            "city": g.choice([f"city_{i}" for i in range(25)], n_stores),
            "zipcode": g.integers(50000, 52900, n_stores),
            "square_feet": g.integers(800, 20000, n_stores),
        }
    )


def counties_pdf(n_counties: int = 40, seed: int = 13) -> pd.DataFrame:
    g = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "county": np.arange(1, n_counties + 1),
            "county_name": [f"county_{i:02d}" for i in range(n_counties)],
            "population": np.exp(g.normal(10.5, 1.0, n_counties)).round(0),
        }
    )


def sales_pdf(
    n_sales: int = 20_000,
    n_products: int = 500,
    n_stores: int = 120,
    n_counties: int = 40,
    seed: int = 14,
) -> pd.DataFrame:
    """Sales fact table. Product popularity is Zipf (alpha=0.9) over a
    random permutation of items and ~25% of products never sell — the
    source of the planted join-deviation insight."""
    g = np.random.default_rng(seed)
    products = products_pdf(n_products, seed=11)
    sellable = g.permutation(n_products)[: int(n_products * 0.75)] + 1
    rank = _zipf_choice(g, len(sellable), n_sales, 0.9)
    item = sellable[rank - 1]
    prod = products.set_index("item").loc[item]
    quantity = g.integers(1, 25, n_sales)
    bottle_qty = quantity * prod["pack"].to_numpy()
    total = (bottle_qty * prod["price"].to_numpy() * g.uniform(0.9, 1.1, n_sales)).round(2)
    date = pd.to_datetime("2017-01-01") + pd.to_timedelta(
        g.integers(0, 730, n_sales), unit="D"
    )
    return pd.DataFrame(
        {
            "sale_id": np.arange(1, n_sales + 1),
            "item": item,
            "store": _zipf_choice(g, n_stores, n_sales, 0.9),
            "county": _zipf_choice(g, n_counties, n_sales, 1.0),
            "vendor": prod["vendor"].to_numpy(),
            "category_name": prod["category_name"].to_numpy(),
            "pack": prod["pack"].to_numpy(),
            "liter_size": prod["liter_size"].to_numpy(),
            "bottle_quantity": bottle_qty.astype("int64"),
            "quantity": quantity,
            "total": total,  # lognormal-ish, extreme skew (paper: 205.89)
            "bottle_price": prod["price"].to_numpy(),
            # ISO string, not timestamp: keeps Spark/DuckDB comparisons
            # resolution-free; month/year carry the temporal semantics.
            "date": date.strftime("%Y-%m-%d"),
            "month": date.month.astype("int64"),
            "year": date.year.astype("int64"),
            "state_bottle_cost": prod["cost"].to_numpy(),
            "volume_sold_liters": (bottle_qty * prod["liter_size"].to_numpy() / 1000.0).round(2),
        }
    )


def prefixed(df: DataFrame, prefix: str, key: str = "item") -> DataFrame:
    """Rename all non-key columns to ``<prefix>_<name>`` — the join-view
    naming the paper's Table 2/3 queries use (``sales_vendor``, ...), and
    the collision-free way to express query 1's products⋈sales (both
    tables carry vendor/pack/... columns, as in the original data)."""
    return df.select(
        key, *[F_col(c).alias(f"{prefix}_{c}") for c in df.columns if c != key]
    )


def prefixed_pdf(pdf: pd.DataFrame, prefix: str, key: str = "item") -> pd.DataFrame:
    """Pandas twin of :func:`prefixed` for the DuckDB oracle."""
    return pdf.rename(columns={c: f"{prefix}_{c}" for c in pdf.columns if c != key})


def products_sales_view(products: DataFrame, sales: DataFrame) -> DataFrame:
    """The prefixed join view ``products_sales`` the Table 2/3 queries run
    on (columns ``products_*`` / ``sales_*``, join key ``item``)."""
    return prefixed(sales, "sales").join(prefixed(products, "products"), on="item", how="inner")


def _pandas_prefixed(products: pd.DataFrame, sales: pd.DataFrame) -> pd.DataFrame:
    """Pandas twin of :func:`products_sales_view` for the DuckDB oracle."""
    p = products.rename(columns={c: f"products_{c}" for c in products.columns if c != "item"})
    s = sales.rename(columns={c: f"sales_{c}" for c in sales.columns if c != "item"})
    return s.merge(p, on="item", how="inner")
