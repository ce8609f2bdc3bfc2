"""Synthetic Spotify "Song Popularity" dataset (paper §4.1, dataset 1).

The real dataset (Kaggle, 174 389 rows × 20 columns) is not available
offline; this deterministic generator reproduces its schema and the
properties the evaluation relies on (see DESIGN.md §2):

* **planted filter insight** (Figs. 1a/2a, Ex. 3.2-3.6): songs from the
  2010s are a small share of the data (~3-4%) but dominate the
  ``popularity > 65`` filter result — the 'decade' column has the top KS
  deviation for query 6.
* **planted group-by insight** (Figs. 1b/2b, Ex. 3.7-3.10): 1990s songs
  are ~4 dB quieter than other decades, 'danceability' is tight around
  0.55 with a mild 2020s lift — mean-loudness-by-year is diverse and the
  diversity is driven by the 1990s.
* **planted task insight** (§4.2 interactive study): acoustic songs
  (acousticness > 0.5) are less popular.
* **skew**: 'followers' is lognormal with Fisher-Pearson skewness ~10,
  matching the "top-1 column 10.16" remark in §4.1.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

_DECADES = np.array([1950, 1960, 1970, 1980, 1990, 2000, 2010, 2020])
#: Decade mix: 2010s deliberately rare (paper Fig. 2a: 3.5% of the data).
_DECADE_W = np.array([0.10, 0.14, 0.18, 0.20, 0.16, 0.155, 0.035, 0.03])

_GENRES = ["rock", "pop", "jazz", "hiphop", "electronic", "classical", "folk", "metal"]
_GENRE_W = np.array([0.30, 0.25, 0.12, 0.12, 0.09, 0.06, 0.04, 0.02])


def spotify_pdf(n_rows: int = 6000, seed: int = 42) -> pd.DataFrame:
    """The dataset as pandas (used directly by the DuckDB oracle)."""
    g = np.random.default_rng(seed)
    decade = g.choice(_DECADES, n_rows, p=_DECADE_W / _DECADE_W.sum())
    year = decade + g.integers(0, 10, n_rows)
    year = np.minimum(year, 2023)

    acousticness = np.clip(g.beta(1.2, 3.0, n_rows), 0, 1).round(3)
    # Popularity: gentle recency trend + strong 2010s lift + acoustic
    # penalty + noise. Calibrated so >65 is ~60% 2010s.
    popularity = (
        28.0
        + 0.22 * (year - 1950)
        + np.where(decade == 2010, 38.0, 0.0)
        + np.where(decade == 2020, 18.0, 0.0)
        - 12.0 * (acousticness > 0.5)
        + g.normal(0, 9, n_rows)
    )
    popularity = np.clip(popularity, 0, 100).round(0)

    loudness = np.where(
        decade == 1990,
        g.normal(-12.0, 1.2, n_rows),
        g.normal(-8.0, 1.4, n_rows),
    ).round(3)
    danceability = np.clip(
        g.normal(0.55, 0.03, n_rows) + np.where(decade == 2020, 0.06, 0.0),
        0,
        1,
    ).round(3)

    artists = np.array([f"artist_{i:04d}" for i in range(max(50, n_rows // 60))])
    artist_w = 1.0 / np.arange(1, len(artists) + 1) ** 1.05
    return pd.DataFrame(
        {
            "name": [f"song_{i}" for i in range(n_rows)],
            "main_artist": g.choice(artists, n_rows, p=artist_w / artist_w.sum()),
            "year": year.astype("int64"),
            "decade": decade.astype("int64"),
            "popularity": popularity,
            "danceability": danceability,
            "loudness": loudness,
            "duration_minutes": np.clip(g.normal(3.6, 0.9, n_rows), 0.5, 12).round(2),
            "tempo": np.clip(g.normal(120, 25, n_rows), 40, 220).round(1),
            "energy": np.clip(g.normal(0.6, 0.18, n_rows), 0, 1).round(3),
            "acousticness": acousticness,
            # Planted: pre-1970 songs are far more instrumental (the
            # classical/jazz era) — the true driver of query 22's
            # mean-instrumentalness diversity.
            "instrumentalness": np.clip(
                np.where(g.random(n_rows) < 0.75, 0.0, g.beta(1.5, 2.0, n_rows))
                + np.where(year < 1970, 0.35, 0.0),
                0,
                1,
            ).round(3),
            "liveness": np.clip(g.beta(1.5, 6.0, n_rows), 0, 1).round(3),
            "speechiness": np.clip(g.beta(1.3, 9.0, n_rows), 0, 1).round(3),
            "valence": np.clip(g.normal(0.5, 0.22, n_rows), 0, 1).round(3),
            "key": g.integers(0, 12, n_rows),
            "mode": g.integers(0, 2, n_rows),
            "genre": g.choice(_GENRES, n_rows, p=_GENRE_W / _GENRE_W.sum()),
            "explicit": (g.random(n_rows) < 0.12).astype("int64"),
            # Heavy-tailed: skewness ~ 10 (paper §4.1's top-1 skew 10.16).
            "followers": np.exp(g.normal(8, 2.2, n_rows)).round(0),
        }
    )
