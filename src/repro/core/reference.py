"""Driver-side numpy reference implementations of the paper's measures.

These are the mathematical ground truth the Spark implementations are
tested against, and the shared combine kernels used by ``contribution.py``
on already-aggregated (small) data. Everything here operates on numpy
arrays / pandas objects that are O(|distinct values|) or O(|groups|), never
on raw rows of a large dataframe.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def ks_from_counts(counts_a: np.ndarray, counts_b: np.ndarray) -> float:
    """Two-sample KS statistic from aligned per-value counts.

    ``counts_a[i]`` / ``counts_b[i]`` are the multiplicities of the i-th
    value (in ascending value order) in each sample. This is exactly the
    paper's Eq. 1: the max absolute difference between the two empirical
    CDFs built from relative value frequencies. Returns 0.0 if either
    sample is empty (an empty side carries no distribution to deviate
    from, and the paper generates no explanation in that case).
    """
    ta, tb = counts_a.sum(), counts_b.sum()
    if ta == 0 or tb == 0:
        return 0.0
    cdf_a = np.cumsum(counts_a) / ta
    cdf_b = np.cumsum(counts_b) / tb
    return float(np.abs(cdf_a - cdf_b).max())


def ks_2samp(a, b) -> float:
    """Two-sample KS over raw value arrays (reference for tests)."""
    a = pd.Series(a).dropna().to_numpy()
    b = pd.Series(b).dropna().to_numpy()
    values = np.unique(np.concatenate([a, b]))
    ca = pd.Series(a).value_counts().reindex(values, fill_value=0).to_numpy(float)
    cb = pd.Series(b).value_counts().reindex(values, fill_value=0).to_numpy(float)
    return ks_from_counts(ca, cb)


def cv(values) -> float:
    """Coefficient of variation (paper Eq. 2): sample std / |mean|.

    The paper's loudness example (mean ≈ -10, CV reported positive 0.13)
    implies |mean| in the denominator. Degenerate cases — fewer than two
    values, mean ≈ 0, or a mean or standard deviation that is not finite
    (an infinite value) — score 0.0: a single group, a zero-mean column
    or an unbounded one offers no meaningful diversity signal to explain.
    """
    v = pd.Series(values).dropna().to_numpy(dtype=float)
    if v.size < 2:
        return 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        mean, std = v.mean(), v.std(ddof=1)
    if not (np.isfinite(mean) and np.isfinite(std)) or abs(mean) < 1e-12:
        return 0.0
    return float(std / abs(mean))


def leave_one_out_ks(
    pivot_in: pd.DataFrame, pivot_out: pd.DataFrame, set_ids: list[int]
) -> tuple[float, dict[int, float]]:
    """Full KS + per-set leave-one-out KS from per-(value, set) counts.

    ``pivot_in`` / ``pivot_out`` are value-indexed count tables (rows =
    values in CDF order, columns = set ids incl. the ignore set) for the
    input and output columns. Removing set ``i`` from the input removes
    exactly the rows annotated ``i`` from both sides (filter/join/union
    provenance), so the leave-one-out counts are column subtractions.

    Returns ``(ks_full, {set_id: ks_without_set})``.
    """
    tot_in = pivot_in.to_numpy(float).sum(axis=1)
    tot_out = pivot_out.to_numpy(float).sum(axis=1)
    full = ks_from_counts(tot_in, tot_out)
    out: dict[int, float] = {}
    for i in set_ids:
        minus_in = tot_in - (
            pivot_in[i].to_numpy(float) if i in pivot_in.columns else 0.0
        )
        minus_out = tot_out - (
            pivot_out[i].to_numpy(float) if i in pivot_out.columns else 0.0
        )
        out[i] = ks_from_counts(minus_in, minus_out)
    return full, out


def standardize(contribs: dict[int, float]) -> dict[int, float]:
    """Standardized contribution C̄ (paper §3.6): z-score of each set's
    contribution against its fellow sets in the same partition. A
    zero-variance partition (all sets contribute equally) standardizes to
    all-zeros rather than dividing by zero."""
    vals = np.array(list(contribs.values()), dtype=float)
    if vals.size < 2:
        return {k: 0.0 for k in contribs}
    mu, s = vals.mean(), vals.std(ddof=1)
    if s < 1e-12:
        return {k: 0.0 for k in contribs}
    return {k: float((v - mu) / s) for k, v in contribs.items()}
