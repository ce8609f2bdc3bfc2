"""Experiment harnesses for the paper's evaluation artifacts (§4).

One function per evaluation figure/table; ``jobs/*.py`` are thin
spark-submit wrappers that run and print them. Every function returns a
tidy ``pandas.DataFrame`` whose rows mirror the numbers the paper
reports, so EXPERIMENTS.md can diff paper vs measured directly.
"""
from __future__ import annotations

import time
from dataclasses import replace

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.io_baseline import io_explain
from repro.baselines.rath import RathOOMError, rath_insights
from repro.baselines.seedb import UnsupportedStepError, seedb_views
from repro.core.explain import Fedex, FedexConfig
from repro.core.model import FilterStep
from repro.metrics.ranking import kendall_tau_distance, ndcg, precision_at_k
from repro.studysim import judge as J
from repro.studysim.unassisted import count_insights
from repro.workload.queries import (
    BY_NUM,
    NOTEBOOKS,
    SCALES,
    DatasetBundle,
    make_bundle,
)

#: The paper's sampling-optimization default (§3.7/§4.1).
SAMPLE_SIZE = 5000


# ---------------------------------------------------------------- Fig. 7
def sampling_accuracy(
    spark: SparkSession,
    *,
    query_nums: tuple[int, ...] = (4, 5, 6, 7, 8),
    sample_sizes: tuple[int, ...] = (50, 200, 1000, 5000, 20000),
    scale: str = "test",
    config: FedexConfig | None = None,
    bundles: dict[str, DatasetBundle] | None = None,
) -> pd.DataFrame:
    """Accuracy of FEDEX-SAMPLING vs exact FEDEX (paper Fig. 7).

    For every query, exact FEDEX's candidate ranking is the ground truth;
    each sample size re-scores phase-1 interestingness on a uniform
    sample and re-assembles the ranking (contributions are exact in both,
    per §3.7 — only lines 1-2 are sampled). Reports mean precision@3,
    Kendall-Tau distance, and nDCG per sample size.
    """
    cfg = config or FedexConfig()
    bundles = bundles or {}
    rows = []
    for num in query_nums:
        q = BY_NUM[num]
        if q.dataset not in bundles:
            bundles[q.dataset] = make_bundle(spark, q.dataset, scale)
        step = q.build(bundles[q.dataset])
        exact_fx = Fedex(replace(cfg, sample_size=None))
        exact_scores = exact_fx.interesting_columns(step)
        # One contribution pass over the union of all variants' top-k
        # column selections (sampling may promote different columns).
        all_scores = {None: exact_scores}
        for s in sample_sizes:
            fx = Fedex(replace(cfg, sample_size=s, seed=17 + s))
            all_scores[s] = fx.interesting_columns(step)
        union_cols = sorted(
            {c for sc in all_scores.values() for c in exact_fx._top_columns(sc)}
        )
        results = exact_fx.contribution_results(step, union_cols)
        truth = [
            e.candidate_id
            for e in exact_fx.assemble(step, exact_scores, results)
        ]
        for s in sample_sizes:
            fx = Fedex(replace(cfg, sample_size=s, seed=17 + s))
            pred = [
                e.candidate_id for e in fx.assemble(step, all_scores[s], results)
            ]
            rows.append(
                {
                    "query": num,
                    "dataset": q.dataset,
                    "sample_size": s,
                    "precision_at_3": precision_at_k(pred, truth, 3),
                    "kendall_tau": kendall_tau_distance(pred, truth),
                    "ndcg": ndcg(pred, truth),
                }
            )
    df = pd.DataFrame(rows)
    return (
        df.groupby("sample_size", as_index=False)
        .agg(
            precision_at_3=("precision_at_3", "mean"),
            kendall_tau=("kendall_tau", "mean"),
            ndcg=("ndcg", "mean"),
        )
        .sort_values("sample_size", ignore_index=True)
    )


# ---------------------------------------------------------------- Fig. 8
def accuracy_vs_rows(
    spark: SparkSession,
    *,
    row_counts: tuple[int, ...] = (20_000, 50_000, 100_000),
    query_nums: tuple[int, ...] = (4, 5),
    sample_size: int = SAMPLE_SIZE,
    config: FedexConfig | None = None,
) -> pd.DataFrame:
    """FEDEX-SAMPLING accuracy at a fixed 5K sample while the Products
    data grows (paper Fig. 8; their x-axis reaches 3M rows — we sweep a
    scaled-down range with the same fixed sample size)."""
    cfg = config or FedexConfig()
    rows = []
    for n in row_counts:
        products = make_bundle(spark, "products", dict(SCALES["test"], sales=n))
        out = sampling_accuracy(
            spark,
            query_nums=query_nums,
            sample_sizes=(sample_size,),
            config=cfg,
            bundles={"products": products},
        )
        rows.append(
            {
                "n_rows": n,
                "precision_at_3": out.loc[0, "precision_at_3"],
                "kendall_tau": out.loc[0, "kendall_tau"],
                "ndcg": out.loc[0, "ndcg"],
            }
        )
    return pd.DataFrame(rows)


# ------------------------------------------------------------ Figs. 9/10
def _time_method(fn) -> float:
    """Wall time of one method invocation; NaN when the method cannot
    run (SeeDB on group-by, RATH over its memory envelope) so pandas
    keeps the column numeric and NaN-skips the per-query mean."""
    t0 = time.perf_counter()
    try:
        fn()
    except (UnsupportedStepError, RathOOMError):
        return float("nan")
    return time.perf_counter() - t0


def runtime_vs_columns(
    spark: SparkSession,
    dataset: str,
    *,
    column_counts: tuple[int, ...] = (5, 10, 15, 20),
    scale: str = "test",
    rath_budget_bytes: int | None = None,
    seed: int = 23,
) -> pd.DataFrame:
    """Runtime of FEDEX-SAMPLING vs SeeDB vs RATH as the schema widens
    (paper Fig. 9). Per the paper's protocol, each projection always
    includes the query's predicate attribute and the most interesting
    attribute, then adds columns in a fixed random permutation; times are
    averaged over the dataset's filter/join queries.
    """
    import random

    bundle = make_bundle(spark, dataset, scale)
    queries = [q for q in BY_NUM.values() if q.dataset == dataset and q.kind == "F"]
    rows = []
    for q in queries:
        step = q.build(bundle)
        d_in = step.partitioned_input
        fx_probe = Fedex(FedexConfig(sample_size=SAMPLE_SIZE))
        probe_scores = fx_probe.interesting_columns(step)
        best_col = max(probe_scores, key=probe_scores.get) if probe_scores else None
        must = [c for c in [*step.predicate_columns, best_col] if c]
        rest = [c for c in d_in.columns if c not in must]
        random.Random(seed).shuffle(rest)
        for k in column_counts:
            cols = (must + rest)[: max(k, len(must))]
            proj = d_in.select(*cols)
            proj_step = FilterStep(proj, step.predicate)
            t_fedex = _time_method(
                lambda: Fedex(FedexConfig(sample_size=SAMPLE_SIZE)).explain(proj_step)
            )
            t_seedb = _time_method(lambda: seedb_views(proj_step))
            t_rath = _time_method(
                lambda: rath_insights(
                    proj_step, memory_budget_bytes=rath_budget_bytes
                )
            )
            rows.append(
                {
                    "query": q.num,
                    "n_columns": len(cols),
                    "fedex_sampling_s": t_fedex,
                    "seedb_s": t_seedb,
                    "rath_s": t_rath,
                }
            )
    return (
        pd.DataFrame(rows)
        .groupby("n_columns", as_index=False)
        .mean(numeric_only=True)
        .drop(columns=["query"])
    )


def runtime_vs_rows(
    spark: SparkSession,
    dataset: str,
    *,
    row_counts: tuple[int, ...],
    include_exact: bool = True,
    rath_budget_bytes: int | None = None,
    query_nums: tuple[int, ...] | None = None,
) -> pd.DataFrame:
    """Runtime as the data grows (paper Fig. 10): FEDEX (exact) vs
    FEDEX-SAMPLING, with SeeDB/RATH for context, averaged over the
    dataset's filter/join queries."""
    key = {"spotify": "spotify", "bank": "bank", "products": "sales"}[dataset]
    queries = [
        q
        for q in BY_NUM.values()
        if q.dataset == dataset
        and q.kind in ("F", "J")
        and (query_nums is None or q.num in query_nums)
    ]
    rows = []
    for n in row_counts:
        bundle = make_bundle(spark, dataset, dict(SCALES["test"], **{key: n}))
        for q in queries:
            step = q.build(bundle)
            rec = {"query": q.num, "n_rows": n}
            rec["fedex_sampling_s"] = _time_method(
                lambda: Fedex(FedexConfig(sample_size=SAMPLE_SIZE)).explain(step)
            )
            if include_exact:
                rec["fedex_s"] = _time_method(
                    lambda: Fedex(FedexConfig(sample_size=None)).explain(step)
                )
            rec["seedb_s"] = _time_method(lambda: seedb_views(step))
            rec["rath_s"] = _time_method(
                lambda: rath_insights(step, memory_budget_bytes=rath_budget_bytes)
            )
            rows.append(rec)
    return (
        pd.DataFrame(rows)
        .groupby("n_rows", as_index=False)
        .mean(numeric_only=True)
        .drop(columns=["query"])
    )


# --------------------------------------------------------------- Fig. 11
def contribution_vs_n_sets(
    spark: SparkSession,
    *,
    query_nums: tuple[int, ...] = (3, 7),
    n_sets_values: tuple[int, ...] = (3, 5, 8, 10, 15, 20),
    scale: str = "test",
) -> pd.DataFrame:
    """Top contribution score as a function of the number of sets-of-rows
    (paper Fig. 11, queries 3 and 7). The paper reports no clear trend —
    the optimal set count depends on the attribute's value distribution.
    """
    rows = []
    bundles: dict[str, DatasetBundle] = {}
    for num in query_nums:
        q = BY_NUM[num]
        if q.dataset not in bundles:
            bundles[q.dataset] = make_bundle(spark, q.dataset, scale)
        step = q.build(bundles[q.dataset])
        for n in n_sets_values:
            fx = Fedex(FedexConfig(n_sets=(n,), top_k_columns=1))
            cands = fx.candidates(step)
            rows.append(
                {
                    "query": num,
                    "n_sets": n,
                    "top_contribution": cands[0].contribution if cands else 0.0,
                    "top_std_contribution": cands[0].std_contribution if cands else 0.0,
                }
            )
    return pd.DataFrame(rows)


# ------------------------------------------------------- Figs. 3/4/5/6
def _method_claims(
    step, method: str, *, augmented: bool = False, query_num: int = 0
) -> list[J.Claim]:
    # Every method presents its top-3 artifacts to the judge (the paper
    # showed users "up to five explanations" across methods; 3 keeps the
    # comparison even-handed — FEDEX's skyline frequently exceeds 2 here
    # because equal-interestingness candidates tie, see skyline.py).
    top_k = 3
    if method == "fedex":
        fx = Fedex(FedexConfig(sample_size=SAMPLE_SIZE, top_k_explanations=top_k))
        return J.claims_from_fedex(fx.explain(step), top_k=top_k)
    if method == "io":
        return J.claims_from_io(io_explain(step, top_k=top_k, sample_size=SAMPLE_SIZE))
    if method == "seedb":
        try:
            claims = J.claims_from_seedb(seedb_views(step, top_k=top_k))
        except UnsupportedStepError:
            return []
        if augmented:
            # §4.2 Fig. 6: an expert captions SeeDB's views — modeled as
            # attaching the view's top category as a set annotation.
            claims = [J.Claim(c.column_text, "expert caption: top groups") for c in claims]
        return claims
    if method == "rath":
        try:
            return J.claims_from_rath(rath_insights(step, top_k=top_k))
        except RathOOMError:
            return []
    if method == "expert":
        return J.claims_from_expert(query_num)
    raise ValueError(method)


def user_study(
    spark: SparkSession,
    *,
    scale: str = "test",
    methods: tuple[str, ...] = ("fedex", "io", "seedb", "rath", "expert"),
    augmented: bool = False,
) -> pd.DataFrame:
    """Simulated §4.2 user study (Figs. 3 and 6): the deterministic judge
    grades each method's explanations per notebook on the 1-7 scale
    against the planted ground truth. Returns one row per
    (notebook, method) with the mean grade and generation time (Fig. 4).
    """
    rows = []
    for notebook, nums in NOTEBOOKS.items():
        bundle = make_bundle(spark, notebook, scale)
        per_method: dict[str, dict[int, list[J.Claim]]] = {m: {} for m in methods}
        gen_time: dict[str, float] = {m: 0.0 for m in methods}
        for num in nums:
            step = BY_NUM[num].build(bundle)
            for m in methods:
                t0 = time.perf_counter()
                per_method[m][num] = _method_claims(
                    step, m, augmented=augmented, query_num=num
                )
                gen_time[m] += time.perf_counter() - t0
        for m in methods:
            rows.append(
                {
                    "notebook": notebook,
                    "method": m,
                    "score_1_to_7": J.grade_notebook(per_method[m]),
                    "generation_time_s": round(gen_time[m], 2),
                }
            )
    return pd.DataFrame(rows)


def interactive_study(spark: SparkSession, *, scale: str = "test") -> pd.DataFrame:
    """Simulated assisted-vs-unassisted insight counts (paper Fig. 5) for
    the Spotify and Bank notebooks."""
    rows = []
    for notebook in ("spotify", "bank"):
        bundle = make_bundle(spark, notebook, scale)
        per_query = {}
        for num in NOTEBOOKS[notebook]:
            step = BY_NUM[num].build(bundle)
            fx = Fedex(FedexConfig(sample_size=SAMPLE_SIZE))
            per_query[num] = fx.explain(step)
        counts = count_insights(per_query)
        rows.append(
            {
                "notebook": notebook,
                "with_fedex": counts.assisted,
                "without_fedex": counts.unassisted,
            }
        )
    return pd.DataFrame(rows)
