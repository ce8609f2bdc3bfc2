"""Explain a single exploratory step end-to-end (demo entrypoint).

Reproduces the paper's running example (Figs. 1-2) on the synthetic
Spotify data: the popularity filter and the loudness/danceability
group-by, with the captioned explanations printed.

Each step is followed by its wall time and Spark job count.

Usage: python jobs/explain_step.py [--scale test|bench]
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import get_spark  # noqa: E402

from repro.core.explain import Fedex, FedexConfig  # noqa: E402
from repro.core.model import Aggregation, FilterStep, GroupByStep  # noqa: E402
from repro.workload.queries import make_bundle  # noqa: E402


def explain_and_report(spark, fx, step, name: str) -> None:
    """Print ``step``'s explanations, then its wall time and job count."""
    sc = spark.sparkContext
    sc.setJobGroup(name, name)
    t0 = time.perf_counter()
    explanations = fx.explain(step)
    wall = time.perf_counter() - t0
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    jobs = len(sc.statusTracker().getJobIdsForGroup(name))
    for e in explanations:
        print(" •", e.caption)
    print(f"   [{wall:.2f} s, {jobs} Spark jobs]")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", default="test", choices=["test", "bench"])
    args = ap.parse_args()
    spark = get_spark("fedex-demo")
    df = make_bundle(spark, "spotify", args.scale).spark_tables["spotify"]
    fx = Fedex(FedexConfig(sample_size=5000, top_k_explanations=2))

    print("\n== Step 1 (Fig. 1a): SELECT * FROM spotify WHERE popularity > 65 ==")
    explain_and_report(spark, fx, FilterStep(df, "popularity > 65"), "step-1")

    print("\n== Step 2 (Fig. 1b): mean loudness/danceability by year (>=1990) ==")
    step = GroupByStep(
        df.filter("year >= 1990"),
        ["year"],
        [
            Aggregation("mean", "loudness", "loudness"),
            Aggregation("mean", "danceability", "danceability"),
        ],
    )
    explain_and_report(spark, fx, step, "step-2")


if __name__ == "__main__":
    main()
