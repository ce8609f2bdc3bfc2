"""Run FEDEX over the full 30-query workload (Tables 2-3) and print the
top explanation per query — the reproduction of the paper's running
examples (Ex. 3.2/3.4/3.10) at workload scale.

Usage: python jobs/run_queries.py [--scale test|bench] [--queries 6,7,...]
                                  [--dump PATH]

``--dump PATH`` writes the workload's golden output instead: every
explanation candidate's id, I, C, C̄ and caption, per query, under exact
FEDEX (``FedexConfig()``) and FEDEX-SAMPLING (``--sample-size``), as JSON.
Two dumps of the same scale are equal when a change keeps the explanations.
"""
import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import get_spark  # noqa: E402

from repro.core.explain import Fedex, FedexConfig  # noqa: E402
from repro.workload.queries import BY_NUM, make_bundle  # noqa: E402


def candidate(e) -> dict:
    """One candidate's golden-output record."""
    return {
        "id": [e.column, e.attr, e.method, e.via, e.n_sets, e.set_label],
        "I": e.interestingness,
        "C": e.contribution,
        "C_std": e.std_contribution,
        "caption": e.caption,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", default="test", choices=["test", "bench"])
    ap.add_argument("--queries", default=None, help="comma-separated query numbers")
    ap.add_argument("--sample-size", type=int, default=5000)
    ap.add_argument("--dump", default=None, help="write every candidate to this JSON file")
    args = ap.parse_args()
    nums = (
        [int(x) for x in args.queries.split(",")]
        if args.queries
        else sorted(BY_NUM)
    )
    spark = get_spark("fedex-run-queries")
    bundles = {}

    def step(num):
        q = BY_NUM[num]
        if q.dataset not in bundles:
            bundles[q.dataset] = make_bundle(spark, q.dataset, args.scale)
        return q.build(bundles[q.dataset])

    if args.dump:
        configs = {"exact": FedexConfig(), "sampling": FedexConfig(sample_size=args.sample_size)}
        out = {
            name: {str(n): [candidate(e) for e in Fedex(cfg).candidates(step(n))] for n in nums}
            for name, cfg in configs.items()
        }
        Path(args.dump).write_text(json.dumps(out, indent=1))
        return

    fx = Fedex(FedexConfig(sample_size=args.sample_size, top_k_explanations=2))
    for num in nums:
        q = BY_NUM[num]
        exps = fx.explain(step(num))
        print(f"\n-- query {num} ({q.dataset}, {q.kind}) --")
        if not exps:
            print("   (no positive-contribution explanation)")
        for e in exps:
            print(f"   [{e.interestingness:.3f} I / {e.std_contribution:.2f} C̄] {e.caption}")


if __name__ == "__main__":
    main()
