"""Benchmark of ``Fedex.explain`` as one analyst runs it.

    python3 explainbench/run.py --workload filter --seed 1 --seconds 45 --trace 0

One Python process explains the workload's steps in a closed loop (the next
step starts when the previous one returns) on Spark ``local[4]`` with the
test fixture's settings. A *pass* explains every step once, in order, on a
fresh seeded draw of its tables (see ``draws.py``). Set-up starts Spark,
generates every draw, creates the frames and runs the warm-up passes on
draws of their own. Timed passes follow until the workload's pass count or
``--seconds`` is reached; each end-to-end timing is the median over them.

``--trace 1`` alternates untraced and traced timed passes (at least
untraced, traced, untraced) and reports the per-layer figures of
``tracer.py`` instead of the end-to-end metrics.
Every explanation is checked (``checks.py``); a failed check or an
exception counts as a failed operation. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--update-golden`` rewrites ``golden.json`` from a run at the golden seed.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shlex
import statistics
import sys
import time
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_build" / "explainbench"

#: Fixed here, not derived from the machine, so every run gets the same heap.
DRIVER_MEMORY = "2g"
MASTER = "local[4]"
#: The test fixture's session settings (conftest.py).
SESSION_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.showConsoleProgress": "false",
}
#: FEDEX-SAMPLING, as in benchmarks/bench_table23_workload.py.
FEDEX_CONFIG = {"sample_size": 5000, "top_k_explanations": 2}

#: Layers that run Spark jobs, and the metrics reported for them.
SPARK_LAYERS = ["interestingness", "partition", "contribution"]
SPARK_METRICS = ("self_s", "wait_s", "py_cpu_s", "jvm_cpu_s", "jobs", "tasks", "failed_tasks", "calls")
#: `explain` (the rest of Fedex.explain) runs no job today; its jobs and
#: wait would show work moved there. Its JVM CPU reads 0 and is left out.
EXPLAIN_METRICS = ("self_s", "wait_s", "py_cpu_s", "jobs", "calls")
#: Driver-only layers.
PY_LAYERS = ["reference", "skyline", "captions"]
PY_METRICS = ("self_s", "py_cpu_s", "calls")

END_TO_END = {
    "notebook_s": "s",
    "cpu_s": "s",
    "spark_jobs": "count",
    "spark_tasks": "count",
    "py_peak_rss_mb": "MB",
    "setup_s": "s",
}


def _unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


def _per_layer_units() -> dict[str, str]:
    names = [f"{layer}.{m}" for layer in SPARK_LAYERS for m in SPARK_METRICS]
    names += [f"explain.{m}" for m in EXPLAIN_METRICS]
    names += [f"{layer}.{m}" for layer in PY_LAYERS for m in PY_METRICS]
    names += ["contribution.exceptionality.calls", "contribution.diversity.calls"]
    names += ["setup.spark_s", "setup.data_s", "setup.warmup_s"]
    names += ["trace.overhead_s", "trace.bookkeeping_s", "trace.unattributed_jobs"]
    units = {n: _unit(n) for n in names}
    for ratio in ("partition.repeat_ratio", "contribution.positive_ratio", "skyline.kept_ratio"):
        units[ratio] = "ratio"
    return units


PER_LAYER = _per_layer_units()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-golden", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def start_spark():
    """Spark ``local[4]`` whose scratch files stay under ``WORK_DIR``."""
    tmp = WORK_DIR / "tmp"
    local = WORK_DIR / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)  # PySpark's gateway connection file
    java_opts = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {MASTER}",
            f"--driver-memory {DRIVER_MEMORY}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            f"--conf spark.local.dir={shlex.quote(str(local))}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("explainbench")
    for k, v in SESSION_CONF.items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for the gateway JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the gateway exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait(timeout=30)


def reset_peak_rss() -> None:
    """Start a new peak-RSS window (Linux ``clear_refs`` 5)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Checker:
    """Counts explain operations and failed ones (exception or check)."""

    def __init__(self, seed: int, golden: dict | None):
        self.seed = seed
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.collected: dict[str, dict[str, list]] = {}

    def check(self, query: int, draw: int, explanations) -> None:
        """``explanations`` is the step's result, or an exception."""
        self.attempted += 1
        if isinstance(explanations, BaseException):
            errs = [f"{type(explanations).__name__}: {explanations}"]
        else:
            got = checks.digest(explanations)
            self.collected.setdefault(str(query), {})[str(draw)] = got
            errs = checks.invariant_errors(explanations, FEDEX_CONFIG["top_k_explanations"])
            if self.golden is not None and self.seed == checks.GOLDEN_SEED:
                want = checks.golden_for(self.golden, query, draw)
                if want is not None:
                    errs += checks.digest_errors(got, want)
        if errs:
            self.failed += 1
            for e in errs:
                print(f"[check] q{query} draw {draw}: {e}", file=sys.stderr)


def run(args) -> dict:
    import draws

    wl = draws.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    spark = start_spark()
    try:
        sc = spark.sparkContext
        jvm_pid = int(sc._jvm.java.lang.ProcessHandle.current().pid())
        t_spark = time.perf_counter()

        from repro.core.explain import Fedex, FedexConfig
        from tracer import Clock, Tracer, collect_jobs

        warm_draws = [draws.WARMUP_DRAW_BASE + i for i in range(wl.warmup_passes)]
        # Trace mode runs untraced, traced, untraced passes at least, so
        # that warming from pass to pass does not bias the overhead.
        min_passes = 3 if args.trace else 1
        timed_draws = list(range(max(wl.timed_passes, min_passes)))
        steps = {
            d: draws.build_steps(spark, wl, args.seed, d) for d in warm_draws + timed_draws
        }
        t_data = time.perf_counter()

        fx = Fedex(FedexConfig(**FEDEX_CONFIG))
        for d in warm_draws:
            for step in steps[d]:
                fx.explain(step)
        t_warm = time.perf_counter()

        checker = Checker(args.seed, None if args.update_golden else checks.load_golden())
        clock = Clock(jvm_pid)
        passes: list[dict] = []
        reset_peak_rss()
        start = time.perf_counter()
        spans = Tracer(sc, clock)
        for i, d in enumerate(timed_draws):
            traced = bool(args.trace) and i % 2 == 1
            last = passes[-1]["wall_s"] if passes else 0.0
            if i >= min_passes and time.perf_counter() - start + last > args.seconds:
                break
            group = f"bench-pass-{i}"
            sc.setJobGroup(group, "benchmark pass")
            results = []
            c0 = clock.now()
            with spans if traced else contextlib.nullcontext():
                for step in steps[d]:
                    try:
                        results.append(spans.explain(fx, step) if traced else fx.explain(step))
                    except Exception as exc:  # counted as a failed operation
                        results.append(exc)
            c1 = clock.now()
            rec = {
                "traced": traced,
                "wall_s": c1[0] - c0[0],
                "cpu_s": (c1[1] - c0[1]) + (c1[2] - c0[2]),
            }
            if traced:
                rec["layers"] = spans.finish_pass()
            else:
                rec["jobs"], rec["tasks"], _ = collect_jobs(sc, {"pass": [group]})["pass"]
            passes.append(rec)
            for q, res in zip(wl.queries, results):
                checker.check(q, d, res)
        rss = peak_rss_mb()
    finally:
        stop_spark(spark)

    setup = {
        "setup.spark_s": t_spark - t0,
        "setup.data_s": t_data - t_spark,
        "setup.warmup_s": t_warm - t_data,
    }
    for i, p in enumerate(passes):
        print(
            f"[pass {i}] {'traced ' if p['traced'] else ''}wall {p['wall_s']:.3f} s, "
            f"cpu {p['cpu_s']:.3f} s, jobs {p.get('jobs', '-')}",
            file=sys.stderr,
        )
    if args.update_golden:
        write_golden(checker.collected)
    metrics = trace_metrics(passes, setup) if args.trace else end_to_end_metrics(passes, setup, rss)
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def end_to_end_metrics(passes, setup, rss) -> dict:
    med = lambda k: statistics.median(p[k] for p in passes)  # noqa: E731
    values = {
        "notebook_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "spark_jobs": med("jobs"),
        "spark_tasks": med("tasks"),
        "py_peak_rss_mb": rss,
        "setup_s": sum(setup.values()),
    }
    print(f"[summary] {len(passes)} timed passes; medians over them", file=sys.stderr)
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace_metrics(passes, setup) -> dict:
    import tracer

    traced = [p["layers"] for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    values: dict[str, float] = {}
    for name in PER_LAYER:
        if name in traced[0]:
            values[name] = statistics.median(t[name] for t in traced)
    total = lambda k: sum(t[k] for t in traced)  # noqa: E731
    values["partition.repeat_ratio"] = _ratio(total("partition.repeats"), total("partition.builds"))
    values["contribution.positive_ratio"] = _ratio(
        total("contribution.positive_sets"), total("contribution.sets")
    )
    values["skyline.kept_ratio"] = _ratio(total("skyline.kept"), total("skyline.candidates"))
    values.update(setup)
    traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
    values["trace.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in plain)
    layer_jobs = statistics.median(
        sum(t[f"{layer}.jobs"] for layer in tracer.LAYERS) for t in traced
    )
    values["trace.unattributed_jobs"] = statistics.median(p["jobs"] for p in plain) - layer_jobs
    accounted = statistics.median(
        sum(t[f"{layer}.self_s"] for layer in tracer.LAYERS) + t["trace.bookkeeping_s"]
        for t in traced
    )
    print(
        f"[summary] {len(traced)} traced / {len(plain)} untraced passes; traced wall "
        f"{traced_wall:.3f} s, layers' self + bookkeeping {accounted:.3f} s",
        file=sys.stderr,
    )
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def write_golden(collected: dict) -> None:
    path = checks.GOLDEN_PATH
    golden = json.loads(path.read_text()) if path.exists() else {}
    for q, by_draw in collected.items():
        golden.setdefault(q, {}).update(by_draw)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"[golden] wrote {path.name}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"explainbench: no program sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import draws

    if args.workload not in draws.WORKLOADS:
        print(f"explainbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.update_golden and args.seed != checks.GOLDEN_SEED:
        print(f"explainbench: --update-golden needs --seed {checks.GOLDEN_SEED}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
