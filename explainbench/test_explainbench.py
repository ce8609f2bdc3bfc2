"""Tests of the benchmark's own parts: the draw generator, the tracer's
accounting, the output checks, and the metric names in BENCHMARK.json.

Only ``test_real_explain_trace_adds_up`` starts Spark.
"""
import json
import math
import os
import time
import types
from pathlib import Path

import pandas as pd
import pytest

import checks
import draws
import run
import tracer
from repro.core.explain import Explanation, Fedex, FedexConfig
from repro.datasets.bank import bank_pdf
from repro.datasets.spotify import spotify_pdf
from repro.workload.queries import BY_NUM, SCALES

ROOT = Path(__file__).resolve().parent.parent


# -- draws ------------------------------------------------------------------
@pytest.mark.parametrize("dataset, gen", [("spotify", spotify_pdf), ("bank", bank_pdf)])
def test_seed0_draw0_is_make_bundle_data(dataset, gen):
    # make_bundle(spark, dataset, "test") builds gen(n) with the default seed.
    pd.testing.assert_frame_equal(draws.draw_pdf(dataset, 0, 0), gen(SCALES["test"][dataset]))


def test_draws_are_reproducible_and_fresh():
    a = draws.draw_pdf("bank", 3, 1)
    pd.testing.assert_frame_equal(a, draws.draw_pdf("bank", 3, 1))
    assert not a.equals(draws.draw_pdf("bank", 3, 2))
    assert not a.equals(draws.draw_pdf("bank", 4, 1))


def test_draw_offsets_never_collide():
    offsets = {
        draws.draw_offset(seed, d)
        for seed in range(4)
        for d in [*range(5), draws.WARMUP_DRAW_BASE, draws.WARMUP_DRAW_BASE + 1]
    }
    assert len(offsets) == 4 * 7
    with pytest.raises(ValueError):
        draws.draw_offset(0, draws.DRAWS_PER_SEED)
    with pytest.raises(ValueError):
        draws.draw_offset(-1, 0)


def test_workloads_use_generated_datasets():
    for wl in draws.WORKLOADS.values():
        assert set(wl.datasets) <= set(draws._GENERATOR)
        assert wl.timed_passes <= draws.WARMUP_DRAW_BASE


# -- tracer accounting with a fake SparkContext -----------------------------
class FakeSparkContext:
    """Records the job group in force when a fake job runs."""

    def __init__(self):
        self.group = None
        self.jobs: dict[int, tuple[str, list[int]]] = {}  # id -> (group, stages)
        self.stages: dict[int, tuple[int, int]] = {}  # id -> (completed, failed)
        bus = types.SimpleNamespace(waitUntilEmpty=lambda: None)
        jsc_sc = types.SimpleNamespace(listenerBus=lambda: bus)
        self._jsc = types.SimpleNamespace(sc=lambda: jsc_sc)

    def setJobGroup(self, group, description):
        self.group = group

    def run_job(self, stages: dict[int, tuple[int, int]]):
        self.stages.update(stages)
        self.jobs[len(self.jobs)] = (self.group, list(stages))

    def statusTracker(self):
        sc = self

        class Tracker:
            def getJobIdsForGroup(self, g):
                return [j for j, (grp, _) in sc.jobs.items() if grp == g]

            def getJobInfo(self, j):
                return types.SimpleNamespace(stageIds=sc.jobs[j][1])

            def getStageInfo(self, s):
                done, failed = sc.stages[s]
                return types.SimpleNamespace(numCompletedTasks=done, numFailedTasks=failed)

        return Tracker()


def _fake_layers(sc):
    """A fake program: explain -> partitions (1 job each) and a
    contribution engine (2 jobs, one reusing a stage) that calls a
    reference function (no job)."""
    mod = types.ModuleType("fake_core")
    part = types.SimpleNamespace(attr="a", method="frequency", n_requested=5)

    def partitions_for_attribute(d_in, attr, n_sets):
        time.sleep(0.01)
        sc.run_job({len(sc.stages): (4, 0)})
        return [part]

    def leave_one_out_ks(x):
        time.sleep(0.005)
        return x

    def compute_contributions(step):
        time.sleep(0.01)
        s = len(sc.stages)
        sc.run_job({s: (64, 1)})
        mod.leave_one_out_ks(1)
        sc.run_job({s: (64, 1), s + 1: (3, 0)})  # stage s is reused (skipped)
        return [types.SimpleNamespace(contributions={0: 0.5, 1: -0.1, 2: 0.0, 3: 0.2})]

    def skyline_indices(points):
        return [0]

    mod.partitions_for_attribute = partitions_for_attribute
    mod.leave_one_out_ks = leave_one_out_ks
    mod.compute_contributions = compute_contributions
    mod.skyline_indices = skyline_indices

    class FakeFedex:
        def explain(self, step):
            time.sleep(0.02)  # explain's own work
            d_in = object()
            mod.partitions_for_attribute(d_in, "a", (5,))
            mod.partitions_for_attribute(d_in, "a", (5,))  # a repeat
            mod.compute_contributions(step)
            mod.skyline_indices([(1, 1), (0, 0)])
            return ["ok"]

    entry_points = [
        (mod, "partitions_for_attribute", "partition"),
        (mod, "compute_contributions", "contribution"),
        (mod, "leave_one_out_ks", "reference"),
        (mod, "skyline_indices", "skyline"),
    ]
    return mod, FakeFedex(), entry_points


def test_tracer_attributes_jobs_tasks_and_self_time():
    sc = FakeSparkContext()
    mod, fx, eps = _fake_layers(sc)
    originals = {name: getattr(mod, name) for _, name, _ in eps}
    tr = tracer.Tracer(sc, tracer.Clock(os.getpid()), entry_points=eps)
    t0 = time.perf_counter()
    with tr:
        assert mod.partitions_for_attribute is not originals["partitions_for_attribute"]
        assert tr.explain(fx, "step") == ["ok"]
    wall = time.perf_counter() - t0
    assert {name: getattr(mod, name) for _, name, _ in eps} == originals

    out = tr.finish_pass()
    assert out["partition.jobs"] == 2 and out["partition.tasks"] == 8
    assert out["contribution.jobs"] == 2
    assert out["contribution.tasks"] == 64 + 3  # the reused stage counts once
    assert out["contribution.failed_tasks"] == 1
    assert out["reference.jobs"] == 0 and out["explain.jobs"] == 0
    assert out["partition.calls"] == 2 and out["reference.calls"] == 1
    assert out["contribution.diversity.calls"] == 1
    # Self times exclude children: reference's 5 ms is not contribution's.
    assert 0.005 <= out["reference.self_s"] < 0.05
    assert 0.01 <= out["contribution.self_s"] < 0.06
    assert 0.02 <= out["explain.self_s"] < 0.07
    # Layers' self times plus bookkeeping add up to the traced wall time.
    accounted = sum(out[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert accounted + out["trace.bookkeeping_s"] == pytest.approx(wall, abs=2e-3)
    for layer in tracer.LAYERS:
        assert out[f"{layer}.wait_s"] == pytest.approx(
            out[f"{layer}.self_s"] - out[f"{layer}.py_cpu_s"]
        )
    # Waste ratios' numerators and denominators.
    assert (out["partition.repeats"], out["partition.builds"]) == (1, 2)
    assert (out["contribution.positive_sets"], out["contribution.sets"]) == (2, 4)
    assert (out["skyline.kept"], out["skyline.candidates"]) == (1, 2)
    # finish_pass starts the next pass from zero.
    assert tr.finish_pass()["partition.calls"] == 0


def test_tracer_restores_originals_after_an_exception():
    sc = FakeSparkContext()
    mod, _, eps = _fake_layers(sc)
    original = mod.compute_contributions

    class Boom:
        def explain(self, step):
            mod.compute_contributions(None)
            raise RuntimeError("boom")

    tr = tracer.Tracer(sc, tracer.Clock(os.getpid()), entry_points=eps)
    with pytest.raises(RuntimeError):
        with tr:
            tr.explain(Boom(), "step")
    assert mod.compute_contributions is original
    assert tr._stack == []


def test_missing_entry_point_warns_and_counts_towards_parent(capsys):
    sc = FakeSparkContext()
    mod, fx, eps = _fake_layers(sc)
    del mod.leave_one_out_ks
    mod.leave_one_out_ks_v2 = lambda x: time.sleep(0.005)

    def compute_contributions(step):
        mod.leave_one_out_ks_v2(1)
        return []

    mod.compute_contributions = compute_contributions
    tr = tracer.Tracer(sc, tracer.Clock(os.getpid()), entry_points=eps)
    with tr:
        tr.explain(fx, "step")
    assert "leave_one_out_ks not found" in capsys.readouterr().err
    out = tr.finish_pass()
    assert out["reference.calls"] == 0
    assert out["contribution.self_s"] >= 0.005


# -- output checks ----------------------------------------------------------
def _exp(i, c_std, c=0.1, column="decade"):
    return Explanation(
        column=column, attr=column, method="frequency", via=None, n_sets=5, set_id=0,
        set_label="2010", interestingness=i, contribution=c, std_contribution=c_std,
        score=i + c_std, caption=f"The filter changed the distribution of column '{column}'",
    )


def test_invariants_accept_a_skyline_and_flag_violations():
    assert checks.invariant_errors([_exp(0.5, 1.0), _exp(0.4, 2.0)], top_k=2) == []
    assert checks.invariant_errors([], top_k=2)
    assert checks.invariant_errors([_exp(0.5, 1.0)] * 3, top_k=2)
    assert checks.invariant_errors([_exp(0.5, 1.0), _exp(0.4, 0.5)], top_k=2)  # dominated
    assert checks.invariant_errors([_exp(0.5, 1.0, c=0.0)], top_k=2)
    assert checks.invariant_errors([_exp(math.nan, 1.0)], top_k=2)
    bad_caption = _exp(0.5, 1.0)
    bad_caption.caption = "something else"
    assert checks.invariant_errors([bad_caption], top_k=2)


def test_digest_comparison_tolerance():
    want = checks.digest([_exp(0.5, 1.0)])
    assert checks.digest_errors(checks.digest([_exp(0.5 + 1e-12, 1.0)]), want) == []
    assert checks.digest_errors(checks.digest([_exp(0.5 + 1e-6, 1.0)]), want)
    assert checks.digest_errors(checks.digest([_exp(0.5, 1.0, column="year")]), want)
    assert checks.digest_errors([], want)


def test_golden_covers_every_timed_draw():
    golden = checks.load_golden()
    for wl in draws.WORKLOADS.values():
        for q in wl.queries:
            for d in range(wl.timed_passes):
                assert checks.golden_for(golden, q, d), (q, d)


# -- metric names -----------------------------------------------------------
def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(draws.WORKLOADS)
    emitted = tracer.Tracer(FakeSparkContext(), tracer.Clock(os.getpid()), []).finish_pass()
    traced_only = {n for n in run.PER_LAYER if not n.startswith(("setup.", "trace.")) and "ratio" not in n}
    assert traced_only <= set(emitted)


# -- the real program, traced -----------------------------------------------
def test_real_explain_trace_adds_up(spark):
    """On a small Bank group-by, the traced layers' jobs equal the
    untraced call's jobs, and self times plus bookkeeping equal wall time."""
    sc = spark.sparkContext
    pdf = bank_pdf(300, seed=5)
    step = BY_NUM[28].build(types.SimpleNamespace(spark_tables={"bank": spark.createDataFrame(pdf)}))
    fx = Fedex(FedexConfig(**run.FEDEX_CONFIG))
    fx.explain(step)  # warm

    sc.setJobGroup("plain", "plain")
    plain = fx.explain(step)
    plain_jobs = tracer.collect_jobs(sc, {"p": ["plain"]})["p"][0]

    jvm_pid = int(sc._jvm.java.lang.ProcessHandle.current().pid())
    tr = tracer.Tracer(sc, tracer.Clock(jvm_pid))
    t0 = time.perf_counter()
    with tr:
        traced = tr.explain(fx, step)
    wall = time.perf_counter() - t0
    out = tr.finish_pass()

    assert checks.digest(traced) == checks.digest(plain)
    assert sum(out[f"{layer}.jobs"] for layer in tracer.LAYERS) == plain_jobs > 0
    accounted = sum(out[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert accounted + out["trace.bookkeeping_s"] == pytest.approx(wall, abs=0.01)
    assert out["partition.repeats"] > 0  # keys rebuilt per scored column
