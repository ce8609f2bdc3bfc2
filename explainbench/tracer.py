"""Outside-in layer trace of ``Fedex.explain``.

The tracer replaces each ``repro.core`` layer's public entry points with
wrappers that open a span, and puts them back on exit. Nothing in the
program changes: the wrappers sit where the callers look the names up.

A span records wall time, driver-Python CPU and driver-JVM CPU, and runs
under a Spark job group of its own, so Spark jobs, tasks and failed tasks
are attributed to the innermost open span. Every figure is *self*: a
span's children are subtracted from it. The tracer's own work (setting job
groups, reading clocks, observing arguments) is kept out of every span and
summed as ``bookkeeping``, so the layers' self times plus bookkeeping add
up to the wall time of the traced calls.
"""
from __future__ import annotations

import functools
import itertools
import os
import sys
import time
from dataclasses import dataclass, field

import repro.core.captions
import repro.core.explain
import repro.core.reference

_CLK_TCK = os.sysconf("SC_CLK_TCK")

EXPLAIN = "explain"  # the root span: the rest of Fedex.explain
#: (module, attribute, layer) for every wrapped entry point.
ENTRY_POINTS = [
    (repro.core.explain, "step_interestingness", "interestingness"),
    (repro.core.explain, "partitions_for_attribute", "partition"),
    (repro.core.explain, "exceptionality_contributions_multi", "contribution"),
    (repro.core.explain, "compute_contributions", "contribution"),
    (repro.core.explain, "skyline_indices", "skyline"),
    (repro.core.reference, "leave_one_out_ks", "reference"),
    (repro.core.reference, "standardize", "reference"),
    (repro.core.captions, "exceptionality_caption", "captions"),
    (repro.core.captions, "diversity_caption", "captions"),
]
#: Engine call counts reported next to the merged contribution layer.
ENGINE_CALLS = {
    "exceptionality_contributions_multi": "contribution.exceptionality.calls",
    "compute_contributions": "contribution.diversity.calls",
}
#: Layer names. Both contribution engines count as one layer: a workload
#: runs only one of them, and ENGINE_CALLS tell them apart.
LAYERS = ["interestingness", "partition", "contribution", "reference",
          "skyline", "captions", EXPLAIN]


def jvm_cpu_seconds(pid: int) -> float:
    """User + system CPU of process ``pid`` (all threads) from /proc."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


class Clock:
    """Wall, driver-Python CPU and driver-JVM CPU, read together."""

    def __init__(self, jvm_pid: int):
        self.jvm_pid = jvm_pid

    def now(self) -> tuple[float, float, float]:
        return (time.perf_counter(), time.process_time(), jvm_cpu_seconds(self.jvm_pid))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


_ZERO = (0.0, 0.0, 0.0)


@dataclass
class _Frame:
    layer: str
    group: str
    outer0: tuple  # before entry bookkeeping
    inner0: tuple  # after entry bookkeeping
    children: tuple = _ZERO  # footprints of child spans


@dataclass
class LayerStats:
    self_s: float = 0.0
    py_cpu_s: float = 0.0
    jvm_cpu_s: float = 0.0
    calls: int = 0
    groups: list[str] = field(default_factory=list)  # one job group per span


def collect_jobs(sc, groups_by_key: dict[str, list[str]]) -> dict[str, tuple[int, int, int]]:
    """``(jobs, tasks, failed tasks)`` per key, over the job groups listed
    for it. The listener bus is drained first, so every finished job is
    visible. A stage shared by several jobs (a skipped, reused shuffle
    stage) counts once, for the earliest job that lists it."""
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    tracker = sc.statusTracker()
    owner: dict[int, str] = {}
    for key, groups in groups_by_key.items():
        for g in groups:
            for jid in tracker.getJobIdsForGroup(g):
                owner[jid] = key
    out = {key: [0, 0, 0] for key in groups_by_key}
    seen_stages: set[int] = set()
    for jid in sorted(owner):
        acc = out[owner[jid]]
        acc[0] += 1
        info = tracker.getJobInfo(jid)
        for sid in info.stageIds if info else ():
            if sid in seen_stages:
                continue
            seen_stages.add(sid)
            stage = tracker.getStageInfo(sid)
            if stage is not None:
                acc[1] += stage.numCompletedTasks
                acc[2] += stage.numFailedTasks
    return {k: tuple(v) for k, v in out.items()}


class Tracer:
    """Spans around the layer entry points; use as a context manager.

    ``explain(fx, step)`` runs one traced ``Fedex.explain`` as the root
    span. ``finish_pass()`` attributes Spark jobs and returns the pass's
    per-layer figures, then starts the next pass from zero.
    """

    def __init__(self, sc, clock: Clock, entry_points=ENTRY_POINTS):
        self.sc = sc
        self.clock = clock
        self.entry_points = entry_points
        self._ids = itertools.count()
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[_Frame] = []
        self._idle_group = "bench-trace-idle"
        self._reset()

    def _reset(self) -> None:
        self.layers: dict[str, LayerStats] = {name: LayerStats() for name in LAYERS}
        self.counts: dict[str, int] = dict.fromkeys(ENGINE_CALLS.values(), 0)
        self.bookkeeping_s = 0.0
        self.partition_builds = 0
        self.partition_repeats = 0
        self.sets_evaluated = 0
        self.sets_positive = 0
        self.skyline_in = 0
        self.skyline_kept = 0
        self._built_keys: set[tuple] = set()

    # -- install / restore ------------------------------------------
    def __enter__(self) -> "Tracer":
        for module, name, layer in self.entry_points:
            fn = getattr(module, name, None)
            if fn is None:
                print(
                    f"[tracer] {module.__name__}.{name} not found; its time "
                    "counts towards the calling layer",
                    file=sys.stderr,
                )
                continue
            self._originals.append((module, name, fn))
            setattr(module, name, self._wrap(layer, name, fn))
        self.sc.setJobGroup(self._idle_group, "benchmark trace (idle)")
        return self

    def __exit__(self, *exc) -> None:
        for module, name, fn in reversed(self._originals):
            setattr(module, name, fn)
        self._originals.clear()

    # -- spans -------------------------------------------------------
    def _enter(self, layer: str) -> _Frame:
        outer0 = self.clock.now()
        group = f"bench-span-{next(self._ids)}"
        self.sc.setJobGroup(group, layer)
        frame = _Frame(layer, group, outer0, self.clock.now())
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, observe=None) -> None:
        inner1 = self.clock.now()
        self._stack.pop()
        wall, py, jvm = _sub(_sub(inner1, frame.inner0), frame.children)
        st = self.layers[frame.layer]
        st.self_s += wall
        st.py_cpu_s += py
        st.jvm_cpu_s += jvm
        st.calls += 1
        st.groups.append(frame.group)
        parent = self._stack[-1] if self._stack else None
        self.sc.setJobGroup(parent.group if parent else self._idle_group, "")
        if observe is not None:
            observe()
        outer1 = self.clock.now()
        footprint = _sub(outer1, frame.outer0)
        self.bookkeeping_s += footprint[0] - (inner1[0] - frame.inner0[0])
        if parent is not None:
            parent.children = _add(parent.children, footprint)

    def _wrap(self, layer: str, name: str, fn):
        observers = {
            "partitions_for_attribute": self._observe_partitions,
            "exceptionality_contributions_multi": self._observe_contributions,
            "compute_contributions": self._observe_contributions,
            "skyline_indices": self._observe_skyline,
        }
        observer = observers.get(name)
        count_key = ENGINE_CALLS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._exit(frame)
                raise

            def observe():
                if count_key:
                    self.counts[count_key] += 1
                if observer:
                    observer(args, out)

            self._exit(frame, observe)
            return out

        return wrapper

    def explain(self, fx, step):
        """One ``fx.explain(step)`` as a root span of layer ``explain``."""
        self._built_keys = set()  # partition repeats count within a step
        frame = self._enter(EXPLAIN)
        try:
            return fx.explain(step)
        finally:
            self._exit(frame)

    # -- waste ratios, observed at the wrapped boundaries -------------
    def _observe_partitions(self, args, partitions) -> None:
        d_in = args[0]
        for p in partitions:
            key = (id(d_in), p.attr, p.method, p.n_requested)
            self.partition_builds += 1
            if key in self._built_keys:
                self.partition_repeats += 1
            self._built_keys.add(key)

    def _observe_contributions(self, args, results) -> None:
        for r in results:
            vals = list(r.contributions.values())
            self.sets_evaluated += len(vals)
            self.sets_positive += sum(v > 0 for v in vals)

    def _observe_skyline(self, args, kept) -> None:
        self.skyline_in += len(args[0])
        self.skyline_kept += len(kept)

    # -- per pass ----------------------------------------------------
    def finish_pass(self) -> dict:
        """The pass's figures; job counts are read here, after the pass."""
        jobs = collect_jobs(self.sc, {k: st.groups for k, st in self.layers.items()})
        out: dict[str, float] = {}
        for name, st in self.layers.items():
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.py_cpu_s"] = st.py_cpu_s
            out[f"{name}.wait_s"] = st.self_s - st.py_cpu_s
            out[f"{name}.jvm_cpu_s"] = st.jvm_cpu_s
            out[f"{name}.calls"] = st.calls
            out[f"{name}.jobs"], out[f"{name}.tasks"], out[f"{name}.failed_tasks"] = jobs[name]
        out.update(self.counts)
        out["partition.builds"] = self.partition_builds
        out["partition.repeats"] = self.partition_repeats
        out["contribution.sets"] = self.sets_evaluated
        out["contribution.positive_sets"] = self.sets_positive
        out["skyline.candidates"] = self.skyline_in
        out["skyline.kept"] = self.skyline_kept
        out["trace.bookkeeping_s"] = self.bookkeeping_s
        self._reset()
        return out
