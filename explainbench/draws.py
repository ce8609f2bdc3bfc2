"""Seeded table draws and the benchmark's workloads.

Every pass of the benchmark explains its steps on a *fresh* draw of the
tables, so a cache that survives from one pass to the next cannot pass for
a per-step speed-up. A draw offsets each generator's default seed by
``seed * DRAWS_PER_SEED + draw``; seed 0, draw 0 is exactly the data
``make_bundle(spark, dataset, "test")`` builds.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd

from repro.datasets.bank import bank_pdf
from repro.datasets.spotify import spotify_pdf
from repro.workload.queries import BY_NUM, SCALES, DatasetBundle

#: Draw indices per benchmark seed; seeds never share a draw.
DRAWS_PER_SEED = 1000
#: Warm-up passes use draws from here on, apart from the timed ones.
WARMUP_DRAW_BASE = 500

#: Default generator seeds of the dataset modules (``make_bundle`` data).
_BASE_SEED = {"spotify": 42, "bank": 7}
_GENERATOR = {"spotify": spotify_pdf, "bank": bank_pdf}


@dataclass(frozen=True)
class Workload:
    """Steps explained in order in every pass, and the pass schedule."""

    queries: tuple[int, ...]  # paper query numbers (Tables 2-3)
    warmup_passes: int
    timed_passes: int  # upper limit; the run's --seconds may stop it earlier

    @property
    def datasets(self) -> list[str]:
        return sorted({BY_NUM[q].dataset for q in self.queries})


#: Why each workload was chosen: README.md and BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    "filter": Workload(queries=(11,), warmup_passes=1, timed_passes=2),
    "group-by": Workload(queries=(27, 28), warmup_passes=1, timed_passes=3),
}


def draw_offset(seed: int, draw: int) -> int:
    if seed < 0 or not 0 <= draw < DRAWS_PER_SEED:
        raise ValueError(f"seed {seed} / draw {draw} out of range")
    return seed * DRAWS_PER_SEED + draw


def draw_pdf(dataset: str, seed: int, draw: int) -> pd.DataFrame:
    """One table of ``dataset`` at ``test`` scale for (seed, draw)."""
    n = SCALES["test"][dataset]
    return _GENERATOR[dataset](n, seed=_BASE_SEED[dataset] + draw_offset(seed, draw))


def draw_bundle(spark, dataset: str, seed: int, draw: int) -> DatasetBundle:
    """A bundle whose Spark table is its own ``createDataFrame``."""
    pdf = draw_pdf(dataset, seed, draw)
    return DatasetBundle(dataset, {dataset: spark.createDataFrame(pdf)}, {dataset: pdf})


def build_steps(spark, workload: Workload, seed: int, draw: int) -> list:
    """The workload's steps over one draw; steps on one dataset share its
    DataFrame, as in a notebook."""
    bundles = {ds: draw_bundle(spark, ds, seed, draw) for ds in workload.datasets}
    return [BY_NUM[q].build(bundles[BY_NUM[q].dataset]) for q in workload.queries]
