"""FEDEX explanation generation — Algorithm 1 of the paper (§3.7).

:class:`Fedex` wires the pipeline together:

1. score every output column's interestingness ``I_A(Q)`` (optionally on
   a uniform row sample — FEDEX-SAMPLING),
2. keep the top-k interesting columns (the greedy step of §1/§3.7),
3. build the row partitions of §3.5 (frequency / numeric / many-to-one,
   for each requested set count, default 5 and 10),
4. compute every set's leave-one-out contribution and its standardized
   form,
5. keep positive-contribution candidates (Algorithm 1 line 11), take the
   (I, C̄) skyline, order by I then C̄ (``_present_order``), and caption.

Candidate pairing follows the paper's examples: exceptionality steps
partition the input on the scored column itself (plus many-to-one
ancestors), group-by steps on the group keys whatever step 1 ranks, so
their steps 1-4 are one diversity pass whose ``score_full`` per column is
``I_A(Q)``. See DESIGN.md §1.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from pyspark.sql import functions as F

from repro.core import captions
from repro.core.contribution import (
    compute_contributions,
    exceptionality_contributions_multi,
)
from repro.core.interestingness import scoreable_columns, step_interestingness
from repro.core.model import IGNORE_PID, GroupByStep, JoinStep, Step
from repro.core.partition import Partition, partitions_for_attribute
from repro.core.skyline import skyline_indices, weighted_score


@dataclass(frozen=True)
class FedexConfig:
    """Tunables of Algorithm 1 (defaults = the paper's settings)."""

    n_sets: tuple[int, ...] = (5, 10)  # §4.3: "set to either 5 or 10"
    top_k_columns: int = 3  # greedy step: columns taken to phase 2
    sample_size: int | None = None  # KS steps: 5000 → FEDEX-SAMPLING; None → exact
    max_distinct: int = 2000  # KS value-domain compaction threshold
    top_k_explanations: int | None = None  # optional cap after ranking
    columns: list[str] | None = None  # §3.8 user-specified columns
    seed: int = 0

    def __post_init__(self):
        # Checked here, before any Spark job: each of these would
        # otherwise fail or build nothing deep inside a phase.
        if not self.n_sets or min(self.n_sets) < 2:
            raise ValueError(f"n_sets must be non-empty, each n >= 2: {self.n_sets!r}")
        if self.top_k_columns < 1:
            raise ValueError(f"top_k_columns must be >= 1: {self.top_k_columns!r}")
        if self.max_distinct < 1:
            raise ValueError(f"max_distinct must be >= 1: {self.max_distinct!r}")
        if self.sample_size is not None and self.sample_size < 1:
            raise ValueError(f"sample_size must be >= 1 or None: {self.sample_size!r}")
        if self.top_k_explanations is not None and self.top_k_explanations < 0:
            raise ValueError(
                f"top_k_explanations must be >= 0 or None: {self.top_k_explanations!r}"
            )


@dataclass
class Explanation:
    """One skyline explanation ``(R, A)`` plus everything a caption needs."""

    column: str  # A — the output column explained
    attr: str  # attribute the partition was built on
    method: str  # partition method
    via: str | None  # many-to-one B column, if any
    n_sets: int  # requested partition size
    set_id: int
    set_label: str
    interestingness: float  # I_A(Q)
    contribution: float  # C(R, A, Q)
    std_contribution: float  # C̄(R, A)
    score: float  # §3.7 weighted score at equal weights, reported only
    caption: str
    stats: dict = field(default_factory=dict)

    @property
    def candidate_id(self) -> tuple:
        """Stable identity for ranking-accuracy metrics (Figs. 7-8)."""
        return (self.column, self.attr, self.method, self.via, self.n_sets, self.set_label)


def _present_order(e: "Explanation") -> tuple:
    """Presentation order: interestingness first, standardized
    contribution second. The paper's headline explanations (Figs. 2a/2b)
    always come from the top-interestingness column; the standardized
    contribution is comparable only *within* a partition (finer
    partitions mechanically reach higher z-scores), so it breaks ties
    rather than leading the sort. The §3.7 weighted score remains
    available on each Explanation as ``score``."""
    return (-e.interestingness, -e.std_contribution, e.column, e.set_label)


class Fedex:
    """The FEDEX explainer (Algorithm 1). ``explain(step)`` returns the
    skyline explanations in presentation order (see ``_present_order``)."""

    def __init__(self, config: FedexConfig | None = None):
        self.config = config or FedexConfig()

    # -- phase 1: interestingness ------------------------------------
    def interesting_columns(self, step: Step) -> dict[str, float]:
        """``I_A(Q)`` per output column (lines 1-2): KS, sampled if
        configured, or a group-by's CVs from its contribution pass."""
        if isinstance(step, GroupByStep):
            return self._diversity_pass(step)[0]
        return step_interestingness(
            step,
            columns=self.config.columns,
            sample_size=self.config.sample_size,
            max_distinct=self.config.max_distinct,
            seed=self.config.seed,
        )

    def _top_columns(self, scores: dict[str, float]) -> list[str]:
        ranked = sorted(scores, key=lambda c: (-scores[c], c))
        return ranked[: self.config.top_k_columns]

    # -- phase 2: partitions ------------------------------------------
    def _step_for_column(self, step: Step, col: str) -> Step:
        """For joins, partition the input side carrying ``col`` (§3.2's
        d'_in), flipping ``partition_side`` if needed; other steps are
        returned unchanged."""
        if isinstance(step, JoinStep):
            side = "left" if col in step.left.columns else "right"
            if side != step.partition_side:
                return replace(step, partition_side=side)
        return step

    # -- full pipeline -------------------------------------------------
    def contribution_results(
        self, step: Step, top_cols: list[str]
    ) -> list[tuple[Partition, "object"]]:
        """Phase-2 contribution analysis for the given columns: build the
        §3.5 partitions (deduplicated across columns) and compute every
        set's leave-one-out contribution. Exposed separately so the
        Fig. 7/8 accuracy experiments can reuse one (exact) contribution
        pass across many sampled interestingness variants — sampling only
        affects phase 1 (§3.7)."""
        cfg = self.config
        if isinstance(step, GroupByStep):
            if not top_cols:
                return []
            # Partitions on the keys; keys that yield none still give every
            # column its CV, from one partition of ignore-set rows only.
            partitions = partitions_for_attribute(step.d_in, step.keys, cfg.n_sets) or [
                Partition(step.d_in, F.lit(IGNORE_PID), ", ".join(step.keys), "none", {})
            ]
            groups = [(p, top_cols) for p in partitions]
            return [(res.partition, res) for res in compute_contributions(step, groups)]
        # Each input partitions on the scored columns it carries, in top_cols
        # order: §3.7's greedy step, not Def. 3.5's full cross space.
        inputs: dict[int, tuple[Step, list[str]]] = {}
        for col in top_cols:
            target_step = self._step_for_column(step, col)
            d_in = target_step.partitioned_input
            if col in d_in.columns:
                inputs.setdefault(id(d_in), (target_step, []))[1].append(col)

        # One partition build and one contribution pass per input; both
        # cost a fixed number of Spark jobs (see partition.py and
        # contribution.py).
        out: list[tuple[Partition, object]] = []
        for target_step, attrs in inputs.values():
            parts = partitions_for_attribute(target_step.partitioned_input, attrs, cfg.n_sets)
            results = exceptionality_contributions_multi(
                target_step, [(p, [p.attr]) for p in parts], max_distinct=cfg.max_distinct
            )
            out += [(res.partition, res) for res in results]
        return out

    def _diversity_pass(self, step: GroupByStep) -> tuple[dict[str, float], list]:
        """A group-by's ``I_A(Q)`` per scored column, read from its
        contribution results (0.0 without one: an empty input), and those."""
        cols = scoreable_columns(step) if self.config.columns is None else self.config.columns
        results = self.contribution_results(step, cols)
        return dict.fromkeys(cols, 0.0) | {r.column: r.score_full for _, r in results}, results

    def assemble(
        self,
        step: Step,
        scores: dict[str, float],
        results: list[tuple[Partition, "object"]],
    ) -> list[Explanation]:
        """Algorithm 1 lines 7-12 from precomputed pieces: form positive
        explanation candidates with standardized contributions, in
        presentation order (I, then C̄; see ``_present_order``). Only
        columns in the given top-k ``scores`` selection are assembled."""
        top = set(self._top_columns(scores))
        candidates: list[Explanation] = []
        for p, res in results:
            if res.column not in top:
                continue
            std = res.standardized
            for i, c_raw in res.contributions.items():
                if c_raw <= 0:  # Algorithm 1 line 11
                    continue
                interest = scores[res.column]
                candidates.append(
                    self._make_explanation(step, p, res, i, interest, std[i])
                )
        candidates.sort(key=_present_order)
        return candidates

    def candidates(self, step: Step) -> list[Explanation]:
        """All positive-contribution explanation candidates (Algorithm 1
        lines 1-12), in presentation order (I, then C̄). ``explain``
        applies the skyline on top; the Fig. 7/8 accuracy metrics compare
        these full rankings."""
        if isinstance(step, GroupByStep):
            scores, results = self._diversity_pass(step)
        else:
            scores = self.interesting_columns(step)
            results = self.contribution_results(step, self._top_columns(scores))
        return self.assemble(step, scores, results)

    def explain(self, step: Step) -> list[Explanation]:
        """Skyline explanations for ``step`` (Algorithm 1, full), in
        presentation order (I, then C̄), optionally capped at top-k."""
        cands = self.candidates(step)
        if not cands:
            return []
        idx = skyline_indices(
            [(e.interestingness, e.std_contribution) for e in cands]
        )
        chosen = [cands[i] for i in idx]
        chosen.sort(key=_present_order)
        if self.config.top_k_explanations is not None:
            chosen = chosen[: self.config.top_k_explanations]
        return chosen

    def _make_explanation(
        self,
        step: Step,
        p: Partition,
        res,
        set_id: int,
        interest: float,
        std_c: float,
    ) -> Explanation:
        label = p.labels[set_id]
        stats = res.stats[set_id]
        if isinstance(step, GroupByStep):
            caption = captions.diversity_caption(
                column=res.column,
                attr=p.attr,
                method=p.method,
                via=p.via,
                label=label,
                set_mean=stats["set_mean"],
                overall_mean=res.extra["overall_mean"],
                overall_std=res.extra["overall_std"],
                interestingness=interest,
                std_contribution=std_c,
            )
        else:
            caption = captions.exceptionality_caption(
                op=step.op,
                column=res.column,
                attr=p.attr,
                method=p.method,
                via=p.via,
                label=label,
                share_in=stats["share_in"],
                share_out=stats["share_out"],
                interestingness=interest,
                std_contribution=std_c,
            )
        return Explanation(
            column=res.column,
            attr=p.attr,
            method=p.method,
            via=p.via,
            n_sets=p.n_requested,
            set_id=set_id,
            set_label=label,
            interestingness=interest,
            contribution=res.contributions[set_id],
            std_contribution=std_c,
            score=weighted_score(interest, std_c),
            caption=caption,
            stats=stats,
        )
