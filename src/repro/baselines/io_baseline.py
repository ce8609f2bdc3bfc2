"""The IO (Interestingness-Only) baseline (paper §4.1, baseline 3).

Based on [79]-style influence: ranks the *output columns* purely by the
interestingness change the step induced — no sets-of-rows, no
contribution analysis. Its explanation is "column A changed the most",
rendered as a one-line caption. This is the ablation FEDEX is compared
against to show the value of the contribution phase.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.explain import Fedex, FedexConfig
from repro.core.model import Step


@dataclass
class IOExplanation:
    """A column-level explanation: the attribute and its score."""

    column: str
    interestingness: float
    caption: str


def io_explain(
    step: Step, *, top_k: int = 2, sample_size: int | None = None
) -> list[IOExplanation]:
    """Top-k output columns by interestingness (no row sets)."""
    scores = Fedex(FedexConfig(sample_size=sample_size)).interesting_columns(step)
    ranked = sorted(scores, key=lambda c: (-scores[c], c))[:top_k]
    return [
        IOExplanation(
            column=c,
            interestingness=scores[c],
            caption=(
                f"The {step.op} most affected column '{c}' "
                f"(interestingness {scores[c]:.2f})."
            ),
        )
        for c in ranked
    ]
