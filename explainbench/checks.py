"""Output checks: Algorithm 1's invariants for any draw, and a stored
golden digest of every step's explanations at the default seed."""
from __future__ import annotations

import json
import math
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
#: Seed whose explanations are stored in ``golden.json``.
GOLDEN_SEED = 0
TOL = 1e-9


def digest(explanations) -> list[dict]:
    """Candidate id, I, C, C̄ and caption of each explanation, in order."""
    return [
        {
            "id": [e.column, e.attr, e.method, e.via, e.n_sets, e.set_label],
            "I": e.interestingness,
            "C": e.contribution,
            "C_std": e.std_contribution,
            "caption": e.caption,
        }
        for e in explanations
    ]


def invariant_errors(explanations, top_k: int) -> list[str]:
    """Algorithm 1's guarantees for the shown explanations: 1..top-k of
    them, finite scores, positive contribution, a caption naming its
    column, and none dominated by another in (I, C̄)."""
    errs = []
    if not 1 <= len(explanations) <= top_k:
        errs.append(f"{len(explanations)} explanations, expected 1..{top_k}")
    for e in explanations:
        scores = (e.interestingness, e.contribution, e.std_contribution, e.score)
        if not all(math.isfinite(x) for x in scores):
            errs.append(f"non-finite score in {e.candidate_id}")
        if not e.contribution > 0:
            errs.append(f"C <= 0 in {e.candidate_id}")
        if e.column not in e.caption:
            errs.append(f"caption does not name {e.column!r}")
        for o in explanations:
            if o.interestingness > e.interestingness and o.std_contribution > e.std_contribution:
                errs.append(f"{e.candidate_id} dominated by {o.candidate_id}")
    return errs


def digest_errors(got: list[dict], want: list[dict]) -> list[str]:
    """Differences from the golden digest: ids and captions exactly,
    scores to ``TOL``."""
    if len(got) != len(want):
        return [f"{len(got)} explanations, golden has {len(want)}"]
    errs = []
    for g, w in zip(got, want):
        if g["id"] != w["id"] or g["caption"] != w["caption"]:
            errs.append(f"{g['id']} / {g['caption']!r} != golden {w['id']} / {w['caption']!r}")
        for k in ("I", "C", "C_std"):
            if not abs(g[k] - w[k]) <= TOL:
                errs.append(f"{k} {g[k]!r} != golden {w[k]!r} for {g['id']}")
    return errs


def load_golden() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def golden_for(golden: dict, query: int, draw: int) -> list[dict] | None:
    """Stored digest of one query on one draw at the golden seed, if any."""
    return golden.get(str(query), {}).get(str(draw))
