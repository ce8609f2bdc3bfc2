"""Skyline operator over explanation candidates (paper §3.6, [13]).

A candidate ``(R, A)`` is *dominated* if some other candidate is strictly
better in **both** interestingness ``I_A(Q)`` and standardized
contribution ``C̄(R, A)``. The skyline is the set of non-dominated
candidates. ``Fedex.explain`` orders them by I, then C̄; §3.7's weighted
score is reported on each explanation but orders nothing.
"""
from __future__ import annotations


def skyline_indices(points: list[tuple[float, float]]) -> list[int]:
    """Indices of the non-dominated points, maximizing both coordinates.

    Sort by the first coordinate descending (ties: second descending) and
    sweep, keeping points whose second coordinate exceeds the running max
    — O(n log n). A point that *equals* another in both coordinates is
    kept (strict dominance, per the paper's definition).
    """
    if not points:
        return []
    order = sorted(range(len(points)), key=lambda i: -points[i][0])
    kept: list[int] = []
    best_y = float("-inf")  # max y among strictly larger x seen so far
    i = 0
    while i < len(order):
        # Process each equal-x group together: only strictly larger x
        # (earlier groups) can dominate, so compare against best_y from
        # before this group, then fold the group in.
        j = i
        x = points[order[i]][0]
        while j < len(order) and points[order[j]][0] == x:
            j += 1
        group = order[i:j]
        kept.extend(idx for idx in group if points[idx][1] >= best_y)
        best_y = max(best_y, *(points[idx][1] for idx in group))
        i = j
    return sorted(kept)


def weighted_score(interestingness: float, std_contribution: float) -> float:
    """§3.7's ranking score: the mean of I_A(Q) and C̄(R, A), equally
    weighted."""
    return (interestingness + std_contribution) / 2
