"""Stratified means of per-sample scores."""

from __future__ import annotations

from typing import Hashable, Sequence


class LengthMismatch(Exception):
    """Scores and stratum labels differ in length."""


def aggregate(
    scores: Sequence[float], keys: Sequence[Hashable]
) -> tuple[float, dict[Hashable, tuple[float, int]]]:
    """Overall mean plus count-weighted per-stratum means.

    Returns (overall, {label: (mean, count)}); strata appear in first-seen
    order.  Empty input yields (0.0, {}).
    """
    if len(scores) != len(keys):
        raise LengthMismatch(f"{len(scores)} scores vs {len(keys)} labels")
    if not scores:
        return 0.0, {}
    sums: dict[Hashable, float] = {}
    counts: dict[Hashable, int] = {}
    for score, key in zip(scores, keys):
        sums[key] = sums.get(key, 0.0) + score
        counts[key] = counts.get(key, 0) + 1
    strata = {k: (sums[k] / counts[k], counts[k]) for k in sums}
    return sum(scores) / len(scores), strata
