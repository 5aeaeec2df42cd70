"""Metric kernels: sequence accuracy, consistency and stratified means."""

from __future__ import annotations

from typing import Hashable, Sequence


class LengthMismatch(Exception):
    """Scores and stratum labels (or gold and predictions) differ in length."""


def _tokens(x: str | Sequence[str]) -> tuple[str, ...]:
    if isinstance(x, str):
        return tuple(x.split())
    return tuple(x)


def sequence_accuracy(pred: str | Sequence[str], tgt: str | Sequence[str]) -> float:
    """1.0 iff the token sequences match exactly (length included)."""
    return 1.0 if _tokens(pred) == _tokens(tgt) else 0.0


def pairwise_consistency(a: str | Sequence[str], b: str | Sequence[str]) -> float:
    """1.0 iff two outputs are identical as token sequences."""
    return 1.0 if _tokens(a) == _tokens(b) else 0.0


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
