"""Stratified means, with hand-computed expectations."""

import math

import pytest

from pcfgset.metrics import LengthMismatch, aggregate


# --- aggregation ---------------------------------------------------------------

def test_aggregate_hand_example():
    overall, strata = aggregate([1.0, 0.0, 1.0, 1.0], ["a", "a", "b", "b"])
    assert overall == 0.75
    assert strata == {"a": (0.5, 2), "b": (1.0, 2)}


def test_aggregate_empty():
    assert aggregate([], []) == (0.0, {})


def test_aggregate_length_mismatch():
    with pytest.raises(LengthMismatch):
        aggregate([1.0], ["a", "b"])


def test_aggregate_count_weighting():
    overall, strata = aggregate([1.0, 1.0, 1.0, 0.0], [3, 3, 3, 9])
    assert overall == 0.75
    # overall equals the count-weighted stratum mean, not the plain mean of means
    weighted = sum(m * c for m, c in strata.values()) / sum(c for _, c in strata.values())
    assert math.isclose(overall, weighted)
