"""Metric kernels, with hand-computed expectations."""

import math

import pytest

from pcfgset.metrics import (
    LengthMismatch,
    aggregate,
    pairwise_consistency,
    sequence_accuracy,
)


# --- accuracy and consistency ------------------------------------------------

@pytest.mark.parametrize(
    "pred,tgt,expected",
    [
        ("A B C", "A B C", 1.0),
        ("A B", "A B C", 0.0),          # strict prefix still counts as wrong
        ("A B C", "A B", 0.0),
        ("", "", 1.0),
        ("A  B", "A B", 1.0),           # canonical tokenisation collapses spaces
        (["A", "B"], "A B", 1.0),
        (("A", "B"), ["A", "C"], 0.0),
    ],
)
def test_sequence_accuracy(pred, tgt, expected):
    assert sequence_accuracy(pred, tgt) == expected


def test_pairwise_consistency():
    assert pairwise_consistency("A B", ["A", "B"]) == 1.0
    assert pairwise_consistency("A B", "B A") == 0.0


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
