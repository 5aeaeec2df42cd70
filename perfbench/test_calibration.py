"""The calibration task is fixed and well-formed.

Run with: python3 -m pytest perfbench/test_calibration.py
"""

from __future__ import annotations

import random

import calibration
import checker


def test_expressions_are_fixed():
    again = [" ".join(calibration._expression(random.Random(i), 6)) for i in range(150)]
    assert calibration.EXPRESSIONS == again
    assert len(set(calibration.EXPRESSIONS)) > 100


def test_every_expression_evaluates():
    for text in calibration.EXPRESSIONS:
        assert checker.answer(text).split()


def test_scale_brings_times_to_the_reference_speed():
    ref = calibration.REFERENCE_S
    assert calibration.scale([ref, ref, ref]) == 1.0
    # a host that runs the task at half speed halves the reported time
    assert calibration.scale([2 * ref, 2 * ref, 9 * ref]) == 0.5
    assert calibration.sample(rounds=1) > 0
