"""A fixed pure-Python task that gauges how fast the CPU runs right now.

The benchmark's host is a few virtual CPUs of a shared machine, and how
fast a CPU runs the same code swings by up to a factor of two over seconds
and minutes as other tenants come and go (see the README, "Host speed").
``run.py`` therefore times this task on the CPU the commands run on --
just before and just after each command, and once a second while it
runs, sharing the CPU with it -- and scales each command's wall time by
the reference time of the task over its median time around and during
the command. The task is timed in CPU time of its own thread, so the
command's share of the CPU does not count in it, while the caches the
command fills, and the host's load, slow the task as they slow the
command.

The task does the kind of work the program does -- splitting text into
tokens, building nested lists and evaluating them -- through ``checker``'s
interpreter, which belongs to the benchmark and does not change with the
program.
"""

from __future__ import annotations

import random
import statistics
import time

import checker

# Median seconds of one ``sample()`` on the reference host (see the
# README); scaled times are those of a CPU running at this speed.
REFERENCE_S = 0.020

# Samples taken before and after each command, and seconds between the
# samples taken while it runs (each costs the command about 2% of the CPU).
EDGE_SAMPLES = 2
INTERVAL_S = 1.0

LETTERS = [chr(c) for c in range(ord("A"), ord("Z") + 1)]


def _expression(rng: random.Random, depth: int) -> list[str]:
    if depth == 0 or rng.random() < 0.25:
        return rng.sample(LETTERS, rng.randint(1, 4))
    name = rng.choice(sorted(checker.ARITY))
    if checker.ARITY[name] == 1:
        return [name, *_expression(rng, depth - 1)]
    return [name, *_expression(rng, depth - 1), ",", *_expression(rng, 0)]


EXPRESSIONS = [" ".join(_expression(random.Random(i), 6)) for i in range(150)]


def sample(rounds: int = 8) -> float:
    """CPU seconds of this thread to evaluate the fixed expressions
    ``rounds`` times."""
    start = time.thread_time()
    for _ in range(rounds):
        for text in EXPRESSIONS:
            checker.answer(text)
    return time.thread_time() - start


def edge() -> list[float]:
    """The samples taken between two commands."""
    return [sample() for _ in range(EDGE_SAMPLES)]


def scale(samples: list[float]) -> float:
    """Factor that brings a time measured while ``samples`` were taken to
    the reference speed."""
    return REFERENCE_S / statistics.median(samples)
