"""The package's record classes: immutability, equality, hashing and the
checks their constructors make.

The records are ``NamedTuple``s (validated in ``__new__`` where a record
checks its fields) and, where they are mutable containers, plain classes,
so that no module needs ``dataclasses`` at start-up.
"""

import hashlib
import random

import numpy as np
import pytest

from pcfgset.generation import Alphabet, Corpus, GrammarParams, Sample, generate_corpus
from pcfgset.harness import EvaluationReport, Prediction
from pcfgset.language import DEFAULT_REGISTRY, FunctionSymbol, SequenceStats
from pcfgset.naturalise import (
    DistributionSpec, GaussianFit, PartitionConfig, PipelineResult, TraceRow,
)
from pcfgset.suite import (
    ConsistencyPair, ExceptionEntry, HeldOutPair, UnrollStep,
    build_unroll_plan, exceptions_apply,
)

COPY = DEFAULT_REGISTRY.lookup("copy")
STATS = SequenceStats(2, 1, 1)
WEIGHTS = {name: 1.0 for name in DEFAULT_REGISTRY.names()}
LENGTHS = {k: 0.2 for k in range(1, 6)}


def params(**changes) -> GrammarParams:
    fields = dict(p_unary=0.5, p_binary=0.2, p_leaf=0.3, fn_weights=WEIGHTS,
                  arg_len_dist=LENGTHS)
    return GrammarParams(**{**fields, **changes})


IMMUTABLE = {
    "SequenceStats": lambda: STATS,
    "Sample": lambda: Sample.from_src(["copy", "A"]),
    "Prediction": lambda: Prediction(("A",)),
    "ConsistencyPair": lambda: ConsistencyPair(("copy", "A"), ("copy_syn", "A"), ("A",)),
    "ExceptionEntry": lambda: ExceptionEntry(0, ("copy", "A"), ("A",), ("A",), ("copy", "copy")),
    "UnrollStep": lambda: UnrollStep("copy", (("lit", ("A",)),)),
    "UnrollPlan": lambda: build_unroll_plan(["copy", "A"]),
    "TraceRow": lambda: TraceRow(1, 2, 3, 0.5),
    "GaussianFit": lambda: GaussianFit(np.zeros(2), np.eye(2)),
    "GrammarParams": params,
    "FunctionSymbol": lambda: COPY,
    "DistributionSpec": lambda: DistributionSpec(((1, 0, 1),)),
    "PartitionConfig": lambda: PartitionConfig(1, 2),
    "HeldOutPair": lambda: HeldOutPair("swap", "repeat"),
}


@pytest.mark.parametrize("name", sorted(IMMUTABLE))
def test_an_immutable_record_refuses_assignment(name):
    record = IMMUTABLE[name]()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None  # no per-instance __dict__


def test_a_sample_is_a_small_tuple_of_its_fields():
    sample = Sample.from_src(["reverse", "A", "B"])
    assert not hasattr(sample, "__dict__")
    assert sample == Sample(("reverse", "A", "B"), ("B", "A"), SequenceStats(3, 1, 1))


@pytest.mark.parametrize("make, other", [
    (lambda: STATS, lambda: SequenceStats(2, 1, 2)),
    (lambda: Prediction(("A", "B")), lambda: Prediction(None, "Timeout")),
    (lambda: [HeldOutPair("swap", "repeat"), HeldOutPair("append", "swap")],
     lambda: [HeldOutPair("append", "swap"), HeldOutPair("swap", "repeat")]),
], ids=["SequenceStats", "Prediction", "HeldOutPair-list"])
def test_records_compare_and_hash_by_value(make, other):
    assert make() == make() and make() != other()
    if isinstance(make(), list):
        assert set(make()) == set(other())
    else:
        assert hash(make()) == hash(make())


def test_grammar_params_compare_by_value_and_stay_unhashable():
    assert params() == params() and params() != params(p_unary=0.4, p_leaf=0.4)
    assert params().max_arg_len == 5
    with pytest.raises(TypeError):  # its weight tables are dicts
        hash(params())


@pytest.mark.parametrize("build, message", [
    (lambda: FunctionSymbol("triple", 3, None, None),
     "triple: the grammar has unary and binary functions only"),
    (lambda: params(p_unary=-0.5, p_leaf=1.3), "production probabilities must be non-negative"),
    (lambda: params(p_unary=0.6), "p_unary + p_binary + p_leaf must equal 1"),
    (lambda: params(fn_weights={**WEIGHTS, "copy": float("inf")}),
     "function weights must be non-negative and finite"),
    (lambda: params(fn_weights={"copy": 1.0}), "each function class needs positive total weight"),
    (lambda: params(arg_len_dist={}), "arg_len_dist must not be empty"),
    (lambda: params(arg_len_dist={6: 1.0}), "leaf lengths must lie in 1..max_arg_len"),
    (lambda: params(arg_len_dist={1: 1.5, 2: -0.5}),
     "leaf length probabilities must be non-negative"),
    (lambda: params(arg_len_dist={1: 0.5}), "arg_len_dist must sum to 1"),
    (lambda: params(arg_len_dist={1: 0.5, 520: 0.25, 600: 0.25, 700: 0.0}, max_arg_len=700),
     "leaf length 600 is over the 520 literals a sample can hold"),
    (lambda: Alphabet(("A", "A")), "alphabet symbols must be distinct"),
    (lambda: Alphabet(()), "alphabet must not be empty"),
    (lambda: DistributionSpec(((0, 1, 1),)), "bad entry (0, 1, 1)"),
    (lambda: DistributionSpec(((1, 0, 1), (1, 0, 2))), "duplicate cell (1, 0)"),
    (lambda: DistributionSpec(()), "no cell with a positive count"),
    (lambda: PartitionConfig(0, 1), "increments must be positive integers"),
    (lambda: HeldOutPair("swap", "nope"), "unknown function 'nope'"),
    (lambda: DEFAULT_REGISTRY.with_synonyms({"nope": "x"}), "unknown function 'nope'"),
    (lambda: DEFAULT_REGISTRY.with_synonyms({"swap": "s", "copy": "s"}),
     "synonym names must be distinct"),
])
def test_constructors_raise_their_checks(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_mutable_containers_get_their_own_dicts_and_lists():
    first, second = Corpus([]), Corpus([])
    first.splits["train"] = (0,)
    assert second.splits == {}
    a, b = EvaluationReport("accuracy", 1.0, 0, {}), EvaluationReport("accuracy", 1.0, 0, {})
    a.errors["Timeout"] = 1
    a.metadata["seed"] = 0
    a.extras["skipped"] = 2
    assert (b.errors, b.metadata, b.extras, b.predictions) == ({}, {}, {}, None)
    results = [PipelineResult(params(), Corpus([]), 0.5, 10, (5, 2)) for _ in range(2)]
    results[0].trace.append(TraceRow(1, 1, 1, 0.25))
    assert results[1].trace == [] and results[1].final_kl == 0.5
    assert results[0].final_kl == 0.25


def test_exceptions_apply_rewrites_targets_to_the_same_bytes():
    corpus = generate_corpus(GrammarParams.default(), 300, rng=random.Random(5))
    planted, entries = exceptions_apply(corpus, {0.05: random.Random(6)})[0.05]
    for entry in entries:
        sample = planted.samples[entry.sample_id]
        assert sample.src == entry.src and sample.tgt == entry.exception_tgt
        assert sample.stats == Sample.from_src(entry.src).stats
    # 17 entries over 304 samples, 4 of them synthesised; the digest was
    # computed while the records were still dataclasses
    assert (len(entries), len(planted)) == (17, 304)
    lines = "".join(f"{s.src_text()}\t{s.tgt_text()}\n" for s in planted)
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "f12a83e06afdcad226e583d9694e73432e3456fe173312b6f886e1bc29a2c60b")
