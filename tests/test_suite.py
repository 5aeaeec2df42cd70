"""Compositionality test constructors.

Exception targets, split memberships and rewrite counts asserted here were
derived by hand from the definitions and frozen as oracles.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pcfgset.generation import Corpus, GrammarParams, Sample, generate_corpus, leaf_tuples
from pcfgset.language import DEFAULT_REGISTRY, evaluate, parse
from pcfgset.suite import (
    DEFAULT_EXCEPTION_REMAP,
    DEFAULT_HELD_OUT_PAIRS,
    EmptySide,
    HeldOutPair,
    InsufficientPositives,
    DEFAULT_SYNONYMS,
    build_unroll_plan,
    contains_pair,
    exception_evaluate,
    exceptions_apply,
    make_consistency_pairs,
    productivity_split,
    substitutivity_equal,
    substitutivity_primitive,
    systematicity_split,
)


def corpus_of(*texts: str) -> Corpus:
    return Corpus([Sample.from_src(t.split()) for t in texts])


# --- pair containment --------------------------------------------------------

@pytest.mark.parametrize(
    "src,expected",
    [
        ("swap repeat A B", True),
        ("append swap A B , C", True),
        ("repeat remove_second A , B", True),
        ("append remove_second A , B , C", True),
        ("swap A", False),
        ("append A , swap B", False),           # separator breaks adjacency
        ("repeat swap A B", False),             # reversed order is not held out
        ("reverse repeat remove_second A B , C D", True),
        ("repeat reverse remove_second A B , C D", False),
    ],
)
def test_contains_pair(src, expected):
    assert contains_pair(tuple(src.split()), DEFAULT_HELD_OUT_PAIRS) is expected


def test_default_held_out_pairs():
    assert [(p.outer, p.inner) for p in DEFAULT_HELD_OUT_PAIRS] == [
        ("swap", "repeat"),
        ("append", "remove_second"),
        ("repeat", "remove_second"),
        ("append", "swap"),
    ]


def test_held_out_pair_validates_names():
    with pytest.raises(ValueError):
        HeldOutPair("swap", "frobnicate")


# --- systematicity -------------------------------------------------------------

def test_systematicity_split_membership():
    corpus = corpus_of(
        "swap repeat A B",                 # positive
        "copy A B",
        "append swap C D , E",             # positive
        "reverse shift F G",
        "repeat remove_second H , I",      # positive
        "echo J K",
    )
    train, test = systematicity_split(corpus, test_size=2, rng=random.Random(1))
    assert len(train) == 3 and len(test) == 2
    for s in train:
        assert not contains_pair(s.src, DEFAULT_HELD_OUT_PAIRS)
    for s in test:
        assert contains_pair(s.src, DEFAULT_HELD_OUT_PAIRS)


def test_systematicity_insufficient_positives():
    corpus = corpus_of("swap repeat A B", "copy A")
    with pytest.raises(InsufficientPositives):
        systematicity_split(corpus, test_size=2, rng=random.Random(0))


def test_systematicity_no_pairs_keeps_everything_in_train():
    corpus = corpus_of("swap repeat A B", "copy A")
    train, test = systematicity_split(corpus, pairs=(), test_size=0, rng=random.Random(0))
    assert len(train) == 2 and len(test) == 0


# --- productivity ----------------------------------------------------------------

def test_productivity_split_threshold():
    shallow = "copy A"
    deep = "copy " * 9 + "A"
    corpus = corpus_of(shallow, deep.strip(), "echo swap B C")
    train, test = productivity_split(corpus, threshold=8)
    assert {s.stats.num_functions for s in train} == {1, 2}
    assert {s.stats.num_functions for s in test} == {9}


def test_productivity_empty_side():
    with pytest.raises(EmptySide):
        productivity_split(corpus_of("copy A", "echo B"), threshold=8)


# --- substitutivity ---------------------------------------------------------------

def test_substitutivity_equal_rewrites_floor_half():
    corpus = corpus_of(
        "swap A B C",
        "swap swap D E",              # two occurrences in one sample
        "copy G H",
        "swap I J",
        "repeat K L",
    )
    syn = {"swap": "swap_syn"}
    out, audit = substitutivity_equal(corpus, syn, rng=random.Random(3))
    assert audit["swap"] == (2, 4)
    syn_count = sum(tok == "swap_syn" for s in out for tok in s.src)
    base_count = sum(tok == "swap" for s in out for tok in s.src)
    assert syn_count == 2 and base_count == 2
    # positions and targets preserved
    assert [tuple("swap" if tok == "swap_syn" else tok for tok in s.src) for s in out] == [
        s.src for s in corpus
    ]
    assert [s.tgt for s in out] == [s.tgt for s in corpus]


def test_substitutivity_equal_default_map_targets_hold():
    corpus = corpus_of(
        "append swap A B , repeat C D",
        "remove_second E F , G",
        "swap repeat H I J",
    )
    out, audit = substitutivity_equal(corpus, DEFAULT_SYNONYMS, rng=random.Random(9))
    reg = DEFAULT_REGISTRY.with_synonyms(DEFAULT_SYNONYMS)
    for s in out:
        assert evaluate(s.src, reg) == s.tgt
    for base, (replaced, total) in audit.items():
        assert replaced == total // 2


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=10, deadline=None)
def test_substitutivity_equal_rewrites_are_the_samples_of_their_sources(seed):
    corpus = generate_corpus(GrammarParams.default(), 200, seed=seed)
    out, _ = substitutivity_equal(corpus, DEFAULT_SYNONYMS, rng=random.Random(seed))
    registry = DEFAULT_REGISTRY.with_synonyms(DEFAULT_SYNONYMS)
    assert [s for s in out if s not in corpus.samples]
    for s in out:
        assert s == Sample.from_src(s.src, registry)


def test_substitutivity_primitive_adds_single_function_samples():
    texts = [f"append A{i} , B{i}" for i in range(1, 11)]
    corpus = corpus_of(*texts)
    out, counts = substitutivity_primitive(
        corpus, DEFAULT_SYNONYMS, fraction=0.2, rng=random.Random(5), written=corpus
    )
    # round(0.2 * 10) = 2 per synonym, four synonyms
    assert counts == {"swap": 2, "repeat": 2, "append": 2, "remove_second": 2}
    assert len(out) == 18
    added = out.samples[10:]
    reg = DEFAULT_REGISTRY.with_synonyms(DEFAULT_SYNONYMS)
    used = {t for s in corpus for t in leaf_tuples(s.src) if len(t) >= 2}
    for s in added:
        assert s.stats.num_functions == 1
        assert s.src[0].endswith("_syn")
        assert evaluate(s.src, reg) == s.tgt
        for t in leaf_tuples(s.src):
            if len(t) >= 2:
                assert t not in used
                used.add(t)


def test_substitutivity_primitive_zero_fraction_adds_nothing():
    corpus = corpus_of("copy A", "echo B")
    out, counts = substitutivity_primitive(corpus, DEFAULT_SYNONYMS, fraction=0.0,
                                           rng=random.Random(0), written=corpus)
    assert len(out) == 2 and all(v == 0 for v in counts.values())


def test_make_consistency_pairs():
    corpus = corpus_of("swap repeat A B", "copy A B", "append C , D")
    pairs, skipped = make_consistency_pairs(corpus, DEFAULT_SYNONYMS)
    assert skipped == 1  # "copy A B" holds no mapped function
    assert [p.src_base for p in pairs] == [corpus.samples[0].src, corpus.samples[2].src]
    assert pairs[0].src_syn == ("swap_syn", "repeat_syn", "A", "B")
    assert pairs[1].src_syn == ("append_syn", "C", ",", "D")
    assert pairs[0].tgt == evaluate(parse("swap repeat A B".split()))


def test_synonym_map_validation():
    with pytest.raises(ValueError, match="synonym names must be distinct"):
        DEFAULT_REGISTRY.with_synonyms({"swap": "x_syn", "repeat": "x_syn"})
    with pytest.raises(ValueError, match="unknown function 'nope'"):
        DEFAULT_REGISTRY.with_synonyms({"nope": "nope_syn"})
    reg = DEFAULT_REGISTRY.with_synonyms(DEFAULT_SYNONYMS)
    assert evaluate("repeat_syn A".split(), reg) == ("A", "A")


# --- overgeneralisation -------------------------------------------------------------

@pytest.mark.parametrize(
    "src,original,exception",
    [
        ("reverse echo A B C", "C C B A", "A B C C"),
        ("prepend remove_first A , B , C", "C B", "A B"),
        ("echo remove_first A , B C", "B C C", "A B C"),
        ("prepend reverse A B , C", "C B A", "A B B"),
    ],
)
def test_exception_table_rows(src, original, exception):
    program = parse(src.split())
    assert " ".join(evaluate(program)) == original
    assert " ".join(exception_evaluate(program)) == exception


def test_exception_evaluate_leaves_other_trees_alone():
    for src in ("reverse copy A B", "prepend A , reverse B C", "echo A B"):
        program = parse(src.split())
        assert exception_evaluate(program) == evaluate(program)


def test_exception_evaluate_chained_pairs():
    # (prepend, reverse) and (reverse, echo) overlap on the middle token;
    # both substitutions agree that reverse acts as echo here
    program = parse("prepend reverse echo A B , C".split())
    assert " ".join(evaluate(program)) == "C B B A"
    assert " ".join(exception_evaluate(program)) == "A B B"


def test_exception_evaluate_5000_deep():
    # every (reverse, echo) pair turns into (echo, copy): each adds one B
    program = parse(("reverse echo " * 2500 + "A B").split())
    assert exception_evaluate(program) == ("A",) + ("B",) * 2501


def test_the_exception_table_keeps_arities_and_agrees_on_overlaps():
    # a position two remapped pairs cover, as the inner member of one and
    # the outer member of the next, takes one meaning only because every
    # row gives a function the same replacement
    meanings: dict[str, set[str]] = {}
    for pair, replacements in DEFAULT_EXCEPTION_REMAP.items():
        for name, meaning in zip(pair, replacements):
            assert DEFAULT_REGISTRY.lookup(name).arity == DEFAULT_REGISTRY.lookup(meaning).arity
            meanings.setdefault(name, set()).add(meaning)
    assert meanings == {"reverse": {"echo"}, "echo": {"copy"},
                        "prepend": {"remove_second"}, "remove_first": {"append"}}


def test_exceptions_apply_counts_and_rewrites():
    # reverse appears 6 times, echo 4 times -> k = round(0.5 * 4) = 2
    corpus = corpus_of(
        "reverse echo A B C",
        "reverse echo D E F",
        "reverse echo G H I",
        "reverse J K",
        "reverse L M",
        "reverse N Q",
        "echo P R",
    )
    out, entries = exceptions_apply(corpus, {0.5: random.Random(2)})[0.5]
    assert len(entries) == 2
    assert all(e.pair == ("reverse", "echo") for e in entries)
    rewritten = {e.sample_id for e in entries}
    assert all(out.samples[e.sample_id].src == e.src for e in entries)
    for pos, s in enumerate(out):
        program = parse(s.src)
        if pos in rewritten:
            assert s.tgt == exception_evaluate(program)
            assert s.tgt != evaluate(program)
        else:
            assert s.tgt == evaluate(program)
    for e in entries:
        assert e.original_tgt != e.exception_tgt


def test_exceptions_apply_synthesises_when_short():
    corpus = corpus_of(
        "prepend A B , C",
        "remove_first D , E",
        "prepend F , G H",
        "remove_first I , J",
    )
    # prepend x2, remove_first x2 -> k = round(2.0 * 2) = 4, none adjacent
    out, entries = exceptions_apply(corpus, {2.0: random.Random(8)})[2.0]
    assert len(entries) == 4
    assert len(out) == 8  # four synthesised samples appended
    for e in entries:
        assert contains_pair(e.src, [HeldOutPair("prepend", "remove_first")])
    # the entries name the appended samples by position
    assert [e.sample_id for e in entries] == [4, 5, 6, 7]
    assert [e.src for e in entries] == [s.src for s in out.samples[4:]]
    for s in out.samples[4:]:
        literals = [sym for t in leaf_tuples(s.src) for sym in t]
        assert len(set(literals)) == len(literals)


def test_exceptions_apply_shares_one_census_across_percentages():
    # 0.5 synthesises sources; each percentage must come out as it would alone
    train = generate_corpus(GrammarParams.default(), 2000, seed=7)
    grid = (0.0001, 0.5, 0.0005, 0.001, 0.005)
    before = list(train.samples)
    together = exceptions_apply(train, {pct: random.Random(repr(pct)) for pct in grid})
    assert train.samples == before
    assert list(together) == list(grid)
    assert len(together[0.5][0]) > len(train)
    for pct in grid:
        variant, entries = exceptions_apply(train, {pct: random.Random(repr(pct))})[pct]
        assert together[pct][0].samples == variant.samples
        assert together[pct][1] == entries


def test_exceptions_apply_zero_percentage():
    corpus = corpus_of("reverse echo A B C", "copy D")
    out, entries = exceptions_apply(corpus, {0.0: random.Random(0)})[0.0]
    assert entries == []
    assert [s.tgt for s in out] == [s.tgt for s in corpus]


# --- localism -------------------------------------------------------------------

def test_unroll_plan_example():
    plan = build_unroll_plan(parse("echo append C , prepend B , A".split()))
    assert plan.num_steps == 3
    s0, s1, s2 = plan.steps
    assert s0.fn_name == "prepend"
    assert s0.args == (("lit", ("B",)), ("lit", ("A",)))
    assert s1.fn_name == "append"
    assert s1.args == (("lit", ("C",)), ("step", 0))
    assert s2.fn_name == "echo"
    assert s2.args == (("step", 1),)


def test_unroll_plan_sibling_order():
    plan = build_unroll_plan(parse("append swap A B , repeat C D".split()))
    assert [s.fn_name for s in plan.steps] == ["swap", "repeat", "append"]
    assert plan.steps[2].args == (("step", 0), ("step", 1))


def test_unroll_plan_counts_every_application():
    for src, n in [("copy A", 1), ("copy copy copy A", 3),
                   ("append copy A , copy B", 3)]:
        assert build_unroll_plan(parse(src.split())).num_steps == n


def test_unroll_plan_rejects_bare_string():
    with pytest.raises(ValueError):
        build_unroll_plan(parse("A B".split()))


def test_unroll_plan_5000_deep():
    plan = build_unroll_plan(parse(("reverse echo " * 2500 + "A B").split()))
    assert plan.num_steps == 5000
    assert plan.steps[0].args == (("lit", ("A", "B")),)
    assert all(step.args == (("step", k),) for k, step in enumerate(plan.steps[1:]))
    assert plan.steps[-1].fn_name == "reverse"
    assert plan.src[:2] == ("reverse", "echo") and len(plan.src) == 5002
