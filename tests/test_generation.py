"""Corpus generation: constraints, splits, probe corpora.

Split sizes and constraint outcomes asserted here were computed by hand
(floor arithmetic, counting arguments available in toy alphabets) so they
stand independent of the implementation.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pcfgset import generation
from pcfgset.generation import (
    Alphabet,
    Corpus,
    DrawTables,
    ExhaustedUniqueArguments,
    GrammarParams,
    Sample,
    UniquenessLedger,
    _too_long,
    draw_admitted,
    generate_corpus,
    leaf_tuples,
    make_primitive_length_corpus,
    sample_tree,
    split_corpus,
)
from pcfgset.corpus_io import validate_corpus_files, write_corpus, write_token_file
from pcfgset.language import (
    DEFAULT_REGISTRY,
    LITERAL_SET,
    OutputTooLong,
    evaluate,
    fold,
    parse,
    stats,
    tokenize,
)
from pcfgset.suite import SynonymMap


def uniform_params(**overrides):
    base = dict(
        p_unary=0.5,
        p_binary=0.15,
        p_leaf=0.35,
        fn_weights={n: 1.0 for n in
                    ("copy", "reverse", "shift", "echo", "swap", "repeat",
                     "append", "prepend", "remove_first", "remove_second")},
        arg_len_dist={k: 0.2 for k in range(1, 6)},
        max_arg_len=5,
    )
    base.update(overrides)
    return GrammarParams(**base)


# --- alphabet --------------------------------------------------------------

def test_default_alphabet():
    a = Alphabet.default()
    assert len(a) == 520
    assert a.symbols[:3] == ("A", "B", "C")
    assert a.symbols[25] == "Z"
    assert a.symbols[26] == "A1"
    assert "Z19" in a.symbols
    assert "A0" not in a.symbols and "A20" not in a.symbols
    # every symbol is a valid literal token
    assert tokenize(" ".join(a.symbols)) == list(a.symbols)
    assert set(a.symbols) <= LITERAL_SET


def test_default_alphabet_is_one_shared_instance():
    assert Alphabet.default() is Alphabet.default()


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet(("A", "A"))


# --- params validation -------------------------------------------------------

def test_params_must_sum_to_one():
    with pytest.raises(ValueError):
        uniform_params(p_unary=0.5, p_binary=0.5, p_leaf=0.5)


def test_params_reject_negative():
    with pytest.raises(ValueError):
        uniform_params(p_unary=-0.1, p_binary=0.6, p_leaf=0.5)


@pytest.mark.parametrize("change", [
    dict(p_unary=math.nan, p_binary=0.5, p_leaf=0.5),
    dict(p_leaf=math.inf),
    dict(fn_weights={**{n: 1.0 for n in DEFAULT_REGISTRY.names()}, "copy": math.inf}),
    dict(fn_weights={**{n: 1.0 for n in DEFAULT_REGISTRY.names()}, "copy": math.nan}),
    dict(arg_len_dist={1: math.nan, 2: 1.0}),
])
def test_params_reject_nan_and_infinity(change):
    with pytest.raises(ValueError):
        uniform_params(**change)


def test_params_need_weight_in_each_class():
    with pytest.raises(ValueError):
        uniform_params(fn_weights={"copy": 1.0})  # no binary mass


def test_params_leaf_lengths_in_range():
    with pytest.raises(ValueError):
        uniform_params(arg_len_dist={0: 0.5, 1: 0.5})
    with pytest.raises(ValueError):
        uniform_params(arg_len_dist={6: 1.0})


def test_params_round_trip_dict():
    p = uniform_params()
    assert GrammarParams.from_dict(p.to_dict()) == p


# --- tree sampling -----------------------------------------------------------

def test_forced_root_means_primitive_sample_under_leaf_only_params():
    params = uniform_params(p_unary=0.0, p_binary=0.0, p_leaf=1.0)
    rng = random.Random(7)
    for _ in range(50):
        src = sample_tree(params, rng)
        assert src[0] in DEFAULT_REGISTRY
        assert stats(src).num_functions == 1


def test_unforced_root_can_be_leaf():
    params = uniform_params(p_unary=0.0, p_binary=0.0, p_leaf=1.0)
    src = sample_tree(params, random.Random(1), force_function=False)
    assert all(tok in LITERAL_SET for tok in src)


def test_max_recursion_caps_depth():
    params = uniform_params(p_unary=1.0, p_binary=0.0, p_leaf=0.0)
    tree = sample_tree(params, random.Random(3), max_recursion=4)
    s = stats(tree)
    assert s.depth == 4 and s.num_functions == 4


def test_max_nodes_budget_bounds_size():
    params = uniform_params(p_unary=0.0, p_binary=1.0, p_leaf=0.0)
    tree = sample_tree(params, random.Random(5), max_nodes=50)
    # every expansion consumes budget, so the tree has at most 50 positions
    assert stats(tree).num_functions <= 50


def test_sample_tree_deterministic():
    params = uniform_params()
    t1 = sample_tree(params, random.Random(42))
    t2 = sample_tree(params, random.Random(42))
    assert t1 == t2


def test_prebuilt_tables_draw_the_same_trees():
    params = uniform_params()
    tables = DrawTables.build(params)
    with_tables, without = random.Random(3), random.Random(3)
    for _ in range(100):
        assert sample_tree(params, with_tables, tables=tables) == sample_tree(params, without)


def test_sample_tree_draws_a_unary_chain_5000_deep():
    params = uniform_params(p_unary=1.0, p_binary=0.0, p_leaf=0.0)
    tree = sample_tree(params, random.Random(8), max_recursion=5000)
    s = stats(tree)
    assert s.depth == 5000 and s.num_functions == 5000


@st.composite
def grammar_params(draw):
    """Any valid parameters over the default functions and leaf lengths 1..5."""
    weight = st.floats(min_value=0.0, max_value=1.0)
    triple = [draw(weight) for _ in range(3)]
    total = sum(triple) or 1.0
    p_unary, p_binary = triple[0] / total, triple[1] / total
    if not sum(triple):
        p_unary = p_binary = 0.0
    lengths = [draw(weight) for _ in range(4)] + [draw(st.floats(0.01, 1.0))]
    return GrammarParams(
        p_unary=p_unary,
        p_binary=p_binary,
        p_leaf=max(0.0, 1.0 - p_unary - p_binary),
        fn_weights={n: draw(st.floats(0.01, 1.0)) for n in DEFAULT_REGISTRY.names()},
        arg_len_dist={k + 1: w / sum(lengths) for k, w in enumerate(lengths)},
    )


@given(
    params=grammar_params(),
    seed=st.integers(min_value=0, max_value=2**32),
    force=st.booleans(),
    max_recursion=st.integers(min_value=0, max_value=30),
    max_nodes=st.integers(min_value=0, max_value=300),
    bound=st.tuples(st.integers(min_value=1, max_value=80),
                    st.integers(min_value=0, max_value=20)),
)
@settings(max_examples=300, deadline=None)
def test_a_bounded_draw_keeps_exactly_the_trees_in_bound(
    params, seed, force, max_recursion, max_nodes, bound
):
    options = dict(force_function=force, max_recursion=max_recursion, max_nodes=max_nodes)
    tree = sample_tree(params, random.Random(seed), **options)
    kept = sample_tree(params, random.Random(seed), bound=bound, **options)
    s = stats(tree)
    if s.length <= bound[0] and s.depth <= bound[1]:
        assert kept == tree
    else:
        assert kept is None


def _leaf_by_choice(rng, params, symbols):
    """One leaf as drawn under leaf-only params: the kind, the length, then
    each symbol picked by ``rng.choice``."""
    rng.random()
    lengths = sorted(params.arg_len_dist)
    (n,) = rng.choices(lengths, [params.arg_len_dist[k] for k in lengths])
    return tuple(rng.choice(symbols) for _ in range(n))


@pytest.mark.parametrize("size", [1, 2, 512, 520])
def test_leaf_symbols_are_what_rng_choice_draws(size):
    params = uniform_params(p_unary=0.0, p_binary=0.0, p_leaf=1.0)
    alphabet = Alphabet(Alphabet.default().symbols[:size])
    for seed in range(200):
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(5):
            src = sample_tree(params, rng, alphabet=alphabet, force_function=False)
            assert src == _leaf_by_choice(reference, params, alphabet.symbols)
        assert rng.getstate() == reference.getstate()
        # past the bound at once: the forced root's call class and function
        # are drawn, its arguments are not
        assert sample_tree(params, rng, alphabet=alphabet, bound=(0, 0)) is None
        reference.random()
        reference.random()
        assert rng.getstate() == reference.getstate()


# --- corpus generation --------------------------------------------------------

def test_generate_corpus_constraints_hold(tmp_path):
    corpus = generate_corpus(uniform_params(), 400, rng=random.Random(11))
    assert len(corpus) == 400
    seen_src = set()
    used_args = {}
    for s in corpus:
        assert s.src[0] in DEFAULT_REGISTRY  # never a bare string
        assert evaluate(s.src) == s.tgt
        assert stats(s.src) == s.stats
        assert s.src not in seen_src
        seen_src.add(s.src)
        literals = [sym for t in leaf_tuples(s.src) for sym in t]
        assert len(set(literals)) == len(literals), "literal repeated in sample"
        for t in leaf_tuples(s.src):
            if len(t) >= 2:
                assert t not in used_args, "string argument reused across corpus"
                used_args[t] = s.src
    write_corpus(tmp_path, corpus)
    assert validate_corpus_files(tmp_path) == []


def test_generate_corpus_deterministic_by_seed():
    a = generate_corpus(uniform_params(), 100, seed=123)
    b = generate_corpus(uniform_params(), 100, seed=123)
    c = generate_corpus(uniform_params(), 100, seed=124)
    assert [s.src for s in a] == [s.src for s in b]
    assert [s.src for s in a] != [s.src for s in c]


def test_generate_corpus_exhaustion(monkeypatch):
    # Every draw is 25 nested copies of a one-symbol leaf, the recursion
    # cap forcing the leaf, so the 520 literals admit at most 520 distinct
    # sources and a corpus of 521 cannot exist.
    params = uniform_params(p_unary=1.0, p_binary=0.0, p_leaf=0.0,
                            fn_weights={"copy": 1.0, "append": 1.0}, arg_len_dist={1: 1.0})
    monkeypatch.setattr(generation, "MAX_REJECTS", 500)
    with pytest.raises(ExhaustedUniqueArguments, match="500 consecutive rejections"):
        generate_corpus(params, 521, rng=random.Random(0))


def test_a_draw_too_long_to_evaluate_is_a_rejection(monkeypatch):
    # every draw is 25 nested repeats: a value of at least 2**25 symbols
    params = uniform_params(p_unary=1.0, p_binary=0.0, p_leaf=0.0,
                            fn_weights={"repeat": 1.0, "append": 1.0})
    monkeypatch.setattr(generation, "MAX_REJECTS", 20)
    with pytest.raises(ExhaustedUniqueArguments, match="20 consecutive rejections at 0"):
        generate_corpus(params, 1, rng=random.Random(0))


def test_a_draw_is_too_long_exactly_when_its_value_fold_says_so():
    # mostly repeat chains: about a third over the output limit, and a
    # fifth more past the cheap bound but within the limit
    params = uniform_params(p_unary=0.9, p_binary=0.05, p_leaf=0.05,
                            fn_weights={"repeat": 1.0, "echo": 0.3, "append": 1.0})
    rng = random.Random(2)
    outcomes = []
    for _ in range(400):
        src = sample_tree(params, rng)
        try:
            evaluate(src)
            outcomes.append(False)
        except OutputTooLong:
            outcomes.append(True)
        assert _too_long(src) == outcomes[-1]
    assert 10 < sum(outcomes) < 390


@pytest.mark.parametrize(
    "src,problem",
    [
        ("repeat " * 20 + "A B , C",
         "does not parse (unexpected token ',' at position 22)"),
        ("repeat " * 20 + "A B",
         "does not evaluate (repeat would output 1048576 symbols, over the limit of 1000000)"),
    ],
)
def test_audit_reports_a_parse_fault_before_a_value_too_long(tmp_path, src, problem):
    write_token_file(tmp_path / "all.src", [src.split()])
    write_token_file(tmp_path / "all.tgt", [["A"]])
    assert validate_corpus_files(tmp_path) == [f"all.src:1: {problem}"]


def test_validate_corpus_flags_planted_errors(tmp_path):
    corpus = generate_corpus(uniform_params(), 50, rng=random.Random(2))
    good = corpus.samples[0]
    bad = Sample(src=good.src, tgt=good.tgt + ("Z19",), stats=good.stats)
    write_corpus(tmp_path, Corpus(corpus.samples + [bad]))
    assert validate_corpus_files(tmp_path) == [
        "all.tgt:51: target does not match evaluation",
        "all.src:51: duplicate source (also at all.src:1)",
    ]


@pytest.mark.parametrize(
    "recorded,candidate,expected",
    [
        ([], "append A B , C A", "repeated literal 'A' within sample"),
        # a multi-symbol argument twice in one sample repeats its literals
        ([], "append A B , A B", "repeated literal 'A' within sample"),
        (["swap A B"], "swap A B", "duplicate source (also at sample 0)"),
        (["swap A B"], "copy A B", "argument 'A B' reused (also at sample 0)"),
        (["swap A B"], "copy B A", None),
        (["copy A"], "reverse A", None),  # single symbols may recur across samples
    ],
)
def test_ledger_reports_the_first_violation(recorded, candidate, expected):
    ledger = UniquenessLedger(Sample.from_src(t.split()) for t in recorded)
    assert ledger.admit(candidate.split(), "row 9") == expected


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_leaf_tuples_of_a_source_are_the_leaves_of_its_tree(seed):
    src = sample_tree(uniform_params(), random.Random(seed))
    # the fold's structure, as nested lists of string arguments
    nested = fold(src, apply=lambda fn, position, args: list(args))[1]

    def leaves(value):
        return [value] if isinstance(value, tuple) else [t for a in value for t in leaves(a)]

    assert leaf_tuples(src) == leaves(nested)


def test_leaf_tuples_skip_functions_synonyms_and_separators():
    src = "append_syn swap A B19 , C".split()
    assert parse(src, SynonymMap.default().registry())  # a well-formed source
    assert leaf_tuples(src) == [("A", "B19"), ("C",)]


def test_ledger_records_only_what_is_added():
    ledger = UniquenessLedger()
    # a refused source is not recorded, so it is refused again for itself
    assert ledger.admit(("append", "A", "B", ",", "A"), "row 6") == (
        "repeated literal 'A' within sample")
    assert ledger.admit(("append", "A", "B", ",", "A"), "row 7") == (
        "repeated literal 'A' within sample")
    assert ledger.admit(("swap", "A", "B"), "row 8") is None
    assert ledger.admit(("swap", "A", "B"), "row 9") == "duplicate source (also at row 8)"
    assert ledger.admit(("copy", "A", "B"), "row 10") == "argument 'A B' reused (also at row 8)"


class RefusingLedger:
    """A ledger that refuses every source and notes where each would go."""

    def __init__(self):
        self.asked = []

    def admit(self, src, where):
        self.asked.append(where)
        return "refused"


@pytest.mark.parametrize("attempts", [0, 1, 7])
def test_draw_admitted_gives_up_after_placement_attempts_refusals(monkeypatch, attempts):
    monkeypatch.setattr(generation, "PLACEMENT_ATTEMPTS", attempts)
    ledger = RefusingLedger()
    with pytest.raises(ExhaustedUniqueArguments,
                       match=f"for prepend remove_first in {attempts} draws"):
        draw_admitted(["prepend", "remove_first"], 3, random.Random(0), ledger, "sample 9")
    assert ledger.asked == ["sample 9"] * attempts


# --- splits -------------------------------------------------------------------

@pytest.mark.parametrize(
    "n,expected",
    [
        (100, (85, 5, 10)),
        (99_990, (84_992, 4_999, 9_999)),
        (1, (1, 0, 0)),
        (7, (7, 0, 0)),
        (19, (18, 0, 1)),
    ],
)
def test_split_sizes(n, expected):
    samples = [Sample.from_src(["copy", "A"]) for _ in range(n)]
    corpus = Corpus(samples)
    split_corpus(corpus, rng=random.Random(1))
    sizes = tuple(len(corpus.splits[k]) for k in ("train", "valid", "test"))
    assert sizes == expected


def test_split_partition_is_disjoint_and_covering(tmp_path):
    corpus = generate_corpus(uniform_params(), 200, rng=random.Random(9))
    split_corpus(corpus, rng=random.Random(5))
    positions = [i for k in ("train", "valid", "test") for i in corpus.splits[k]]
    assert sorted(positions) == list(range(len(corpus)))
    write_corpus(tmp_path, corpus)
    assert validate_corpus_files(tmp_path) == []


@given(st.integers(min_value=1, max_value=5000))
@settings(max_examples=30, deadline=None)
def test_split_size_arithmetic(n):
    samples = [Sample.from_src(["copy", "A"]) for _ in range(n)]
    corpus = split_corpus(Corpus(samples), rng=random.Random(n))
    assert len(corpus.splits["valid"]) == int(n * 0.05)
    assert len(corpus.splits["test"]) == int(n * 0.10)
    total = sum(len(v) for v in corpus.splits.values())
    assert total == n


# --- probe corpora --------------------------------------------------------------

def test_primitive_length_corpus_unary():
    corpus = make_primitive_length_corpus(
        "reverse", [2, 6, 9], 4, rng=random.Random(3)
    )
    assert len(corpus) == 12
    lengths = sorted({len(leaf_tuples(s.src)[0]) for s in corpus})
    assert lengths == [2, 6, 9]
    for s in corpus:
        assert stats(parse(list(s.src))) == s.stats
        assert s.tgt == tuple(reversed(leaf_tuples(s.src)[0]))
        literals = list(leaf_tuples(s.src)[0])
        assert len(set(literals)) == len(literals)


def test_primitive_length_corpus_binary_varies_one_argument():
    corpus = make_primitive_length_corpus(
        "remove_first", [9], 10, rng=random.Random(4), vary_arg=0
    )
    for s in corpus:
        first, second = leaf_tuples(s.src)
        assert len(first) == 9
        assert 1 <= len(second) <= 5
        assert s.tgt == second  # overlong ignored argument leaves tgt untouched
        all_syms = list(first) + list(second)
        assert len(set(all_syms)) == len(all_syms)
