"""Interpreter and parser ground truth.

Expected strings in this file were derived by hand from the function
definitions and are frozen here as the oracle for the implementation.
"""

import io

import pytest
from hypothesis import example, given, settings, strategies as st

from pcfgset.language import (
    DEFAULT_REGISTRY,
    LITERAL_SET,
    FunctionRegistry,
    FunctionSymbol,
    LITERALS,
    LanguageError,
    OutputTooLong,
    SequenceStats,
    UnexpectedEnd,
    UnexpectedToken,
    UnknownToken,
    evaluate,
    evaluate_text,
    fold,
    interpret,
    parse,
    render,
    serve,
    stats,
    tokenize,
    within_output_limit,
)


# --- single-function semantics, hand-derived ------------------------------

@pytest.mark.parametrize(
    "src,expected",
    [
        ("copy A B C", "A B C"),
        ("reverse A B C", "C B A"),
        ("shift A B C", "B C A"),
        ("swap A B C", "C B A"),
        ("swap A B C D", "D B C A"),
        ("repeat A B", "A B A B"),
        ("echo A B C", "A B C C"),
        ("append A B , C", "A B C"),
        ("prepend A B , C", "C A B"),
        ("remove_first A B , C D", "C D"),
        ("remove_second A B , C D", "A B"),
    ],
)
def test_single_function(src, expected):
    assert evaluate_text(src) == expected


@pytest.mark.parametrize(
    "src,expected",
    [
        # identity collapses on single-symbol arguments
        ("swap A", "A"),
        ("shift A", "A"),
        ("copy A", "A"),
        ("reverse A", "A"),
        # doubling functions still double
        ("echo A", "A A"),
        ("repeat A", "A A"),
    ],
)
def test_degenerate_single_symbol(src, expected):
    assert evaluate_text(src) == expected


# --- composed sequences ----------------------------------------------------

@pytest.mark.parametrize(
    "src,expected",
    [
        ("repeat A B C", "A B C A B C"),
        ("echo remove_first D K , E F", "E F F"),
        ("append swap F G H , repeat I J", "H G F I J I J"),
        # nested compositions, worked out by hand
        ("reverse echo A B C", "C C B A"),
        ("prepend remove_first A , B , C", "C B"),
        ("echo remove_first A , B C", "B C C"),
        ("prepend reverse A B , C", "C B A"),
        ("echo append C , prepend B , A", "C A B B"),
        ("swap repeat A B", "B B A A"),
        ("append remove_second A , B , C", "A C"),
    ],
)
def test_composed(src, expected):
    assert evaluate_text(src) == expected


# --- tokenisation ----------------------------------------------------------

def test_tokenize_kinds():
    toks = tokenize("append A19 B , copy C1")
    assert toks == ["append", "A19", "B", ",", "copy", "C1"]
    assert all(type(t) is str for t in toks)
    # each kind is accepted in every position; the structure is parse's business
    assert tokenize(", A19 copy") == [",", "A19", "copy"]


@pytest.mark.parametrize("piece", ["A", "Z", "A1", "Q7", "Z19", "B10"])
def test_tokenize_valid_literals(piece):
    assert tokenize(piece) == [piece]
    assert piece in LITERAL_SET


@pytest.mark.parametrize("piece", ["A0", "A20", "a", "AB", "1A", "Copy", "append_", "Z99"])
def test_tokenize_rejects(piece):
    with pytest.raises(UnknownToken) as ei:
        tokenize(piece)
    assert (ei.value.piece, ei.value.position) == (piece, 0)
    with pytest.raises(UnknownToken) as ei:
        tokenize(f"append A , B {piece}")
    assert (ei.value.piece, ei.value.position) == (piece, 4)


# --- parsing ---------------------------------------------------------------

def _nested(fn, position, args):
    """A fold callback that spells out the structure: (name, position, *args)."""
    return (fn.name, position, *args)


def test_parse_greedy_literal_run():
    assert parse("copy A B C".split()) == ("copy", "A", "B", "C")
    assert fold("copy A B C".split(), apply=_nested)[1] == ("copy", 0, ("A", "B", "C"))


def test_parse_binary_structure():
    closed = []

    def record(fn, position, args):
        closed.append(fn.name)
        return _nested(fn, position, args)

    seq_stats, value = fold("append swap F G H , repeat I J".split(), apply=record)
    assert value == ("append", 0, ("swap", 1, ("F", "G", "H")), ("repeat", 6, ("I", "J")))
    # calls close children first, left to right
    assert closed == ["swap", "repeat", "append"]
    assert seq_stats == SequenceStats(length=9, depth=2, num_functions=3)
    # without a callback only the structure is checked
    assert fold("append swap F G H , repeat I J".split()) == (seq_stats, None)


def test_parse_accepts_plain_strings():
    assert parse(["copy", "A"]) == parse("copy A".split()) == ("copy", "A")


@pytest.mark.parametrize(
    "src,exc",
    [
        ("append A", UnexpectedEnd),          # missing separator and second arg
        ("copy", UnexpectedEnd),
        ("copy copy", UnexpectedEnd),
        ("A , B", UnexpectedToken),           # separator outside any binary call
        (", A", UnexpectedToken),
        ("append A , B C copy D", UnexpectedToken),  # literal run cannot touch a call
        ("append A , , B", UnexpectedToken),
        ("copy A copy B", UnexpectedToken),   # trailing second constituent
    ],
)
def test_parse_errors(src, exc):
    with pytest.raises(exc):
        parse(src.split())


def test_parse_error_positions():
    with pytest.raises(UnexpectedToken) as ei:
        parse("A , B".split())
    assert (ei.value.text, ei.value.position) == (",", 1)
    assert str(ei.value) == "unexpected token ',' at position 1"
    with pytest.raises(UnexpectedEnd) as ei2:
        parse("append A".split())
    assert ei2.value.position == 2


# --- rendering and stats ---------------------------------------------------

def test_render_text_round_trip_examples():
    for src in ["copy A", "append swap F G H , repeat I J", "A B C"]:
        assert " ".join(parse(src.split())) == src


@pytest.mark.parametrize(
    "src,length,depth,nfn",
    [
        ("A B", 2, 0, 0),
        ("copy A", 2, 1, 1),
        ("append A , B", 4, 1, 1),
        ("echo remove_first D K , E F", 7, 2, 2),
        ("append swap F G H , repeat I J", 9, 2, 3),
        ("prepend remove_first A , B , C", 7, 2, 2),
        ("echo append C , prepend B , A", 8, 3, 3),
    ],
)
def test_stats(src, length, depth, nfn):
    s = stats(parse(src.split()))
    assert s == SequenceStats(length=length, depth=depth, num_functions=nfn)
    assert s.length == len(tokenize(src))


# --- function symbols ------------------------------------------------------

def test_functions_are_unary_or_binary():
    with pytest.raises(ValueError, match="unary and binary functions only"):
        FunctionSymbol("triple", 3, lambda x, y, z: x + y + z, lambda n, m, k: n + m + k)


# --- output length bound ---------------------------------------------------

@given(st.data())
@settings(max_examples=200, deadline=None)
def test_each_function_knows_its_output_length(data):
    fn = data.draw(st.sampled_from(list(DEFAULT_REGISTRY)))
    symbols = st.lists(st.sampled_from(LITERALS[:26]), min_size=1, max_size=12).map(tuple)
    args = [data.draw(symbols) for _ in range(fn.arity)]
    assert fn.size(*map(len, args)) == len(fn.fn(*args))


def test_synonyms_share_the_output_length():
    registry = DEFAULT_REGISTRY.with_synonyms({"repeat": "again"})
    assert registry.lookup("again").size(3) == 6


def test_a_repeat_chain_is_refused_before_its_value_is_built():
    with pytest.raises(OutputTooLong) as ei:
        evaluate_text("repeat " * 41 + "A")
    # 2**20 symbols is the first value over the limit: nothing larger was asked for
    assert ei.value.name == "repeat" and ei.value.length == 2**20
    assert isinstance(ei.value, LanguageError)
    # a structural fault anywhere takes precedence, as when parsing came first
    with pytest.raises(UnexpectedToken, match="unexpected token ',' at position 22"):
        evaluate_text("repeat " * 20 + "A B , C")


def test_the_limit_admits_a_value_of_exactly_its_length(monkeypatch):
    monkeypatch.setattr("pcfgset.language.MAX_OUTPUT_LENGTH", 8)
    assert evaluate_text("repeat append A B , C D") == "A B C D A B C D"
    with pytest.raises(OutputTooLong, match="echo would output 9 symbols, over the limit of 8"):
        evaluate_text("echo repeat append A B , C D")
    repeat = DEFAULT_REGISTRY.lookup("repeat")
    assert interpret(repeat, None, [tuple("ABCD")]) == tuple("ABCDABCD")
    with pytest.raises(OutputTooLong, match="repeat would output 10 symbols"):
        interpret(repeat, None, [tuple("ABCDE")])


def test_the_output_bound_counts_repeat_and_its_synonyms(monkeypatch):
    monkeypatch.setattr("pcfgset.language.MAX_OUTPUT_LENGTH", 16)
    # 4 tokens << 2 repeats is 16: within; one more token or repeat is not
    assert within_output_limit("repeat repeat echo A".split())
    assert not within_output_limit("repeat repeat echo A B".split())
    registry = DEFAULT_REGISTRY.with_synonyms({"repeat": "again", "echo": "echo_syn"})
    assert within_output_limit("again repeat echo_syn A".split(), registry)
    assert not within_output_limit("again repeat again A".split(), registry)
    # without the synonym the default registry does not know the token; it
    # counts no repeat, and the fold reports the unknown token first
    assert within_output_limit("again again again A".split())
    with pytest.raises(UnknownToken):
        evaluate("again again again A".split())


def test_a_registry_with_a_function_of_another_size_has_no_output_bound():
    registry = FunctionRegistry([
        *DEFAULT_REGISTRY,
        FunctionSymbol("triple", 1, lambda x: x + x + x, lambda n: 3 * n),
    ])
    assert registry.doubling is None
    assert not within_output_limit("triple A".split(), registry)
    assert evaluate("triple A B".split(), registry) == tuple("ABABAB")
    with pytest.raises(OutputTooLong, match="triple would output 1594323 symbols"):
        evaluate(["triple"] * 13 + ["A"], registry)


def test_the_oracle_answers_hostile_lines_as_before():
    # the hostile lines of the start-up test, and repeat chains either side
    # of the limit under a synonym
    registry = DEFAULT_REGISTRY.with_synonyms({"repeat": "repeat_syn"})
    lines = ["nope A", "swap A", ", A", "copy A B , C", "", "repeat " * 30 + "A",
             "repeat " * 30 + "A ,", "repeat_syn " * 30 + "A", "repeat repeat_syn " * 10 + "B",
             "repeat_syn " * 19 + "A"]
    out = io.StringIO()
    assert serve(registry, lines, out) == 0
    assert out.getvalue().split("\n") == ["", "A", "", "", "", "", "", "", "",
                                          " ".join(["A"] * 2**19), ""]


# --- synonym registry ------------------------------------------------------

def test_synonyms_share_semantics():
    reg = DEFAULT_REGISTRY.with_synonyms({"swap": "swap_syn", "append": "append_syn"})
    assert evaluate_text("swap_syn A B C", reg) == "C B A"
    assert evaluate_text("append_syn A , B", reg) == "A B"
    # the default registry is untouched
    with pytest.raises(UnknownToken):
        tokenize("swap_syn A")


def test_synonym_name_collisions_rejected():
    with pytest.raises(ValueError):
        DEFAULT_REGISTRY.with_synonyms({"swap": "copy"})
    with pytest.raises(ValueError):
        DEFAULT_REGISTRY.with_synonyms({"swap": "A1"})
    # a name that is not one token could not be written to a corpus file
    for name in ("swap syn", "", " swap_syn"):
        with pytest.raises(ValueError):
            DEFAULT_REGISTRY.with_synonyms({"swap": name})
    with pytest.raises(ValueError, match="unknown function 'nope'"):
        DEFAULT_REGISTRY.with_synonyms({"nope": "nope_syn"})
    with pytest.raises(ValueError):
        DEFAULT_REGISTRY.with_synonyms({"swap": ","})


def test_a_name_is_the_separator_then_a_function_then_a_literal():
    # a registry built directly may name a function like the separator or a
    # literal: the separator still separates, and the literal's name calls
    same = lambda n: n  # noqa: E731
    registry = FunctionRegistry([
        FunctionSymbol(",", 1, lambda x: x, same), FunctionSymbol("A", 1, lambda x: x[::-1], same),
        FunctionSymbol("join", 2, lambda x, y: x + y, lambda n, m: n + m),
    ])
    assert evaluate("join A B C , D".split(), registry) == ("C", "B", "D")
    assert tokenize(", A Z19", registry) == [",", "A", "Z19"]
    with pytest.raises(UnexpectedToken) as ei:
        fold([",", "B"], registry)
    assert ei.value.position == 0
    with pytest.raises(UnknownToken) as ei:
        fold(["join", "B", ",", "copy"], registry)
    assert (ei.value.piece, ei.value.position) == ("copy", 3)


# --- properties ------------------------------------------------------------

_SYMBOLS = [c for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ"] + ["A1", "B3", "Q17", "Z19"]

# random well-formed programs, as token lists
_leaves = st.lists(st.sampled_from(_SYMBOLS), min_size=1, max_size=5)


def _apply_nodes(children):
    unary = st.builds(
        lambda name, a: [name, *a],
        st.sampled_from(["copy", "reverse", "shift", "echo", "swap", "repeat"]),
        children,
    )
    binary = st.builds(
        lambda name, a, b: [name, *a, ",", *b],
        st.sampled_from(["append", "prepend", "remove_first", "remove_second"]),
        children,
        children,
    )
    return unary | binary


_programs = st.recursive(_leaves, _apply_nodes, max_leaves=12)


@given(_programs)
def test_parse_render_round_trip(src):
    assert render(parse(src)) == src
    functions = sum(1 for tok in src if tok in DEFAULT_REGISTRY)
    seq_stats = stats(src)
    assert (seq_stats.length, seq_stats.num_functions) == (len(src), functions)
    assert (seq_stats.depth == 0) == (functions == 0)


@given(_programs)
def test_render_as_text_round_trip(src):
    text = " ".join(src)
    assert parse(text.split()) == tuple(src)
    assert " ".join(parse(text.split())) == text


@given(_programs)
def test_evaluate_emits_only_input_symbols(src):
    out = evaluate(src)
    assert len(out) >= 1
    assert set(out) <= {tok for tok in src if tok in LITERAL_SET}


_args = st.lists(st.sampled_from(_SYMBOLS), min_size=1, max_size=8).map(tuple)


@given(_args)
def test_unary_length_laws(x):
    def e(name):
        return evaluate([name, *x])
    assert e("copy") == x
    assert len(e("reverse")) == len(x)
    assert len(e("shift")) == len(x)
    assert len(e("swap")) == len(x)
    assert len(e("repeat")) == 2 * len(x)
    assert len(e("echo")) == len(x) + 1


@given(_args)
def test_permutations_preserve_multiset(x):
    for name in ("reverse", "shift", "swap"):
        out = evaluate([name, *x])
        assert sorted(out) == sorted(x)


@given(_args)
def test_reverse_involution(x):
    assert evaluate(["reverse", "reverse", *x]) == x


@given(_args)
def test_swap_involution(x):
    assert evaluate(["swap", "swap", *x]) == x


@given(_args, _args)
def test_binary_length_laws(x, y):
    def e(name):
        return evaluate([name, *x, ",", *y])
    assert e("append") == x + y
    assert e("prepend") == y + x
    assert e("remove_first") == y
    assert e("remove_second") == x


# --- hostile and deep input ------------------------------------------------

_PIECES = list(DEFAULT_REGISTRY.names()) + [",", "A", "B7", "Z19", "a", "A20", "copy_", "?"]


@given(st.lists(st.sampled_from(_PIECES), max_size=16))
def test_token_soup_parses_or_raises_language_error(pieces):
    try:
        src = parse(pieces)
    except LanguageError:
        return
    assert render(src) == pieces


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(["copy", "reverse"]), min_size=1, max_size=5000))
@example(["copy"] * 2500 + ["reverse"] * 2499)
def test_deep_unary_chains(names):
    # copy is the identity and reverse an involution
    tokens = names + ["A", "B", "C"]
    src = parse(tokens)
    assert render(src) == tokens
    assert stats(src) == SequenceStats(len(tokens), len(names), len(names))
    flips = names.count("reverse") % 2
    assert evaluate(src) == (("C", "B", "A") if flips else ("A", "B", "C"))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(["append", "prepend"]), min_size=1, max_size=5000))
@example(["append", "prepend"] * 2500)
def test_deep_right_nested_binary_chains(names):
    # name_i X_i , <rest>: append puts X_i before the rest, prepend after it
    symbols = [_SYMBOLS[i % len(_SYMBOLS)] for i in range(len(names) + 1)]
    tokens = []
    for name, sym in zip(names, symbols):
        tokens += [name, sym, ","]
    tokens.append(symbols[-1])
    src = parse(tokens)
    assert render(src) == tokens
    assert stats(src) == SequenceStats(len(tokens), len(names), len(names))
    expected = [symbols[-1]]
    for name, sym in reversed(list(zip(names, symbols))):
        expected = [sym] + expected if name == "append" else expected + [sym]
    assert evaluate(src) == tuple(expected)
