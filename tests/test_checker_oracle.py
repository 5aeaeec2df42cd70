"""The package against the benchmark's independent checker.

``perfbench/checker.py`` is a second implementation of the language and
of the corpus constraints, written from their definition alone; it
imports only the standard library.  Here it is the oracle for the
package's interpreter (``language.evaluate``) and overgeneralisation
remap (``suite.exception_evaluate``), its ``UniquenessLedger`` and its
corpus validator (``corpus_io.validate_corpus_files``): on random
programs, source sequences and damaged corpus directories both must
accept and refuse the same ones, and agree on every value.
"""

import json
import random
import re
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import checker  # noqa: E402

from pcfgset.corpus_io import file_sha256, validate_corpus_files, write_corpus  # noqa: E402
from pcfgset.generation import (  # noqa: E402
    GrammarParams,
    UniquenessLedger,
    generate_corpus,
    sample_tree,
    split_corpus,
)
from pcfgset.language import (  # noqa: E402
    DEFAULT_REGISTRY,
    LITERALS,
    LanguageError,
    evaluate,
    within_output_limit,
)
from pcfgset.suite import DEFAULT_SYNONYMS, exception_evaluate  # noqa: E402

# the same map as the checker sees it: each synonym means its base function
ALIASES = {syn: base for base, syn in checker.SYNONYMS.items()}
REGISTRIES = {"base": (DEFAULT_REGISTRY, None),
              "synonyms": (DEFAULT_REGISTRY.with_synonyms(DEFAULT_SYNONYMS), ALIASES)}

FUNCTIONS = list(DEFAULT_REGISTRY.names()) + list(DEFAULT_SYNONYMS.values())
# a few pieces each class: functions, the separator, literals with and
# without a suffix, and pieces neither knows
PIECES = FUNCTIONS + [",", "A", "B", "C", "Z", "A1", "B19", "Z19", "a", "A0", "A20", "copy_syn"]


def package_answer(tokens, registry):
    try:
        return " ".join(evaluate(tokens, registry))
    except LanguageError:
        return None


def checker_answer(tokens, aliases):
    try:
        return checker.answer(" ".join(tokens), aliases)
    except checker.CheckFailure:
        return None


@given(tokens=st.lists(st.sampled_from(PIECES), min_size=0, max_size=8),
       registry=st.sampled_from(sorted(REGISTRIES)))
@settings(max_examples=1000, deadline=None)
def test_evaluate_agrees_with_the_checker_on_random_pieces(tokens, registry):
    registry, aliases = REGISTRIES[registry]
    assert package_answer(tokens, registry) == checker_answer(tokens, aliases)


@given(seed=st.integers(min_value=0, max_value=2**32), synonyms=st.booleans())
@settings(max_examples=300, deadline=None)
def test_evaluate_agrees_with_the_checker_on_drawn_programs(seed, synonyms):
    src = list(sample_tree(GrammarParams.default(), random.Random(seed)))
    # no value can pass the output limit, which the checker does not have
    if not within_output_limit(src):
        return
    registry, aliases = REGISTRIES["base"]
    if synonyms:
        registry, aliases = REGISTRIES["synonyms"]
        src = [DEFAULT_SYNONYMS.get(t, t) if i % 2 else t for i, t in enumerate(src)]
    answer = package_answer(src, registry)
    assert answer is not None
    assert answer == checker_answer(src, aliases)


@given(seed=st.integers(min_value=0, max_value=2**32),
       damage=st.sampled_from(["none", "drop", "insert"]),
       synonyms=st.booleans())
@settings(max_examples=20, deadline=None)
def test_evaluate_agrees_with_the_checker_3000_deep(seed, damage, synonyms):
    rng = random.Random(seed)
    # no repeat, so the value stays short however deep the nesting
    names = [n for n in FUNCTIONS if "repeat" not in n]
    if not synonyms:
        names = [n for n in names if not n.endswith("_syn")]
    chain = [rng.choice(names) for _ in range(3000)]
    src = chain + rng.sample(LITERALS, rng.randint(1, 3))
    for name in reversed(chain):
        if DEFAULT_REGISTRY.lookup(ALIASES.get(name, name)).arity == 2:
            src += [","] + rng.sample(LITERALS, rng.randint(1, 3))
    if damage == "drop":
        del src[rng.randrange(len(src))]
    elif damage == "insert":
        src.insert(rng.randrange(len(src) + 1), rng.choice(PIECES))
    registry, aliases = REGISTRIES["synonyms" if synonyms else "base"]
    answer = package_answer(src, registry)
    assert answer == checker_answer(src, aliases)
    if damage == "none":
        assert answer is not None


@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_the_overgen_remap_agrees_with_the_checker(seed):
    # the first drawn program that holds a remapped pair (about one in twelve)
    rng = random.Random(seed)
    while True:
        src = sample_tree(GrammarParams.default(), rng)
        if within_output_limit(src) and any(
                pair in checker.EXCEPTION_REMAP for pair in zip(src, src[1:])):
            break
    assert " ".join(exception_evaluate(src)) == checker.answer(
        " ".join(src), remap=checker.EXCEPTION_REMAP)


def _rule(message):
    """The constraint a violation names, in either implementation's words."""
    return re.search(r"duplicate source|repeated literal|argument '[^']*' reused",
                     message).group(0)


# sources from a handful of literals and functions, so that duplicates,
# repeated literals and reused arguments are common: free token strings,
# and strings of a few whole arguments, each after a function or separator
_RUNS = [("A",), ("B",), ("A", "B"), ("B", "A"), ("C", "D"), ("A", "B", "C"), ("E1", "C")]
SOURCES = st.lists(
    st.lists(st.sampled_from(["A", "B", "C", "D", "E1", "copy", "append", ","]),
             min_size=1, max_size=7).map(tuple)
    | st.lists(st.tuples(st.sampled_from(["copy", "append", ","]), st.sampled_from(_RUNS)),
               min_size=1, max_size=3).map(lambda parts: tuple(
                   token for head, run in parts for token in (head, *run))),
    min_size=1, max_size=12,
)


@given(sources=SOURCES)
@settings(max_examples=500, deadline=None)
def test_the_ledger_admits_what_the_checker_admits(sources):
    ledger, reference = UniquenessLedger(), checker.Ledger()
    for row, src in enumerate(sources):
        where = f"row {row}"
        violation = ledger.admit(src, where)
        try:
            reference.add(src, where)
        except checker.CheckFailure as exc:
            assert violation is not None, (row, str(exc))
            assert _rule(violation) == _rule(str(exc))
            return
        assert violation is None, (row, violation)


# --- damaged corpus directories -----------------------------------------------

_BASE = split_corpus(generate_corpus(GrammarParams.default(), 30, seed=8), random.Random(8))
_SPLITS = ("train", "valid", "test")
_DAMAGE = ["none", "copy line", "delete line", "replace token", "insert token",
           "delete token", "swap tokens"]


def _damage(directory, rng, defect, suffix):
    """Apply ``defect`` to one line of one split file, then make the
    manifest describe the damaged files, so only their content is at fault."""
    split = rng.choice(_SPLITS)
    path = directory / f"{split}.{suffix}"
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [i for i, line in enumerate(lines) if line.split()]
    if not rows:  # an earlier defect emptied the file or its one line
        return
    row = rng.choice(rows)
    tokens = lines[row].split()
    if defect == "copy line":
        other = rng.choice(_SPLITS)
        donor = (directory / f"{other}.{suffix}").read_text(encoding="utf-8").splitlines()
        tokens = rng.choice(donor or [""]).split()
    elif defect == "delete line":
        del lines[row]
        tokens = None
    elif defect == "replace token":
        tokens[rng.randrange(len(tokens))] = rng.choice(PIECES + list(LITERALS[:60]))
    elif defect == "insert token":
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(PIECES + list(LITERALS[:60])))
    elif defect == "delete token":
        del tokens[rng.randrange(len(tokens))]
    elif defect == "swap tokens":
        i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    if tokens is not None:
        lines[row] = " ".join(tokens)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["hashes"][path.name] = file_sha256(path)
    if suffix == "src":
        manifest["sizes"][split] = len(lines)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def _checker_refuses(directory):
    try:
        checker.check_corpus(directory, _SPLITS)
    except checker.CheckFailure:
        return True
    return False


@given(seed=st.integers(min_value=0, max_value=2**32),
       defects=st.lists(st.tuples(st.sampled_from(_DAMAGE), st.sampled_from(["src", "tgt"])),
                        min_size=1, max_size=2))
@settings(max_examples=150, deadline=None)
def test_the_validator_refuses_what_the_checker_refuses(seed, defects):
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "corpus"
        write_corpus(directory, _BASE)
        for defect, suffix in defects:
            if defect != "none":
                _damage(directory, rng, defect, suffix)
        refused = bool(validate_corpus_files(directory))
        assert refused == _checker_refuses(directory)
        if all(defect == "none" for defect, _ in defects):
            assert not refused
