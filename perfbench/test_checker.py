"""Hand-computed cases for the benchmark's independent checker.

Run with: python3 -m pytest perfbench/test_checker.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

import checker
from checker import CheckFailure, Ledger, answer, parse


@pytest.mark.parametrize(
    "src, want",
    [
        ("repeat A B C", "A B C A B C"),
        ("copy A B", "A B"),
        ("reverse A B C", "C B A"),
        ("shift A B C", "B C A"),
        ("shift A", "A"),
        ("echo A B", "A B B"),
        ("swap A B C D", "D B C A"),
        ("swap A", "A"),
        ("append A B , C", "A B C"),
        ("prepend A B , C", "C A B"),
        ("remove_first A , B C", "B C"),
        ("remove_second A , B C", "A"),
        ("append swap F G H , repeat I J", "H G F I J I J"),
        ("remove_first reverse A B , echo C", "C C"),
    ],
)
def test_reference_interpreter(src, want):
    assert answer(src) == want


def test_synonyms_mean_their_base_function():
    aliases = {"repeat_syn": "repeat", "append_syn": "append"}
    assert answer("append_syn repeat_syn A , B", aliases) == "A A B"


def test_deep_nesting_needs_no_recursion():
    for src, want in checker.deep_requests(5_000):
        assert answer(src) == want


@pytest.mark.parametrize("src", ["", "append A", "append A B C", "copy , A", "A , B", "copy a",
                                 "remove_first A B", "repeat A ,"])
def test_malformed_sources_are_rejected(src):
    with pytest.raises(CheckFailure):
        parse(src.split())


def test_exception_remap():
    remap = checker.EXCEPTION_REMAP
    # reverse+echo becomes echo+copy: echo(copy(A B)) instead of reverse(echo(A B))
    assert answer("reverse echo A B") == "B B A"
    assert answer("reverse echo A B", remap=remap) == "A B B"
    # prepend+remove_first becomes remove_second+append, on the first pair only
    assert answer("prepend remove_first A , B , C", remap=remap) == "A B"
    # a pair not in the table keeps its meaning
    assert answer("echo reverse A B", remap=remap) == "B A A"
    # only a function heading the first argument forms a pair
    assert answer("prepend A , reverse B C", remap=remap) == "C B A"


def test_ledger_rejects_a_repeated_literal():
    with pytest.raises(CheckFailure, match="repeated literal"):
        Ledger().add("append A B , C A".split(), "x:1")


def test_ledger_rejects_a_reused_argument_and_duplicate_source():
    ledger = Ledger()
    ledger.add("copy A B".split(), "x:1")
    with pytest.raises(CheckFailure, match="reused"):
        ledger.add("reverse A B".split(), "x:2")
    with pytest.raises(CheckFailure, match="duplicate source"):
        ledger.add("copy A B".split(), "x:3")
    ledger.add("reverse A".split(), "x:4")
    ledger.add("echo A".split(), "x:5")  # single symbols may recur


def test_round_half_up_and_regenerations():
    assert [checker.round_half_up(x) for x in (0.49, 0.5, 1.5, 2.5)] == [0, 1, 2, 3]
    assert checker.regenerations([0.3]) == 1
    assert checker.regenerations([0.3, 0.2, 0.2]) == 2
    assert checker.regenerations([0.3, 0.2, 0.1]) == 3


def _write_corpus(directory, splits):
    directory.mkdir()
    hashes, sizes = {}, {}
    for name, rows in splits.items():
        for ext, column in (("src", 0), ("tgt", 1)):
            path = directory / f"{name}.{ext}"
            path.write_text("".join(row[column] + "\n" for row in rows), encoding="utf-8")
            hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        sizes[name] = len(rows)
    (directory / "manifest.json").write_text(json.dumps({"hashes": hashes, "sizes": sizes}))


def test_check_corpus_accepts_a_good_corpus_and_names_a_bad_target(tmp_path):
    good = {"train": [("repeat A B C", "A B C A B C"), ("swap D E", "E D")]}
    _write_corpus(tmp_path / "good", good)
    checker.check_corpus(tmp_path / "good", ["train"])
    bad = {"train": [("repeat A B C", "A B C")]}
    _write_corpus(tmp_path / "bad", bad)
    with pytest.raises(CheckFailure, match="train.src:1"):
        checker.check_corpus(tmp_path / "bad", ["train"])


def test_check_corpus_rejects_a_repeated_literal(tmp_path):
    _write_corpus(tmp_path / "c", {"train": [("append A B , C A", "A B C A")]})
    with pytest.raises(CheckFailure, match="repeated literal"):
        checker.check_corpus(tmp_path / "c", ["train"])


def test_check_report(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"metric": "accuracy", "overall": 1.0, "count": 3, "errors": {}}))
    checker.check_report(path, 3)
    path.write_text(json.dumps({"metric": "accuracy", "overall": 1.0, "count": 3,
                                "errors": {"ChildExited": 1}}))
    with pytest.raises(CheckFailure):
        checker.check_report(path, 3)
