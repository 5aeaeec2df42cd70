"""Corpus files, sidecars, reports and the file-level validator.

Round-trips are checked against hand-built corpora small enough to verify
by eye; validator findings are asserted by the exact line numbers planted.
"""

import json
import random

import pytest

from pcfgset.corpus_io import (
    MalformedLine,
    ManifestError,
    discover_splits,
    file_sha256,
    read_checkpoint_predictions,
    read_corpus,
    read_exceptions,
    read_json,
    read_pairs,
    read_params,
    read_synonyms,
    read_token_file,
    registry_for_directory,
    validate_corpus_files,
    verify_manifest,
    write_corpus,
    write_exceptions,
    write_pairs,
    write_params,
    write_predictions,
    write_report,
    write_strata_csv,
    write_synonyms,
    write_token_file,
)
from pcfgset.generation import (
    Corpus,
    GrammarParams,
    Sample,
    generate_corpus,
    split_corpus,
)
from pcfgset.harness import EvaluationReport
from pcfgset.language import DEFAULT_REGISTRY
from pcfgset.suite import (
    DEFAULT_HELD_OUT_PAIRS,
    SynonymMap,
    exceptions_apply,
)


def corpus_of(texts, splits=None):
    samples = [Sample.from_src(t.split()) for t in texts]
    corpus = Corpus(samples)
    if splits:
        corpus.splits = {name: tuple(positions) for name, positions in splits.items()}
    return corpus


# --- token files --------------------------------------------------------------


def test_token_file_round_trip(tmp_path):
    rows = [["swap", "A", "B"], ["copy", "Q7"], []]
    path = tmp_path / "x.src"
    write_token_file(path, rows)
    assert read_token_file(path) == rows
    raw = path.read_bytes()
    assert raw == b"swap A B\ncopy Q7\n\n"


# --- corpus directories --------------------------------------------------------


def test_corpus_round_trip_with_splits(tmp_path):
    corpus = corpus_of(
        ["swap A B", "copy C", "append D , E F", "reverse G H J"],
        splits={"train": (0, 1), "valid": (2,), "test": (3,)},
    )
    corpus.seed = 11
    corpus.params = GrammarParams.default()
    write_corpus(tmp_path, corpus)
    again = read_corpus(tmp_path)
    assert [s.src for s in again] == [s.src for s in corpus]
    assert [s.tgt for s in again] == [s.tgt for s in corpus]
    assert again.seed == 11
    assert again.params == GrammarParams.default()
    assert set(again.splits) == {"train", "valid", "test"}
    assert len(again.split("train").samples) == 2


def test_unsplit_corpus_goes_to_single_file(tmp_path):
    write_corpus(tmp_path, corpus_of(["swap A B"]))
    assert discover_splits(tmp_path) == ["all"]
    assert read_token_file(tmp_path / "all.src") == [["swap", "A", "B"]]


def test_rewrite_is_byte_identical(tmp_path):
    corpus = generate_corpus(GrammarParams.default(), 50, seed=3)
    split_corpus(corpus, rng=random.Random(1))
    first = write_corpus(tmp_path / "a", corpus)
    second = write_corpus(tmp_path / "b", corpus)
    assert first["hashes"] == second["hashes"]


def test_verbatim_targets_survive_reload(tmp_path):
    # exception training sets carry targets that disagree with the evaluator
    corpus = corpus_of(["swap A B C"])
    write_corpus(tmp_path, corpus)
    (tmp_path / "all.tgt").write_text("X Y Z\n", encoding="utf-8")
    manifest = read_json(tmp_path / "manifest.json")
    manifest["hashes"]["all.tgt"] = file_sha256(tmp_path / "all.tgt")
    (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    again = read_corpus(tmp_path)
    assert again.samples[0].tgt == ("X", "Y", "Z")


def test_corrupted_file_fails_verification(tmp_path):
    write_corpus(tmp_path, corpus_of(["swap A B", "copy C"]))
    (tmp_path / "all.src").write_text("swap A B\ncopy D\n", encoding="utf-8")
    problems = verify_manifest(tmp_path)
    assert len(problems) == 1 and "hash mismatch" in problems[0]
    with pytest.raises(ManifestError):
        read_corpus(tmp_path)
    # without a manifest nothing is verified
    (tmp_path / "manifest.json").unlink()
    relaxed = read_corpus(tmp_path)
    assert relaxed.samples[1].src == ("copy", "D")


def test_missing_manifest_entries_reported(tmp_path):
    write_corpus(tmp_path, corpus_of(["swap A B"]))
    (tmp_path / "all.tgt").unlink()
    assert any("missing" in p for p in verify_manifest(tmp_path))


def test_a_manifest_of_the_wrong_shape_is_named(tmp_path):
    write_corpus(tmp_path, corpus_of(["swap A B"]))
    manifest = tmp_path / "manifest.json"
    manifest.write_text("[]\n", encoding="utf-8")
    assert verify_manifest(tmp_path) == [f"{manifest}: expected a JSON object, got list"]
    with pytest.raises(ManifestError) as ei:
        read_corpus(tmp_path)
    assert str(ei.value) == f"{manifest}: expected a JSON object, got list"
    # hashes that match and params of the wrong shape
    hashes = {name: file_sha256(tmp_path / name) for name in ("all.src", "all.tgt")}
    manifest.write_text(json.dumps({"hashes": hashes, "params": {"p_unary": 1}}),
                        encoding="utf-8")
    with pytest.raises(ValueError) as ei:
        read_corpus(tmp_path)
    assert str(ei.value) == f"{manifest}: missing p_binary, p_leaf, fn_weights, arg_len_dist"


def test_read_corpus_line_count_mismatch(tmp_path):
    write_corpus(tmp_path, corpus_of(["swap A B", "copy C"]))
    (tmp_path / "all.tgt").write_text("B A\n", encoding="utf-8")
    (tmp_path / "manifest.json").unlink()
    with pytest.raises(ManifestError, match="2 src lines vs 1 tgt lines"):
        read_corpus(tmp_path)


def test_read_corpus_names_a_line_that_does_not_parse(tmp_path):
    write_token_file(tmp_path / "test.src", [["swap", "A", "B"], ["copy", "a"]])
    write_token_file(tmp_path / "test.tgt", [["B", "A"], ["a"]])
    with pytest.raises(MalformedLine) as ei:
        read_corpus(tmp_path)
    assert str(ei.value) == "test.src:2: does not parse (unknown token 'a' at position 1)"


def test_a_token_file_that_is_not_utf8_names_its_line(tmp_path):
    (tmp_path / "test.src").write_bytes(b"swap A B\ncopy A\n\xe2\x80 B\n")
    write_token_file(tmp_path / "test.tgt", [["B", "A"], ["A"], ["B"]])
    with pytest.raises(MalformedLine) as ei:
        read_token_file(tmp_path / "test.src")
    assert str(ei.value) == "test.src:3: not UTF-8 (invalid continuation byte)"
    with pytest.raises(MalformedLine):
        read_corpus(tmp_path)
    assert validate_corpus_files(tmp_path) == [str(ei.value)]


def test_read_and_validate_a_line_nested_5000_deep(tmp_path):
    deep = ["reverse"] * 5000 + ["A", "B"]
    write_token_file(tmp_path / "all.src", [deep, ["swap", "C", "D"]])
    write_token_file(tmp_path / "all.tgt", [["A", "B"], ["D", "C"]])
    corpus = read_corpus(tmp_path)
    assert corpus.samples[0].src == tuple(deep)
    assert corpus.samples[0].stats.depth == 5000
    assert validate_corpus_files(tmp_path) == []


# --- sidecars -------------------------------------------------------------------


def test_pairs_round_trip(tmp_path):
    path = tmp_path / "pairs.json"
    write_pairs(path, list(DEFAULT_HELD_OUT_PAIRS))
    assert read_pairs(path) == list(DEFAULT_HELD_OUT_PAIRS)


def test_synonyms_round_trip_and_registry(tmp_path):
    synonyms = SynonymMap.default()
    write_synonyms(tmp_path / "synonyms.json", synonyms)
    again = read_synonyms(tmp_path / "synonyms.json")
    assert again.as_dict() == synonyms.as_dict()
    registry = registry_for_directory(tmp_path)
    assert "swap_syn" in registry.names()
    assert registry_for_directory(tmp_path / "nowhere") is DEFAULT_REGISTRY


def test_exceptions_round_trip(tmp_path):
    train = corpus_of(["reverse echo A B", "reverse echo C D", "copy E"])
    _, entries = exceptions_apply(train, {0.5: random.Random(2)})[0.5]
    assert entries
    write_exceptions(tmp_path / "exceptions.json", entries)
    again = read_exceptions(tmp_path / "exceptions.json")
    assert [(e.src, e.original_tgt, e.exception_tgt, e.pair) for e in again] == [
        (e.src, e.original_tgt, e.exception_tgt, e.pair) for e in entries
    ]


def test_predictions_round_trip_with_failures(tmp_path):
    path = tmp_path / "out.pred"
    write_predictions(path, [["A", "B"], None, ["C"]])
    assert path.read_text(encoding="utf-8") == "A B\n\nC\n"
    assert read_token_file(path) == [["A", "B"], [], ["C"]]


def test_checkpoint_predictions_ordered_by_ordinal(tmp_path):
    write_predictions(tmp_path / "2_late.pred", [["B"]])
    write_predictions(tmp_path / "10_final.pred", [["C"]])
    write_predictions(tmp_path / "1_early.pred", [["A"]])
    loaded = read_checkpoint_predictions(tmp_path)
    assert [label for label, _ in loaded] == ["early", "late", "final"]
    assert loaded[2][1] == [["C"]]


def test_checkpoint_predictions_reject_bad_names(tmp_path):
    write_predictions(tmp_path / "early.pred", [["A"]])
    with pytest.raises(ValueError):
        read_checkpoint_predictions(tmp_path)
    with pytest.raises(FileNotFoundError):
        read_checkpoint_predictions(tmp_path / "empty")


# --- reports --------------------------------------------------------------------


def report_fixture(metric="accuracy", strata=None, extras=None):
    return EvaluationReport(
        metric=metric,
        overall=0.5,
        count=4,
        strata=strata or {"length": {3: (1.0, 2), 5: (0.0, 2)}},
        errors={"Timeout": 1},
        metadata={"adapter": "oracle"},
        extras=extras or {},
    )


def test_report_json_has_schema_version(tmp_path):
    extras = {"incorrect": 7, "strict_prefix_frac": None}
    write_report(tmp_path / "report.json", report_fixture("eos", extras=extras))
    payload = read_json(tmp_path / "report.json")
    assert payload["schema_version"] == 1
    assert payload["metric"] == "eos"
    assert payload["overall"] == 0.5
    assert payload["strata"]["length"]["3"] == {"mean": 1.0, "count": 2}
    assert payload["extras"] == extras


def strata_csv_lines(tmp_path, strata):
    write_strata_csv(tmp_path / "strata.csv", report_fixture(strata=strata))
    data = (tmp_path / "strata.csv").read_bytes()
    return data.decode("utf-8").split("\r\n")


def test_strata_csv_rows(tmp_path):
    assert strata_csv_lines(tmp_path, {"length": {3: (1.0, 2), 5: (0.0, 2)}}) == [
        "family,label,mean,count", "length,3,1.000000000,2", "length,5,0.000000000,2", ""]


def test_profile_csv_rows(tmp_path):
    # an overgeneralisation profile: three families, rows in checkpoint order
    strata = {"overgeneralisation": {"late": (0.1, 10), "early": (0.8, 10)},
              "memorisation": {"late": (0.9, 10), "early": (0.1, 10)},
              "other": {"late": (0.0, 10), "early": (0.1, 10)}}
    assert strata_csv_lines(tmp_path, strata) == [
        "family,label,mean,count",
        "memorisation,late,0.900000000,10", "memorisation,early,0.100000000,10",
        "other,late,0.000000000,10", "other,early,0.100000000,10",
        "overgeneralisation,late,0.100000000,10", "overgeneralisation,early,0.800000000,10", ""]


def test_grid_and_kv_csv(tmp_path):
    # a length generalisation grid: one family per function, lengths in numeric order
    strata = {"echo": {5: (1.0, 20), 12: (0.25, 20)}, "copy": {2: (1.0, 20)}}
    assert strata_csv_lines(tmp_path, strata) == [
        "family,label,mean,count", "copy,2,1.000000000,20",
        "echo,5,1.000000000,20", "echo,12,0.250000000,20", ""]
    # the eos figures that once went to a key-value table now ride in report.json extras
    extras = {"strict_prefix_frac": None, "incorrect": 7}
    write_report(tmp_path / "report.json", report_fixture("eos", extras=extras))
    assert read_json(tmp_path / "report.json")["extras"] == extras


def test_params_round_trip(tmp_path):
    write_params(tmp_path / "params.json", GrammarParams.default())
    assert read_params(tmp_path / "params.json") == GrammarParams.default()


def exception_row(**change):
    return {"sample_id": 0, "src": "copy A", "original_tgt": "A", "exception_tgt": "B",
            "pair": ["copy", "copy"], **change}


@pytest.mark.parametrize("reader, document, problem", [
    (read_params, {**GrammarParams.default().to_dict(), "fn_weights": [1.0]},
     "fn_weights must be a JSON object"),
    (read_params, {**GrammarParams.default().to_dict(), "p_leaf": None},
     "float() argument must be a string or a real number, not 'NoneType'"),
    (read_params, {**GrammarParams.default().to_dict(), "p_leaf": 0.9},
     "p_unary + p_binary + p_leaf must equal 1"),
    (read_exceptions, [exception_row(pair=["copy"])], "row 0: 'pair' must be two function names"),
    (read_exceptions, [exception_row(sample_id="0")], "row 0: 'sample_id' must be int"),
    (read_exceptions, [exception_row(sample_id=True)], "row 0: 'sample_id' must be int"),
    (read_exceptions, ["copy A"], "row 0: expected an object"),
    (read_pairs, [{"outer": ["swap"], "inner": "copy"}], "row 0: 'outer' must be str"),
    (read_synonyms, {"swap": 1}, "expected a JSON object of function names"),
], ids=["params-weights-not-an-object", "params-null", "params-sum", "exceptions-pair-short",
        "exceptions-id-a-string", "exceptions-id-a-bool", "exceptions-row-a-string",
        "pairs-name-a-list", "synonyms-name-a-number"])
def test_a_sidecar_of_the_wrong_shape_is_named(tmp_path, reader, document, problem):
    path = tmp_path / "sidecar.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(ValueError) as ei:
        reader(path)
    assert str(ei.value) == f"{path}: {problem}"


# --- validation -----------------------------------------------------------------


def test_validator_passes_pristine_corpus(tmp_path):
    corpus = generate_corpus(GrammarParams.default(), 200, seed=5)
    split_corpus(corpus, rng=random.Random(0))
    write_corpus(tmp_path, corpus)
    assert validate_corpus_files(tmp_path) == []


def test_validator_flags_corrupted_target_line(tmp_path):
    corpus = corpus_of(["swap A B", "copy C"])
    write_corpus(tmp_path, corpus)
    (tmp_path / "all.tgt").write_text("B A\nQ\n", encoding="utf-8")
    problems = validate_corpus_files(tmp_path)
    assert any("all.tgt:2" in p and "does not match" in p for p in problems)


def test_validator_flags_duplicate_sources_across_splits(tmp_path):
    corpus = corpus_of(
        ["swap A B", "swap A B"], splits={"train": (0,), "test": (1,)}
    )
    write_corpus(tmp_path, corpus)
    problems = validate_corpus_files(tmp_path)
    assert any("test.src:1" in p and "duplicate source" in p for p in problems)


def test_validator_flags_repeated_literal_within_sample(tmp_path):
    write_token_file(tmp_path / "all.src", [["append", "A", ",", "A"]])
    write_token_file(tmp_path / "all.tgt", [["A", "A"]])
    problems = validate_corpus_files(tmp_path)
    assert any("repeated literal" in p for p in problems)


# the same literal inside two different arguments, or twice in one argument
@pytest.mark.parametrize("text", ["append A B , C A", "prepend C A , A B", "swap A B C A"])
def test_validator_flags_literal_repeated_across_arguments(tmp_path, text):
    write_corpus(tmp_path, corpus_of(["copy D E", text]))
    problems = validate_corpus_files(tmp_path)
    assert problems == ["all.src:2: repeated literal 'A' within sample"]


@pytest.mark.parametrize(
    "texts,problems",
    [
        (["swap A B", "swap A B"], ["all.src:2: duplicate source (also at all.src:1)"]),
        (["append A B , C A"], ["all.src:1: repeated literal 'A' within sample"]),
        (["swap A B", "copy A B", "copy C D"],
         ["all.src:2: argument 'A B' reused (also at all.src:1)"]),
    ],
    ids=["duplicate-source", "repeated-literal", "reused-argument"],
)
def test_file_validator_reports_the_exact_words(tmp_path, texts, problems):
    write_corpus(tmp_path, corpus_of(texts))
    assert validate_corpus_files(tmp_path) == problems


def test_validator_flags_multi_symbol_argument_reuse(tmp_path):
    corpus = corpus_of(["swap A B", "copy A B"])
    write_corpus(tmp_path, corpus)
    problems = validate_corpus_files(tmp_path)
    assert any("argument 'A B' reused" in p for p in problems)


def test_validator_flags_unparseable_source(tmp_path):
    write_token_file(tmp_path / "all.src", [["swap"]])
    write_token_file(tmp_path / "all.tgt", [["A"]])
    problems = validate_corpus_files(tmp_path)
    assert any("all.src:1" in p and "does not parse" in p for p in problems)


def test_validator_checks_a_source_nested_3000_deep(tmp_path):
    deep = ["copy"] * 3000 + ["A"]
    write_token_file(tmp_path / "all.src", [deep, ["swap", "B", "C"]])
    write_token_file(tmp_path / "all.tgt", [["A"], ["C", "B"]])
    assert validate_corpus_files(tmp_path) == []
    write_token_file(tmp_path / "all.tgt", [["B"], ["C", "B"]])
    assert validate_corpus_files(tmp_path) == ["all.tgt:1: target does not match evaluation"]


def test_validator_accepts_excused_exception_targets(tmp_path):
    train = corpus_of(["reverse echo A B", "reverse echo C D", "copy E"])
    rewritten, entries = exceptions_apply(train, {0.5: random.Random(2)})[0.5]
    write_corpus(tmp_path, rewritten)
    assert any("does not match" in p for p in validate_corpus_files(tmp_path))
    assert validate_corpus_files(tmp_path, exceptions=entries) == []


def test_validator_uses_synonym_sidecar(tmp_path):
    write_token_file(tmp_path / "all.src", [["swap_syn", "A", "B"]])
    write_token_file(tmp_path / "all.tgt", [["B", "A"]])
    assert any("does not parse" in p for p in validate_corpus_files(tmp_path))
    write_synonyms(tmp_path / "synonyms.json", SynonymMap.default())
    assert validate_corpus_files(tmp_path) == []
