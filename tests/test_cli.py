"""Command-line surface: every subcommand exercised in-process on small data.

Each test drives cli.main with real files under tmp_path; expected counts
come from the documented defaults (85/5/10 split flooring, half-of-k
rewrites, round(pct * occurrences) exception counts).
"""

import contextlib
import csv
import io
import json
import random
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from pcfgset import cli, corpus_io, generation
from pcfgset.generation import Corpus, GrammarParams, Sample
from pcfgset.suite import (
    DEFAULT_HELD_OUT_PAIRS, DEFAULT_SYNONYMS, ExceptionEntry, contains_pair, exceptions_apply,
)


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture()
def base_dir(tmp_path):
    out = tmp_path / "base"
    run_cli("generate", "--seed", 3, "--size", 400, "--out", out)
    return out


# --- generate -------------------------------------------------------------------


def test_generate_split_proportions(tmp_path, capsys):
    out = tmp_path / "c"
    assert run_cli("generate", "--seed", 1, "--size", 120, "--out", out) == 0
    manifest = corpus_io.read_json(out / "manifest.json")
    assert manifest["sizes"] == {"train": 102, "valid": 6, "test": 12}
    assert manifest["seed"] == 1
    assert "train: 102" in capsys.readouterr().out


def test_generate_same_seed_is_byte_identical(tmp_path):
    run_cli("generate", "--seed", 9, "--size", 60, "--out", tmp_path / "a")
    run_cli("generate", "--seed", 9, "--size", 60, "--out", tmp_path / "b")
    a = corpus_io.read_json(tmp_path / "a" / "manifest.json")
    b = corpus_io.read_json(tmp_path / "b" / "manifest.json")
    assert a["hashes"] == b["hashes"]
    run_cli("generate", "--seed", 10, "--size", 60, "--out", tmp_path / "c")
    c = corpus_io.read_json(tmp_path / "c" / "manifest.json")
    assert c["hashes"] != a["hashes"]


def test_generate_rejects_draws_too_long_to_evaluate(tmp_path):
    # nearly every draw is a deep repeat chain, most of them over the output limit
    weights = dict.fromkeys(("copy", "reverse", "shift", "echo", "swap",
                             "prepend", "remove_first", "remove_second"), 0.01)
    params = {"p_unary": 0.97, "p_binary": 0.01, "p_leaf": 0.02,
              "fn_weights": {**weights, "repeat": 1.0, "append": 1.0},
              "arg_len_dist": {"5": 1.0}}
    (tmp_path / "p.json").write_text(json.dumps(params), encoding="utf-8")
    out = tmp_path / "c"
    assert run_cli("generate", "--seed", 0, "--size", 50, "--out", out,
                   "--params", tmp_path / "p.json") == 0
    assert run_cli("validate", "--data", out) == 0


def test_generate_exhausted_ends_in_one_line(tmp_path, monkeypatch):
    # every draw is a chain of 25 repeats, too long to evaluate
    params = {"p_unary": 1.0, "p_binary": 0.0, "p_leaf": 0.0,
              "fn_weights": {"repeat": 1.0, "append": 1.0}, "arg_len_dist": {"1": 1.0}}
    (tmp_path / "p.json").write_text(json.dumps(params), encoding="utf-8")
    monkeypatch.setattr(generation, "MAX_REJECTS", 20)
    with pytest.raises(SystemExit) as ei:
        run_cli("generate", "--seed", 0, "--size", 5, "--out", tmp_path / "c",
                "--params", tmp_path / "p.json")
    assert ei.value.code == "generate failed: 20 consecutive rejections at 0 samples"


def test_generate_requires_seed(tmp_path, monkeypatch):
    monkeypatch.delenv("PCFGSET_SEED", raising=False)
    with pytest.raises(SystemExit):
        run_cli("generate", "--size", 10, "--out", tmp_path / "x")


def test_generate_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("PCFGSET_SEED", "9")
    run_cli("generate", "--size", 60, "--out", tmp_path / "env")
    via_env = corpus_io.read_json(tmp_path / "env" / "manifest.json")
    run_cli("generate", "--seed", 9, "--size", 60, "--out", tmp_path / "flag")
    via_flag = corpus_io.read_json(tmp_path / "flag" / "manifest.json")
    assert via_env["hashes"] == via_flag["hashes"]
    monkeypatch.setenv("PCFGSET_SEED", "not-a-number")
    with pytest.raises(SystemExit):
        run_cli("generate", "--size", 10, "--out", tmp_path / "bad")


def test_generate_honours_params_file(tmp_path):
    params = GrammarParams(
        p_unary=0.6,
        p_binary=0.1,
        p_leaf=0.3,
        fn_weights={n: 1.0 for n in
                    ("copy", "reverse", "shift", "echo", "swap", "repeat",
                     "append", "prepend", "remove_first", "remove_second")},
        arg_len_dist={k: 0.2 for k in range(1, 6)},
    )
    corpus_io.write_params(tmp_path / "params.json", params)
    out = tmp_path / "c"
    run_cli("generate", "--seed", 2, "--size", 40, "--out", out,
            "--params", tmp_path / "params.json")
    manifest = corpus_io.read_json(out / "manifest.json")
    assert manifest["params"]["p_unary"] == 0.6


# --- validate -------------------------------------------------------------------


def test_validate_passes_then_fails_after_corruption(base_dir, capsys):
    assert run_cli("validate", "--data", base_dir) == 0
    assert capsys.readouterr().out == "PASS: 400 samples across 3 splits\n"
    tgt = base_dir / "train.tgt"
    lines = tgt.read_text(encoding="utf-8").splitlines()
    lines[4] = "Z9 Z9"
    tgt.write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = corpus_io.read_json(base_dir / "manifest.json")
    manifest["hashes"]["train.tgt"] = corpus_io.file_sha256(tgt)
    corpus_io.write_json(base_dir / "manifest.json", manifest)
    assert run_cli("validate", "--data", base_dir) == 1
    out = capsys.readouterr().out
    assert "train.tgt:5" in out and "FAIL" in out


def test_validate_fails_a_literal_repeated_across_arguments(tmp_path, capsys):
    texts = ["swap D E", "append A B , C A"]
    samples = [Sample.from_src(t.split()) for t in texts]
    corpus_io.write_corpus(tmp_path, Corpus(samples))
    assert run_cli("validate", "--data", tmp_path) == 1
    out = capsys.readouterr().out
    assert "all.src:2: repeated literal 'A' within sample" in out
    assert "FAIL: 1 problems" in out


def test_degenerate_naturalise_filter_drops_repeated_literals():
    texts = ["swap D E", "append A B , C A", "copy D E", "swap D E", "reverse F G"]
    corpus = Corpus([Sample.from_src(t.split()) for t in texts])
    kept = cli._drop_constraint_violations(corpus)
    assert [s.src_text() for s in kept] == ["swap D E", "reverse F G"]


# --- testbuild ------------------------------------------------------------------


def test_testbuild_systematicity(base_dir, tmp_path, capsys):
    out = tmp_path / "sys"
    assert run_cli("testbuild", "--test", "systematicity", "--base", base_dir,
                   "--out", out, "--seed", 5, "--test-size", 10) == 0
    built = corpus_io.read_corpus(out)
    pairs = corpus_io.read_pairs(out / "pairs.json")
    assert pairs == list(DEFAULT_HELD_OUT_PAIRS)
    train = built.split("train")
    test = built.split("test")
    assert len(test.samples) == 10
    assert not any(contains_pair(s.src, pairs) for s in train)
    assert all(contains_pair(s.src, pairs) for s in test)
    assert "held-out pairs" in capsys.readouterr().out


def test_testbuild_productivity(base_dir, tmp_path, capsys):
    out = tmp_path / "prod"
    assert run_cli("testbuild", "--test", "productivity", "--base", base_dir,
                   "--out", out, "--seed", 5) == 0
    built = corpus_io.read_corpus(out)
    train_fns = [s.stats.num_functions for s in built.split("train")]
    test_fns = [s.stats.num_functions for s in built.split("test")]
    assert max(train_fns) <= 8 and min(test_fns) >= 9
    assert len(train_fns) + len(test_fns) == 400
    assert "max 8" in capsys.readouterr().out


def test_testbuild_substitutivity_ed(base_dir, tmp_path, capsys):
    out = tmp_path / "ed"
    assert run_cli("testbuild", "--test", "substitutivity-ed", "--base", base_dir,
                   "--out", out, "--seed", 5) == 0
    printed = capsys.readouterr().out
    base = corpus_io.read_corpus(base_dir)
    built = corpus_io.read_corpus(out)
    synonyms = corpus_io.read_synonyms(out / "synonyms.json")
    for fn, syn in synonyms.items():
        total = sum(s.src.count(fn) for s in base.split("train"))
        rewritten = sum(s.src.count(syn) for s in built.split("train"))
        assert rewritten == total // 2
        assert f"{fn}: rewrote {total // 2} of {total}" in printed
    # targets unchanged, and the files still validate with the sidecar
    assert [s.tgt for s in built.split("train")] == [
        s.tgt for s in base.split("train")
    ]
    assert run_cli("validate", "--data", out) == 0


def test_testbuild_substitutivity_ed_keeps_each_base_target(base_dir, tmp_path):
    # targets the evaluator disagrees with; the manifest goes, since its hashes would refuse them
    (base_dir / "manifest.json").unlink()
    tgt = base_dir / "train.tgt"
    tgt.write_text("".join(f"Z {line}" for line in tgt.read_text().splitlines(True)))
    out = tmp_path / "ed"
    assert run_cli("testbuild", "--test", "substitutivity-ed", "--base", base_dir,
                   "--out", out, "--seed", 5) == 0
    base_src = (base_dir / "train.src").read_text().splitlines()
    built_src = (out / "train.src").read_text().splitlines()
    assert sum(a != b for a, b in zip(base_src, built_src)) > 0
    assert (out / "train.tgt").read_text() == tgt.read_text()


def _tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_testbuild_productivity_needs_no_seed(base_dir, tmp_path, monkeypatch):
    monkeypatch.delenv("PCFGSET_SEED", raising=False)
    common = ["testbuild", "--base", base_dir, "--out"]
    assert run_cli(*common, tmp_path / "unseeded", "--test", "productivity") == 0
    assert run_cli(*common, tmp_path / "seeded", "--test", "productivity", "--seed", 1) == 0
    assert _tree(tmp_path / "unseeded") == _tree(tmp_path / "seeded")
    for test in ("systematicity", "substitutivity-ed", "substitutivity-prim", "overgen"):
        with pytest.raises(SystemExit) as ei:
            run_cli(*common, tmp_path / test, "--test", test)
        assert ei.value.code == "a seed is required: pass --seed or set PCFGSET_SEED"
        assert not (tmp_path / test).exists()


def test_testbuild_substitutivity_prim(base_dir, tmp_path):
    out = tmp_path / "prim"
    assert run_cli("testbuild", "--test", "substitutivity-prim", "--base", base_dir,
                   "--out", out, "--seed", 5, "--fraction", "0.01") == 0
    base = corpus_io.read_corpus(base_dir)
    built = corpus_io.read_corpus(out)
    synonyms = corpus_io.read_synonyms(out / "synonyms.json")
    train = built.split("train")
    per_syn = round(0.01 * len(base.split("train").samples))
    for syn in synonyms.values():
        added = [s for s in train if syn in s.src]
        assert len(added) == per_syn
        assert all(s.stats.num_functions == 1 for s in added)
    assert run_cli("validate", "--data", out) == 0


def test_testbuild_overgen_counts_and_validation(base_dir, tmp_path, capsys):
    out = tmp_path / "og"
    assert run_cli("testbuild", "--test", "overgen", "--base", base_dir,
                   "--out", out, "--seed", 5, "--exception-pct", "0.01") == 0
    variant = out / "pct-0.01"
    entries = corpus_io.read_exceptions(variant / "exceptions.json")
    base_train = corpus_io.read_corpus(base_dir).split("train")
    by_pair = {}
    for entry in entries:
        by_pair.setdefault(entry.pair, []).append(entry)
    for pair, got in by_pair.items():
        occ = min(
            sum(s.src.count(fn) for s in base_train) for fn in pair
        )
        assert len(got) == round(0.01 * occ)
    assert run_cli("validate", "--data", variant) == 1
    capsys.readouterr()
    assert run_cli("validate", "--data", variant,
                   "--exceptions", variant / "exceptions.json") == 0


def test_testbuild_overgen_reads_only_train_but_checks_every_hash(base_dir, tmp_path):
    (base_dir / "test.src").write_text("copy a\n", encoding="utf-8")
    argv = ["testbuild", "--test", "overgen", "--base", base_dir, "--seed", 5,
            "--exception-pct", "0.01", "--out"]
    with pytest.raises(SystemExit) as ei:
        run_cli(*argv, tmp_path / "checked")
    assert "test.src: hash mismatch" in ei.value.code
    (base_dir / "manifest.json").unlink()
    assert run_cli(*argv, tmp_path / "unchecked") == 0


def test_every_testbuild_and_naturalise_output_passes_validate(tmp_path, capsys):
    base = tmp_path / "base"
    run_cli("generate", "--seed", 1, "--size", 3000, "--out", base)
    # substitutivity-prim and overgen at these values synthesise samples
    for test, extra in [("systematicity", ["--test-size", 300]), ("productivity", []),
                        ("substitutivity-ed", []), ("substitutivity-prim", ["--fraction", 0.5]),
                        ("overgen", ["--exception-pct", 0.5]), ("overgen", [])]:
        out = tmp_path / f"{test}{len(extra)}"
        assert run_cli("testbuild", "--test", test, "--base", base, "--out", out,
                       "--seed", 1, *extra) == 0
        for data in sorted(out.glob("pct-*")) or [out]:
            sidecar = ["--exceptions", data / "exceptions.json"] if test == "overgen" else []
            assert run_cli("validate", "--data", data, *sidecar) == 0, capsys.readouterr().out
    nat = tmp_path / "nat"
    assert run_cli("naturalise", "--seed", 1, "--sample-size", 2000, "--size", 1000,
                   "--out", nat) == 0
    assert run_cli("validate", "--data", nat) == 0, capsys.readouterr().out


@given(seed=st.integers(min_value=0, max_value=2**16), size=st.integers(min_value=300, max_value=3000),
       test_size=st.integers(min_value=1, max_value=300), threshold=st.integers(min_value=1, max_value=12),
       fraction=st.floats(min_value=0.01, max_value=0.5), pct=st.floats(min_value=0.1, max_value=2.0),
       synonyms=st.booleans())
@example(seed=1, size=600, test_size=5, threshold=8, fraction=0.05, pct=0.5, synonyms=True)
@settings(max_examples=4, deadline=None)
def test_every_testbuild_output_passes_validate(seed, size, test_size, threshold, fraction, pct,
                                                synonyms):
    # substitutivity-prim and overgen synthesise samples at these values; a
    # test the base cannot fill ends in one line instead.  With ``synonyms``
    # the base is a substitutivity-ed output, whose tokens use its synonyms.json
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        assert _outcome(["generate", "--seed", seed, "--size", size, "--out", base])[0] == 0
        if synonyms:
            assert _outcome(["testbuild", "--test", "substitutivity-ed", "--base", base,
                             "--out", tmp / "ed", "--seed", seed])[0] == 0
            base = tmp / "ed"
        for test, extra in [("systematicity", ["--test-size", test_size]),
                            ("productivity", ["--threshold", threshold]),
                            ("substitutivity-ed", []), ("substitutivity-prim", ["--fraction", fraction]),
                            ("overgen", ["--exception-pct", pct])]:
            out = tmp / test
            code, _ = _outcome(["testbuild", "--test", test, "--base", base, "--out", out,
                                "--seed", seed, *extra])
            if code != 0:
                assert _one_line(code), code
                continue
            for data in sorted(out.glob("pct-*")) or [out]:
                sidecar = ["--exceptions", data / "exceptions.json"] if test == "overgen" else []
                code, printed = _outcome(["validate", "--data", data, *sidecar])
                assert code == 0, (test, printed)


@given(seed=st.integers(min_value=0, max_value=2**16), size=st.integers(min_value=1, max_value=300),
       sample_size=st.integers(min_value=60, max_value=600))
@settings(max_examples=5, deadline=None)
def test_every_naturalise_output_passes_validate(seed, size, sample_size):
    # a pool too small to match the reference ends in one line instead
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "nat"
        code, _ = _outcome(["naturalise", "--seed", seed, "--size", size,
                            "--sample-size", sample_size, "--out", out])
        if code != 0:
            assert _one_line(code), code
            return
        code, printed = _outcome(["validate", "--data", out])
        assert code == 0, printed
        assert printed.splitlines()[-1] == f"PASS: {size} samples across 3 splits"


@pytest.fixture(scope="module")
def synonym_base(tmp_path_factory):
    """A substitutivity-ed output of a 600-sample base: its train side
    uses the default synonyms."""
    root = tmp_path_factory.mktemp("synonym-base")
    with contextlib.redirect_stdout(io.StringIO()):
        run_cli("generate", "--seed", 1, "--size", 600, "--out", root / "base")
        run_cli("testbuild", "--test", "substitutivity-ed", "--base", root / "base",
                "--out", root / "ed", "--seed", 1)
    return root / "ed"


def test_every_test_built_on_a_synonym_base_keeps_its_synonyms(synonym_base, tmp_path, capsys):
    alt = tmp_path / "alt.json"
    corpus_io.write_json(alt, {"copy": "copy_alt"})
    # the default overgen grid reaches samples that hold a synonym
    for test, extra in [("systematicity", ["--test-size", 5]), ("productivity", []),
                        ("substitutivity-ed", ["--synonyms", alt]),
                        ("substitutivity-prim", ["--fraction", 0.05]),
                        ("overgen", ["--exception-pct", 0.0001]), ("overgen", [])]:
        out = tmp_path / f"{test}{len(extra)}"
        assert run_cli("testbuild", "--test", test, "--base", synonym_base, "--out", out,
                       "--seed", 1, *extra) == 0
        # the new map joins the base's
        want = {**DEFAULT_SYNONYMS, "copy": "copy_alt"} if alt in extra else DEFAULT_SYNONYMS
        for data in sorted(out.glob("pct-*")) or [out]:
            assert corpus_io.read_synonyms(data / "synonyms.json") == want
            sidecar = ["--exceptions", data / "exceptions.json"] if test == "overgen" else []
            assert run_cli("validate", "--data", data, *sidecar) == 0, capsys.readouterr().out
    assert "copy_alt" in (tmp_path / "substitutivity-ed2" / "train.src").read_text()


@pytest.mark.parametrize("test, synonyms, message", [
    ("substitutivity-ed", {"swap": "swap2"},
     "substitutivity-ed: the base's synonyms.json gives swap the synonym 'swap_syn', not 'swap2'"),
    ("substitutivity-prim", {"copy": "swap_syn"},
     "testbuild failed: synonym names must be distinct"),
], ids=["another-synonym-for-a-function", "a-synonym-name-taken"])
def test_a_map_at_odds_with_the_base_s_ends_in_one_line(synonym_base, tmp_path, capsys,
                                                          test, synonyms, message):
    corpus_io.write_json(tmp_path / "syn.json", synonyms)
    with pytest.raises(SystemExit) as ei:
        run_cli("testbuild", "--test", test, "--base", synonym_base, "--out", tmp_path / "tb",
                "--seed", 1, "--synonyms", tmp_path / "syn.json")
    assert ei.value.code == message
    assert capsys.readouterr().err == ""
    assert not (tmp_path / "tb").exists()


def test_testbuild_substitutivity_needs_splits(tmp_path):
    from pcfgset.generation import Corpus, Sample

    unsplit = Corpus([Sample.from_src("swap A B".split())])
    corpus_io.write_corpus(tmp_path / "flat", unsplit)
    with pytest.raises(SystemExit):
        run_cli("testbuild", "--test", "substitutivity-ed", "--base", tmp_path / "flat",
                "--out", tmp_path / "x", "--seed", 1)


# --- eval -----------------------------------------------------------------------


def test_eval_accuracy_oracle(base_dir, tmp_path, capsys):
    out = tmp_path / "acc"
    assert run_cli("eval", "accuracy", "--data", base_dir, "--out", out,
                   "--save-preds") == 0
    report = corpus_io.read_json(out / "report.json")
    assert report["overall"] == 1.0
    assert report["count"] == 40
    assert (out / "strata.csv").exists()
    preds = corpus_io.read_token_file(out / "predictions.pred")
    test = corpus_io.read_corpus(base_dir).split("test")
    assert preds == [list(s.tgt) for s in test]
    assert "accuracy: 1.000000" in capsys.readouterr().out


def test_eval_accuracy_file_adapter(base_dir, tmp_path):
    test = corpus_io.read_corpus(base_dir).split("test")
    preds_path = tmp_path / "model.pred"
    corpus_io.write_predictions(preds_path, [s.tgt for s in test])
    out = tmp_path / "facc"
    run_cli("eval", "accuracy", "--data", base_dir, "--out", out,
            "--adapter", f"file:{preds_path}")
    assert corpus_io.read_json(out / "report.json")["overall"] == 1.0


def test_eval_accuracy_faulty_adapter(base_dir, tmp_path):
    out = tmp_path / "faulty"
    run_cli("eval", "accuracy", "--data", base_dir, "--out", out,
            "--adapter", "faulty:0.5", "--seed", 0)
    overall = corpus_io.read_json(out / "report.json")["overall"]
    assert 0.0 < overall < 1.0


def test_eval_consistency_on_substitutivity_build(base_dir, tmp_path):
    built = tmp_path / "ed"
    run_cli("testbuild", "--test", "substitutivity-ed", "--base", base_dir,
            "--out", built, "--seed", 5)
    out = tmp_path / "cons"
    assert run_cli("eval", "consistency", "--data", built, "--out", out) == 0
    report = corpus_io.read_json(out / "report.json")
    assert report["overall"] == 1.0
    assert report["extras"]["consistent_correct"] == 1.0


def test_eval_localism_oracle(base_dir, tmp_path):
    out = tmp_path / "loc"
    assert run_cli("eval", "localism", "--data", base_dir, "--out", out) == 0
    report = corpus_io.read_json(out / "report.json")
    assert report["overall"] == 1.0
    assert report["extras"]["mean_unroll_steps"] >= 1.0


def report_of(out):
    """The report of an eval run, checking it wrote report.json and strata.csv alone."""
    assert sorted(path.name for path in out.iterdir()) == ["report.json", "strata.csv"]
    return corpus_io.read_json(out / "report.json")


def test_eval_eos_with_correct_predictions(base_dir, tmp_path):
    test = corpus_io.read_corpus(base_dir).split("test")
    preds_path = tmp_path / "model.pred"
    corpus_io.write_predictions(preds_path, [s.tgt for s in test])
    out = tmp_path / "eos"
    assert run_cli("eval", "eos", "--data", base_dir, "--out", out,
                   "--preds", preds_path) == 0
    report = report_of(out)
    assert (report["metric"], report["overall"], report["count"]) == ("eos", 1.0, len(test))
    assert report["metadata"]["adapter"] == f"file:{preds_path}"
    assert report["extras"]["incorrect"] == 0
    assert report["extras"]["strict_prefix_frac"] is None


def test_eval_eos_without_preds_queries_adapter(base_dir, tmp_path):
    out = tmp_path / "eos_adapter"
    assert run_cli("eval", "eos", "--data", base_dir, "--out", out) == 0
    report = report_of(out)
    assert report["extras"]["incorrect"] == 0
    # a lossy adapter must show up as incorrect samples
    out2 = tmp_path / "eos_faulty"
    run_cli("eval", "eos", "--adapter", "faulty:0.5", "--seed", 9,
            "--data", base_dir, "--out", out2)
    report2 = report_of(out2)
    assert 0 < report2["extras"]["incorrect"] <= report2["count"]
    wrong = report2["extras"]["incorrect"] / report2["count"]
    assert report2["overall"] == pytest.approx(1 - wrong)


def test_eval_eos_counts_truncations(base_dir, tmp_path):
    test = corpus_io.read_corpus(base_dir).split("test")
    preds = [list(s.tgt) for s in test]
    preds[0] = preds[0][:-1] if len(preds[0]) > 1 else ["Q9", "Q9"]
    preds_path = tmp_path / "model.pred"
    corpus_io.write_predictions(preds_path, preds)
    out = tmp_path / "eos2"
    run_cli("eval", "eos", "--data", base_dir, "--out", out, "--preds", preds_path)
    report = report_of(out)
    assert report["extras"]["incorrect"] == 1


def test_eval_overgen_profile(tmp_path):
    og = tmp_path / "og"
    run_cli("generate", "--seed", 3, "--size", 400, "--out", tmp_path / "base")
    run_cli("testbuild", "--test", "overgen", "--base", tmp_path / "base", "--out", og,
            "--seed", 5, "--exception-pct", "0.02")
    variant = og / "pct-0.02"
    entries = corpus_io.read_exceptions(variant / "exceptions.json")
    assert entries
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    corpus_io.write_predictions(
        ckpts / "1_early.pred", [e.original_tgt for e in entries]
    )
    corpus_io.write_predictions(
        ckpts / "2_late.pred", [e.exception_tgt for e in entries]
    )
    out = tmp_path / "profile"
    assert run_cli("eval", "overgen-profile", "--exceptions",
                   variant / "exceptions.json", "--preds", ckpts,
                   "--out", out) == 0
    report = report_of(out)
    assert report["extras"]["peak_checkpoint"] == "early"
    assert report["overall"] == 1.0
    assert report["count"] == len(entries)
    assert report["strata"]["overgeneralisation"]["early"]["mean"] == 1.0
    # entries whose two targets coincide score as overgeneralisation even
    # when the exception target is predicted
    coinciding = sum(1 for e in entries if e.original_tgt == e.exception_tgt)
    late = {family: rows["late"]["mean"] for family, rows in report["strata"].items()}
    assert late["memorisation"] == (len(entries) - coinciding) / len(entries)
    assert late["overgeneralisation"] == coinciding / len(entries)


def test_eval_length_gen_oracle(tmp_path):
    out = tmp_path / "lg"
    assert run_cli("eval", "length-gen", "--out", out, "--seed", 4,
                   "--functions", "echo,remove_first", "--lengths", "1-3",
                   "--per-length", 3) == 0
    report = report_of(out)
    cells = {(fn, int(length)): row["mean"]
             for fn, rows in report["strata"].items() for length, row in rows.items()}
    assert len(cells) == 6
    assert all(acc == 1.0 for acc in cells.values())
    assert (report["overall"], report["count"]) == (1.0, 18)


def test_eval_length_gen_fills_the_longest_allowed_argument(tmp_path):
    # 515 symbols plus a binary function's other argument of up to 5 never
    # exceed the 520 literals
    out = tmp_path / "lg"
    assert run_cli("eval", "length-gen", "--out", out, "--seed", 4,
                   "--functions", "append,reverse", "--lengths", "515",
                   "--per-length", 20) == 0
    assert (report_of(out)["overall"], report_of(out)["count"]) == (1.0, 40)


def test_strata_csv_keeps_checkpoint_and_length_order(tmp_path):
    entry = ExceptionEntry(0, ("copy", "A"), ("A",), ("B",), ("copy", "copy"))
    corpus_io.write_exceptions(tmp_path / "exceptions.json", [entry])
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    # ten checkpoints whose labels sort the other way round: 1_j, 2_i, ..., 10_a
    labels = "jihgfedcba"
    for ordinal, label in enumerate(labels, start=1):
        corpus_io.write_predictions(ckpts / f"{ordinal}_{label}.pred", [("A",)])
    assert run_cli("eval", "overgen-profile", "--exceptions", tmp_path / "exceptions.json",
                   "--preds", ckpts, "--out", tmp_path / "profile") == 0
    assert run_cli("eval", "length-gen", "--seed", 1, "--functions", "copy",
                   "--lengths", "1-12", "--per-length", 1, "--out", tmp_path / "lg") == 0

    def rows(out):
        with open(out / "strata.csv", newline="", encoding="utf-8") as handle:
            return [(row["family"], row["label"]) for row in csv.DictReader(handle)]

    assert rows(tmp_path / "profile") == [
        (family, label) for family in ("memorisation", "other", "overgeneralisation")
        for label in labels
    ]
    assert rows(tmp_path / "lg") == [("copy", str(length)) for length in range(1, 13)]


def test_eval_rejects_missing_split(base_dir, tmp_path):
    with pytest.raises(SystemExit):
        run_cli("eval", "accuracy", "--data", base_dir,
                "--out", tmp_path / "x", "--split", "nope")


def test_eval_verifies_manifest_first(base_dir, tmp_path):
    (base_dir / "test.src").write_text("swap A B\n", encoding="utf-8")
    with pytest.raises(SystemExit):
        run_cli("eval", "accuracy", "--data", base_dir, "--out", tmp_path / "x")


# --- oracle serving -------------------------------------------------------------


def test_oracle_serves_lines():
    proc = subprocess.run(
        [sys.executable, "-m", "pcfgset", "oracle"],
        input="swap A B\n\nnot a program\nrepeat C\n",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "B A\n\n\nC C\n"


def test_oracle_with_synonyms(tmp_path):
    corpus_io.write_json(tmp_path / "syn.json", DEFAULT_SYNONYMS)
    proc = subprocess.run(
        [sys.executable, "-m", "pcfgset", "oracle",
         "--synonyms", str(tmp_path / "syn.json")],
        input="swap_syn A B\n",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stdout == "B A\n"


def test_oracle_with_a_missing_synonyms_file_ends_in_one_line(tmp_path):
    # every oracle command line but the bare one goes through cli.main
    proc = subprocess.run(
        [sys.executable, "-m", "pcfgset", "oracle", "--synonyms", str(tmp_path / "nope.json")],
        input="swap A B\n",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        f"oracle failed: [Errno 2] No such file or directory: '{tmp_path / 'nope.json'}'\n")


def test_oracle_answers_requests_nested_5000_deep():
    # the deep requests of the benchmark's evaluate workload, 5,000 levels down
    depth = 5000
    letters = ["A", "B", "C"]
    requests = [
        (" ".join(["copy"] * depth + ["A"]), "A"),
        (" ".join(["reverse"] * (depth + 1) + letters), " ".join(reversed(letters))),
        (" ".join(["append", "A", ","] * depth + ["A"]), " ".join(["A"] * (depth + 1))),
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "pcfgset", "oracle"],
        input="".join(src + "\n" for src, _ in requests),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [answer for _, answer in requests]


def test_malformed_corpus_line_ends_in_one_line(tmp_path):
    data = tmp_path / "bad"
    data.mkdir()
    corpus_io.write_token_file(data / "test.src", [["swap", "A", "B"], ["copy", "a"]])
    corpus_io.write_token_file(data / "test.tgt", [["B", "A"], ["a"]])
    expected = ("corpus verification failed: "
                "test.src:2: does not parse (unknown token 'a' at position 1)")
    for argv in (["eval", "accuracy", "--data", data, "--out", tmp_path / "ev"],
                 ["testbuild", "--test", "productivity", "--base", data,
                  "--out", tmp_path / "tb", "--seed", 1]):
        with pytest.raises(SystemExit) as ei:
            run_cli(*argv)
        assert ei.value.code == expected


def test_testbuild_on_a_directory_without_corpus_files_ends_in_one_line(tmp_path):
    with pytest.raises(SystemExit) as ei:
        run_cli("testbuild", "--test", "productivity", "--base", tmp_path,
                "--out", tmp_path / "tb", "--seed", 1)
    assert ei.value.code == f"corpus verification failed: {tmp_path}: no .src files found"


def test_a_line_that_is_not_utf8_is_located(tmp_path, capsys):
    data = tmp_path / "bad"
    data.mkdir()
    (data / "test.src").write_bytes(b"swap A B\ncopy \xff\n")
    corpus_io.write_token_file(data / "test.tgt", [["B", "A"], ["A"]])
    problem = "test.src:2: not UTF-8 (invalid start byte)"
    assert run_cli("validate", "--data", data) == 1
    assert problem in capsys.readouterr().out.splitlines()
    with pytest.raises(SystemExit) as ei:
        run_cli("eval", "accuracy", "--data", data, "--out", tmp_path / "ev")
    assert ei.value.code == f"corpus verification failed: {problem}"


def one_sample_directory(path):
    path.mkdir()
    corpus_io.write_token_file(path / "test.src", [["swap", "A", "B"]])
    corpus_io.write_token_file(path / "test.tgt", [["B", "A"]])
    return path


@pytest.mark.parametrize("mode, option", [("accuracy", "--adapter"), ("eos", "--preds")])
def test_a_prediction_file_that_is_not_utf8_ends_in_one_line(tmp_path, mode, option):
    data = one_sample_directory(tmp_path / "d")
    preds = tmp_path / "bad.pred"
    preds.write_bytes(b"A \xff\n")
    value = f"file:{preds}" if option == "--adapter" else preds
    with pytest.raises(SystemExit) as ei:
        run_cli("eval", mode, "--data", data, "--out", tmp_path / "ev", option, value)
    assert ei.value.code == "eval failed: bad.pred:1: not UTF-8 (invalid start byte)"


@pytest.mark.parametrize("mode, option", [("accuracy", "--adapter"), ("eos", "--preds")])
def test_a_prediction_file_with_a_line_too_many_ends_in_one_line(tmp_path, mode, option):
    data = one_sample_directory(tmp_path / "d")
    preds = tmp_path / "long.pred"
    corpus_io.write_token_file(preds, [["B", "A"], ["C"]])
    value = f"file:{preds}" if option == "--adapter" else preds
    with pytest.raises(SystemExit) as ei:
        run_cli("eval", mode, "--data", data, "--out", tmp_path / "ev", option, value)
    assert ei.value.code == f"eval failed: {preds}: 2 prediction lines for 1 test samples"


def test_a_checkpoint_with_a_line_too_few_ends_in_one_line(tmp_path):
    entries = [ExceptionEntry(0, ("copy", "A"), ("A",), ("B",), ("copy", "copy")),
               ExceptionEntry(1, ("copy", "C"), ("C",), ("D",), ("copy", "copy"))]
    corpus_io.write_exceptions(tmp_path / "exceptions.json", entries)
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    corpus_io.write_predictions(ckpts / "1_early.pred", [("A",)])
    with pytest.raises(SystemExit) as ei:
        run_cli("eval", "overgen-profile", "--exceptions", tmp_path / "exceptions.json",
                "--preds", ckpts, "--out", tmp_path / "profile")
    assert ei.value.code == ("eval failed: checkpoint 'early': "
                             "1 predictions for 2 exception entries")


@pytest.mark.parametrize("argv, message", [
    (["--test", "systematicity", "--test-size", "100000"],
     "testbuild failed: need 100000 pair-containing samples, found 401"),
    (["--test", "productivity", "--threshold", "200"],
     "testbuild failed: threshold 200 leaves train=3000 test=0"),
], ids=["too-few-positives", "empty-test-side"])
def test_a_test_the_base_cannot_fill_ends_in_one_line(tmp_path, capsys, argv, message):
    run_cli("generate", "--seed", 3, "--size", 3000, "--out", tmp_path / "base")
    with pytest.raises(SystemExit) as ei:
        run_cli("testbuild", *argv, "--base", tmp_path / "base", "--out", tmp_path / "tb",
                "--seed", 1)
    assert ei.value.code == message
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("mode, option", [("accuracy", "--adapter"), ("eos", "--preds")])
def test_a_repeated_source_is_scored_against_each_of_its_lines(tmp_path, mode, option):
    data = tmp_path / "d"
    data.mkdir()
    corpus_io.write_token_file(data / "test.src", [["swap", "A", "B"]] * 2)
    corpus_io.write_token_file(data / "test.tgt", [["B", "A"]] * 2)
    preds = tmp_path / "m.pred"
    corpus_io.write_token_file(preds, [["B", "A"], ["X"]])
    value = f"file:{preds}" if option == "--adapter" else preds
    assert run_cli("eval", mode, "--data", data, "--out", tmp_path / "ev", option, value) == 0
    report = json.loads((tmp_path / "ev" / "report.json").read_text())
    assert report["overall"] == 0.5
    if mode == "eos":
        assert report["extras"]["incorrect"] == 1


def test_an_output_too_long_to_build_is_a_recorded_problem(tmp_path, capsys):
    data = tmp_path / "d"
    data.mkdir()
    hostile = ["repeat"] * 41 + ["A"]
    corpus_io.write_token_file(data / "test.src", [hostile])
    corpus_io.write_token_file(data / "test.tgt", [["A"]])
    assert run_cli("validate", "--data", data) == 1
    assert capsys.readouterr().out.splitlines() == [
        "test.src:1: does not evaluate "
        "(repeat would output 1048576 symbols, over the limit of 1000000)",
        "FAIL: 1 problems",
    ]
    # reading does not evaluate; the oracle records the failure
    assert corpus_io.read_corpus(data).samples[0].stats.depth == 41
    out = tmp_path / "ev"
    assert run_cli("eval", "accuracy", "--data", data, "--out", out, "--adapter", "oracle") == 0
    assert corpus_io.read_json(out / "report.json")["errors"] == {"OutputTooLong": 1}
    proc = subprocess.run(
        [sys.executable, "-m", "pcfgset", "oracle"],
        input=" ".join(hostile) + "\nswap A B\n",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "\nB A\n"


def test_eval_reads_only_the_split_it_scores(tmp_path):
    data = tmp_path / "d"
    data.mkdir()
    corpus_io.write_token_file(data / "train.src", [["copy", "a"]])
    corpus_io.write_token_file(data / "train.tgt", [["a"]])
    corpus_io.write_token_file(data / "test.src", [["swap", "A", "B"]])
    corpus_io.write_token_file(data / "test.tgt", [["B", "A"]])
    assert run_cli("eval", "accuracy", "--data", data, "--out", tmp_path / "ev") == 0
    with pytest.raises(SystemExit) as ei:
        run_cli("eval", "accuracy", "--data", data, "--out", tmp_path / "tr",
                "--split", "train")
    assert ei.value.code == ("corpus verification failed: "
                             "train.src:1: does not parse (unknown token 'a' at position 1)")


def test_eval_checks_the_manifest_of_splits_it_does_not_score(base_dir, tmp_path):
    (base_dir / "train.src").write_text("swap A B\n", encoding="utf-8")
    with pytest.raises(SystemExit) as ei:
        run_cli("eval", "accuracy", "--data", base_dir, "--out", tmp_path / "x")
    assert "train.src: hash mismatch" in ei.value.code


def test_eval_accuracy_with_a_command_that_exits_at_once(base_dir, tmp_path):
    out = tmp_path / "dead"
    assert run_cli("eval", "accuracy", "--data", base_dir, "--out", out,
                   "--adapter", "cmd:false") == 0
    report = corpus_io.read_json(out / "report.json")
    assert report["overall"] == 0.0
    assert report["errors"] == {"ChildExited": 40}


def test_eval_localism_on_a_synonym_directory(base_dir, tmp_path):
    built = tmp_path / "ed"
    run_cli("testbuild", "--test", "substitutivity-ed", "--base", base_dir,
            "--out", built, "--seed", 5)
    out = tmp_path / "loc"
    assert run_cli("eval", "localism", "--data", built, "--split", "train",
                   "--out", out) == 0
    assert corpus_io.read_json(out / "report.json")["overall"] == 1.0


def test_eval_localism_through_the_oracle_command_is_the_same_at_any_jobs(base_dir, tmp_path):
    command = f"cmd:{sys.executable} -m pcfgset oracle"
    for jobs in (1, 2):
        assert run_cli("eval", "localism", "--data", base_dir, "--adapter", command,
                       "--jobs", jobs, "--out", tmp_path / f"jobs{jobs}") == 0
    for name in ("report.json", "strata.csv"):
        assert (tmp_path / "jobs1" / name).read_bytes() == (tmp_path / "jobs2" / name).read_bytes()
    assert corpus_io.read_json(tmp_path / "jobs1" / "report.json")["overall"] == 1.0


NO_SUCH_FILE = "eval failed: [Errno 2] No such file or directory: '{tmp}/nope.pred'"
CANNOT_START = "eval failed: cannot start no-such-command-xyz: No such file or directory"
DATA = ["--data", "{tmp}/d"]


@pytest.mark.parametrize("argv, message", [
    (["accuracy", *DATA, "--adapter", "faulty:x"], "eval failed: could not convert string to float: 'x'"),
    (["accuracy", *DATA, "--adapter", "faulty:2"], "eval failed: rate must lie in [0, 1]"),
    (["accuracy", *DATA, "--adapter", "telnet:x"], "eval failed: unknown adapter description: 'telnet:x'"),
    (["accuracy", *DATA, "--adapter", "cmd:"], "eval failed: command must not be empty"),
    (["accuracy", *DATA, "--adapter", "cmd:cat", "--jobs", "0"], "eval failed: jobs must be at least 1"),
    (["accuracy", *DATA, "--adapter", "file:{tmp}/nope.pred"], NO_SUCH_FILE),
    (["eos", *DATA, "--preds", "{tmp}/nope.pred"], NO_SUCH_FILE),
    (["accuracy", *DATA, "--adapter", "cmd:no-such-command-xyz"], CANNOT_START),
    (["accuracy", *DATA, "--adapter", "cmd:no-such-command-xyz", "--jobs", "2"], CANNOT_START),
    (["accuracy"], "eval accuracy needs --data"),
    (["overgen-profile", "--preds", "{tmp}"], "eval overgen-profile needs --exceptions"),
    (["length-gen", "--seed", "1", "--lengths", "x"], "bad --lengths value: 'x'"),
    (["length-gen", "--seed", "1", "--lengths", "9-3,4"], "bad --lengths value: '9-3,4'"),
    (["length-gen", "--seed", "1", "--functions", "copy,nope"], "unknown --functions: nope"),
    (["accuracy", *DATA, "--adapter", "cmd:cat", "--timeout", "inf"],
     "eval --timeout must be finite and above 0, got inf"),
    (["length-gen", "--seed", "1", "--lengths", "600", "--functions", "copy"],
     "eval --lengths must be at most 515, got 600"),
    (["length-gen", "--seed", "1", "--lengths", "518", "--functions", "append"],
     "eval --lengths must be at most 515, got 518"),
    (["accuracy", *DATA, "--adapter", "oracle", "--jobs", "0"], "eval failed: jobs must be at least 1"),
    (["length-gen", "--seed", "1", "--per-length", "0"], "eval --per-length must be at least 1, got 0"),
    (["localism", *DATA, "--save-preds"], "eval localism does not read --save-preds"),
    (["length-gen", "--seed", "1", "--functions", "copy", "--save-preds"],
     "eval length-gen does not read --save-preds"),
    (["accuracy", *DATA, "--lengths", "bogus", "--functions", "nope", "--exceptions", "no.json"],
     "eval accuracy does not read --lengths, --functions, --exceptions"),
    (["eos", *DATA, "--preds", "{tmp}/nope.pred", "--adapter", "oracle"],
     "eval eos takes --preds or --adapter, not both"),
], ids=["faulty-rate-not-a-number", "faulty-rate-out-of-range", "unknown-adapter",
        "empty-command", "no-jobs", "missing-file-adapter", "missing-preds",
        "command-cannot-start", "command-cannot-start-2-jobs", "no-data", "no-exceptions",
        "bad-lengths", "reversed-lengths", "unknown-function", "infinite-timeout", "length-beyond-the-literals",
        "binary-length-beyond-the-literals", "no-jobs-in-process", "no-samples-per-length",
        "save-preds-localism", "save-preds-length-gen", "options-of-other-modes",
        "preds-and-adapter"])
def test_a_malformed_eval_argument_ends_in_one_line(tmp_path, capsys, argv, message):
    one_sample_directory(tmp_path / "d")
    with pytest.raises(SystemExit) as ei:
        run_cli("eval", *(a.format(tmp=tmp_path) for a in argv), "--out", tmp_path / "ev")
    assert ei.value.code == message.format(tmp=tmp_path)
    assert capsys.readouterr().err == ""
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("argv, message", [
    (["--test", "overgen", "--exception-pct", "inf"],
     "testbuild --exception-pct must be finite and at least 0, got inf"),
    (["--test", "substitutivity-prim", "--fraction", "inf"],
     "testbuild --fraction must be finite and at least 0, got inf"),
    (["--test", "productivity", "--pairs", "missing.json", "--fraction", "7",
      "--exception-pct", "3"],
     "testbuild --test productivity does not read --pairs, --fraction, --exception-pct"),
], ids=["infinite-exception-pct", "infinite-fraction", "options-of-other-tests"])
def test_a_malformed_testbuild_argument_ends_in_one_line(tmp_path, capsys, argv, message):
    run_cli("generate", "--seed", 3, "--size", 100, "--out", tmp_path / "base")
    capsys.readouterr()
    with pytest.raises(SystemExit) as ei:
        run_cli("testbuild", *argv, "--base", tmp_path / "base", "--out", tmp_path / "tb",
                "--seed", 1)
    assert ei.value.code == message
    assert capsys.readouterr().err == ""
    assert not (tmp_path / "tb").exists()


@pytest.mark.parametrize("argv, message", [
    (["--test", "substitutivity-prim", "--fraction", "0.1"],
     "testbuild failed: could not place fresh arguments for swap_syn in 0 draws"),
    (["--test", "overgen", "--exception-pct", "2"],
     "testbuild failed: could not place fresh arguments for reverse echo in 0 draws"),
], ids=["substitutivity-prim", "overgen"])
def test_running_out_of_fresh_placements_ends_testbuild_in_one_line(
    tmp_path, capsys, monkeypatch, argv, message
):
    run_cli("generate", "--seed", 3, "--size", 100, "--out", tmp_path / "base")
    capsys.readouterr()
    monkeypatch.setattr(generation, "PLACEMENT_ATTEMPTS", 0)
    with pytest.raises(SystemExit) as ei:
        run_cli("testbuild", *argv, "--base", tmp_path / "base", "--out", tmp_path / "tb",
                "--seed", 1)
    assert ei.value.code == message
    assert capsys.readouterr().err == ""
    assert not (tmp_path / "tb").exists()


BAD_JSON = ("{tmp}/bad.json: not valid JSON "
            "(Expecting property name enclosed in double quotes: line 1 column 2 (char 1))")
MISSING = "[Errno 2] No such file or directory: '{tmp}/nope.{ext}'"
BASE = ["--base", "{tmp}/base", "--out", "{tmp}/tb", "--seed", "1"]


@pytest.mark.parametrize("argv, message", [
    (["generate", "--seed", "0", "--out", "{tmp}/g", "--params", "{tmp}/bad.json"],
     "generate failed: " + BAD_JSON),
    (["generate", "--seed", "0", "--out", "{tmp}/g", "--params", "{tmp}/nope.json"],
     "generate failed: " + MISSING),
    (["generate", "--seed", "0", "--out", "{tmp}/g", "--params", "{tmp}/latin1.json"],
     "generate failed: {tmp}/latin1.json: not valid JSON "
     "('utf-8' codec can't decode byte 0xff in position 0: invalid start byte)"),
    (["naturalise", "--seed", "0", "--out", "{tmp}/n", "--spec", "{tmp}/bad.csv"],
     "naturalise failed: {tmp}/bad.csv: expected header 'length,depth,count'"),
    (["naturalise", "--seed", "0", "--out", "{tmp}/n", "--spec", "{tmp}/nope.csv"],
     "naturalise failed: " + MISSING),
    (["naturalise", "--seed", "0", "--out", "{tmp}/n", "--spec", "{tmp}/header.csv"],
     "naturalise failed: {tmp}/header.csv: no cell with a positive count"),
    (["naturalise", "--seed", "0", "--out", "{tmp}/n", "--spec", "{tmp}/zeros.csv"],
     "naturalise failed: {tmp}/zeros.csv: no cell with a positive count"),
    (["testbuild", "--test", "systematicity", *BASE, "--pairs", "{tmp}/bad.json"],
     "testbuild failed: " + BAD_JSON),
    (["testbuild", "--test", "systematicity", *BASE, "--pairs", "{tmp}/unknown.json"],
     "testbuild failed: unknown function 'nope'"),
    (["testbuild", "--test", "substitutivity-ed", *BASE, "--synonyms", "{tmp}/bad.json"],
     "testbuild failed: " + BAD_JSON),
    (["testbuild", "--test", "substitutivity-ed", *BASE, "--synonyms", "{tmp}/unknown.json"],
     "testbuild failed: unknown function 'nope'"),
    (["validate", "--data", "{tmp}/base", "--exceptions", "{tmp}/bad.json"],
     "validate failed: " + BAD_JSON),
    (["oracle", "--synonyms", "{tmp}/bad.json"], "oracle failed: " + BAD_JSON),
    (["generate", "--seed", "0", "--out", "{tmp}/g", "--params", "{tmp}/short.json"],
     "generate failed: {tmp}/short.json: missing p_binary, p_leaf, fn_weights, arg_len_dist"),
    (["generate", "--seed", "0", "--out", "{tmp}/g", "--params", "{tmp}/list.json"],
     "generate failed: {tmp}/list.json: expected a JSON object, got list"),
    (["testbuild", "--test", "systematicity", *BASE, "--pairs", "{tmp}/object.json"],
     "testbuild failed: {tmp}/object.json: expected a JSON list, got dict"),
    (["testbuild", "--test", "systematicity", *BASE, "--pairs", "{tmp}/rowless.json"],
     "testbuild failed: {tmp}/rowless.json: row 0: missing 'outer'"),
    (["testbuild", "--test", "systematicity", *BASE, "--pairs", "{tmp}/empty.json"],
     "testbuild failed: {tmp}/empty.json: holds no pairs"),
    (["testbuild", "--test", "substitutivity-ed", *BASE, "--synonyms", "{tmp}/list.json"],
     "testbuild failed: {tmp}/list.json: expected a JSON object of function names"),
    (["validate", "--data", "{tmp}/base", "--exceptions", "{tmp}/rowless.json"],
     "validate failed: {tmp}/rowless.json: row 0: missing 'sample_id'"),
    (["validate", "--data", "{tmp}/base", "--exceptions", "{tmp}/object.json"],
     "validate failed: {tmp}/object.json: expected a JSON list, got dict"),
    (["testbuild", "--test", "systematicity", *BASE, "--pairs", "{tmp}/deep.json"],
     "testbuild failed: {tmp}/deep.json: not valid JSON (nested too deeply)"),
    (["testbuild", "--test", "substitutivity-ed", *BASE, "--synonyms", "{tmp}/spaced.json"],
     "testbuild failed: invalid synonym name 'swap syn'"),
    (["generate", "--seed", "0", "--size", "50", "--out", "{tmp}/g", "--params", "{tmp}/wide.json"],
     "generate failed: {tmp}/wide.json: leaf length 600 is over the 520 literals a sample can hold"),
], ids=["generate-params-bad-json", "generate-params-missing", "generate-params-not-utf8",
        "naturalise-spec-bad-header", "naturalise-spec-missing", "naturalise-spec-header-only",
        "naturalise-spec-zero-counts", "testbuild-pairs-bad-json",
        "testbuild-pairs-unknown-function", "testbuild-synonyms-bad-json",
        "testbuild-synonyms-unknown-function", "validate-exceptions-bad-json",
        "oracle-synonyms-bad-json", "generate-params-missing-keys", "generate-params-not-an-object",
        "testbuild-pairs-not-a-list", "testbuild-pairs-row-missing-a-key", "testbuild-pairs-empty",
        "testbuild-synonyms-not-an-object", "validate-exceptions-row-missing-a-key",
        "validate-exceptions-not-a-list", "testbuild-pairs-nested-too-deeply",
        "testbuild-synonyms-name-with-a-space", "generate-params-leaf-longer-than-the-literals"])
def test_a_bad_file_argument_ends_in_one_line(tmp_path, argv, message):
    (tmp_path / "bad.json").write_text("{bad\n", encoding="utf-8")
    (tmp_path / "latin1.json").write_bytes(b"\xff\n")
    (tmp_path / "bad.csv").write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    (tmp_path / "header.csv").write_text("length,depth,count\n", encoding="utf-8")
    (tmp_path / "zeros.csv").write_text("length,depth,count\n3,1,0\n7,2,0\n", encoding="utf-8")
    (tmp_path / "deep.json").write_text("[" * 100_000, encoding="utf-8")
    unknown = [{"outer": "nope", "inner": "copy"}] if "--pairs" in argv else {"nope": "x"}
    (tmp_path / "unknown.json").write_text(json.dumps(unknown), encoding="utf-8")
    for name, document in [("short", {"p_unary": 1}), ("list", ["swap"]), ("object", {}),
                           ("rowless", [{"inner": "copy"}]), ("empty", []),
                           ("spaced", {"swap": "swap syn"}),
                           ("wide", {**GrammarParams.default().to_dict(),
                                     "arg_len_dist": {"600": 1}, "max_arg_len": 600})]:
        (tmp_path / f"{name}.json").write_text(json.dumps(document), encoding="utf-8")
    run_cli("generate", "--seed", 3, "--size", 100, "--out", tmp_path / "base")
    ext = argv[-1].rpartition(".")[2]
    with pytest.raises(SystemExit) as ei:
        run_cli(*(a.format(tmp=tmp_path) for a in argv))
    assert ei.value.code == message.format(tmp=tmp_path, ext=ext)
    # the command failed before it made its output directory
    assert not any((tmp_path / out).exists() for out in ("g", "n", "tb"))


@pytest.mark.parametrize("argv", [
    ["generate", "--size", "-3"],
    ["generate", "--size", "0"],
    ["naturalise", "--sample-size", "0"],
    ["naturalise", "--size", "-1"],
    ["naturalise", "--max-iters", "0"],
    ["testbuild", "--test-size", "-1", "--test", "systematicity", "--base", "no-such-base"],
])
def test_a_size_below_one_ends_in_one_line(tmp_path, argv):
    with pytest.raises(SystemExit) as ei:
        run_cli(*argv, "--seed", 0, "--out", tmp_path / "x")
    assert ei.value.code == f"{argv[0]} {argv[1]} must be at least 1, got {argv[2]}"
    assert not (tmp_path / "x").exists()


# --- the options each test and mode reads -----------------------------------------

# beside --test, --base, --out and --seed for testbuild, and --out for eval
TEST_READS = {
    "systematicity": {"--pairs", "--test-size"},
    "productivity": {"--threshold"},
    "substitutivity-ed": {"--synonyms"},
    "substitutivity-prim": {"--synonyms", "--fraction"},
    "overgen": {"--exception-pct"},
}
ADAPTER_READS = {"--adapter", "--timeout", "--jobs", "--seed"}
SPLIT_READS = ADAPTER_READS | {"--data", "--split"}
MODE_READS = {
    "accuracy": SPLIT_READS | {"--save-preds"},
    "consistency": SPLIT_READS | {"--synonyms"},
    "localism": SPLIT_READS,
    "eos": SPLIT_READS | {"--preds"},
    "overgen-profile": {"--exceptions", "--preds"},
    "length-gen": ADAPTER_READS | {"--functions", "--lengths", "--per-length"},
}
# a value for every option, the old default wherever there was one
VALUES = {"--pairs": ["p.json"], "--synonyms": ["s.json"], "--exception-pct": ["0.001"],
          "--threshold": ["8"], "--fraction": ["0.001"], "--test-size": ["10000"],
          "--adapter": ["oracle"], "--data": ["d"], "--split": ["test"], "--preds": ["p"],
          "--exceptions": ["e.json"], "--functions": ["copy"], "--lengths": ["1-12"],
          "--per-length": ["50"], "--save-preds": [], "--seed": ["1"], "--jobs": ["1"],
          "--timeout": ["30.0"]}
TEST_OPTIONS = set().union(*TEST_READS.values())
MODE_OPTIONS = set().union(*MODE_READS.values())


def _chosen(command, chosen, options):
    head = (["testbuild", "--test", chosen, "--base", "b", "--seed", "1"]
            if command == "testbuild" else ["eval", chosen])
    return head + [v for option in sorted(options) for v in [option, *VALUES[option]]]


UNREAD = sorted([("testbuild", test, option) for test, reads in TEST_READS.items()
                 for option in TEST_OPTIONS - reads]
                + [("eval", mode, option) for mode, reads in MODE_READS.items()
                   for option in MODE_OPTIONS - reads])


@pytest.mark.parametrize("command, chosen, option", UNREAD,
                         ids=[f"{c}-{t}{o}" for c, t, o in UNREAD])
def test_an_option_the_test_or_mode_does_not_read_ends_in_one_line(
    tmp_path, capsys, command, chosen, option
):
    with pytest.raises(SystemExit) as ei:
        run_cli(*_chosen(command, chosen, [option]), "--out", tmp_path / "out")
    label = f"--test {chosen}" if command == "testbuild" else chosen
    assert ei.value.code == f"{command} {label} does not read {option}"
    # no argparse usage line, and nothing made
    assert capsys.readouterr().err == ""
    assert not (tmp_path / "out").exists()


# eos reads --preds in place of --adapter
READ = ([("testbuild", t, r) for t, r in TEST_READS.items()]
        + [("eval", m, r - {"--preds"} if m == "eos" else r) for m, r in MODE_READS.items()]
        + [("eval", "eos", MODE_READS["eos"] - {"--adapter"})])


@pytest.mark.parametrize("command, chosen, reads", READ,
                         ids=[*TEST_READS, *MODE_READS, "eos-preds"])
def test_every_option_a_test_or_mode_reads_passes_the_check(command, chosen, reads):
    args = cli.build_parser().parse_args(_chosen(command, chosen, reads) + ["--out", "o"])
    assert callable(cli.row(args))


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line[line.index("pcfgset "):])[1:] for line in lines
            if "pcfgset " in line and not line.startswith("#")]


def test_every_readme_command_parses_and_gives_only_options_it_reads():
    commands = _readme_commands()
    assert len(commands) > 10
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        if args.command in ("testbuild", "eval"):
            cli.row(args)


# --- naturalise -----------------------------------------------------------------


def test_naturalise_small_pipeline(tmp_path):
    # histogram taken from a real sample so the pipeline has signal to match
    from pcfgset.generation import generate_corpus
    from pcfgset.naturalise import DistributionSpec

    sample = generate_corpus(GrammarParams.default(), 800, seed=12)
    cells = {}
    for s in sample:
        key = (s.stats.length, s.stats.depth)
        cells[key] = cells.get(key, 0) + 1
    spec = DistributionSpec.from_rows(
        [(l, d, c) for (l, d), c in sorted(cells.items())]
    )
    spec.to_csv(tmp_path / "ref.csv")
    out = tmp_path / "nat"
    assert run_cli("naturalise", "--seed", 6, "--spec", tmp_path / "ref.csv",
                   "--out", out, "--sample-size", 600, "--max-iters", 2) == 0
    params = corpus_io.read_params(out / "params.json")
    assert abs(params.p_unary + params.p_binary + params.p_leaf - 1.0) < 1e-9
    trace = (out / "kl_trace.csv").read_text(encoding="utf-8").splitlines()
    assert trace[0] == "iteration,i_length,i_depth,kl"
    assert len(trace) >= 2
    kls = [float(line.split(",")[3]) for line in trace[1:]]
    assert kls == sorted(kls, reverse=True) or len(kls) == 1
    built = corpus_io.read_corpus(out)
    assert len(built.samples) > 0


def test_naturalise_with_a_small_pool(tmp_path):
    # a 500-tree pool leaves the largest reference cell empty under some increments
    out = tmp_path / "small"
    assert run_cli("naturalise", "--seed", 0, "--out", out, "--sample-size", 500) == 0
    assert run_cli("validate", "--data", out) == 0
    with pytest.raises(SystemExit) as ei:
        run_cli("naturalise", "--seed", 0, "--out", tmp_path / "tiny", "--sample-size", 5)
    assert ei.value.code.startswith("naturalise failed: no sample in the largest reference cell")


def test_naturalise_reports_the_kept_pool(tmp_path, capsys):
    assert run_cli("naturalise", "--seed", 0, "--out", tmp_path / "n", "--sample-size", 500) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("initial KL: ")
    kept = int(lines[1].split()[2])
    assert 0 < kept < 500
    assert lines[1] == f"pool: kept {kept} of 500 trees (length <= 59, depth <= 17)"


def test_naturalise_with_a_pool_too_small_to_fit_ends_in_one_line(tmp_path):
    # the subsample of seed 0's 20 draws holds fewer than three trees to fit
    with pytest.raises(SystemExit) as ei:
        run_cli("naturalise", "--seed", 0, "--out", tmp_path / "n", "--sample-size", 20)
    assert ei.value.code == ("naturalise failed: need at least three feature points; "
                             "try a larger --sample-size")


@pytest.mark.parametrize("argv, message", [
    (["naturalise", "--seed", "0", "--sample-size", "5"],
     "naturalise failed: no sample in the largest reference cell"),
    (["eval", "accuracy", "--adapter", "oracle"], "eval accuracy needs --data"),
], ids=["naturalise-pool-too-small", "eval-without-data"])
def test_a_failed_command_leaves_no_output_directory(tmp_path, argv, message):
    proc = subprocess.run([sys.executable, "-m", "pcfgset", *argv, "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(message)
    assert not (tmp_path / "out").exists()


def test_naturalise_degenerate_one_cell_spec(tmp_path):
    (tmp_path / "one.csv").write_text(
        "length,depth,count\n5,1,30\n", encoding="utf-8"
    )
    out = tmp_path / "deg"
    assert run_cli("naturalise", "--seed", 6, "--spec", tmp_path / "one.csv",
                   "--out", out, "--sample-size", 2000) == 0
    built = corpus_io.read_corpus(out)
    assert built.samples
    assert all(
        s.stats.length == 5 and s.stats.depth == 1 for s in built
    )
    assert run_cli("validate", "--data", out) == 0
    # no Gaussian search ran: the trace is its header alone, in the CSV dialect
    assert (out / "kl_trace.csv").read_bytes() == b"iteration,i_length,i_depth,kl\r\n"


# --- hostile corpus directories ---------------------------------------------------

# Each defect rewrites (src lines, tgt lines, raw bytes of one file) of a healthy
# split, or the raw bytes of one JSON sidecar. The unreadable ones break what
# reading a corpus checks: line counts, UTF-8 and source structure. The others
# leave a corpus that reads but breaks a rule only validation checks.
_UNREADABLE = {"truncated", "misaligned", "bad bytes", "unknown token", "unclosed nesting"}
_SIDECARS = ("pairs.json", "synonyms.json", "exceptions.json")
_SIDECAR_DEFECTS = {f"{kind} {name}" for kind in ("truncated", "garbled") for name in _SIDECARS}
_DEFECTS = sorted(_UNREADABLE | {"deep nesting", "repeat chain"} | _SIDECAR_DEFECTS)
# what a garbled sidecar gets in place of one of its bytes: JSON structure, a
# digit, a letter, a space or a byte that is not UTF-8
_GARBLE = b'{}[]",:0 aZ\xff'


def _damage(directory, split, defect, row, cut):
    kind, _, sidecar = defect.partition(" ")
    if sidecar in _SIDECARS:
        data = (directory / sidecar).read_bytes()
        cut %= len(data)
        garbled = data[:cut] + _GARBLE[row % len(_GARBLE):][:1] + data[cut + 1:]
        (directory / sidecar).write_bytes(data[:cut] if kind == "truncated" else garbled)
        return
    src_path, tgt_path = directory / f"{split}.src", directory / f"{split}.tgt"
    lines = src_path.read_bytes().splitlines(keepends=True)
    row %= len(lines)
    if defect == "truncated":
        # cut inside a line before the last, so whole lines are lost
        cut %= max(1, sum(len(line) for line in lines[:-1]))
        src_path.write_bytes(b"".join(lines)[:cut])
    elif defect == "misaligned":
        del lines[row]
        src_path.write_bytes(b"".join(lines))
    elif defect == "bad bytes":
        data = tgt_path.read_bytes()
        cut %= len(data)
        tgt_path.write_bytes(data[:cut] + b"\xff\xfe" + data[cut:])
    else:
        lines[row] = {
            "unknown token": b"copy A b\n",
            "unclosed nesting": b"copy " * 3000 + b"\n",
            "deep nesting": b"copy " * 3000 + b"Z19 Z19\n",  # a literal twice
            "repeat chain": b"repeat " * 41 + b"A\n",
        }[defect]
        src_path.write_bytes(b"".join(lines))


def _outcome(argv):
    """(exit code, output) of one command; any exception but SystemExit propagates."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = run_cli(*argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _one_line(code):
    return isinstance(code, str) and "\n" not in code


@pytest.fixture(scope="module")
def small_corpus():
    corpus = generation.generate_corpus(GrammarParams.default(), 40, seed=4)
    return generation.split_corpus(corpus, rng=random.Random(4))


@pytest.fixture(scope="module")
def small_exceptions(small_corpus):
    return exceptions_apply(small_corpus.split("train"), {0.5: random.Random(4)})[0.5][1]


@given(
    defect=st.sampled_from(_DEFECTS),
    split=st.sampled_from(["train", "test"]),
    row=st.integers(min_value=0, max_value=100),
    cut=st.integers(min_value=0, max_value=10**6),
    keep_manifest=st.booleans(),
    test=st.sampled_from(["systematicity", "productivity", "substitutivity-ed", "overgen"]),
    mode=st.sampled_from(["accuracy", "consistency", "localism", "eos"]),
)
@example(defect="repeat chain", split="train", row=0, cut=0, keep_manifest=False,
         test="substitutivity-ed", mode="localism")
# "swap_syn" becomes "swap syn", a synonym no corpus file can hold
@example(defect="garbled synonyms.json", split="train", row=_GARBLE.index(b" "), cut=109,
         keep_manifest=True, test="substitutivity-ed", mode="consistency")
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_hostile_corpus_directory_ends_in_a_report_or_one_line(
    small_corpus, small_exceptions, defect, split, row, cut, keep_manifest, test, mode
):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "data"
        corpus_io.write_corpus(data, small_corpus)
        corpus_io.write_pairs(data / "pairs.json", DEFAULT_HELD_OUT_PAIRS)
        corpus_io.write_json(data / "synonyms.json", DEFAULT_SYNONYMS)
        corpus_io.write_exceptions(data / "exceptions.json", small_exceptions)
        checkpoints = tmp / "checkpoints"
        checkpoints.mkdir()
        corpus_io.write_predictions(checkpoints / "1_rule.pred",
                                    [e.original_tgt for e in small_exceptions])
        _damage(data, split, defect, row, cut)
        if not keep_manifest:
            (data / "manifest.json").unlink()

        # the manifest covers the split files but no sidecar
        code, out = _outcome(["validate", "--data", data, "--exceptions", data / "exceptions.json"])
        lines = out.splitlines()
        if defect in _SIDECAR_DEFECTS:
            assert code == 0 or _one_line(code), code
        else:
            assert code == 1
            assert lines[-1] == f"FAIL: {len(lines) - 1} problems"

        code, _ = _outcome(["eval", "overgen-profile", "--exceptions", data / "exceptions.json",
                            "--preds", checkpoints, "--out", tmp / "og"])
        if defect.endswith("exceptions.json"):
            assert code == 0 or _one_line(code), code
        else:
            assert code == 0, code

        # each command reads only the splits it uses, and the sidecars it is given
        testbuild = ["testbuild", "--test", test, "--base", data, "--out", tmp / "tb", "--seed", 1,
                     *{"systematicity": ["--test-size", 2, "--pairs", data / "pairs.json"],
                       "productivity": ["--threshold", 2],
                       "substitutivity-ed": ["--synonyms", data / "synonyms.json"]}.get(test, [])]
        evaluate = ["eval", mode, "--data", data, "--split", "test", "--out", tmp / "ev"]
        built = None
        for argv, reads in ((testbuild, ["train"] if test == "overgen" else ["train", "test"]),
                            (evaluate, ["test"])):
            code, _ = _outcome(argv)
            built = code if built is None else built
            if defect in _SIDECAR_DEFECTS:
                assert code == 0 or _one_line(code), code
            elif keep_manifest or (defect in _UNREADABLE and split in reads):
                assert _one_line(code), code
            else:
                assert code == 0 or _one_line(code), code
        # a build from healthy splits with the sidecars it could read validates
        if defect in _SIDECAR_DEFECTS and test != "overgen" and built == 0:
            assert _outcome(["validate", "--data", tmp / "tb"])[0] == 0
