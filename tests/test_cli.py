"""Command-line surface: every subcommand exercised in-process on small data.

Each test drives cli.main with real files under tmp_path; expected counts
come from the documented defaults (85/5/10 split flooring, half-of-k
rewrites, round(pct * occurrences) exception counts).
"""

import json
import subprocess
import sys

import pytest

from pcfgset import cli, corpus_io
from pcfgset.generation import Corpus, GrammarParams, Sample
from pcfgset.language import parse_text
from pcfgset.suite import DEFAULT_HELD_OUT_PAIRS, contains_pair


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
    assert capsys.readouterr().out.startswith("PASS")
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
    samples = [Sample.from_tree(i, parse_text(t)) for i, t in enumerate(texts)]
    corpus_io.write_corpus(tmp_path, Corpus(samples))
    assert run_cli("validate", "--data", tmp_path) == 1
    out = capsys.readouterr().out
    assert "all.src:2: repeated literal 'A' within sample" in out
    assert "FAIL: 1 problems" in out


def test_degenerate_naturalise_filter_drops_repeated_literals():
    texts = ["swap D E", "append A B , C A", "copy D E", "swap D E", "reverse F G"]
    corpus = Corpus([Sample.from_tree(i, parse_text(t)) for i, t in enumerate(texts)])
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
    for fn, syn in synonyms.as_dict().items():
        total = sum(s.src.count(fn) for s in base.split("train"))
        rewritten = sum(s.src.count(syn) for s in built.split("train"))
        assert rewritten == total // 2
        assert f"{fn}: rewrote {total // 2} of {total}" in printed
    # targets unchanged, and the files still validate with the sidecar
    assert [s.tgt for s in built.split("train")] == [
        s.tgt for s in base.split("train")
    ]
    assert run_cli("validate", "--data", out) == 0


def test_testbuild_substitutivity_prim(base_dir, tmp_path):
    out = tmp_path / "prim"
    assert run_cli("testbuild", "--test", "substitutivity-prim", "--base", base_dir,
                   "--out", out, "--seed", 5, "--fraction", "0.01") == 0
    base = corpus_io.read_corpus(base_dir)
    built = corpus_io.read_corpus(out)
    synonyms = corpus_io.read_synonyms(out / "synonyms.json")
    train = built.split("train")
    per_syn = round(0.01 * len(base.split("train").samples))
    for syn in synonyms.as_dict().values():
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


def test_testbuild_substitutivity_needs_splits(tmp_path):
    from pcfgset.generation import Corpus, Sample

    unsplit = Corpus([Sample.from_tree(0, parse_text("swap A B"))])
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
    preds = corpus_io.read_predictions(out / "predictions.pred")
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


def test_eval_eos_with_correct_predictions(base_dir, tmp_path):
    test = corpus_io.read_corpus(base_dir).split("test")
    preds_path = tmp_path / "model.pred"
    corpus_io.write_predictions(preds_path, [s.tgt for s in test])
    out = tmp_path / "eos"
    assert run_cli("eval", "eos", "--data", base_dir, "--out", out,
                   "--preds", preds_path) == 0
    report = corpus_io.read_json(out / "report.json")
    assert report["incorrect"] == 0
    assert report["strict_prefix_frac"] is None
    assert (out / "eos.csv").exists()


def test_eval_eos_without_preds_queries_adapter(base_dir, tmp_path):
    out = tmp_path / "eos_adapter"
    assert run_cli("eval", "eos", "--data", base_dir, "--out", out) == 0
    report = corpus_io.read_json(out / "report.json")
    assert report["incorrect"] == 0
    # a lossy adapter must show up as incorrect samples
    out2 = tmp_path / "eos_faulty"
    run_cli("eval", "eos", "--adapter", "faulty:0.5", "--seed", 9,
            "--data", base_dir, "--out", out2)
    report2 = corpus_io.read_json(out2 / "report.json")
    assert 0 < report2["incorrect"] <= report2["total"]


def test_eval_eos_counts_truncations(base_dir, tmp_path):
    test = corpus_io.read_corpus(base_dir).split("test")
    preds = [list(s.tgt) for s in test]
    preds[0] = preds[0][:-1] if len(preds[0]) > 1 else ["Q9", "Q9"]
    preds_path = tmp_path / "model.pred"
    corpus_io.write_predictions(preds_path, preds)
    out = tmp_path / "eos2"
    run_cli("eval", "eos", "--data", base_dir, "--out", out, "--preds", preds_path)
    report = corpus_io.read_json(out / "report.json")
    assert report["incorrect"] == 1


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
    report = corpus_io.read_json(out / "report.json")
    assert report["peak"]["checkpoint"] == "early"
    assert report["peak"]["overgeneralisation_frac"] == 1.0
    # entries whose two targets coincide score as overgeneralisation even
    # when the exception target is predicted
    coinciding = sum(1 for e in entries if e.original_tgt == e.exception_tgt)
    late = report["profile"][1]
    assert late["memorisation_frac"] == (len(entries) - coinciding) / len(entries)
    assert late["overgeneralisation_frac"] == coinciding / len(entries)
    assert (out / "profile.csv").exists()


def test_eval_length_gen_oracle(tmp_path):
    out = tmp_path / "lg"
    assert run_cli("eval", "length-gen", "--out", out, "--seed", 4,
                   "--functions", "echo,remove_first", "--lengths", "1-3",
                   "--per-length", 3) == 0
    report = corpus_io.read_json(out / "report.json")
    cells = {(row["function"], row["length"]): row["accuracy"]
             for row in report["grid"]}
    assert len(cells) == 6
    assert all(acc == 1.0 for acc in cells.values())
    assert (out / "grid.csv").exists()


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
    from pcfgset.suite import SynonymMap

    corpus_io.write_synonyms(tmp_path / "syn.json", SynonymMap.default())
    proc = subprocess.run(
        [sys.executable, "-m", "pcfgset", "oracle",
         "--synonyms", str(tmp_path / "syn.json")],
        input="swap_syn A B\n",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stdout == "B A\n"


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
    assert ei.value.code == {
        "accuracy": f"eval failed: {preds}: 2 prediction lines for 1 test samples",
        "eos": "eval failed: 2 predictions for 1 targets",
    }[mode]


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
    # the subsample of seed 0's 30 draws holds fewer than three trees to fit
    with pytest.raises(SystemExit) as ei:
        run_cli("naturalise", "--seed", 0, "--out", tmp_path / "n", "--sample-size", 30)
    assert ei.value.code == ("naturalise failed: need at least three feature points; "
                             "try a larger --sample-size")


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
