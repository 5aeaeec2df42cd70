"""Tests for model adapters and evaluation runners."""

import json
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcfgset import harness
from pcfgset.generation import (
    GrammarParams,
    generate_corpus,
    make_primitive_length_corpus,
)
from pcfgset.harness import (
    AdapterError,
    ChildExited,
    FaultyOracleAdapter,
    FileAdapter,
    LineCountMismatch,
    ModelAdapter,
    OracleAdapter,
    Prediction,
    MAX_REPLY_CHARS,
    STRATA,
    ProtocolViolation,
    SubprocessAdapter,
    Timeout,
    _Worker,
    build_adapter,
    dataset_hash,
    execute_unroll,
    run_accuracy,
    run_consistency,
    run_eos_analysis,
    run_length_generalisation,
    run_localism,
    run_overgeneralisation,
)
from pcfgset.language import LITERALS, MAX_OUTPUT_LENGTH, evaluate, fold, interpret, parse
from pcfgset.suite import (
    ConsistencyPair,
    ExceptionEntry,
    build_unroll_plan,
    make_consistency_pairs,
    substitutivity_equal,
    SynonymMap,
)
from pcfgset.generation import Sample


def corpus_of(*texts):
    return [Sample.from_src(text.split()) for text in texts]



def _transformed_positions(function) -> tuple[int, ...]:
    """Argument slots whose content a function actually carries over.

    remove_first discards its first argument and remove_second its second,
    so a model never has to transform the discarded string.
    """
    if function.arity == 1:
        return (0,)
    if function.name == "remove_first":
        return (1,)
    if function.name == "remove_second":
        return (0,)
    return (0, 1)


class LengthCappedOracleAdapter(OracleAdapter):
    """Oracle that breaks when a transformed argument exceeds a cap.

    Mimics a model that only generalises up to a training argument length:
    if any function application inside the sequence receives a transformed
    string argument longer than cap symbols, the final output is truncated
    to cap tokens.  Arguments a function discards do not count, and the
    failure is global to the sequence, so unrolling a long computation step
    by step gives different answers than presenting it whole.
    """

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap
        self.name = f"oracle-cap-{cap}"

    def predict(self, src):
        overloaded = False

        def apply(function, position, values):
            nonlocal overloaded
            if any(len(values[i]) > self.cap for i in _transformed_positions(function)):
                overloaded = True
            return interpret(function, position, values)

        tokens = src.split() if isinstance(src, str) else list(src)
        value = fold(tokens, self.registry, apply)[1]
        if overloaded:
            return list(value[: self.cap])
        return list(value)


class StubAdapter(ModelAdapter):
    """Adapter answering from a fixed source-to-prediction table."""

    def __init__(self, table):
        self.table = {k: v.split() for k, v in table.items()}
        self.name = "stub"

    def predict(self, src):
        text = src if isinstance(src, str) else " ".join(src)
        return list(self.table[text])


class FailingAdapter(ModelAdapter):
    """Adapter that errors on chosen sources and echoes targets otherwise."""

    def __init__(self, table, failing):
        self.table = {k: v.split() for k, v in table.items()}
        self.failing = set(failing)
        self.name = "failing-stub"

    def predict(self, src):
        text = src if isinstance(src, str) else " ".join(src)
        if text in self.failing:
            raise AdapterError("refused")
        return list(self.table[text])


class CountingOracleAdapter(OracleAdapter):
    """Oracle noting the size of every batch it is sent."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def predict_batch(self, srcs):
        self.batches.append(len(srcs))
        return super().predict_batch(srcs)


class TestOracleAdapter:
    def test_worked_example(self):
        oracle = OracleAdapter()
        assert oracle.predict("repeat A B C") == ["A", "B", "C", "A", "B", "C"]
        assert oracle.predict(["echo", "remove_first", "D", "K", ",", "E", "F"]) == [
            "E",
            "F",
            "F",
        ]

    def test_predict_batch_records_parse_failures(self):
        oracle = OracleAdapter()
        results = oracle.predict_batch(["copy A", "copy copy", "swap Q R"])
        assert results[0] == Prediction(("A",))
        assert results[1].tokens is None
        assert results[1].error == "UnexpectedEnd"
        assert results[2] == Prediction(("R", "Q"))

    def test_context_manager(self):
        with OracleAdapter() as oracle:
            assert oracle.predict("copy B") == ["B"]


class TestFaultyOracle:
    def test_rate_zero_is_exact(self):
        exact = FaultyOracleAdapter(0.0)
        assert exact.predict("reverse A B C") == ["C", "B", "A"]

    def test_rate_one_is_always_wrong(self):
        broken = FaultyOracleAdapter(1.0, seed=5)
        for text in ("copy A", "reverse A B C", "echo D E"):
            want = list(evaluate(parse(text.split())))
            got = broken.predict(text)
            assert got != want
            assert len(got) == len(want)
            # exactly one position differs
            assert sum(1 for a, b in zip(got, want) if a != b) == 1

    def test_deterministic_per_source(self):
        faulty = FaultyOracleAdapter(0.5, seed=9)
        again = FaultyOracleAdapter(0.5, seed=9)
        for text in ("copy A B", "swap C D E", "repeat F"):
            assert faulty.predict(text) == again.predict(text)

    def test_seed_changes_fault_pattern(self):
        srcs = [f"reverse {a} {b}" for a in "ABCDE" for b in "FGHIJ"]
        one = FaultyOracleAdapter(0.5, seed=1)
        two = FaultyOracleAdapter(0.5, seed=2)
        outcomes_one = [one.predict(s) for s in srcs]
        outcomes_two = [two.predict(s) for s in srcs]
        assert outcomes_one != outcomes_two

    def test_observed_rate_close_to_nominal(self):
        corpus = generate_corpus(GrammarParams.default(), 3_000, seed=77)
        faulty = FaultyOracleAdapter(0.3, seed=3)
        report = run_accuracy(faulty, corpus)
        assert 0.67 <= report.overall <= 0.73

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            FaultyOracleAdapter(1.5)


class TestRunAccuracy:
    def test_oracle_is_perfect_everywhere(self):
        corpus = generate_corpus(GrammarParams.default(), 200, seed=11)
        report = run_accuracy(OracleAdapter(), corpus)
        assert report.overall == 1.0
        assert report.count == 200
        assert report.errors == {}
        for rows in report.strata.values():
            assert rows
            for mean, count in rows.values():
                assert mean == 1.0
                assert count >= 1

    def test_overall_is_weighted_stratum_mean(self):
        corpus = generate_corpus(GrammarParams.default(), 300, seed=12)
        report = run_accuracy(FaultyOracleAdapter(0.4, seed=4), corpus)
        for rows in report.strata.values():
            total = sum(count for _, count in rows.values())
            weighted = sum(mean * count for mean, count in rows.values())
            assert total == report.count
            assert weighted / total == pytest.approx(report.overall, abs=1e-12)

    def test_metadata_holds_adapter_and_dataset_hash(self):
        samples = corpus_of("copy A", "reverse B C")
        report = run_accuracy(OracleAdapter(), samples)
        assert report.metadata["adapter"] == "oracle"
        assert report.metadata["dataset_hash"] == dataset_hash(samples)

    def test_adapter_errors_score_zero_and_are_tagged(self):
        samples = corpus_of("copy A", "reverse B C", "echo D")
        adapter = FailingAdapter(
            {"copy A": "A", "reverse B C": "C B", "echo D": "D D"},
            failing={"reverse B C"},
        )
        report = run_accuracy(adapter, samples)
        assert report.overall == pytest.approx(2 / 3)
        assert report.errors == {"AdapterError": 1}

    def test_report_serialises_to_json(self):
        samples = corpus_of("copy A", "swap B C D")
        report = run_accuracy(OracleAdapter(), samples)
        payload = json.dumps(report.to_dict())
        loaded = json.loads(payload)
        assert loaded["metric"] == "accuracy"
        assert loaded["overall"] == 1.0
        assert loaded["strata"]["length"]

    @pytest.mark.parametrize("prediction, score", [
        ("C B", 1.0),
        ("C", 0.0),  # a strict prefix still counts as wrong
        ("C B B", 0.0),
        ("B C", 0.0),
        ("", 0.0),
    ], ids=["equal", "strict-prefix", "longer", "reordered", "empty"])
    def test_exact_match_compares_whole_token_sequences(self, prediction, score):
        samples = corpus_of("reverse B C")
        report = run_accuracy(StubAdapter({"reverse B C": prediction}), samples)
        assert report.overall == score

    def test_keep_predictions(self):
        samples = corpus_of("copy A")
        report = run_accuracy(OracleAdapter(), samples)
        assert report.predictions == [Prediction(("A",))]


class TestDatasetHash:
    def test_depends_on_content_not_ids(self):
        a = corpus_of("copy A", "reverse B C")
        # the stats are not content: samples with others hash the same
        b = [Sample(s.src, s.tgt, a[0].stats) for s in a]
        assert dataset_hash(a) == dataset_hash(b)

    def test_changes_with_content(self):
        assert dataset_hash(corpus_of("copy A")) != dataset_hash(corpus_of("copy B"))


def four_pair_fixture():
    pairs = [
        ConsistencyPair(("copy", "A"), ("copy_syn", "A"), ("A",)),
        ConsistencyPair(("copy", "B"), ("copy_syn", "B"), ("Z",)),
        ConsistencyPair(("copy", "C"), ("copy_syn", "C"), ("C",)),
        ConsistencyPair(("copy", "D"), ("copy_syn", "D"), ("T",)),
    ]
    adapter = StubAdapter(
        {
            "copy A": "A",
            "copy_syn A": "A",  # equal and correct
            "copy B": "Y",
            "copy_syn B": "Y",  # equal but wrong
            "copy C": "C",
            "copy_syn C": "X",  # unequal, one side right
            "copy D": "R",
            "copy_syn D": "S",  # unequal, both wrong
        }
    )
    return adapter, pairs


class TestRunConsistency:
    def test_four_pair_breakdown(self):
        adapter, pairs = four_pair_fixture()
        report = run_consistency(adapter, pairs)
        assert report.overall == pytest.approx(0.5)
        assert report.extras["consistent_correct"] == pytest.approx(0.25)
        assert report.extras["consistent_incorrect"] == pytest.approx(0.25)
        assert report.extras["consistency_across_incorrect"] == pytest.approx(1 / 3)
        assert report.extras["incorrect_fraction"] == pytest.approx(0.75)

    def test_breakdown_sums_to_consistency(self):
        adapter, pairs = four_pair_fixture()
        report = run_consistency(adapter, pairs)
        total = (
            report.extras["consistent_correct"] + report.extras["consistent_incorrect"]
        )
        assert abs(total - report.overall) <= 1e-9

    def test_all_correct_gives_none_across_incorrect(self):
        pairs = [ConsistencyPair(("copy", "A"), ("copy_syn", "A"), ("A",))]
        adapter = StubAdapter({"copy A": "A", "copy_syn A": "A"})
        report = run_consistency(adapter, pairs)
        assert report.overall == 1.0
        assert report.extras["consistency_across_incorrect"] is None
        assert report.extras["incorrect_fraction"] == 0.0

    def test_error_side_counts_as_inconsistent_and_incorrect(self):
        pairs = [
            ConsistencyPair(("copy", "A"), ("copy_syn", "A"), ("A",)),
            ConsistencyPair(("copy", "B"), ("copy_syn", "B"), ("B",)),
        ]
        adapter = FailingAdapter(
            {"copy A": "A", "copy_syn A": "A", "copy B": "B"},
            failing={"copy_syn B"},
        )
        report = run_consistency(adapter, pairs)
        assert report.overall == pytest.approx(0.5)
        assert report.extras["incorrect_fraction"] == pytest.approx(0.5)
        assert report.errors == {"AdapterError": 1}

    def test_oracle_with_synonym_registry_is_consistent(self):
        corpus = generate_corpus(GrammarParams.default(), 60, seed=21)
        synonyms = SynonymMap.default()
        pairs, _ = make_consistency_pairs(corpus, synonyms)
        assert pairs
        oracle = OracleAdapter(synonyms.registry())
        report = run_consistency(oracle, pairs)
        assert report.overall == 1.0
        assert report.extras["consistency_across_incorrect"] is None

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            run_consistency(OracleAdapter(), [])


ECHO_CHILD = "import sys\nfor line in sys.stdin:\n    sys.stdout.write(line)\n    sys.stdout.flush()\n"

ORACLE_CHILD = (
    "import sys\n"
    "from pcfgset.language import evaluate_text\n"
    "for line in sys.stdin:\n"
    "    print(evaluate_text(line.strip()), flush=True)\n"
)

UPPER_ONCE_CHILD = (
    "import sys\n"
    "line = sys.stdin.readline()\n"
    "print(' '.join(line.split()), flush=True)\n"
)

TWO_LINE_CHILD = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    print(line.strip(), flush=True)\n"
    "    print('extra', flush=True)\n"
)

HANG_CHILD = "import sys, time\nsys.stdin.readline()\ntime.sleep(60)\n"

DIE_CHILD = "import sys\nsys.exit(3)\n"


def child(source):
    return [sys.executable, "-c", source]


class TestSubprocessAdapter:
    def test_echo_child_scores_zero(self):
        corpus = generate_corpus(GrammarParams.default(), 30, seed=31)
        with SubprocessAdapter(child(ECHO_CHILD)) as adapter:
            report = run_accuracy(adapter, corpus)
        # sources start with a function token, targets never contain one
        assert report.overall == 0.0

    def test_oracle_child_scores_one(self):
        corpus = generate_corpus(GrammarParams.default(), 30, seed=32)
        with SubprocessAdapter(child(ORACLE_CHILD)) as adapter:
            report = run_accuracy(adapter, corpus)
        assert report.overall == 1.0
        assert report.errors == {}

    def test_timeout_recorded(self):
        with SubprocessAdapter(child(HANG_CHILD), timeout_s=0.3) as adapter:
            results = adapter.predict_batch(["copy A"])
        assert results[0].error == "Timeout"

    def test_timeout_raises_on_direct_predict(self):
        with SubprocessAdapter(child(HANG_CHILD), timeout_s=0.3) as adapter:
            with pytest.raises(Timeout):
                adapter.predict("copy A")

    def test_dead_child_raises_child_exited(self, monkeypatch):
        monkeypatch.setattr(harness, "MAX_RESTARTS", 2)
        with SubprocessAdapter(child(DIE_CHILD), timeout_s=5.0) as adapter:
            with pytest.raises(ChildExited):
                adapter.predict("copy A")

    def test_stop_tolerates_a_request_left_in_a_dead_pipe(self):
        worker = _Worker([sys.executable, "-c", "pass"], timeout_s=5.0)
        worker._spawn()
        worker.proc.wait()
        worker.proc.stdin.write("copy A")  # no newline: stays buffered
        worker.stop()
        assert worker.proc is None

    def test_one_shot_child_is_restarted(self):
        with SubprocessAdapter(child(UPPER_ONCE_CHILD), timeout_s=5.0) as adapter:
            assert adapter.predict("copy A") == ["copy", "A"]
            assert adapter.predict("copy B") == ["copy", "B"]

    def test_extra_output_line_is_protocol_violation(self):
        # the violation surfaces on the offending request when the second
        # line is already queued, and on the next request at the latest
        with SubprocessAdapter(child(TWO_LINE_CHILD), timeout_s=5.0) as adapter:
            with pytest.raises(ProtocolViolation):
                adapter.predict("copy A")
                time.sleep(0.3)
                adapter.predict("copy B")

    def test_a_reply_line_without_end_stops_at_the_limit(self, monkeypatch):
        # 6,000,000 characters and no newline: more than the longest valid reply
        endless = ("import sys; sys.stdin.readline(); "
                   "sys.stdout.write('A' * 6_000_000); sys.stdout.flush(); sys.stdin.read()")
        monkeypatch.setattr(harness, "MAX_RESTARTS", 0)
        with SubprocessAdapter([sys.executable, "-c", endless], timeout_s=30.0) as adapter:
            (result,) = adapter.predict_batch(["copy A"])
            assert adapter.workers[0].proc is None  # the child was stopped
        assert result.error == "ProtocolViolation"
        assert MAX_REPLY_CHARS == 4 * MAX_OUTPUT_LENGTH < 6_000_000

    def test_parallel_jobs_match_single_worker(self):
        corpus = generate_corpus(GrammarParams.default(), 40, seed=33)
        srcs = [s.src for s in corpus]
        with SubprocessAdapter(child(ORACLE_CHILD)) as single:
            expected = single.predict_batch(srcs)
        with SubprocessAdapter(child(ORACLE_CHILD), jobs=3) as pooled:
            got = pooled.predict_batch(srcs)
        assert got == expected

    def test_rejects_empty_command(self):
        with pytest.raises(ValueError):
            SubprocessAdapter("")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_command_that_cannot_start_reaches_the_caller(self, jobs, capsys):
        with SubprocessAdapter("no-such-command-xyz --flag", jobs=jobs) as adapter:
            with pytest.raises(OSError, match="cannot start no-such-command-xyz --flag"):
                adapter.predict_batch(["copy A", "copy B", "copy C"])
        assert capsys.readouterr().err == ""  # nothing died inside a thread

    def test_a_failure_that_is_not_recoverable_reaches_the_caller(self, monkeypatch):
        def ask(self, worker, src):
            if src == "copy C":
                raise RuntimeError("broken")
            return src.split()

        monkeypatch.setattr(SubprocessAdapter, "_ask", ask)
        with SubprocessAdapter(child(ECHO_CHILD), jobs=2) as adapter:
            assert adapter.predict_batch(["copy A", "copy B"]) == [
                Prediction(("copy", "A")), Prediction(("copy", "B"))]
            with pytest.raises(RuntimeError, match="broken"):
                adapter.predict_batch(["copy A", "copy B", "copy C"])


# Children that misbehave on a given request of their own, counted from 1
# for each process.  Each notes its start in the file named by its first
# argument, and answers a request it serves by echoing it.
MISBEHAVING_PRELUDE = (
    "import sys, time\n"
    "with open(sys.argv[1], 'a') as f:\n"
    "    f.write('x')\n"
    "for n, line in enumerate(sys.stdin, 1):\n"
)
MISBEHAVING_CHILDREN = {
    # (loop body, error tag per request, processes started)
    "exits-at-once": (
        "    sys.exit(3)\n",
        ["ChildExited"] * 5, 15),
    "exits-after-2-replies": (
        "    print(line.strip(), flush=True)\n"
        "    if n == 2:\n"
        "        sys.exit(0)\n",
        [None] * 5, 3),
    "no-newline-then-exits": (
        "    if n == 2:\n"
        "        sys.stdout.write(line.strip())\n"
        "        sys.exit(0)\n"
        "    print(line.strip(), flush=True)\n",
        [None, "ProtocolViolation", None, "ProtocolViolation", None], 3),
    "sleeps-on-3rd-request": (
        "    if n == 3:\n"
        "        time.sleep(60)\n"
        "    print(line.strip(), flush=True)\n",
        [None, None, "Timeout", None, None], 2),
    "two-lines-on-2nd-request": (
        "    extra = 'extra\\n' if n == 2 else ''\n"
        "    sys.stdout.write(line.strip() + '\\n' + extra)\n"
        "    sys.stdout.flush()\n",
        [None, "ProtocolViolation", None, "ProtocolViolation", None], 3),
    "reply-not-utf8": (
        "    sys.stdout.buffer.write(b'A \\xff\\n')\n"
        "    sys.stdout.flush()\n",
        ["ProtocolViolation"] * 5, 5),
}


@pytest.mark.parametrize("name", sorted(MISBEHAVING_CHILDREN))
def test_misbehaving_child_is_recorded_per_sample(name, tmp_path, monkeypatch):
    body, tags, started = MISBEHAVING_CHILDREN[name]
    starts = tmp_path / "starts"
    argv = [sys.executable, "-c", MISBEHAVING_PRELUDE + body, str(starts)]
    srcs = [f"copy {letter}" for letter in "ABCDE"]
    monkeypatch.setattr(harness, "MAX_RESTARTS", 2)
    with SubprocessAdapter(argv, timeout_s=2.0, jobs=1) as adapter:
        results = adapter.predict_batch(srcs)
    assert [r.error for r in results] == tags
    for src, result in zip(srcs, results):
        assert result.tokens == (None if result.error else tuple(src.split()))
    # the first process plus one restart per process that died or was stopped
    assert len(starts.read_text()) == started


def test_a_child_that_exits_mid_share_fails_only_its_own_request(tmp_path, monkeypatch):
    # worker 0 serves A, C and E; its child exits on C however often it is
    # restarted, and a fresh child then serves E
    starts = tmp_path / "starts"
    body = ("    if 'C' in line:\n"
            "        sys.exit(1)\n"
            "    print(line.strip(), flush=True)\n")
    argv = [sys.executable, "-c", MISBEHAVING_PRELUDE + body, str(starts)]
    srcs = [f"copy {letter}" for letter in "ABCDE"]
    monkeypatch.setattr(harness, "MAX_RESTARTS", 2)
    with SubprocessAdapter(argv, timeout_s=5.0, jobs=2) as adapter:
        results = adapter.predict_batch(srcs)
    assert [r.error for r in results] == [None, None, "ChildExited", None, None]
    assert [r.tokens for r in results] == [
        ("copy", "A"), ("copy", "B"), None, ("copy", "D"), ("copy", "E")]
    # worker 0: its first child, two restarts for C and one for E; worker 1: one
    assert len(starts.read_text()) == 5


# Children that answer every request with the bytes given, written in the
# parts given, with a pause between parts.
def replying(*parts: bytes) -> list[str]:
    return child(
        "import sys, time\n"
        "for line in sys.stdin:\n"
        f"    for part in {parts!r}:\n"
        "        sys.stdout.buffer.write(part)\n"
        "        sys.stdout.flush()\n"
        "        time.sleep(0.1)\n"
    )


@pytest.mark.parametrize("parts, tokens", [
    # a two-byte character split across two reads
    ((b"A \xc3", b"\xa9 B\n"), ["A", "\u00e9", "B"]),
    # text mode's line ends: CR LF, also split across two reads
    ((b"B A\r\n",), ["B", "A"]),
    ((b"B A\r", b"\n"), ["B", "A"]),
], ids=["utf8-split", "crlf", "crlf-split"])
def test_a_reply_is_read_whole_whatever_its_parts(parts, tokens, monkeypatch):
    monkeypatch.setattr(harness, "MAX_RESTARTS", 0)
    with SubprocessAdapter(replying(*parts), timeout_s=5.0) as adapter:
        assert [adapter.predict("copy A"), adapter.predict("copy B")] == [tokens, tokens]
        assert adapter.workers[0].proc is not None  # neither reply stopped the child


def test_a_lone_carriage_return_ends_a_line_as_in_text_mode(monkeypatch):
    monkeypatch.setattr(harness, "MAX_RESTARTS", 0)
    with SubprocessAdapter(replying(b"B\rA\n"), timeout_s=5.0) as adapter:
        with pytest.raises(ProtocolViolation, match="extra output line: 'A'"):
            adapter.predict("copy A")


@pytest.mark.parametrize("length, error", [
    (MAX_REPLY_CHARS, None),
    (MAX_REPLY_CHARS + 1, "ProtocolViolation"),
])
def test_the_reply_limit_counts_the_line_with_its_end(length, error, monkeypatch):
    body = f"sys.stdin.readline(); sys.stdout.write('A' * {length - 1} + '\\n'); sys.stdout.flush()"
    monkeypatch.setattr(harness, "MAX_RESTARTS", 0)
    with SubprocessAdapter(child("import sys; " + body), timeout_s=30.0) as adapter:
        (result,) = adapter.predict_batch(["copy A"])
    assert result.error == error
    assert result.tokens == (None if error else ("A" * (length - 1),))


class TestFileAdapter:
    def test_line_aligned_predictions(self, tmp_path):
        samples = corpus_of("copy A", "reverse B C", "echo D")
        path = tmp_path / "preds.txt"
        path.write_text("A\nC B\nD D\n", encoding="utf-8")
        adapter = FileAdapter(path, samples)
        report = run_accuracy(adapter, samples)
        assert report.overall == 1.0

    def test_wrong_line_count_rejected(self, tmp_path):
        samples = corpus_of("copy A", "reverse B C")
        path = tmp_path / "preds.txt"
        path.write_text("A\n", encoding="utf-8")
        with pytest.raises(LineCountMismatch):
            FileAdapter(path, samples)

    def test_unknown_source_is_protocol_violation(self, tmp_path):
        samples = corpus_of("copy A")
        path = tmp_path / "preds.txt"
        path.write_text("A\n", encoding="utf-8")
        adapter = FileAdapter(path, samples)
        with pytest.raises(ProtocolViolation):
            adapter.predict("copy Z")


class TestBuildAdapter:
    def test_oracle(self):
        assert isinstance(build_adapter("oracle"), OracleAdapter)

    def test_faulty(self):
        adapter = build_adapter("faulty:0.25", seed=7)
        assert isinstance(adapter, FaultyOracleAdapter)
        assert adapter.rate == 0.25
        assert adapter.seed == 7

    def test_file(self, tmp_path):
        samples = corpus_of("copy A")
        path = tmp_path / "p.txt"
        path.write_text("A\n", encoding="utf-8")
        adapter = build_adapter(f"file:{path}", testset=samples)
        assert isinstance(adapter, FileAdapter)

    def test_file_without_testset_rejected(self):
        with pytest.raises(ValueError):
            build_adapter("file:whatever.txt")

    def test_cmd(self):
        adapter = build_adapter("cmd:cat", timeout_s=1.0)
        assert isinstance(adapter, SubprocessAdapter)
        adapter.close()

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            build_adapter("telnet:example")


class TestLocalism:
    def test_oracle_is_perfectly_local(self):
        corpus = generate_corpus(GrammarParams.default(), 300, seed=41)
        report = run_localism(OracleAdapter(), corpus)
        assert report.overall == 1.0
        assert report.extras["unroll_failures"] == 0
        assert report.extras["mean_unroll_steps"] >= 1.0

    def test_execute_unroll_matches_direct_evaluation(self):
        sources = ["append swap F G H , repeat I J", "copy A", "swap echo B C"]
        plans = [build_unroll_plan(src.split()) for src in sources]
        finals = execute_unroll(OracleAdapter(), plans)
        assert finals == [Prediction(tuple(evaluate(src.split()))) for src in sources]
        assert finals[0].tokens == ("H", "G", "F", "I", "J", "I", "J")

    def test_runners_batch_their_requests(self):
        corpus = generate_corpus(GrammarParams.default(), 200, seed=41)
        adapter = CountingOracleAdapter()
        run_localism(adapter, corpus)
        longest = max(build_unroll_plan(s.src).num_steps for s in corpus if s.stats.num_functions)
        # the direct batch, then one batch per unroll step of the longest plan
        assert longest > 1 and len(adapter.batches) == 1 + longest
        assert adapter.batches[1] == sum(1 for s in corpus if s.stats.num_functions)
        adapter.batches.clear()
        pairs, _ = make_consistency_pairs(corpus, SynonymMap.default())
        run_consistency(adapter, pairs)
        assert adapter.batches == [2 * len(pairs)]
        adapter.batches.clear()
        cells = TestLengthGeneralisation.cells("reverse", [2, 4, 6])
        run_length_generalisation(adapter, cells)
        assert adapter.batches == [18]

    def test_an_adapter_error_ends_only_its_own_plan(self):
        samples = corpus_of("swap copy A B", "swap copy C D", "reverse E F")
        adapter = FailingAdapter(
            {"swap copy A B": "B A", "swap copy C D": "D C", "reverse E F": "F E",
             "copy A B": "A B", "swap A B": "B A", "copy C D": "C D"},
            failing={"swap C D"},
        )
        report = run_localism(adapter, samples)
        assert report.overall == pytest.approx(2 / 3)
        assert report.errors == {"AdapterError": 1}
        assert report.extras["unroll_failures"] == 1

    def test_capped_adapter_consistent_on_short_arguments(self):
        samples = corpus_of("swap copy A B C", "reverse echo D E", "repeat swap F G")
        report = run_localism(LengthCappedOracleAdapter(5), samples)
        assert report.overall == 1.0

    def test_capped_adapter_inconsistent_on_long_intermediates(self):
        samples = corpus_of("swap copy A B C D E F G")
        report = run_localism(LengthCappedOracleAdapter(5), samples)
        # direct: swap breaks on the 7-symbol string, output truncated;
        # unrolled: copy truncates first, then swap works on 5 symbols
        assert report.overall == 0.0

    def test_mean_steps_counts_function_applications(self):
        samples = corpus_of("copy A", "swap copy B C", "echo append D , repeat E")
        report = run_localism(OracleAdapter(), samples)
        assert report.extras["mean_unroll_steps"] == pytest.approx((1 + 2 + 3) / 3)

    def test_non_literal_intermediate_is_unroll_failure(self):
        # the stub answers the inner step with a non-alphabet token
        adapter = StubAdapter({"copy A": "bogus", "swap copy A": "A"})
        samples = corpus_of("swap copy A")
        report = run_localism(adapter, samples)
        assert report.overall == 0.0
        assert report.errors.get("UnrollFailure") == 1
        assert report.extras["unroll_failures"] == 1

    def test_empty_intermediate_is_unroll_failure(self):
        adapter = StubAdapter({"copy A": "", "swap copy A": "A"})
        samples = corpus_of("swap copy A")
        report = run_localism(adapter, samples)
        assert report.errors.get("UnrollFailure") == 1

    def test_synonym_sources_parse_with_the_given_registry(self):
        registry = SynonymMap.default().registry()
        samples = [Sample.from_src("swap_syn append_syn A , B C".split(), registry)]
        report = run_localism(OracleAdapter(registry), samples, registry=registry)
        assert report.overall == 1.0
        assert report.extras["mean_unroll_steps"] == 2.0

    def test_leaf_only_samples_rejected(self):
        with pytest.raises(ValueError):
            run_localism(OracleAdapter(), [])


class TestOvergeneralisation:
    @staticmethod
    def entries(n):
        rows = []
        for i in range(n):
            rows.append(
                ExceptionEntry(
                    sample_id=i,
                    src=("reverse", "echo", "A", "B"),
                    original_tgt=("O", f"O{i}"),
                    exception_tgt=("E", f"E{i}"),
                    pair=("reverse", "echo"),
                )
            )
        return rows

    @staticmethod
    def predictions(entries, n_overgen, n_memo):
        preds = []
        for i, entry in enumerate(entries):
            if i < n_overgen:
                preds.append(list(entry.original_tgt))
            elif i < n_overgen + n_memo:
                preds.append(list(entry.exception_tgt))
            else:
                preds.append(["junk"])
        return preds

    def test_three_checkpoint_fixture(self):
        entries = self.entries(10)
        checkpoints = [
            ("step-100", self.predictions(entries, 8, 1)),
            ("step-200", self.predictions(entries, 4, 5)),
            ("step-300", self.predictions(entries, 1, 9)),
        ]
        report = run_overgeneralisation(checkpoints, entries)
        overgen, memo, other = (
            report.strata[f] for f in ("overgeneralisation", "memorisation", "other")
        )
        assert list(overgen) == ["step-100", "step-200", "step-300"]
        assert [mean for mean, _ in overgen.values()] == [0.8, 0.4, 0.1]
        assert [mean for mean, _ in memo.values()] == [0.1, 0.5, 0.9]
        assert [mean for mean, _ in other.values()] == pytest.approx([0.1, 0.1, 0.0])
        assert report.overall == 0.8
        assert report.extras == {"peak_checkpoint": "step-100"}
        assert report.count == 10
        for label in overgen:
            assert all(rows[label][1] == 10 for rows in (overgen, memo, other))
            total = overgen[label][0] + memo[label][0] + other[label][0]
            assert abs(total - 1.0) <= 1e-9

    def test_all_original_predictions(self):
        entries = self.entries(4)
        report = run_overgeneralisation(
            [("only", self.predictions(entries, 4, 0))], entries
        )
        assert report.strata["overgeneralisation"]["only"][0] == 1.0
        assert report.strata["memorisation"]["only"][0] == 0.0
        assert report.overall == 1.0

    def test_all_exception_predictions(self):
        entries = self.entries(4)
        report = run_overgeneralisation(
            [("only", self.predictions(entries, 0, 4))], entries
        )
        assert report.strata["overgeneralisation"]["only"][0] == 0.0
        assert report.strata["memorisation"]["only"][0] == 1.0

    def test_tie_keeps_earliest_checkpoint(self):
        entries = self.entries(4)
        checkpoints = [
            ("b", self.predictions(entries, 2, 2)),
            ("a", self.predictions(entries, 2, 0)),
        ]
        report = run_overgeneralisation(checkpoints, entries)
        assert report.extras["peak_checkpoint"] == "b"
        assert report.overall == 0.5

    def test_none_prediction_counts_as_other(self):
        entries = self.entries(2)
        preds = [list(entries[0].original_tgt), None]
        report = run_overgeneralisation([("c", preds)], entries)
        assert report.strata["overgeneralisation"]["c"][0] == 0.5
        assert report.strata["other"]["c"][0] == 0.5

    def test_misaligned_predictions_rejected(self):
        entries = self.entries(3)
        with pytest.raises(LineCountMismatch):
            run_overgeneralisation([("c", [["A"]])], entries)

    def test_a_checkpoint_label_used_twice_is_rejected(self):
        entries = self.entries(1)
        with pytest.raises(ValueError, match="checkpoint 'c' appears twice"):
            run_overgeneralisation([("c", [["A"]]), ("c", [["B"]])], entries)

    def test_empty_inputs_rejected(self):
        entries = self.entries(1)
        with pytest.raises(ValueError):
            run_overgeneralisation([], entries)
        with pytest.raises(ValueError):
            run_overgeneralisation([("c", [["A"]])], [])


class TestLengthGeneralisation:
    @staticmethod
    def cells(fn, lengths, vary_arg=0):
        rng = random.Random(5)
        return {
            (fn, L): make_primitive_length_corpus(fn, [L], 6, rng, vary_arg=vary_arg)
            for L in lengths
        }

    @staticmethod
    def grid(report):
        return {
            (name, length): row for name, rows in report.strata.items() for length, row in rows.items()
        }

    def test_oracle_everywhere_perfect(self):
        cells = self.cells("reverse", [2, 4, 6, 8])
        report = run_length_generalisation(OracleAdapter(), cells)
        grid = self.grid(report)
        assert set(grid) == set(cells)
        assert all(mean == 1.0 for mean, _ in grid.values())
        assert (report.metric, report.overall, report.count) == ("length_generalisation", 1.0, 24)

    def test_capped_oracle_drops_past_cap(self):
        for fn in ("reverse", "echo"):
            cells = self.cells(fn, [8, 2, 5, 4, 6])
            report = run_length_generalisation(LengthCappedOracleAdapter(5), cells)
            assert list(report.strata[fn]) == [2, 4, 5, 6, 8]
            for (name, L), (mean, count) in self.grid(report).items():
                assert count == 6
                assert mean == (1.0 if L <= 5 else 0.0), (name, L)
            assert report.overall == 3 / 5

    def test_capped_oracle_ignores_discarded_first_argument(self):
        cells = self.cells("remove_first", [3, 9, 12], vary_arg=0)
        report = run_length_generalisation(LengthCappedOracleAdapter(5), cells)
        assert all(mean == 1.0 for mean, _ in self.grid(report).values())

    def test_capped_oracle_fails_on_long_kept_argument(self):
        cells = self.cells("remove_first", [9], vary_arg=1)
        report = run_length_generalisation(LengthCappedOracleAdapter(5), cells)
        assert report.strata["remove_first"][9][0] == 0.0

    def test_adapter_errors_score_zero_and_are_tagged(self):
        cells = self.cells("copy", [1, 2])
        failing = {s.src_text() for s in cells[("copy", 2)]}
        table = {s.src_text(): s.tgt_text() for cell in cells.values() for s in cell}
        report = run_length_generalisation(FailingAdapter(table, failing), cells)
        assert report.strata == {"copy": {1: (1.0, 6), 2: (0.0, 6)}}
        assert report.errors == {"AdapterError": 6}

    def test_empty_cell_rejected(self):
        with pytest.raises(ValueError):
            run_length_generalisation(OracleAdapter(), {("copy", 1): []})


class TestEosAnalysis:
    @staticmethod
    def analyse(predictions, targets):
        """The eos report of a test set with these targets, answered with
        these predictions; None is an adapter error."""
        samples = [
            Sample.from_src(["copy", LITERALS[i]])._replace(tgt=tuple(target))
            for i, target in enumerate(targets)
        ]
        table = {s.src_text(): " ".join(p or ()) for s, p in zip(samples, predictions)}
        failing = {s.src_text() for s, p in zip(samples, predictions) if p is None}
        return run_eos_analysis(FailingAdapter(table, failing), samples)

    def test_strict_prefix_counted(self):
        report = self.analyse([["A", "B"]], [["A", "B", "C"]])
        assert report.extras["incorrect"] == 1
        assert report.extras["strict_prefix_frac"] == 1.0
        assert report.extras["substring_frac"] == 1.0

    def test_substring_only_in_secondary_column(self):
        report = self.analyse([["B", "C"]], [["A", "B", "C"]])
        assert report.extras["strict_prefix_frac"] == 0.0
        assert report.extras["substring_frac"] == 1.0

    def test_unrelated_wrong_answer_in_neither(self):
        report = self.analyse([["A", "C"]], [["A", "B", "C"]])
        assert report.extras["strict_prefix_frac"] == 0.0
        assert report.extras["substring_frac"] == 0.0

    def test_correct_predictions_excluded(self):
        report = self.analyse(
            [["A", "B", "C"], ["A", "B"]],
            [["A", "B", "C"], ["A", "B", "C"]],
        )
        assert (report.metric, report.overall, report.count) == ("eos", 0.5, 2)
        assert report.extras["incorrect"] == 1
        assert report.extras["strict_prefix_frac"] == 1.0
        assert list(report.strata) == list(STRATA)
        assert report.strata["function"] == {"copy": (0.5, 2)}

    def test_all_correct_gives_null_fractions(self):
        report = self.analyse([["A"]], [["A"]])
        assert report.overall == 1.0
        assert report.extras["incorrect"] == 0
        assert report.extras["strict_prefix_frac"] is None
        assert report.extras["substring_frac"] is None

    def test_none_prediction_is_incorrect_but_not_contained(self):
        report = self.analyse([None], [["A"]])
        assert report.extras["incorrect"] == 1
        assert report.extras["strict_prefix_frac"] == 0.0
        assert report.extras["substring_frac"] == 0.0
        assert report.errors == {"AdapterError": 1}

    def test_misalignment_rejected(self, tmp_path):
        path = tmp_path / "model.pred"
        path.write_text("A\n", encoding="utf-8")
        samples = corpus_of("copy A", "copy B")
        with pytest.raises(LineCountMismatch):
            run_eos_analysis(build_adapter(f"file:{path}", testset=samples), samples)

    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from("ABCD"), max_size=4),
                st.lists(st.sampled_from("ABCD"), min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_substring_fraction_dominates_prefix_fraction(self, rows):
        predictions = [list(p) for p, _ in rows]
        targets = [list(t) for _, t in rows]
        extras = self.analyse(predictions, targets).extras
        if extras["incorrect"]:
            assert extras["substring_frac"] >= extras["strict_prefix_frac"]


class TestSubstitutivityIntegration:
    def test_equal_distribution_rewrites_stay_consistent(self):
        corpus = generate_corpus(GrammarParams.default(), 80, seed=55)
        synonyms = SynonymMap.default()
        rewritten, audit = substitutivity_equal(corpus, synonyms, rng=random.Random(0))
        oracle = OracleAdapter(synonyms.registry())
        report = run_accuracy(oracle, rewritten)
        assert report.overall == 1.0
        assert any(half > 0 for half, _ in audit.values())
