"""Model adapters and evaluation runners.

An adapter turns a source token sequence into a predicted target token
sequence.  The runners feed test material through an adapter and reduce
the outcomes into evaluation reports: plain accuracy with strata, synonym
consistency, localism unrolling, overgeneralisation profiles over training
checkpoints, length generalisation grids and end-of-sequence analysis.
"""

from __future__ import annotations

import contextlib
import hashlib
import queue
import shlex
import subprocess
import threading
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .generation import Alphabet, Corpus, Sample
from .language import (
    DEFAULT_REGISTRY,
    LITERAL_SET,
    MAX_OUTPUT_LENGTH,
    SEPARATOR,
    FunctionRegistry,
    LanguageError,
    evaluate,
)
from .metrics import aggregate, pairwise_consistency, sequence_accuracy
from .seeding import substream
from .suite import ConsistencyPair, ExceptionEntry, HeldOutPair, UnrollPlan, build_unroll_plan, contains_pair


class AdapterError(Exception):
    """Base for per-sample adapter failures that a runner can record."""


class Timeout(AdapterError):
    """The child process did not answer within the allotted time."""


class ChildExited(AdapterError):
    """The child process died and restarting did not help."""


class ProtocolViolation(AdapterError):
    """The child broke the one-line-in, one-line-out contract."""


class LineCountMismatch(Exception):
    """A prediction source does not line up with the test material."""


class UnrollFailure(Exception):
    """An intermediate unroll output cannot be fed back as an argument."""


# Failures recorded per sample instead of aborting a run.
RECOVERABLE_ERRORS = (AdapterError, LanguageError, UnrollFailure)

# The longest reply line a child may send: MAX_OUTPUT_LENGTH symbols of at
# most three characters, each followed by a space or the newline.
MAX_REPLY_CHARS = 4 * MAX_OUTPUT_LENGTH


@dataclass(frozen=True, slots=True)
class Prediction:
    """One adapter outcome: either a token sequence or an error tag."""

    tokens: tuple[str, ...] | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _coerce_src(src: Sequence[str] | str) -> list[str]:
    if isinstance(src, str):
        return src.split()
    return list(src)


class ModelAdapter:
    """Base adapter: subclasses implement predict for a single source."""

    name: str = "adapter"

    def predict(self, src: Sequence[str] | str) -> list[str]:
        raise NotImplementedError

    def predict_batch(self, srcs: Sequence[Sequence[str] | str]) -> list[Prediction]:
        """Predict each source, recording recoverable failures per sample."""
        results = []
        for src in srcs:
            results.append(self._guarded(src))
        return results

    def _guarded(self, src: Sequence[str] | str) -> Prediction:
        try:
            return Prediction(tuple(self.predict(src)))
        except RECOVERABLE_ERRORS as exc:
            return Prediction(None, type(exc).__name__)

    def close(self) -> None:
        pass

    def __enter__(self) -> "ModelAdapter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class OracleAdapter(ModelAdapter):
    """Ground-truth adapter: evaluates the source."""

    def __init__(self, registry: FunctionRegistry = DEFAULT_REGISTRY):
        self.registry = registry
        self.name = "oracle"

    def predict(self, src: Sequence[str] | str) -> list[str]:
        return list(evaluate(_coerce_src(src), self.registry))


class FaultyOracleAdapter(OracleAdapter):
    """Oracle with a deterministic per-source corruption rate.

    Whether a given source is corrupted depends only on (seed, source
    text), so repeated runs agree and synonym variants of a source are
    corrupted independently.  A corrupted output has one position replaced
    with a different alphabet symbol, so it is always wrong.
    """

    def __init__(
        self,
        rate: float,
        seed: int = 0,
        registry: FunctionRegistry = DEFAULT_REGISTRY,
        alphabet: Alphabet | None = None,
    ):
        super().__init__(registry)
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")
        self.rate = rate
        self.seed = seed
        self.alphabet = alphabet if alphabet is not None else Alphabet.default()
        self.name = f"faulty:{rate:g}"

    def predict(self, src: Sequence[str] | str) -> list[str]:
        out = super().predict(src)
        text = " ".join(_coerce_src(src))
        rng = substream(self.seed, "faulty", text)
        if rng.random() >= self.rate:
            return out
        pos = rng.randrange(len(out))
        wrong = rng.choice(self.alphabet.symbols)
        while wrong == out[pos]:
            wrong = rng.choice(self.alphabet.symbols)
        out[pos] = wrong
        return out


class _Worker:
    """One child process speaking the line protocol."""

    def __init__(self, argv: list[str], timeout_s: float):
        self.argv = argv
        self.timeout_s = timeout_s
        self.proc: subprocess.Popen | None = None
        self.lines: queue.Queue = queue.Queue()

    def _spawn(self) -> None:
        self.proc = subprocess.Popen(
            self.argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            bufsize=1,
        )
        self.lines = queue.Queue()
        thread = threading.Thread(target=self._pump, args=(self.proc, self.lines), daemon=True)
        thread.start()

    @staticmethod
    def _pump(proc: subprocess.Popen, lines: queue.Queue) -> None:
        """Queue the child's output lines, then None at EOF.  A line longer
        than MAX_REPLY_CHARS, so a child cannot grow this process's memory,
        or one the child ended by exiting instead of a newline, so it may
        be cut short, is queued as a ProtocolViolation instead and ends the
        reading."""
        assert proc.stdout is not None
        while line := proc.stdout.readline(MAX_REPLY_CHARS + 1):
            if len(line) > MAX_REPLY_CHARS:
                lines.put(ProtocolViolation(f"reply line longer than {MAX_REPLY_CHARS} characters"))
                return
            if not line.endswith("\n"):
                lines.put(ProtocolViolation("reply line ended without a newline"))
                return
            lines.put(line)
        lines.put(None)  # EOF marker

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def stop(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            if self.proc.stdin is not None:
                # a request still buffered for a dead child cannot be flushed
                with contextlib.suppress(BrokenPipeError):
                    self.proc.stdin.close()
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self.proc = None

    def ask(self, line: str) -> str:
        """Send one request line and wait for exactly one reply line."""
        if not self.alive():
            self.stop()
            self._spawn()
        # A reply queued before we even asked means the child emitted an
        # extra line for some earlier request.
        try:
            stale = self.lines.get_nowait()
        except queue.Empty:
            pass
        else:
            self.stop()
            if isinstance(stale, ProtocolViolation):
                raise stale
            if stale is not None:
                raise ProtocolViolation(f"unsolicited output line: {stale.rstrip()!r}")
            raise ChildExited("child closed its output stream")
        assert self.proc is not None and self.proc.stdin is not None
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            self.stop()
            raise ChildExited(f"child pipe closed: {exc}") from exc
        try:
            reply = self.lines.get(timeout=self.timeout_s)
        except queue.Empty:
            self.stop()
            raise Timeout(f"no reply within {self.timeout_s} seconds") from None
        if isinstance(reply, ProtocolViolation):
            self.stop()
            raise reply
        if reply is None:
            self.stop()
            raise ChildExited("child exited before answering")
        # an immediately queued second line means the child answered with
        # more than one line; an EOF marker just means it exited after
        # answering and will be respawned on the next request
        try:
            extra = self.lines.get_nowait()
        except queue.Empty:
            return reply.rstrip("\n")
        self.stop()
        if extra is None:
            return reply.rstrip("\n")
        if isinstance(extra, ProtocolViolation):
            raise extra
        raise ProtocolViolation(f"extra output line: {extra.rstrip()!r}")


class SubprocessAdapter(ModelAdapter):
    """Adapter speaking a newline-delimited protocol with a child command.

    The child reads one source line from stdin and must answer with exactly
    one prediction line on stdout, flushed.  A crashed child is restarted
    and the request retried up to max_restarts times.  With jobs > 1 a
    fixed pool of children is used and sources are assigned round-robin by
    index, so results do not depend on thread timing.
    """

    def __init__(
        self,
        command: str | Sequence[str],
        timeout_s: float = 30.0,
        jobs: int = 1,
        max_restarts: int = 3,
    ):
        if isinstance(command, str):
            argv = shlex.split(command)
        else:
            argv = list(command)
        if not argv:
            raise ValueError("command must not be empty")
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        self.argv = argv
        self.timeout_s = timeout_s
        self.jobs = jobs
        self.max_restarts = max_restarts
        self.workers = [_Worker(argv, timeout_s) for _ in range(jobs)]
        self.name = f"cmd:{' '.join(argv)}"

    def _ask(self, worker: _Worker, text: str) -> list[str]:
        attempts = self.max_restarts + 1
        for attempt in range(attempts):
            try:
                return worker.ask(text).split()
            except ChildExited:
                if attempt == attempts - 1:
                    raise
        raise AssertionError("unreachable")

    def predict(self, src: Sequence[str] | str) -> list[str]:
        return self._ask(self.workers[0], " ".join(_coerce_src(src)))

    def predict_batch(self, srcs: Sequence[Sequence[str] | str]) -> list[Prediction]:
        if self.jobs == 1:
            return super().predict_batch(srcs)
        results: list[Prediction | None] = [None] * len(srcs)

        def drive(worker_index: int) -> None:
            worker = self.workers[worker_index]
            for i in range(worker_index, len(srcs), self.jobs):
                try:
                    tokens = self._ask(worker, " ".join(_coerce_src(srcs[i])))
                    results[i] = Prediction(tuple(tokens))
                except RECOVERABLE_ERRORS as exc:
                    results[i] = Prediction(None, type(exc).__name__)

        threads = [threading.Thread(target=drive, args=(w,)) for w in range(self.jobs)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def close(self) -> None:
        for worker in self.workers:
            worker.stop()


class FileAdapter(ModelAdapter):
    """Adapter serving predictions from a line-aligned file.

    Line i of the file is the prediction for sample i of the test set, so
    the file must have exactly one line per test sample.  A line that is
    not UTF-8 raises ``corpus_io.MalformedLine``.
    """

    def __init__(self, path, testset: Corpus | Sequence[Sample]):
        from .corpus_io import read_token_file  # corpus_io imports this module

        samples = list(testset)
        lines = read_token_file(path)
        if len(lines) != len(samples):
            raise LineCountMismatch(
                f"{path}: {len(lines)} prediction lines for {len(samples)} test samples"
            )
        self.by_src: dict[str, tuple[str, ...]] = {}
        for sample, line in zip(samples, lines):
            self.by_src[sample.src_text()] = tuple(line)
        self.name = f"file:{path}"

    def predict(self, src: Sequence[str] | str) -> list[str]:
        text = " ".join(_coerce_src(src))
        try:
            return list(self.by_src[text])
        except KeyError:
            raise ProtocolViolation(f"no stored prediction for source: {text!r}") from None


def build_adapter(
    description: str,
    *,
    testset: Corpus | Sequence[Sample] | None = None,
    registry: FunctionRegistry = DEFAULT_REGISTRY,
    timeout_s: float = 30.0,
    jobs: int = 1,
    seed: int = 0,
) -> ModelAdapter:
    """Construct an adapter from a descriptor string.

    Accepted forms: "oracle", "faulty:<rate>", "file:<path>" (needs the
    test set for line alignment) and "cmd:<command>".
    """
    if description == "oracle":
        return OracleAdapter(registry)
    if description.startswith("faulty:"):
        rate = float(description.split(":", 1)[1])
        return FaultyOracleAdapter(rate, seed=seed, registry=registry)
    if description.startswith("file:"):
        path = description.split(":", 1)[1]
        if testset is None:
            raise ValueError("file adapters need the test set for line alignment")
        return FileAdapter(path, testset)
    if description.startswith("cmd:"):
        return SubprocessAdapter(description.split(":", 1)[1], timeout_s=timeout_s, jobs=jobs)
    raise ValueError(f"unknown adapter description: {description!r}")


def dataset_hash(samples: Iterable[Sample]) -> str:
    """Content hash over (src, tgt) pairs, independent of ids."""
    digest = hashlib.sha256()
    for sample in samples:
        digest.update(sample.src_text().encode("utf-8"))
        digest.update(b"\t")
        digest.update(sample.tgt_text().encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class EvaluationReport:
    """Outcome of one evaluation run.

    strata maps a family name (length, depth, num_functions, function,
    pair) to per-label (mean, count) rows.  The overall score is always
    the count-weighted mean of any stratum family.
    """

    metric: str
    overall: float
    count: int
    strata: dict[str, dict[object, tuple[float, int]]]
    errors: dict[str, int] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    predictions: list[Prediction] | None = None

    def to_dict(self) -> dict:
        strata = {
            family: {
                str(label): {"mean": mean, "count": count}
                for label, (mean, count) in sorted(rows.items(), key=lambda kv: str(kv[0]))
            }
            for family, rows in self.strata.items()
        }
        return {
            "metric": self.metric,
            "overall": self.overall,
            "count": self.count,
            "strata": strata,
            "errors": dict(self.errors),
            "metadata": dict(self.metadata),
            "extras": dict(self.extras),
        }


STRATA_FAMILIES = ("length", "depth", "num_functions", "function")


def _sample_labels(
    sample: Sample,
    families: Sequence[str],
    pairs: Sequence[HeldOutPair] | None,
) -> dict[str, object]:
    labels: dict[str, object] = {}
    for family in families:
        if family == "length":
            labels[family] = sample.stats.length
        elif family == "depth":
            labels[family] = sample.stats.depth
        elif family == "num_functions":
            labels[family] = sample.stats.num_functions
        elif family == "function":
            labels[family] = sample.src[0]
        elif family == "pair":
            if pairs is None:
                raise ValueError("pair stratification needs the held-out pair list")
            containing = [p for p in pairs if contains_pair(sample.src, [p])]
            labels[family] = " ".join(
                f"{p.outer}+{p.inner}" for p in containing
            ) or "none"
        else:
            raise ValueError(f"unknown stratum family: {family}")
    return labels


def _stratify(
    scores: Sequence[float],
    samples: Sequence[Sample],
    families: Sequence[str],
    pairs: Sequence[HeldOutPair] | None,
) -> dict[str, dict[object, tuple[float, int]]]:
    strata: dict[str, dict[object, tuple[float, int]]] = {}
    for family in families:
        labels = [_sample_labels(s, [family], pairs)[family] for s in samples]
        _, rows = aggregate(scores, labels)
        strata[family] = rows
    return strata


def _error_counts(predictions: Sequence[Prediction]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for pred in predictions:
        if pred.error is not None:
            counts[pred.error] = counts.get(pred.error, 0) + 1
    return counts


def run_accuracy(
    adapter: ModelAdapter,
    testset: Corpus | Sequence[Sample],
    *,
    strata: Sequence[str] = STRATA_FAMILIES,
    pairs: Sequence[HeldOutPair] | None = None,
    keep_predictions: bool = False,
) -> EvaluationReport:
    """Exact-match sequence accuracy with per-stratum breakdowns."""
    samples = list(testset)
    predictions = adapter.predict_batch([s.src for s in samples])
    scores = [
        sequence_accuracy(pred.tokens, sample.tgt) if pred.ok else 0.0
        for pred, sample in zip(predictions, samples)
    ]
    overall = sum(scores) / len(scores) if scores else 0.0
    report = EvaluationReport(
        metric="accuracy",
        overall=overall,
        count=len(samples),
        strata=_stratify(scores, samples, strata, pairs),
        errors=_error_counts(predictions),
        metadata={"adapter": adapter.name, "dataset_hash": dataset_hash(samples)},
    )
    if keep_predictions:
        report.predictions = list(predictions)
    return report


def run_consistency(
    adapter: ModelAdapter,
    pairs: Sequence[ConsistencyPair],
    *,
    keep_predictions: bool = False,
) -> EvaluationReport:
    """Synonym consistency with correct/incorrect breakdown.

    consistency splits into consistent_correct (both sides equal the
    target) and consistent_incorrect (both sides equal but wrong);
    consistency_across_incorrect renormalises the latter by the fraction
    of pairs with at least one wrong side, and is None when every pair is
    fully correct.
    """
    if not pairs:
        raise ValueError("need at least one consistency pair")
    base_preds = adapter.predict_batch([p.src_base for p in pairs])
    syn_preds = adapter.predict_batch([p.src_syn for p in pairs])
    scores = []
    n_consistent_correct = 0
    n_consistent_incorrect = 0
    n_incorrect = 0
    for pair, base, syn in zip(pairs, base_preds, syn_preds):
        if base.ok and syn.ok:
            same = base.tokens == syn.tokens
            correct = same and base.tokens == pair.tgt
        else:
            same = False
            correct = False
        wrong_somewhere = not (
            base.ok and syn.ok and base.tokens == pair.tgt and syn.tokens == pair.tgt
        )
        scores.append(1.0 if same else 0.0)
        if same and correct:
            n_consistent_correct += 1
        elif same:
            n_consistent_incorrect += 1
        if wrong_somewhere:
            n_incorrect += 1
    n = len(pairs)
    overall = sum(scores) / n
    lengths = [len(p.src_base) for p in pairs]
    _, by_length = aggregate(scores, lengths)
    incorrect_fraction = n_incorrect / n
    across = (n_consistent_incorrect / n) / incorrect_fraction if n_incorrect else None
    errors = _error_counts(base_preds)
    for tag, count in _error_counts(syn_preds).items():
        errors[tag] = errors.get(tag, 0) + count
    report = EvaluationReport(
        metric="consistency",
        overall=overall,
        count=n,
        strata={"length": by_length},
        errors=errors,
        metadata={"adapter": adapter.name},
        extras={
            "consistent_correct": n_consistent_correct / n,
            "consistent_incorrect": n_consistent_incorrect / n,
            "incorrect_fraction": incorrect_fraction,
            "consistency_across_incorrect": across,
        },
    )
    if keep_predictions:
        report.predictions = list(base_preds) + list(syn_preds)
    return report


def execute_unroll(adapter: ModelAdapter, plan: UnrollPlan) -> list[str]:
    """Run an unroll plan step by step through the adapter.

    Each step queries the adapter on a single-function sequence whose
    arguments are literals or earlier step outputs.  Outputs fed back in
    must be non-empty runs of alphabet symbols, otherwise the sequence for
    the next step would not be well formed and UnrollFailure is raised.
    """
    outputs: list[list[str]] = []
    for step in plan.steps:
        tokens: list[str] = [step.fn_name]
        for position, (kind, value) in enumerate(step.args):
            if position:
                tokens.append(SEPARATOR)
            if kind == "lit":
                tokens.extend(value)
            else:
                previous = outputs[value]
                if not previous:
                    raise UnrollFailure("empty intermediate output")
                for token in previous:
                    if token not in LITERAL_SET:
                        raise UnrollFailure(
                            f"intermediate output token {token!r} is not an alphabet symbol"
                        )
                tokens.extend(previous)
        outputs.append(list(adapter.predict(tokens)))
    return outputs[-1]


def run_localism(
    adapter: ModelAdapter,
    samples: Corpus | Sequence[Sample],
    *,
    registry: FunctionRegistry = DEFAULT_REGISTRY,
    keep_predictions: bool = False,
) -> EvaluationReport:
    """Compare direct predictions against step-by-step unrolled ones.

    Each source is folded with ``registry`` to plan its unrolling.
    """
    items = [s for s in samples if s.stats.num_functions >= 1]
    if not items:
        raise ValueError("localism needs samples containing at least one function")
    direct_preds = adapter.predict_batch([s.src for s in items])
    scores = []
    errors = _error_counts(direct_preds)
    steps_total = 0
    failures = 0
    for sample, direct in zip(items, direct_preds):
        plan = build_unroll_plan(sample.src, registry)
        steps_total += plan.num_steps
        try:
            unrolled = execute_unroll(adapter, plan)
        except RECOVERABLE_ERRORS as exc:
            tag = type(exc).__name__
            errors[tag] = errors.get(tag, 0) + 1
            failures += 1
            scores.append(0.0)
            continue
        if direct.ok:
            scores.append(pairwise_consistency(direct.tokens, unrolled))
        else:
            scores.append(0.0)
    overall = sum(scores) / len(scores)
    labels = [s.stats.num_functions for s in items]
    _, by_steps = aggregate(scores, labels)
    report = EvaluationReport(
        metric="localism_consistency",
        overall=overall,
        count=len(items),
        strata={"num_functions": by_steps},
        errors=errors,
        metadata={"adapter": adapter.name, "dataset_hash": dataset_hash(items)},
        extras={"mean_unroll_steps": steps_total / len(items), "unroll_failures": failures},
    )
    if keep_predictions:
        report.predictions = list(direct_preds)
    return report


@dataclass(frozen=True, slots=True)
class OverallProfilePoint:
    """Exception-set outcome fractions at one training checkpoint."""

    checkpoint: str
    overgeneralisation_frac: float
    memorisation_frac: float
    other_frac: float

    def __post_init__(self):
        total = self.overgeneralisation_frac + self.memorisation_frac + self.other_frac
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {total!r}")


def run_overgeneralisation(
    checkpoints: Sequence[tuple[str, Sequence[Sequence[str] | None]]],
    exception_set: Sequence[ExceptionEntry],
) -> tuple[list[OverallProfilePoint], OverallProfilePoint]:
    """Profile exception-set predictions across training checkpoints.

    For each checkpoint, a prediction matching the original compositional
    target counts as overgeneralisation (the rule was applied although the
    training data said otherwise), one matching the exception target counts
    as memorisation, and anything else as other.  Returns the profile and
    the point with the highest overgeneralisation fraction (earliest wins
    ties).
    """
    if not exception_set:
        raise ValueError("need at least one exception entry")
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    entries = list(exception_set)
    profile = []
    for label, predictions in checkpoints:
        if len(predictions) != len(entries):
            raise LineCountMismatch(
                f"checkpoint {label!r}: {len(predictions)} predictions "
                f"for {len(entries)} exception entries"
            )
        n_overgen = 0
        n_memo = 0
        for entry, prediction in zip(entries, predictions):
            tokens = None if prediction is None else tuple(prediction)
            if tokens == entry.original_tgt:
                n_overgen += 1
            elif tokens == entry.exception_tgt:
                n_memo += 1
        n = len(entries)
        profile.append(
            OverallProfilePoint(
                checkpoint=label,
                overgeneralisation_frac=n_overgen / n,
                memorisation_frac=n_memo / n,
                other_frac=(n - n_overgen - n_memo) / n,
            )
        )
    peak = max(profile, key=lambda point: point.overgeneralisation_frac)
    return profile, peak


def run_length_generalisation(
    adapter: ModelAdapter,
    cells: Mapping[tuple[str, int], Corpus | Sequence[Sample]],
) -> dict[tuple[str, int], tuple[float, int]]:
    """Accuracy per (function, argument length) cell."""
    grid: dict[tuple[str, int], tuple[float, int]] = {}
    for key in sorted(cells):
        samples = list(cells[key])
        if not samples:
            raise ValueError(f"empty cell: {key!r}")
        predictions = adapter.predict_batch([s.src for s in samples])
        scores = [
            sequence_accuracy(pred.tokens, sample.tgt) if pred.ok else 0.0
            for pred, sample in zip(predictions, samples)
        ]
        grid[key] = (sum(scores) / len(scores), len(scores))
    return grid


def run_eos_analysis(
    predictions: Sequence[Sequence[str] | None],
    targets: Sequence[Sequence[str]],
) -> dict[str, float | int | None]:
    """Characterise wrong predictions as early stops or fragments.

    Among incorrect predictions, strict_prefix_frac counts those that are
    proper prefixes of the target (the output simply stopped early) and
    substring_frac those appearing as a contiguous window anywhere in the
    target.  Prefixes are substrings, so the second fraction is never
    smaller.  With no incorrect predictions both fractions are None.
    """
    if len(predictions) != len(targets):
        raise LineCountMismatch(
            f"{len(predictions)} predictions for {len(targets)} targets"
        )
    incorrect = 0
    prefixes = 0
    substrings = 0
    for prediction, target in zip(predictions, targets):
        tgt = tuple(target)
        pred = None if prediction is None else tuple(prediction)
        if pred == tgt:
            continue
        incorrect += 1
        if pred is None:
            continue
        if len(pred) < len(tgt) and tgt[: len(pred)] == pred:
            prefixes += 1
        window = len(pred)
        if window <= len(tgt) and any(
            tgt[start : start + window] == pred for start in range(len(tgt) - window + 1)
        ):
            substrings += 1
    return {
        "total": len(targets),
        "incorrect": incorrect,
        "strict_prefix_frac": prefixes / incorrect if incorrect else None,
        "substring_frac": substrings / incorrect if incorrect else None,
    }
