"""Model adapters and evaluation runners.

An adapter turns a source token sequence into a predicted target token
sequence.  Each runner feeds test material through an adapter (or, for the
overgeneralisation profile, reads checkpoint predictions) and reduces the
outcomes into one EvaluationReport: plain accuracy with strata, synonym
consistency, localism unrolling, overgeneralisation profiles over training
checkpoints, length generalisation grids and end-of-sequence analysis.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import os
import selectors
import shlex
import subprocess
import threading
import time
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .corpus_io import read_token_file
from .generation import Corpus, Sample
from .language import (
    DEFAULT_REGISTRY,
    LITERAL_SET,
    LITERALS,
    MAX_OUTPUT_LENGTH,
    SEPARATOR,
    FunctionRegistry,
    LanguageError,
    evaluate,
)
from .metrics import aggregate
from .seeding import substream
from .suite import (
    ConsistencyPair, ExceptionEntry, HeldOutPair, UnrollPlan, UnrollStep, build_unroll_plan, contains_pair,
)


class AdapterError(Exception):
    """Base for per-sample adapter failures that a runner can record."""


class Timeout(AdapterError):
    """The child process did not answer within the allotted time."""


class ChildExited(AdapterError):
    """The child process died and restarting did not help."""


class ProtocolViolation(AdapterError):
    """The child broke the one-line-in, one-line-out contract."""


class LineCountMismatch(ValueError):
    """A prediction source does not line up with the test material."""


# Failures recorded per sample instead of aborting a run.
RECOVERABLE_ERRORS = (AdapterError, LanguageError)

# The longest reply line a child may send: MAX_OUTPUT_LENGTH symbols of at
# most three characters, each followed by a space or the newline.
MAX_REPLY_CHARS = 4 * MAX_OUTPUT_LENGTH


class Prediction(NamedTuple):
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


def _attempt_each(
    predict: Callable[[Sequence[str] | str], Sequence[str]],
    srcs: Sequence[Sequence[str] | str],
) -> list[Prediction]:
    """Predict each source in turn; the one place where a recoverable
    failure becomes a Prediction tagged with the exception's class name."""
    results = []
    for src in srcs:
        try:
            results.append(Prediction(tuple(predict(src))))
        except RECOVERABLE_ERRORS as exc:
            results.append(Prediction(None, type(exc).__name__))
    return results


class ModelAdapter:
    """Base adapter: subclasses implement predict for a single source, and
    the runners reach every adapter through predict_batch."""

    name: str = "adapter"

    def predict(self, src: Sequence[str] | str) -> list[str]:
        raise NotImplementedError

    def predict_batch(self, srcs: Sequence[Sequence[str] | str]) -> list[Prediction]:
        """Predict each source, recording recoverable failures per sample."""
        return _attempt_each(self.predict, srcs)

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
    with a different literal, so it is always wrong.
    """

    def __init__(self, rate: float, seed: int = 0, registry: FunctionRegistry = DEFAULT_REGISTRY):
        super().__init__(registry)
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")
        self.rate = rate
        self.seed = seed
        self.name = f"faulty:{rate:g}"

    def predict(self, src: Sequence[str] | str) -> list[str]:
        out = super().predict(src)
        text = " ".join(_coerce_src(src))
        rng = substream(self.seed, "faulty", text)
        if rng.random() >= self.rate:
            return out
        pos = rng.randrange(len(out))
        wrong = rng.choice(LITERALS)
        while wrong == out[pos]:
            wrong = rng.choice(LITERALS)
        out[pos] = wrong
        return out


# What _Worker._read_line returns when no whole line came in time.
_NO_LINE = object()

# The most one read of a child's stdout takes: a pipe's default capacity.
READ_SIZE = 65536

# How often a request is retried, each time in a restarted child, after
# its child exited.
MAX_RESTARTS = 3


class _Worker:
    """One child process speaking the line protocol.

    Replies are read on the calling thread: a selector waits on the
    child's stdout, whose bytes are cut into lines as text mode would cut
    them (at LF, CR LF or a lone CR), and each line is decoded when it is
    taken.
    """

    def __init__(self, argv: list[str], timeout_s: float):
        self.argv = argv
        self.timeout_s = timeout_s
        self.proc: subprocess.Popen | None = None
        self.selector: selectors.BaseSelector | None = None
        self.fd = -1
        self.buffer = b""
        self.eof = False

    def _spawn(self) -> None:
        try:
            self.proc = subprocess.Popen(
                self.argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                encoding="utf-8",
                bufsize=1,
            )
        except OSError as exc:
            # not recoverable: no later request could start it either
            raise OSError(f"cannot start {shlex.join(self.argv)}: {exc.strerror or exc}") from exc
        assert self.proc.stdout is not None
        # read at its descriptor, never through its text wrapper
        self.fd = self.proc.stdout.fileno()
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.fd, selectors.EVENT_READ)
        self.buffer = b""
        self.eof = False

    def _cut(self):
        """Cut the next whole line off the buffer: its text without its
        end, None at EOF with nothing left, or _NO_LINE while no line is
        whole.  A line longer than MAX_REPLY_CHARS with its end, so a
        child cannot grow this process's memory, or one the child ended by
        exiting instead of a newline, so it may be cut short, or one that
        is not UTF-8 raises ProtocolViolation.  The limit counts bytes,
        which are characters in every valid reply."""
        buf = self.buffer
        end = buf.find(b"\n", 0, MAX_REPLY_CHARS)
        cr = buf.find(b"\r", 0, MAX_REPLY_CHARS if end < 0 else end)
        if cr >= 0:
            if cr + 1 == len(buf) and not self.eof:
                return _NO_LINE  # a CR LF split across two reads
            end, after = cr, cr + 2 if buf[cr + 1 : cr + 2] == b"\n" else cr + 1
        elif end >= 0:
            after = end + 1
        elif len(buf) > MAX_REPLY_CHARS:
            raise ProtocolViolation(f"reply line longer than {MAX_REPLY_CHARS} characters")
        elif not self.eof:
            return _NO_LINE
        elif buf:
            raise ProtocolViolation("reply line ended without a newline")
        else:
            return None
        line, self.buffer = buf[:end], buf[after:]
        try:
            return line.decode()
        except UnicodeDecodeError:
            raise ProtocolViolation("reply line is not UTF-8") from None

    def _read_line(self, timeout_s: float):
        """The child's next line as _cut gives it, waiting up to timeout_s
        seconds for it to be whole."""
        deadline = time.monotonic() + timeout_s
        while (line := self._cut()) is _NO_LINE:
            if not self.selector.select(max(deadline - time.monotonic(), 0.0)):
                return _NO_LINE
            chunk = os.read(self.fd, READ_SIZE)
            self.eof = not chunk
            self.buffer += chunk
        return line

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def stop(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.selector.close()
            if self.proc.stdin is not None:
                # a request still buffered for a dead child cannot be flushed
                with contextlib.suppress(BrokenPipeError):
                    self.proc.stdin.close()
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self.proc = None

    def ask(self, line: str) -> str:
        """Send one request line and wait for exactly one reply line.  A
        child that fails the request is stopped."""
        if not self.alive():
            self.stop()
            self._spawn()
        try:
            return self._exchange(line)
        except AdapterError:
            self.stop()
            raise

    def _exchange(self, line: str) -> str:
        # a line waiting before we even asked is an extra one for some
        # earlier request
        stale = self._read_line(0.0)
        if stale is None:
            raise ChildExited("child closed its output stream")
        if stale is not _NO_LINE:
            raise ProtocolViolation(f"unsolicited output line: {stale.rstrip()!r}")
        assert self.proc is not None and self.proc.stdin is not None
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise ChildExited(f"child pipe closed: {exc}") from exc
        reply = self._read_line(self.timeout_s)
        if reply is _NO_LINE:
            raise Timeout(f"no reply within {self.timeout_s} seconds")
        if reply is None:
            raise ChildExited("child exited before answering")
        # a second line already waiting means the child answered with more
        # than one line; EOF just means it exited after answering and will
        # be respawned on the next request
        extra = self._read_line(0.0)
        if extra is _NO_LINE or extra is None:
            return reply
        raise ProtocolViolation(f"extra output line: {extra.rstrip()!r}")


class SubprocessAdapter(ModelAdapter):
    """Adapter speaking a newline-delimited protocol with a child command.

    The child reads one source line from stdin and must answer with exactly
    one prediction line on stdout, flushed.  A crashed child is restarted
    and the request retried up to MAX_RESTARTS times.  A batch is served
    by a fixed pool of jobs children, each on its own thread, with sources
    assigned round-robin by index, so results do not depend on thread
    timing.
    """

    def __init__(
        self,
        command: str | Sequence[str],
        timeout_s: float = 30.0,
        jobs: int = 1,
    ):
        if isinstance(command, str):
            argv = shlex.split(command)
        else:
            argv = list(command)
        if not argv:
            raise ValueError("command must not be empty")
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.argv = argv
        self.timeout_s = timeout_s
        self.jobs = jobs
        self.workers = [_Worker(argv, timeout_s) for _ in range(jobs)]
        self.name = f"cmd:{' '.join(argv)}"

    def _ask(self, worker: _Worker, src: Sequence[str] | str) -> list[str]:
        text = " ".join(_coerce_src(src))
        for _ in range(MAX_RESTARTS):
            with contextlib.suppress(ChildExited):
                return worker.ask(text).split()
        return worker.ask(text).split()

    def predict(self, src: Sequence[str] | str) -> list[str]:
        return self._ask(self.workers[0], src)

    def predict_batch(self, srcs: Sequence[Sequence[str] | str]) -> list[Prediction]:
        """Serve sources w, w + jobs, ... from worker w.  An exception that
        is not a recoverable error reaches the caller, the first worker's
        first."""
        shares: list[list[Prediction] | Exception] = [[] for _ in self.workers]

        def serve(w: int) -> None:
            try:
                shares[w] = _attempt_each(
                    functools.partial(self._ask, self.workers[w]), srcs[w :: self.jobs]
                )
            except Exception as exc:
                shares[w] = exc

        threads = [threading.Thread(target=serve, args=(w,)) for w in range(self.jobs)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        results: list = [None] * len(srcs)
        for w, share in enumerate(shares):
            if isinstance(share, Exception):
                raise share
            results[w :: self.jobs] = share
        return results

    def close(self) -> None:
        for worker in self.workers:
            worker.stop()


class FileAdapter(ModelAdapter):
    """Adapter serving predictions from a line-aligned file.

    Line i of the file is the prediction for sample i of the test set, so
    the file must have exactly one line per test sample.  A source that
    occurs more than once is served its lines in file order: the k-th
    request for it gets its k-th line, cycling round.  A line that is not
    UTF-8 raises ``corpus_io.MalformedLine``.
    """

    def __init__(self, path, testset: Corpus | Sequence[Sample]):
        samples = list(testset)
        lines = read_token_file(path)
        if len(lines) != len(samples):
            raise LineCountMismatch(
                f"{path}: {len(lines)} prediction lines for {len(samples)} test samples"
            )
        by_src: dict[str, list[tuple[str, ...]]] = {}
        for sample, line in zip(samples, lines):
            by_src.setdefault(sample.src_text(), []).append(tuple(line))
        self.replies = {text: itertools.cycle(rows) for text, rows in by_src.items()}
        self.name = f"file:{path}"

    def predict(self, src: Sequence[str] | str) -> list[str]:
        text = " ".join(_coerce_src(src))
        try:
            return list(next(self.replies[text]))
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
    """Content hash over the (src, tgt) pairs in order."""
    digest = hashlib.sha256()
    for sample in samples:
        digest.update(sample.src_text().encode("utf-8"))
        digest.update(b"\t")
        digest.update(sample.tgt_text().encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


class EvaluationReport:
    """Outcome of one evaluation run, whatever the mode.

    strata maps a family name to per-label (mean, count) rows; strata.csv
    lists the families by name and each family's rows in this order.  What overall and count mean depends on
    the metric:

    - accuracy and eos: exact match over count test samples, the
      count-weighted mean of any of the length, depth, num_functions,
      function and pair families;
    - consistency: the share of count synonym pairs whose two sides are
      predicted alike, per source length;
    - localism_consistency: the share of count samples whose direct and
      unrolled predictions agree, per number of functions;
    - length_generalisation: exact match over the count samples of every
      cell, with one family per function and one row per length;
    - overgeneralisation_profile: the highest overgeneralisation fraction
      of any checkpoint over count exception entries, with the
      overgeneralisation, memorisation and other families holding one
      fraction per checkpoint.
    """

    def __init__(
        self,
        metric: str,
        overall: float,
        count: int,
        strata: dict[str, dict[object, tuple[float, int]]],
        errors: dict[str, int] | None = None,
        metadata: dict | None = None,
        extras: dict | None = None,
        predictions: list[Prediction] | None = None,
    ):
        self.metric = metric
        self.overall = overall
        self.count = count
        self.strata = strata
        self.errors = {} if errors is None else errors
        self.metadata = {} if metadata is None else metadata
        self.extras = {} if extras is None else extras
        self.predictions = predictions

    def to_dict(self) -> dict:
        strata = {
            family: {
                str(label): {"mean": mean, "count": count} for label, (mean, count) in rows.items()
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


def _label(sample: Sample, family: str, pairs: Sequence[HeldOutPair] | None) -> object:
    """The label of a sample in one stratum family."""
    if family == "length":
        return sample.stats.length
    if family == "depth":
        return sample.stats.depth
    if family == "num_functions":
        return sample.stats.num_functions
    if family == "function":
        return sample.src[0]
    if family == "pair":
        if pairs is None:
            raise ValueError("pair stratification needs the held-out pair list")
        containing = [p for p in pairs if contains_pair(sample.src, [p])]
        return " ".join(f"{p.outer}+{p.inner}" for p in containing) or "none"
    raise ValueError(f"unknown stratum family: {family}")


def _label_rows(
    scores: Sequence[float], labels: Sequence[object]
) -> dict[object, tuple[float, int]]:
    """Per-label (mean, count) rows, in the order of the labels' text."""
    _, rows = aggregate(scores, labels)
    return dict(sorted(rows.items(), key=lambda kv: str(kv[0])))


def _stratify(
    scores: Sequence[float],
    samples: Sequence[Sample],
    families: Sequence[str],
    pairs: Sequence[HeldOutPair] | None,
) -> dict[str, dict[object, tuple[float, int]]]:
    return {
        family: _label_rows(scores, [_label(s, family, pairs) for s in samples])
        for family in families
    }


def _error_counts(predictions: Sequence[Prediction]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for pred in predictions:
        if pred.error is not None:
            counts[pred.error] = counts.get(pred.error, 0) + 1
    return counts


def _accuracy_scores(predictions: Iterable[Prediction], samples: Sequence[Sample]) -> list[float]:
    """Exact-match score per sample; an error tag, whose tokens are None,
    scores zero."""
    return [
        1.0 if pred.tokens == sample.tgt else 0.0
        for sample, pred in zip(samples, predictions)
    ]


def _exact_match_report(
    metric: str,
    adapter: ModelAdapter,
    samples: Sequence[Sample],
    families: Sequence[str],
    pairs: Sequence[HeldOutPair] | None,
) -> EvaluationReport:
    predictions = adapter.predict_batch([s.src for s in samples])
    scores = _accuracy_scores(predictions, samples)
    return EvaluationReport(
        metric=metric,
        overall=sum(scores) / len(scores) if scores else 0.0,
        count=len(samples),
        strata=_stratify(scores, samples, families, pairs),
        errors=_error_counts(predictions),
        metadata={"adapter": adapter.name, "dataset_hash": dataset_hash(samples)},
        predictions=predictions,
    )


def run_accuracy(
    adapter: ModelAdapter,
    testset: Corpus | Sequence[Sample],
    *,
    strata: Sequence[str] = STRATA_FAMILIES,
    pairs: Sequence[HeldOutPair] | None = None,
) -> EvaluationReport:
    """Exact-match sequence accuracy with per-stratum breakdowns."""
    return _exact_match_report("accuracy", adapter, list(testset), strata, pairs)


def run_consistency(adapter: ModelAdapter, pairs: Sequence[ConsistencyPair]) -> EvaluationReport:
    """Synonym consistency with correct/incorrect breakdown.

    Base and synonym sources go out as one batch.  consistency splits
    into consistent_correct (both sides equal the target) and
    consistent_incorrect (both sides equal but wrong);
    consistency_across_incorrect renormalises the latter by the fraction
    of pairs with at least one wrong side, and is None when every pair is
    fully correct.
    """
    if not pairs:
        raise ValueError("need at least one consistency pair")
    n = len(pairs)
    predictions = adapter.predict_batch(
        [p.src_base for p in pairs] + [p.src_syn for p in pairs]
    )
    scores = []
    n_consistent_correct = 0
    n_consistent_incorrect = 0
    for pair, base, syn in zip(pairs, predictions[:n], predictions[n:]):
        same = base.ok and syn.ok and base.tokens == syn.tokens
        scores.append(1.0 if same else 0.0)
        if same and base.tokens == pair.tgt:
            n_consistent_correct += 1
        elif same:
            n_consistent_incorrect += 1
    overall = sum(scores) / n
    by_length = _label_rows(scores, [len(p.src_base) for p in pairs])
    # a pair is wrong on some side unless both sides equal the target,
    # which makes it consistent and correct
    n_incorrect = n - n_consistent_correct
    incorrect_fraction = n_incorrect / n
    across = (n_consistent_incorrect / n) / incorrect_fraction if n_incorrect else None
    return EvaluationReport(
        metric="consistency",
        overall=overall,
        count=n,
        strata={"length": by_length},
        errors=_error_counts(predictions),
        metadata={"adapter": adapter.name},
        extras={
            "consistent_correct": n_consistent_correct / n,
            "consistent_incorrect": n_consistent_incorrect / n,
            "incorrect_fraction": incorrect_fraction,
            "consistency_across_incorrect": across,
        },
        predictions=predictions,
    )


def _step_source(step: UnrollStep, outputs: Sequence[tuple[str, ...]]) -> list[str] | None:
    """The single-function sequence of one unroll step, or None when an
    earlier output it reads is not a non-empty run of alphabet symbols, so
    the sequence would not be well formed."""
    tokens = [step.fn_name]
    for position, (kind, value) in enumerate(step.args):
        if position:
            tokens.append(SEPARATOR)
        if kind == "lit":
            tokens.extend(value)
        elif outputs[value] and LITERAL_SET.issuperset(outputs[value]):
            tokens.extend(outputs[value])
        else:
            return None
    return tokens


def execute_unroll(adapter: ModelAdapter, plans: Sequence[UnrollPlan]) -> list[Prediction]:
    """Run unroll plans step by step through the adapter.

    Each step queries the adapter on a single-function sequence whose
    arguments are literals or earlier outputs of its own plan, so step k
    of every plan still running goes out in one predict_batch call.  A
    plan ends with the prediction of its last step, at its first error
    tag, or as an UnrollFailure when an output fed back in is not a
    non-empty run of alphabet symbols.
    """
    outputs: list[list[tuple[str, ...]]] = [[] for _ in plans]
    finals = [Prediction(None, "UnrollFailure")] * len(plans)
    running: Sequence[int] = range(len(plans))
    step = 0
    while running:
        asked, sources = [], []
        for i in running:
            source = _step_source(plans[i].steps[step], outputs[i])
            if source is not None:
                asked.append(i)
                sources.append(source)
        running = []
        for i, pred in zip(asked, adapter.predict_batch(sources)):
            if pred.ok and step + 1 < plans[i].num_steps:
                outputs[i].append(pred.tokens)
                running.append(i)
            else:
                finals[i] = pred
        step += 1
    return finals


def run_localism(
    adapter: ModelAdapter,
    samples: Corpus | Sequence[Sample],
    *,
    registry: FunctionRegistry = DEFAULT_REGISTRY,
) -> EvaluationReport:
    """Compare direct predictions against step-by-step unrolled ones.

    Each source is folded with ``registry`` to plan its unrolling.  A
    sample whose unrolling ends in an error tag scores zero and counts
    as an unroll failure.
    """
    items = [s for s in samples if s.stats.num_functions >= 1]
    if not items:
        raise ValueError("localism needs samples containing at least one function")
    direct_preds = adapter.predict_batch([s.src for s in items])
    plans = [build_unroll_plan(s.src, registry) for s in items]
    unrolled = execute_unroll(adapter, plans)
    scores = [
        1.0 if direct.ok and final.ok and direct.tokens == final.tokens else 0.0
        for direct, final in zip(direct_preds, unrolled)
    ]
    overall = sum(scores) / len(scores)
    by_steps = _label_rows(scores, [s.stats.num_functions for s in items])
    return EvaluationReport(
        metric="localism_consistency",
        overall=overall,
        count=len(items),
        strata={"num_functions": by_steps},
        errors=_error_counts(direct_preds + unrolled),
        metadata={"adapter": adapter.name, "dataset_hash": dataset_hash(items)},
        extras={
            "mean_unroll_steps": sum(p.num_steps for p in plans) / len(items),
            "unroll_failures": sum(1 for final in unrolled if not final.ok),
        },
        predictions=direct_preds,
    )


def run_overgeneralisation(
    checkpoints: Sequence[tuple[str, Sequence[Sequence[str] | None]]],
    exception_set: Sequence[ExceptionEntry],
) -> EvaluationReport:
    """Profile exception-set predictions across training checkpoints.

    For each checkpoint, a prediction matching the original compositional
    target counts as overgeneralisation (the rule was applied although the
    training data said otherwise), one matching the exception target counts
    as memorisation, and anything else as other.  Each of those three
    strata families holds one fraction per checkpoint, in checkpoint order.
    overall is the highest overgeneralisation fraction, and
    extras["peak_checkpoint"] names the checkpoint where it is reached
    (the earliest wins ties).
    """
    if not exception_set:
        raise ValueError("need at least one exception entry")
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    entries = list(exception_set)
    n = len(entries)
    strata: dict[str, dict[object, tuple[float, int]]] = {
        "overgeneralisation": {}, "memorisation": {}, "other": {},
    }
    for label, predictions in checkpoints:
        if label in strata["other"]:
            raise ValueError(f"checkpoint {label!r} appears twice")
        if len(predictions) != n:
            raise LineCountMismatch(
                f"checkpoint {label!r}: {len(predictions)} predictions "
                f"for {n} exception entries"
            )
        n_overgen = 0
        n_memo = 0
        for entry, prediction in zip(entries, predictions):
            tokens = None if prediction is None else tuple(prediction)
            if tokens == entry.original_tgt:
                n_overgen += 1
            elif tokens == entry.exception_tgt:
                n_memo += 1
        strata["overgeneralisation"][label] = (n_overgen / n, n)
        strata["memorisation"][label] = (n_memo / n, n)
        strata["other"][label] = ((n - n_overgen - n_memo) / n, n)
    overgen = strata["overgeneralisation"]
    peak = max(overgen, key=lambda label: overgen[label][0])
    return EvaluationReport(
        metric="overgeneralisation_profile",
        overall=overgen[peak][0],
        count=n,
        strata=strata,
        extras={"peak_checkpoint": peak},
    )


def run_length_generalisation(
    adapter: ModelAdapter,
    cells: Mapping[tuple[str, int], Corpus | Sequence[Sample]],
) -> EvaluationReport:
    """Exact match per (function, argument length) cell; every cell's
    sources go out as one batch.  Each function is a strata family with
    one row per length, in numeric order."""
    by_key = {key: list(cells[key]) for key in sorted(cells)}
    for key, samples in by_key.items():
        if not samples:
            raise ValueError(f"empty cell: {key!r}")
    every = [s for samples in by_key.values() for s in samples]
    predictions = adapter.predict_batch([s.src for s in every])
    outcomes = iter(predictions)
    strata: dict[str, dict[object, tuple[float, int]]] = {}
    hits = 0.0
    for (name, length), samples in by_key.items():
        scores = _accuracy_scores(outcomes, samples)
        strata.setdefault(name, {})[length] = (sum(scores) / len(scores), len(scores))
        hits += sum(scores)
    return EvaluationReport(
        metric="length_generalisation",
        overall=hits / len(every) if every else 0.0,
        count=len(every),
        strata=strata,
        errors=_error_counts(predictions),
        metadata={"adapter": adapter.name, "dataset_hash": dataset_hash(every)},
    )


def run_eos_analysis(adapter: ModelAdapter, testset: Corpus | Sequence[Sample]) -> EvaluationReport:
    """Exact match with per-stratum breakdowns, and what the wrong
    predictions look like.

    Among incorrect predictions (an error tag counts as one),
    strict_prefix_frac counts those that are proper prefixes of the target
    (the output simply stopped early) and substring_frac those appearing as
    a contiguous window anywhere in the target.  Prefixes are substrings,
    so the second fraction is never smaller.  With no incorrect predictions
    both fractions are None.
    """
    samples = list(testset)
    report = _exact_match_report("eos", adapter, samples, STRATA_FAMILIES, None)
    incorrect = 0
    prefixes = 0
    substrings = 0
    for sample, prediction in zip(samples, report.predictions):
        tgt, pred = sample.tgt, prediction.tokens
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
    report.extras = {
        "incorrect": incorrect,
        "strict_prefix_frac": prefixes / incorrect if incorrect else None,
        "substring_frac": substrings / incorrect if incorrect else None,
    }
    return report
