"""Traced run: per-layer metrics of one workload.

One process runs the workload's set-up and one round of its commands
through ``pcfgset.cli.main``, with timing wrappers installed around the
public functions at each module boundary. The wrappers replace the names
that callers look up (``pcfgset.cli.generate_corpus``,
``pcfgset.naturalise.sample_tree``, ...) and leave the source alone.

Spans (name, start, end, parent span) and counts stay in memory and are
written as JSONL when the run ends. A span's self time is its duration
minus the time its child spans cover. Functions called per sample or per
tree (``sample_tree``, ``contains_pair``, ``build_unroll_plan``) are
tallied (calls and total time, by enclosing span) rather than spanned.

A workload does not reach every layer; the corpus workload never builds a
test, for instance. So after the workload phase the other three workloads
run once at a small fixed size and seed (the probe phase), and a metric
whose layer the workload did not reach is taken from the probe phase. The
spans file says which phase each metric came from.

The language layer, ``sample_tree``, the in-process oracle and the
subprocess round trip are timed directly, over the workload's own sources.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import os
import random
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

import checker
import deep

PROBE_SEED = 0
PROBE_SCALE = {
    "corpus": {"size": 1_000},
    "testbuild": {"size": 2_000, "test_size": 150},
    "evaluate": {"size": 2_000, "test_size": 150},
    # smaller pools crash with EmptyAnchorCell (see perfbench/README.md)
    "naturalise": {"sample_size": 2_000},
}
LANGUAGE_LINES = 20_000
SAMPLE_TREES = 3_000
LATENCY_REQUESTS = 2_000  # 20 requests lie beyond the 99th percentile

# module -> functions recorded as spans
SPANNED = {
    "generation": ["generate_corpus", "split_corpus"],
    "corpus_io": ["write_corpus", "read_corpus", "validate_corpus_files", "file_sha256",
                  "write_report"],
    "suite": ["systematicity_split", "productivity_split", "substitutivity_equal",
              "substitutivity_primitive", "exceptions_apply"],
    "harness": ["run_accuracy", "run_consistency", "run_localism", "run_eos_analysis"],
    "metrics": ["aggregate"],
    "naturalise": ["naturalise_pipeline", "random_probability_sample", "select_increments",
                   "mle_estimate"],
}
# module -> functions called per sample or per tree: tallied
TALLIED = {
    "generation": ["sample_tree"],
    "suite": ["contains_pair", "build_unroll_plan"],
}


class Recorder:
    """Spans and tallies of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.tallies: dict[tuple[str, str, str], list] = {}
        self.phase = "workload"
        self.command = ""
        self.reads: dict[int, dict] = {}
        self.read_usage: list[dict] = []
        self._local = threading.local()
        self._t0 = time.perf_counter()

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        span = {"id": len(self.spans), "parent": stack[-1]["id"] if stack else None,
                "name": name, "phase": self.phase, "command": self.command,
                "start": time.perf_counter() - self._t0, "end": None, "attrs": {}}
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self._t0
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def tally(self, name: str, seconds: float) -> None:
        stack = self._stack()
        key = (name, stack[-1]["name"] if stack else "", self.phase)
        entry = self.tallies.setdefault(key, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def finish_reads(self) -> None:
        """Close the books on corpora read by the command that just ended."""
        for usage in self.reads.values():
            used = len(usage["ids"]) if usage["ids"] else usage["loaded"]
            self.read_usage.append({"phase": self.phase, "command": self.command,
                                    "loaded": usage["loaded"], "used": used})
        self.reads.clear()


def _spanned(rec: Recorder, name: str, fn, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if attrs is not None:
            span["attrs"] = attrs(args, kwargs, result)
        return result
    return wrapper


def _tallied(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.tally(name, time.perf_counter() - start)
    return wrapper


def _max_reference_length(src: Path) -> int:
    path = src / "pcfgset" / "data" / "reference_length_depth.csv"
    with open(path, newline="", encoding="utf-8") as handle:
        return max(int(row["length"]) for row in csv.DictReader(handle))


def install(rec: Recorder, src: Path):
    """Install the wrappers; returns a function that removes them."""
    import pcfgset.cli  # noqa: F401 - imports every module of the package
    from pcfgset import generation, harness

    modules = [m for name, m in list(sys.modules.items())
               if name == "pcfgset" or name.startswith("pcfgset.")]
    undo = []

    def patch_everywhere(original, wrapper):
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapper)

    max_len = _max_reference_length(src)

    def read_attrs(args, kwargs, corpus):
        rec.reads[id(corpus)] = {"loaded": len(corpus), "ids": set(), "corpus": corpus}
        return {"samples": len(corpus)}

    def report_attrs(args, kwargs, result):
        errors = getattr(args[1], "errors", None) or {}
        return {"errors": sum(errors.values())}

    def pool_attrs(args, kwargs, pool):
        lengths = [s.stats.length for s in pool]
        return {"trees": len(lengths), "tokens": sum(lengths),
                "in_support": sum(1 for n in lengths if n <= max_len)}

    attrs = {
        "generation.generate_corpus": lambda a, k, r: {"samples": len(r)},
        "corpus_io.read_corpus": read_attrs,
        "corpus_io.file_sha256": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
        "corpus_io.write_report": report_attrs,
        "naturalise.random_probability_sample": pool_attrs,
        "naturalise.naturalise_pipeline": lambda a, k, r: {"iterations": len(r.trace)},
    }
    for module_name, names in SPANNED.items():
        module = sys.modules[f"pcfgset.{module_name}"]
        for fn_name in names:
            label = f"{module_name}.{fn_name}"
            original = getattr(module, fn_name)
            patch_everywhere(original, _spanned(rec, label, original, attrs.get(label)))
    for module_name, names in TALLIED.items():
        module = sys.modules[f"pcfgset.{module_name}"]
        for fn_name in names:
            original = getattr(module, fn_name)
            patch_everywhere(original, _tallied(rec, f"{module_name}.{fn_name}", original))

    batch = harness.SubprocessAdapter.predict_batch
    undo.append((harness.SubprocessAdapter, "predict_batch", batch))
    harness.SubprocessAdapter.predict_batch = _spanned(
        rec, "harness.SubprocessAdapter.predict_batch", batch,
        lambda a, k, r: {"requests": len(r), "jobs": a[0].jobs,
                         "errors": sum(1 for p in r if p.error)})

    split = generation.Corpus.split
    undo.append((generation.Corpus, "split", split))

    def tracked_split(self, name):
        usage = rec.reads.get(id(self))
        if usage is not None:
            usage["ids"].update(self.splits[name])
        return split(self, name)

    generation.Corpus.split = tracked_split

    def remove():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
    return remove


def call_cli(rec: Recorder, step, logs: Path) -> tuple[str, int]:
    """Run one command through ``pcfgset.cli.main``; returns (output, code)."""
    from pcfgset import cli

    rec.command = step.label
    out = io.StringIO()
    with rec.span(f"command.{step.label}"), contextlib.redirect_stdout(out):
        try:
            code = cli.main(step.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a failed command is recorded, not fatal
            traceback.print_exc(file=out)
            code = 1
    rec.finish_reads()
    text = out.getvalue()
    logs.mkdir(parents=True, exist_ok=True)
    (logs / f"{step.label}.log").write_text(text, encoding="utf-8")
    return text, code


def run_deep(rec: Recorder, out_path: Path) -> None:
    from pcfgset.harness import SubprocessAdapter

    rec.command = "deep"
    with rec.span("bench.deep_requests"):
        replies = deep.send(SubprocessAdapter, checker.deep_requests())
    out_path.write_text(json.dumps(replies), encoding="utf-8")


def run_workload(rec: Recorder, workload) -> tuple[dict, dict]:
    texts, codes = {}, {}
    for step in workload.setup_steps():
        text, code = call_cli(rec, step, workload.work / "logs-setup")
        if code:
            raise SystemExit(f"set-up command {step.label} failed:\n{text}")
    workload.out.mkdir(parents=True, exist_ok=True)
    for step in workload.round_steps():
        if step.deep:
            try:
                run_deep(rec, Path(step.argv[0]))
                codes[step.label] = 0
            except Exception:  # noqa: BLE001
                traceback.print_exc()
                codes[step.label] = 1
            texts[step.label] = ""
        else:
            texts[step.label], codes[step.label] = call_cli(rec, step, workload.work / "logs")
    return texts, codes


# --- direct timings over the workload's own sources --------------------------


def _timed(fn, items) -> tuple[float, list]:
    start = time.perf_counter()
    out = [fn(x) for x in items]
    return time.perf_counter() - start, out


def direct_timings(sources: list[Path], seed: int) -> dict[str, float]:
    from pcfgset import generation, language
    from pcfgset.harness import OracleAdapter, SubprocessAdapter

    lines = []
    for path in sources:
        lines.extend(path.read_text(encoding="utf-8").splitlines())
    lines = lines[:LANGUAGE_LINES]
    n = len(lines)
    t_tok, tokens = _timed(language.tokenize, lines)
    t_parse, trees = _timed(language.parse, tokens)
    t_render, _ = _timed(language.render, trees)
    t_eval, _ = _timed(language.evaluate, trees)
    t_stats, _ = _timed(language.stats, trees)
    oracle = OracleAdapter()
    t_oracle, _ = _timed(oracle.predict, lines)

    params = generation.GrammarParams.default()
    alphabet = generation.Alphabet.default()
    rng = random.Random(seed)
    t_trees, _ = _timed(lambda _: generation.sample_tree(params, rng, alphabet=alphabet),
                        range(SAMPLE_TREES))

    latencies = []
    with SubprocessAdapter(deep.oracle_command(), jobs=1) as adapter:
        adapter.predict(lines[0])  # start the child outside the timing
        for i in range(LATENCY_REQUESTS):
            start = time.perf_counter()
            adapter.predict(lines[i % n])
            latencies.append(time.perf_counter() - start)
    cuts = statistics.quantiles(latencies, n=100)
    return {
        "language.tokenize_us": 1e6 * t_tok / n,
        "language.parse_us": 1e6 * t_parse / n,
        "language.render_us": 1e6 * t_render / n,
        "language.evaluate_us": 1e6 * t_eval / n,
        "language.stats_us": 1e6 * t_stats / n,
        "language.parse_tokens_per_s": sum(len(t) for t in tokens) / t_parse,
        "generation.sample_tree_us": 1e6 * t_trees / SAMPLE_TREES,
        "harness.oracle_predict_us": 1e6 * t_oracle / n,
        "harness.subprocess_latency_p50_ms": 1e3 * cuts[49],
        "harness.subprocess_latency_p99_ms": 1e3 * cuts[98],
    }


# --- per-layer metrics from the spans ----------------------------------------


def layer_metrics(rec: Recorder) -> tuple[dict[str, float], dict[str, str]]:
    """Metrics from spans and tallies, each from the workload phase when the
    workload reached its layer, else from the probe phase."""
    values: dict[str, float] = {}
    source: dict[str, str] = {}
    by_id = {s["id"]: s for s in rec.spans}

    def duration(span):
        return span["end"] - span["start"]

    def pick(metric, name, keep=lambda s: True):
        for phase in ("workload", "probe"):
            found = [s for s in rec.spans
                     if s["name"] == name and s["phase"] == phase and keep(s)]
            if found:
                source[metric] = phase
                return found
        source[metric] = "none"
        return []

    def total(metric, name):
        values[metric] = sum(duration(s) for s in pick(metric, name))

    def tallied(metric, name, parent=None):
        for phase in ("workload", "probe"):
            rows = [(c, t) for (n, p, ph), (c, t) in rec.tallies.items()
                    if n == name and ph == phase and (parent is None or p == parent)]
            if rows:
                source[metric] = phase
                return sum(c for c, _ in rows), sum(t for _, t in rows)
        source[metric] = "none"
        return 0, 0.0

    def under(span, name):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            if span["name"] == name:
                return True
        return False

    def ratio(a, b):
        return a / b if b else 0.0

    total("generation.generate_corpus_s", "generation.generate_corpus")
    gens = pick("generation.trees_per_sample", "generation.generate_corpus")
    phase = gens[0]["phase"] if gens else "workload"
    trees = sum(c for (n, p, ph), (c, _) in rec.tallies.items()
                if n == "generation.sample_tree" and p == "generation.generate_corpus"
                and ph == phase)
    values["generation.trees_per_sample"] = ratio(trees, sum(s["attrs"]["samples"] for s in gens))
    total("generation.split_corpus_s", "generation.split_corpus")

    total("corpus_io.write_corpus_s", "corpus_io.write_corpus")
    reads = pick("corpus_io.read_corpus_s", "corpus_io.read_corpus")
    read_time = sum(duration(s) for s in reads)
    loaded = sum(s["attrs"]["samples"] for s in reads)
    values["corpus_io.read_corpus_s"] = read_time
    values["corpus_io.read_samples_per_s"] = ratio(loaded, read_time)
    source["corpus_io.read_samples_per_s"] = source["corpus_io.read_corpus_s"]
    phase = source["corpus_io.read_corpus_s"]
    usage = [u for u in rec.read_usage if u["phase"] == phase]
    values["corpus_io.read_useful_ratio"] = ratio(sum(u["used"] for u in usage),
                                                  sum(u["loaded"] for u in usage))
    source["corpus_io.read_useful_ratio"] = phase
    total("corpus_io.validate_corpus_files_s", "corpus_io.validate_corpus_files")
    hashes = pick("corpus_io.sha256_mib_per_s", "corpus_io.file_sha256")
    values["corpus_io.sha256_mib_per_s"] = ratio(sum(s["attrs"]["bytes"] for s in hashes) / 2**20,
                                                 sum(duration(s) for s in hashes))

    for fn in ("systematicity_split", "productivity_split", "substitutivity_equal",
               "substitutivity_primitive", "exceptions_apply"):
        total(f"suite.{fn}_s", f"suite.{fn}")
    values["suite.contains_pair_calls"] = tallied("suite.contains_pair_calls",
                                                  "suite.contains_pair")[0]
    calls, seconds = tallied("suite.build_unroll_plan_us", "suite.build_unroll_plan")
    values["suite.build_unroll_plan_us"] = 1e6 * ratio(seconds, calls)

    for fn in ("run_accuracy", "run_consistency", "run_localism", "run_eos_analysis"):
        total(f"harness.{fn}_s", f"harness.{fn}")
    batches = pick("harness.subprocess_requests_per_s", "harness.SubprocessAdapter.predict_batch",
                   lambda s: s["attrs"]["jobs"] > 1)
    values["harness.subprocess_requests_per_s"] = ratio(
        sum(s["attrs"]["requests"] for s in batches), sum(duration(s) for s in batches))
    deep_spans = pick("harness.deep_requests_s", "bench.deep_requests")
    values["harness.deep_requests_s"] = sum(duration(s) for s in deep_spans)
    phase = source["harness.deep_requests_s"]
    errors = sum(s["attrs"].get("errors", 0) for s in rec.spans if s["phase"] == phase and (
        s["name"] == "corpus_io.write_report"
        or (s["name"] == "harness.SubprocessAdapter.predict_batch"
            and under(s, "bench.deep_requests"))))
    values["harness.request_errors"] = errors
    source["harness.request_errors"] = phase

    total("metrics.aggregate_s", "metrics.aggregate")

    total("naturalise.random_probability_sample_s", "naturalise.random_probability_sample")
    total("naturalise.select_increments_s", "naturalise.select_increments")
    total("naturalise.mle_estimate_s", "naturalise.mle_estimate")
    pipelines = pick("naturalise.iterations", "naturalise.naturalise_pipeline")
    phase = source["naturalise.iterations"]
    values["naturalise.iterations"] = sum(s["attrs"]["iterations"] for s in pipelines)
    values["naturalise.regenerate_s"] = sum(
        duration(s) for s in rec.spans
        if s["name"] == "generation.generate_corpus" and s["phase"] == phase
        and under(s, "naturalise.naturalise_pipeline"))
    source["naturalise.regenerate_s"] = phase
    pools = pick("naturalise.pool_tokens", "naturalise.random_probability_sample")
    values["naturalise.pool_tokens"] = sum(s["attrs"]["tokens"] for s in pools)
    values["naturalise.pool_in_support_ratio"] = ratio(sum(s["attrs"]["in_support"] for s in pools),
                                                       sum(s["attrs"]["trees"] for s in pools))
    source["naturalise.pool_in_support_ratio"] = source["naturalise.pool_tokens"]
    return values, source


def self_times(spans: list[dict]) -> dict[int, float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def write_spans(path: Path, rec: Recorder, header: dict, values: dict, source: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    own = self_times(rec.spans)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"type": "run", **header}) + "\n")
        for s in rec.spans:
            row = {k: v for k, v in s.items()}
            row["self"] = own[s["id"]]
            handle.write(json.dumps({"type": "span", **row}) + "\n")
        for (name, parent, phase), (calls, seconds) in sorted(rec.tallies.items()):
            handle.write(json.dumps({"type": "tally", "name": name, "parent": parent,
                                     "phase": phase, "calls": calls, "seconds": seconds}) + "\n")
        for usage in rec.read_usage:
            handle.write(json.dumps({"type": "read", **usage}) + "\n")
        handle.write(json.dumps({"type": "metrics", "values": values, "source": source}) + "\n")


def run(workload, workloads: dict, src: Path, traces: Path) -> dict:
    """The traced run of ``workload``: returns attempted, failed and metrics.

    ``workloads`` maps every workload name to its class, for the probes.
    """
    # the same set-up and round without wrappers, for the tracing overhead
    start = time.perf_counter()
    run_workload(Recorder(), workload)
    plain_wall = time.perf_counter() - start

    rec = Recorder()
    remove = install(rec, src)
    try:
        start = time.perf_counter()
        texts, codes = run_workload(rec, workload)
        traced_wall = time.perf_counter() - start
        workload.check_setup()
        outcome = workload.check(texts, codes)

        rec.phase = "probe"
        for name, cls in workloads.items():
            if isinstance(workload, cls):
                continue
            probe = cls(PROBE_SEED, workload.work / f"probe-{name}", PROBE_SCALE[name])
            _, probe_codes = run_workload(rec, probe)
            if any(probe_codes.values()):
                raise SystemExit(f"probe {name} failed: {probe_codes}")
    finally:
        remove()
    values, source = layer_metrics(rec)
    direct = direct_timings(workload.sources(), workload.seed)
    values.update(direct)
    source.update({name: "direct" for name in direct})

    name = type(workload).__name__.removesuffix("Workload").lower()
    path = traces / f"{name}-seed{workload.seed}.spans.jsonl"
    header = {"workload": name, "seed": workload.seed, "traced_wall_s": traced_wall,
              "plain_wall_s": plain_wall,
              "cpus": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
              "numpy": sys.modules["numpy"].__version__}
    write_spans(path, rec, header, values, source)
    print(f"traced {name}: set-up and one round took {traced_wall:.3f} s traced, "
          f"{plain_wall:.3f} s without wrappers; spans in {path}", file=sys.stderr)
    units = per_layer_units()
    return {"attempted": outcome.attempted, "failed": outcome.failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}


def per_layer_units() -> dict[str, str]:
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}
