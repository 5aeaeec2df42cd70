"""Command-line interface.

Subcommands: generate (base corpus), naturalise (distribution matching and
grammar refit), testbuild (redistribute a base corpus into one of the five
generalisation tests), eval (run an adapter through a test and emit
reports), validate (audit corpus files) and oracle (serve ground-truth
predictions over the line protocol, usable as a subprocess adapter).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

from . import corpus_io
from .generation import (
    MAX_ARG_LEN,
    Corpus,
    ExhaustedUniqueArguments,
    GrammarParams,
    UniquenessLedger,
    generate_corpus,
    make_primitive_length_corpus,
    split_corpus,
)
from .language import DEFAULT_REGISTRY, LITERALS, LanguageError, serve
# naturalise is needed by one command but stays eager: the benchmark's
# tracer (perfbench/tracing.py, install) imports pcfgset.cli and then
# wraps the functions of every module it finds loaded, naturalise's among
# them
from .naturalise import (
    DegenerateCovariance,
    DistributionSpec,
    EmptyAnchorCell,
    PartitionConfig,
    fit_gaussian_spec,
    mle_estimate,
    naturalise_pipeline,
    random_probability_sample,
    subsample_to_match,
    write_kl_trace,
)
from .seeding import subseed, substream

# the adapter harness, with subprocess, selectors and shlex, is imported
# by eval alone, the one command that runs an adapter, and the test
# constructors of suite by testbuild and eval alone
if TYPE_CHECKING:
    from .harness import EvaluationReport

OVERGEN_PERCENTAGES = (0.0001, 0.0005, 0.001, 0.005)
# the longest argument length-gen can probe: a fresh source draws distinct
# literals, and a binary function's other argument takes up to MAX_ARG_LEN
# of them
MAX_PROBE_LENGTH = len(LITERALS) - MAX_ARG_LEN


def reference_spec_path() -> Path:
    """Location of the bundled (length, depth) reference histogram."""
    return Path(__file__).with_name("data") / "reference_length_depth.csv"


def _resolve_seed(args, required: bool) -> int | None:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("PCFGSET_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SystemExit(f"PCFGSET_SEED must be an integer, got {env!r}")
    if required:
        raise SystemExit("a seed is required: pass --seed or set PCFGSET_SEED")
    return None


def _load_base(path: str, splits: list[str] | None = None) -> Corpus:
    try:
        return corpus_io.read_corpus(path, splits=splits)
    except (corpus_io.ManifestError, corpus_io.MalformedLine, FileNotFoundError) as exc:
        raise SystemExit(f"corpus verification failed: {exc}")


def _pick_split(path: str, requested: str | None) -> str:
    """The split of a corpus directory to evaluate."""
    names = corpus_io.discover_splits(path)
    if requested is not None:
        if requested not in names:
            raise SystemExit(f"split {requested!r} not found; have {sorted(names) or 'none'}")
        return requested
    if "test" in names:
        return "test"
    if len(names) == 1:
        return names[0]
    if not names:
        raise SystemExit(f"{path}: no .src files found")
    raise SystemExit("ambiguous corpus splits: pass --split")


def _write_test(args, out: Path, parts: dict[str, Corpus], base: Corpus, **extra) -> None:
    """Write ``parts`` as the splits of one corpus of the chosen test, under
    the base's seed and params; print the sizes of train and test, if any."""
    samples, splits = [], {}
    for name, part in parts.items():
        splits[name] = tuple(range(len(samples), len(samples) + len(part)))
        samples += part.samples
    corpus = Corpus(samples=samples, seed=base.seed, params=base.params, splits=splits)
    corpus_io.write_corpus(out, corpus, extra={"test": args.test, **extra})
    if "test" in parts:
        print(f"train: {len(parts['train'])}  test: {len(parts['test'])}")


def _given(args, *names: str, **renamed: str) -> dict:
    """The options given among ``names`` and ``renamed``'s keys, as keyword
    arguments (under ``renamed``'s values); library defaults fill the rest."""
    pairs = [*zip(names, names), *renamed.items()]
    return {keyword: getattr(args, name) for name, keyword in pairs if name in args}


# ---------------------------------------------------------------------------
# commands


def _require_positive(args, *names: str) -> None:
    for name in names:
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise SystemExit(
                f"{args.command} --{name.replace('_', '-')} must be at least 1, got {value}"
            )


def _require_finite(args, name: str, *, zero_ok: bool) -> None:
    """Refuse an infinite or NaN value, and one below 0, or at 0 too
    unless ``zero_ok``."""
    value = getattr(args, name, None)
    if value is None or (math.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
        return
    bound = "at least 0" if zero_ok else "above 0"
    raise SystemExit(
        f"{args.command} --{name.replace('_', '-')} must be finite and {bound}, got {value}"
    )


def cmd_generate(args) -> int:
    _require_positive(args, "size")
    seed = _resolve_seed(args, required=True)
    params = (
        corpus_io.read_params(args.params) if args.params else GrammarParams.default()
    )
    corpus = generate_corpus(params, args.size, seed=seed)
    split_corpus(corpus, rng=substream(seed, "split"))
    manifest = corpus_io.write_corpus(args.out, corpus)
    for name, size in manifest["sizes"].items():
        print(f"{name}: {size}")
    print(f"wrote {args.out}/manifest.json")
    return 0


def cmd_naturalise(args) -> int:
    _require_positive(args, "size", "sample_size", "max_iters")
    seed = _resolve_seed(args, required=True)
    spec_path = Path(args.spec) if args.spec else reference_spec_path()
    spec = DistributionSpec.from_csv(spec_path)
    out = Path(args.out)
    try:
        fit_gaussian_spec(spec)
    except DegenerateCovariance:
        return _naturalise_degenerate(args, seed, spec, out)
    try:
        result = naturalise_pipeline(spec, rng=substream(seed, "pipeline"),
                                     random_sample_size=args.sample_size,
                                     regenerate_size=args.sample_size,
                                     **_given(args, "epsilon", "max_iters"))
    except (EmptyAnchorCell, DegenerateCovariance) as exc:
        raise SystemExit(f"naturalise failed: {exc}; try a larger --sample-size")
    out.mkdir(parents=True, exist_ok=True)
    corpus_io.write_params(out / "params.json", result.params)
    write_kl_trace(out / "kl_trace.csv", result.trace)
    if args.size is not None:
        corpus = generate_corpus(result.params, args.size, seed=subseed(seed, "final"))
    else:
        corpus = result.corpus
    split_corpus(corpus, rng=substream(seed, "split"))
    corpus_io.write_corpus(out, corpus)
    print(f"initial KL: {result.initial_kl:.6f}")
    max_length, max_depth = result.pool_bound
    print(f"pool: kept {result.pool_kept} of {args.sample_size} trees "
          f"(length <= {max_length}, depth <= {max_depth})")
    print(f"final KL:   {result.final_kl:.6f} after {len(result.trace)} iterations")
    print(f"wrote {out}/params.json, kl_trace.csv and corpus files")
    return 0


def _drop_constraint_violations(corpus: Corpus) -> Corpus:
    """Keep only samples respecting corpus uniqueness constraints.

    Random-probability pools are sampled without the cross-sample
    uniqueness rules that generated corpora obey, so a matched subset that
    gets shipped as corpus files must be filtered to pass validation.
    """
    ledger = UniquenessLedger()
    kept = [s for pos, s in enumerate(corpus) if ledger.admit(s.src, f"sample {pos}") is None]
    return Corpus(kept)


def _naturalise_degenerate(args, seed: int, spec: DistributionSpec, out: Path) -> int:
    # too little spread for Gaussian matching: fall back to histogram
    # matching at unit increments and ship the matched subset itself
    unit = PartitionConfig(1, 1)
    pool = random_probability_sample(
        args.sample_size, spec, (unit,), rng=substream(seed, "random-sample")
    )
    subset = subsample_to_match(pool, spec, unit, substream(seed, "degenerate-match"))
    subset = _drop_constraint_violations(subset)
    params = mle_estimate(subset)
    out.mkdir(parents=True, exist_ok=True)
    corpus_io.write_params(out / "params.json", params)
    write_kl_trace(out / "kl_trace.csv", ())
    corpus_io.write_corpus(out, subset)
    print(f"degenerate reference: matched {len(subset)} samples by histogram")
    print(f"wrote {out}/params.json, kl_trace.csv and corpus files")
    return 0


def _systematicity(args, rng, out: Path) -> None:
    from .suite import DEFAULT_HELD_OUT_PAIRS, systematicity_split
    _require_positive(args, "test_size")
    base = _load_base(args.base)
    pairs = corpus_io.read_pairs(args.pairs) if "pairs" in args else DEFAULT_HELD_OUT_PAIRS
    train, test = systematicity_split(base, pairs, rng=rng, **_given(args, "test_size"))
    _write_test(args, out, {"train": train, "test": test}, base)
    corpus_io.write_pairs(out / "pairs.json", pairs)
    print(f"held-out pairs: {', '.join(f'{p.outer}+{p.inner}' for p in pairs)}")


def _productivity(args, rng, out: Path) -> None:
    from .suite import productivity_split
    base = _load_base(args.base)
    train, test = productivity_split(base, **_given(args, "threshold"))
    _write_test(args, out, {"train": train, "test": test}, base)
    ins, outs = ([s.stats.num_functions for s in side] for side in (train, test))
    print(f"functions per sample: train avg {sum(ins) / len(ins):.2f} max {max(ins)}, "
          f"test avg {sum(outs) / len(outs):.2f} min {min(outs)}")


def _synonym_base(args):
    """The base corpus of a substitutivity test, its train, valid and test
    splits, which the test writes with a new train side, and the synonyms."""
    from .suite import SynonymMap
    base = _load_base(args.base)
    synonyms = (corpus_io.read_synonyms(args.synonyms) if "synonyms" in args
                else SynonymMap.default())
    missing = [name for name in ("train", "test") if name not in base.splits]
    if missing:
        raise SystemExit(f"{args.test} needs splits {missing} in the base corpus")
    parts = {name: base.split(name) for name in ("train", "valid", "test") if name in base.splits}
    return base, parts, synonyms


def _substitutivity_ed(args, rng, out: Path) -> None:
    from .suite import substitutivity_equal
    base, parts, synonyms = _synonym_base(args)
    parts["train"], audit = substitutivity_equal(parts["train"], synonyms, rng=rng)
    for name, (chosen, total) in sorted(audit.items()):
        print(f"{name}: rewrote {chosen} of {total} occurrences")
    _write_test(args, out, parts, base)
    corpus_io.write_synonyms(out / "synonyms.json", synonyms)


def _substitutivity_prim(args, rng, out: Path) -> None:
    from .suite import substitutivity_primitive
    _require_finite(args, "fraction", zero_ok=True)
    base, parts, synonyms = _synonym_base(args)
    parts["train"], counts = substitutivity_primitive(parts["train"], synonyms, rng=rng,
                                                      written=base, **_given(args, "fraction"))
    for name, added in sorted(counts.items()):
        print(f"{name}: added {added} primitive samples")
    _write_test(args, out, parts, base)
    corpus_io.write_synonyms(out / "synonyms.json", synonyms)


def _overgen(args, rng, out: Path) -> None:
    from .suite import exceptions_apply
    _require_finite(args, "exception_pct", zero_ok=True)
    # overgen builds on train alone, so only train is read
    with_train = "train" in corpus_io.discover_splits(args.base)
    base = _load_base(args.base, ["train"] if with_train else None)
    source = base.split("train") if with_train else base
    for pct in [args.exception_pct] if "exception_pct" in args else OVERGEN_PERCENTAGES:
        variant, entries = exceptions_apply(source, percentage=pct,
                                            rng=substream(args.seed, "overgen", repr(pct)))
        variant_dir = out / f"pct-{pct:g}"
        _write_test(args, variant_dir, {"train": variant}, base, exception_pct=pct)
        corpus_io.write_exceptions(variant_dir / "exceptions.json", entries)
        per_pair = Counter(f"{entry.pair[0]}+{entry.pair[1]}" for entry in entries)
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(per_pair.items()))
        print(f"pct {pct:g}: {len(entries)} exceptions ({summary})")


def cmd_testbuild(args) -> int:
    build = row(args)
    args.seed = _resolve_seed(args, required=True)
    out = Path(args.out)
    build(args, substream(args.seed, "testbuild", args.test), out)
    print(f"wrote {out}")
    return 0


def _parse_lengths(text: str) -> list[int]:
    """The lengths of a ``--lengths`` value such as ``1-12`` or ``2,4,8``;
    each range is checked against 1..MAX_PROBE_LENGTH before it is expanded."""
    bounds: list[tuple[int, int]] = []
    try:
        for piece in text.split(","):
            lo, _, hi = piece.strip().partition("-")
            bounds.append((int(lo), int(hi or lo)))
    except ValueError:
        bounds = []
    if not bounds or any(lo < 1 or hi < lo for lo, hi in bounds):
        raise SystemExit(f"bad --lengths value: {text!r}")
    longest = max(hi for _, hi in bounds)
    if longest > MAX_PROBE_LENGTH:
        raise SystemExit(f"eval --lengths must be at most {MAX_PROBE_LENGTH}, got {longest}")
    return [n for lo, hi in bounds for n in range(lo, hi + 1)]


def _adapter(args, **context):
    """The adapter --adapter names, the oracle by default, or a file adapter
    serving --preds, built with the --timeout and --jobs given."""
    from .harness import build_adapter
    _require_finite(args, "timeout", zero_ok=False)
    if "jobs" in args and args.jobs < 1:
        raise ValueError("jobs must be at least 1")
    if "preds" in args and "adapter" in args:
        raise SystemExit(f"eval {args.mode} takes --preds or --adapter, not both")
    description = f"file:{args.preds}" if "preds" in args else getattr(args, "adapter", "oracle")
    return build_adapter(description, **context, **_given(args, "jobs", timeout="timeout_s"))


def _on_split(score):
    """The mode that scores the split of --data: ``score(args, adapter,
    testset, registry)`` runs with the adapter open."""
    def run(args) -> EvaluationReport:
        split = _pick_split(args.data, getattr(args, "split", None))
        testset = _load_base(args.data, [split]).split(split)
        registry = corpus_io.registry_for_directory(args.data)
        seed = _resolve_seed(args, required=False) or 0
        with _adapter(args, testset=testset, registry=registry, seed=seed) as adapter:
            return score(args, adapter, testset, registry)
    return run


def _accuracy(args, adapter, testset, registry) -> EvaluationReport:
    from .harness import run_accuracy
    pairs_path = Path(args.data) / "pairs.json"
    pairs = corpus_io.read_pairs(pairs_path) if pairs_path.exists() else None
    return run_accuracy(adapter, testset, pairs=pairs)


def _consistency(args, adapter, testset, registry) -> EvaluationReport:
    from .harness import run_consistency
    from .suite import make_consistency_pairs
    synonyms = corpus_io.read_synonyms(args.synonyms if "synonyms" in args
                                       else Path(args.data) / "synonyms.json")
    pairs, skipped = make_consistency_pairs(testset, synonyms)
    if not pairs:
        raise SystemExit("no test samples contain a mapped function")
    report = run_consistency(adapter, pairs)
    report.extras["skipped"] = skipped
    return report


def _localism(args, adapter, testset, registry) -> EvaluationReport:
    from .harness import run_localism
    return run_localism(adapter, testset, registry=registry)


def _eos(args, adapter, testset, registry) -> EvaluationReport:
    from .harness import run_eos_analysis
    return run_eos_analysis(adapter, testset)


def _overgen_profile(args) -> EvaluationReport:
    from .harness import run_overgeneralisation
    entries = corpus_io.read_exceptions(args.exceptions)
    return run_overgeneralisation(corpus_io.read_checkpoint_predictions(args.preds), entries)


def _length_gen(args) -> EvaluationReport:
    from .harness import run_length_generalisation
    _require_positive(args, "per_length")
    seed = _resolve_seed(args, required=True)
    names = ([n.strip() for n in args.functions.split(",")] if "functions" in args
             else list(DEFAULT_REGISTRY.names()))
    unknown = [n for n in names if n not in DEFAULT_REGISTRY.names()]
    if unknown:
        raise SystemExit(f"unknown --functions: {', '.join(unknown)}")
    lengths = _parse_lengths(getattr(args, "lengths", "1-12"))
    cells = {}
    for name in names:
        cell_rng = substream(seed, "length-gen", name)
        for length in lengths:
            # probe the argument whose content survives into the output
            cells[(name, length)] = make_primitive_length_corpus(
                name, [length], getattr(args, "per_length", 50), cell_rng,
                vary_arg=1 if name == "remove_first" else 0,
            )
    with _adapter(args, seed=seed) as adapter:
        return run_length_generalisation(adapter, cells)


def cmd_eval(args) -> int:
    report = row(args)(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if "save_preds" in args:
        corpus_io.write_predictions(out / "predictions.pred",
                                    [p.tokens for p in report.predictions])
    corpus_io.write_report(out / "report.json", report)
    corpus_io.write_strata_csv(out / "strata.csv", report)
    print(f"{report.metric}: {report.overall:.6f} over {report.count} samples")
    if report.errors:
        tags = ", ".join(f"{k}: {v}" for k, v in sorted(report.errors.items()))
        print(f"adapter errors: {tags}")
    return 0


def cmd_validate(args) -> int:
    exceptions = corpus_io.read_exceptions(args.exceptions) if args.exceptions else None
    counts: dict[str, int] = {}
    problems = corpus_io.validate_corpus_files(args.data, exceptions=exceptions, counts=counts)
    if problems:
        for problem in problems:
            print(problem)
        print(f"FAIL: {len(problems)} problems")
        return 1
    print(f"PASS: {sum(counts.values())} samples across {len(counts)} splits")
    return 0


def cmd_oracle(args) -> int:
    registry = DEFAULT_REGISTRY
    if args.synonyms:
        registry = corpus_io.read_synonyms(args.synonyms).registry()
    return serve(registry, sys.stdin, sys.stdout)


# ---------------------------------------------------------------------------
# argument parsing

# per testbuild test and eval mode: the function that builds or scores it,
# every option it reads, then those of them it needs
_BUILD = {"test", "base", "out", "seed"}
TESTBUILD = {
    "systematicity": (_systematicity, _BUILD | {"pairs", "test_size"}),
    "productivity": (_productivity, _BUILD | {"threshold"}),
    "substitutivity-ed": (_substitutivity_ed, _BUILD | {"synonyms"}),
    "substitutivity-prim": (_substitutivity_prim, _BUILD | {"synonyms", "fraction"}),
    "overgen": (_overgen, _BUILD | {"exception_pct"}),
}
_ADAPTER = {"mode", "out", "adapter", "timeout", "jobs", "seed"}
_SPLIT = _ADAPTER | {"data", "split"}
EVAL = {
    "accuracy": (_on_split(_accuracy), _SPLIT | {"save_preds"}, "data"),
    "consistency": (_on_split(_consistency), _SPLIT | {"synonyms"}, "data"),
    "localism": (_on_split(_localism), _SPLIT, "data"),
    "overgen-profile": (_overgen_profile, {"mode", "out", "exceptions", "preds"},
                        "exceptions", "preds"),
    "length-gen": (_length_gen, _ADAPTER | {"functions", "lengths", "per_length"}),
    "eos": (_on_split(_eos), _SPLIT | {"preds"}, "data"),
}


def row(args):
    """The function of the testbuild test or eval mode that ``args`` chose;
    an option given that it does not read, or one it needs and was not
    given, ends the command in one line."""
    if args.command == "testbuild":
        chosen, (run, reads, *needs) = f"--test {args.test}", TESTBUILD[args.test]
    else:
        chosen, (run, reads, *needs) = args.mode, EVAL[args.mode]
    unread = [f"--{name.replace('_', '-')}" for name in vars(args)
              if name not in reads and name not in ("command", "func")]
    if unread:
        raise SystemExit(f"{args.command} {chosen} does not read {', '.join(unread)}")
    missing = [f"--{name}" for name in needs if name not in args]
    if missing:
        raise SystemExit(f"{args.command} {chosen} needs {' and '.join(missing)}")
    return run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcfgset",
        description="String-edit sequence corpora and compositional generalisation tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a base corpus")
    p.add_argument("--seed", type=int)
    p.add_argument("--size", type=int, default=100_000)
    p.add_argument("--out", required=True)
    p.add_argument("--params", help="grammar parameter JSON (default: built-in)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("naturalise", help="match a reference length/depth distribution")
    p.add_argument("--seed", type=int)
    p.add_argument("--spec", help="reference CSV (default: bundled)")
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, help="regenerate a corpus of this size at the end")
    p.add_argument("--sample-size", type=int, default=20_000)
    p.add_argument("--epsilon", type=float, default=argparse.SUPPRESS)
    p.add_argument("--max-iters", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_naturalise)

    p = sub.add_parser("testbuild", help="redistribute a base corpus into a test",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--test", required=True, choices=TESTBUILD)
    p.add_argument("--base", required=True, help="base corpus directory")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--pairs", help="held-out pair JSON (default: built-in four)")
    p.add_argument("--synonyms", help="synonym map JSON (default: built-in)")
    p.add_argument("--exception-pct", type=float, help="single percentage instead of the grid")
    p.add_argument("--threshold", type=int)
    p.add_argument("--fraction", type=float)
    p.add_argument("--test-size", type=int)
    p.set_defaults(func=cmd_testbuild)

    p = sub.add_parser("eval", help="run an adapter through a test",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("mode", choices=EVAL)
    p.add_argument("--adapter", help="oracle (default), faulty:<rate>, file:<path> or cmd:<cmd>")
    p.add_argument("--data", help="corpus directory")
    p.add_argument("--split", help="which split to evaluate (default: test)")
    p.add_argument("--out", required=True)
    p.add_argument("--preds", help="prediction file (eos) or checkpoint directory")
    p.add_argument("--exceptions", help="exception sidecar JSON")
    p.add_argument("--synonyms", help="synonym map JSON")
    p.add_argument("--functions", help="comma-separated function names (length-gen)")
    p.add_argument("--lengths", help="lengths, e.g. 1-12 (default) or 2,4,8")
    p.add_argument("--per-length", type=int)
    p.add_argument("--save-preds", action="store_true")
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--timeout", type=float)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("validate", help="audit corpus files")
    p.add_argument("--data", required=True)
    p.add_argument("--exceptions", help="exception sidecar JSON")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("oracle", help="serve ground-truth answers over stdin/stdout")
    p.add_argument("--synonyms", help="synonym map JSON")
    p.set_defaults(func=cmd_oracle)

    return parser


# What a command raises on bad input, which main turns into one line: an
# OSError is a file or command that cannot be opened, a ValueError a
# malformed file or argument value (bad JSON or CSV, an unknown name, an
# adapter descriptor, predictions that do not line up with the test, a
# test the base corpus cannot fill), and the rest input a command cannot
# build from.
_FAILURES = (
    OSError,
    ValueError,
    corpus_io.MalformedLine,
    LanguageError,
    ExhaustedUniqueArguments,
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _FAILURES as exc:
        raise SystemExit(f"{args.command} failed: {exc}")


if __name__ == "__main__":
    sys.exit(main())
