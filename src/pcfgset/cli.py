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
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITERS,
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


def _require_splits(corpus: Corpus, names: tuple[str, ...], what: str) -> None:
    missing = [n for n in names if n not in corpus.splits]
    if missing:
        raise SystemExit(f"{what} needs splits {missing} in the base corpus")


def _combine(parts: dict[str, Corpus], seed, params) -> Corpus:
    samples = []
    splits = {}
    for name, part in parts.items():
        splits[name] = tuple(range(len(samples), len(samples) + len(part)))
        samples += part.samples
    return Corpus(samples=samples, seed=seed, params=params, splits=splits)


def _mean_functions(corpus: Corpus) -> float:
    return sum(s.stats.num_functions for s in corpus) / len(corpus)


# ---------------------------------------------------------------------------
# commands


def _require_positive(args, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 1:
            raise SystemExit(
                f"{args.command} --{name.replace('_', '-')} must be at least 1, got {value}"
            )


def _require_finite(args, name: str, *, zero_ok: bool) -> None:
    """Refuse an infinite or NaN value, and one below 0, or at 0 too
    unless ``zero_ok``."""
    value = getattr(args, name)
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
    out.mkdir(parents=True, exist_ok=True)
    try:
        fit_gaussian_spec(spec)
    except DegenerateCovariance:
        return _naturalise_degenerate(args, seed, spec, out)
    try:
        result = naturalise_pipeline(
            spec,
            rng=substream(seed, "pipeline"),
            random_sample_size=args.sample_size,
            regenerate_size=args.sample_size,
            epsilon=args.epsilon,
            max_iters=args.max_iters,
        )
    except (EmptyAnchorCell, DegenerateCovariance) as exc:
        raise SystemExit(f"naturalise failed: {exc}; try a larger --sample-size")
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
    return Corpus(samples=kept, seed=corpus.seed, params=corpus.params)


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
    corpus_io.write_params(out / "params.json", params)
    write_kl_trace(out / "kl_trace.csv", ())
    corpus_io.write_corpus(out, subset)
    print(f"degenerate reference: matched {len(subset)} samples by histogram")
    print(f"wrote {out}/params.json, kl_trace.csv and corpus files")
    return 0


def cmd_testbuild(args) -> int:
    from .suite import (DEFAULT_HELD_OUT_PAIRS, SynonymMap, exceptions_apply, productivity_split,
                        substitutivity_equal, substitutivity_primitive, systematicity_split)

    _require_positive(args, "test_size")
    _require_finite(args, "exception_pct", zero_ok=True)
    _require_finite(args, "fraction", zero_ok=True)
    seed = _resolve_seed(args, required=True)
    # overgen builds on train alone, so only train is read
    overgen_train = args.test == "overgen" and "train" in corpus_io.discover_splits(args.base)
    base = _load_base(args.base, ["train"] if overgen_train else None)
    out = Path(args.out)
    rng = substream(seed, "testbuild", args.test)
    if args.test == "systematicity":
        pairs = (
            corpus_io.read_pairs(args.pairs) if args.pairs else list(DEFAULT_HELD_OUT_PAIRS)
        )
        train, test = systematicity_split(base, pairs, test_size=args.test_size, rng=rng)
        combined = _combine({"train": train, "test": test}, base.seed, base.params)
        corpus_io.write_corpus(out, combined, extra={"test": "systematicity"})
        corpus_io.write_pairs(out / "pairs.json", pairs)
        print(f"train: {len(train)}  test: {len(test)}")
        print(f"held-out pairs: {', '.join(f'{p.outer}+{p.inner}' for p in pairs)}")
    elif args.test == "productivity":
        train, test = productivity_split(base, args.threshold)
        combined = _combine({"train": train, "test": test}, base.seed, base.params)
        corpus_io.write_corpus(out, combined, extra={"test": "productivity"})
        print(f"train: {len(train)}  test: {len(test)}")
        print(
            f"functions per sample: train avg {_mean_functions(train):.2f} "
            f"max {max(s.stats.num_functions for s in train)}, "
            f"test avg {_mean_functions(test):.2f} "
            f"min {min(s.stats.num_functions for s in test)}"
        )
    elif args.test in ("substitutivity-ed", "substitutivity-prim"):
        synonyms = (
            corpus_io.read_synonyms(args.synonyms) if args.synonyms else SynonymMap.default()
        )
        _require_splits(base, ("train", "test"), args.test)
        train = base.split("train")
        if args.test == "substitutivity-ed":
            new_train, audit = substitutivity_equal(train, synonyms, rng=rng)
            for name, (chosen, total) in sorted(audit.items()):
                print(f"{name}: rewrote {chosen} of {total} occurrences")
        else:
            new_train, counts = substitutivity_primitive(
                train, synonyms, fraction=args.fraction, rng=rng
            )
            for name, added in sorted(counts.items()):
                print(f"{name}: added {added} primitive samples")
        parts = {"train": new_train}
        for name in ("valid", "test"):
            if name in base.splits:
                parts[name] = base.split(name)
        combined = _combine(parts, base.seed, base.params)
        corpus_io.write_corpus(out, combined, extra={"test": args.test})
        corpus_io.write_synonyms(out / "synonyms.json", synonyms)
        print(f"train: {len(new_train)}  test: {len(parts['test'])}")
    elif args.test == "overgen":
        source = base.split("train") if "train" in base.splits else base
        grid = [args.exception_pct] if args.exception_pct is not None else list(
            OVERGEN_PERCENTAGES
        )
        for pct in grid:
            variant, entries = exceptions_apply(
                source,
                percentage=pct,
                rng=substream(seed, "overgen", repr(pct)),
            )
            variant_dir = out / f"pct-{pct:g}"
            corpus_io.write_corpus(
                variant_dir,
                _combine({"train": variant}, base.seed, base.params),
                extra={"test": "overgen", "exception_pct": pct},
            )
            corpus_io.write_exceptions(variant_dir / "exceptions.json", entries)
            per_pair: dict[str, int] = {}
            for entry in entries:
                key = f"{entry.pair[0]}+{entry.pair[1]}"
                per_pair[key] = per_pair.get(key, 0) + 1
            summary = ", ".join(f"{k}: {v}" for k, v in sorted(per_pair.items()))
            print(f"pct {pct:g}: {len(entries)} exceptions ({summary})")
    else:
        raise SystemExit(f"unknown test name: {args.test!r}")
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


def _default_vary_arg(fn_name: str) -> int:
    # probe the argument whose content survives into the output
    return 1 if fn_name == "remove_first" else 0


def _require_options(args, *names: str) -> None:
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise SystemExit(f"eval {args.mode} needs {' and '.join(missing)}")


def cmd_eval(args) -> int:
    from .harness import run_overgeneralisation

    _require_finite(args, "timeout", zero_ok=False)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.mode == "overgen-profile":
        _require_options(args, "exceptions", "preds")
        entries = corpus_io.read_exceptions(args.exceptions)
        checkpoints = corpus_io.read_checkpoint_predictions(args.preds)
        report = run_overgeneralisation(checkpoints, entries)
    elif args.mode == "length-gen":
        report = _eval_length_gen(args)
    else:
        report = _eval_split(args, out)
    corpus_io.write_report(out / "report.json", report)
    corpus_io.write_strata_csv(out / "strata.csv", report)
    print(f"{report.metric}: {report.overall:.6f} over {report.count} samples")
    if report.errors:
        tags = ", ".join(f"{k}: {v}" for k, v in sorted(report.errors.items()))
        print(f"adapter errors: {tags}")
    return 0


def _eval_length_gen(args) -> EvaluationReport:
    from .harness import build_adapter, run_length_generalisation

    seed = _resolve_seed(args, required=True)
    names = (
        [n.strip() for n in args.functions.split(",")]
        if args.functions
        else list(DEFAULT_REGISTRY.names())
    )
    unknown = [n for n in names if n not in DEFAULT_REGISTRY.names()]
    if unknown:
        raise SystemExit(f"unknown --functions: {', '.join(unknown)}")
    lengths = _parse_lengths(args.lengths)
    cells = {}
    for name in names:
        cell_rng = substream(seed, "length-gen", name)
        for length in lengths:
            cells[(name, length)] = make_primitive_length_corpus(
                name, [length], args.per_length, cell_rng, vary_arg=_default_vary_arg(name)
            )
    with build_adapter(
        args.adapter, timeout_s=args.timeout, jobs=args.jobs, seed=seed
    ) as adapter:
        return run_length_generalisation(adapter, cells)


def _eval_split(args, out: Path) -> EvaluationReport:
    """The modes that score the one split they read of a corpus directory."""
    from .harness import (STRATA_FAMILIES, build_adapter, run_accuracy, run_consistency,
                          run_eos_analysis, run_localism)
    from .suite import make_consistency_pairs

    _require_options(args, "data")
    split = _pick_split(args.data, args.split)
    testset = _load_base(args.data, [split]).split(split)
    registry = corpus_io.registry_for_directory(args.data)
    # an eos prediction file is served as a file adapter
    adapter = f"file:{args.preds}" if args.mode == "eos" and args.preds else args.adapter
    with build_adapter(
        adapter,
        testset=testset,
        registry=registry,
        timeout_s=args.timeout,
        jobs=args.jobs,
        seed=_resolve_seed(args, required=False) or 0,
    ) as adapter:
        if args.mode == "eos":
            return run_eos_analysis(adapter, testset)
        if args.mode == "accuracy":
            pairs_path = Path(args.data) / "pairs.json"
            pairs = corpus_io.read_pairs(pairs_path) if pairs_path.exists() else None
            strata = list(STRATA_FAMILIES)
            if pairs:
                strata.append("pair")
            report = run_accuracy(adapter, testset, strata=strata, pairs=pairs)
            if args.save_preds:
                corpus_io.write_predictions(
                    out / "predictions.pred",
                    [p.tokens for p in report.predictions],
                )
            return report
        if args.mode == "consistency":
            synonyms = (
                corpus_io.read_synonyms(args.synonyms)
                if args.synonyms
                else corpus_io.read_synonyms(Path(args.data) / "synonyms.json")
            )
            pairs, skipped = make_consistency_pairs(testset, synonyms)
            if not pairs:
                raise SystemExit("no test samples contain a mapped function")
            report = run_consistency(adapter, pairs)
            report.extras["skipped"] = skipped
            return report
        if args.mode == "localism":
            return run_localism(adapter, testset, registry=registry)
    raise SystemExit(f"unknown eval mode: {args.mode!r}")


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
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)
    p.set_defaults(func=cmd_naturalise)

    p = sub.add_parser("testbuild", help="redistribute a base corpus into a test")
    p.add_argument(
        "--test",
        required=True,
        choices=[
            "systematicity",
            "productivity",
            "substitutivity-ed",
            "substitutivity-prim",
            "overgen",
        ],
    )
    p.add_argument("--base", required=True, help="base corpus directory")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--pairs", help="held-out pair JSON (default: built-in four)")
    p.add_argument("--synonyms", help="synonym map JSON (default: built-in)")
    p.add_argument("--exception-pct", type=float, help="single percentage instead of the grid")
    p.add_argument("--threshold", type=int, default=8)
    p.add_argument("--fraction", type=float, default=0.001)
    p.add_argument("--test-size", type=int, default=10_000)
    p.set_defaults(func=cmd_testbuild)

    p = sub.add_parser("eval", help="run an adapter through a test")
    p.add_argument(
        "mode",
        choices=["accuracy", "consistency", "localism", "overgen-profile", "length-gen", "eos"],
    )
    p.add_argument("--adapter", default="oracle")
    p.add_argument("--data", help="corpus directory")
    p.add_argument("--split", help="which split to evaluate (default: test)")
    p.add_argument("--out", required=True)
    p.add_argument("--preds", help="prediction file (eos) or checkpoint directory")
    p.add_argument("--exceptions", help="exception sidecar JSON")
    p.add_argument("--synonyms", help="synonym map JSON")
    p.add_argument("--functions", help="comma-separated function names (length-gen)")
    p.add_argument("--lengths", default="1-12", help="lengths, e.g. 1-12 or 2,4,8")
    p.add_argument("--per-length", type=int, default=50)
    p.add_argument("--save-preds", action="store_true")
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--timeout", type=float, default=30.0)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _FAILURES as exc:
        raise SystemExit(f"{args.command} failed: {exc}")


if __name__ == "__main__":
    sys.exit(main())
