"""Command-line interface.

Subcommands: generate (base corpus), naturalise (distribution matching and
grammar refit), testbuild (redistribute a base corpus into one of the five
generalisation tests), eval (run an adapter through a test and emit
reports), validate (audit corpus files) and oracle (serve ground-truth
predictions over the line protocol, usable as a subprocess adapter).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from . import corpus_io
from .generation import (
    Alphabet,
    Corpus,
    GrammarParams,
    UniquenessLedger,
    generate_corpus,
    make_primitive_length_corpus,
    split_corpus,
)
from .harness import (
    STRATA_FAMILIES,
    LineCountMismatch,
    build_adapter,
    run_accuracy,
    run_consistency,
    run_eos_analysis,
    run_length_generalisation,
    run_localism,
    run_overgeneralisation,
)
from .language import DEFAULT_REGISTRY, LanguageError, evaluate_text
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
from .suite import (
    DEFAULT_HELD_OUT_PAIRS,
    SynonymMap,
    exceptions_apply,
    make_consistency_pairs,
    productivity_split,
    substitutivity_equal,
    substitutivity_primitive,
    systematicity_split,
)

OVERGEN_PERCENTAGES = (0.0001, 0.0005, 0.001, 0.005)
LENGTH_GEN_DEFAULT_LENGTHS = tuple(range(1, 13))


def reference_spec_path() -> Path:
    """Location of the bundled (length, depth) reference histogram."""
    return Path(resources.files("pcfgset").joinpath("data/reference_length_depth.csv"))


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
    except (corpus_io.ManifestError, corpus_io.MalformedLine) as exc:
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
    # reindex so ids stay unique when constructors appended fresh samples
    samples = []
    splits = {}
    next_id = 0
    for name, part in parts.items():
        ids = []
        for sample in part.samples:
            samples.append(replace(sample, id=next_id))
            ids.append(next_id)
            next_id += 1
        splits[name] = tuple(ids)
    return Corpus(samples=samples, seed=seed, params=params, splits=splits)


def _mean_functions(corpus: Corpus) -> float:
    return sum(s.stats.num_functions for s in corpus) / len(corpus)


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> int:
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
    write_kl_trace(out / "kl_trace.csv", result)
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
    kept = []
    for sample in corpus:
        if ledger.violation(sample.src) is None:
            ledger.add(sample.src, f"sample {sample.id}")
            kept.append(sample)
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
    params = mle_estimate(subset, max_arg_len=5)
    corpus_io.write_params(out / "params.json", params)
    with open(out / "kl_trace.csv", "w", encoding="utf-8", newline="\n") as handle:
        handle.write("iteration,i_length,i_depth,kl\n")
    corpus_io.write_corpus(out, subset)
    print(f"degenerate reference: matched {len(subset)} samples by histogram")
    print(f"wrote {out}/params.json, kl_trace.csv and corpus files")
    return 0


def cmd_testbuild(args) -> int:
    seed = _resolve_seed(args, required=True)
    base = _load_base(args.base)
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
            new_train, audit = substitutivity_equal(train, synonyms, rng)
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
                Corpus(
                    samples=list(variant.samples),
                    seed=base.seed,
                    params=base.params,
                    splits={"train": tuple(s.id for s in variant.samples)},
                ),
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
    lengths: list[int] = []
    for piece in text.split(","):
        piece = piece.strip()
        if "-" in piece:
            lo, hi = piece.split("-", 1)
            lengths.extend(range(int(lo), int(hi) + 1))
        else:
            lengths.append(int(piece))
    if not lengths or any(l < 1 for l in lengths):
        raise SystemExit(f"bad --lengths value: {text!r}")
    return lengths


def _default_vary_arg(fn_name: str) -> int:
    # probe the argument whose content survives into the output
    return 1 if fn_name == "remove_first" else 0


def cmd_eval(args) -> int:
    try:
        return _run_eval(args)
    except (corpus_io.MalformedLine, LineCountMismatch) as exc:
        raise SystemExit(f"eval failed: {exc}")


def _run_eval(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.mode == "overgen-profile":
        entries = corpus_io.read_exceptions(args.exceptions)
        checkpoints = corpus_io.read_checkpoint_predictions(args.preds)
        profile, peak = run_overgeneralisation(checkpoints, entries)
        corpus_io.write_profile_csv(out / "profile.csv", profile)
        corpus_io.write_report(
            out / "report.json",
            {
                "metric": "overgeneralisation_profile",
                "count": len(entries),
                "peak": {
                    "checkpoint": peak.checkpoint,
                    "overgeneralisation_frac": peak.overgeneralisation_frac,
                    "memorisation_frac": peak.memorisation_frac,
                    "other_frac": peak.other_frac,
                },
                "profile": [
                    {
                        "checkpoint": p.checkpoint,
                        "overgeneralisation_frac": p.overgeneralisation_frac,
                        "memorisation_frac": p.memorisation_frac,
                        "other_frac": p.other_frac,
                    }
                    for p in profile
                ],
            },
        )
        print(
            f"peak overgeneralisation {peak.overgeneralisation_frac:.4f} "
            f"at checkpoint {peak.checkpoint}"
        )
        return 0
    if args.mode == "length-gen":
        seed = _resolve_seed(args, required=True)
        names = (
            [n.strip() for n in args.functions.split(",")]
            if args.functions
            else list(DEFAULT_REGISTRY.names())
        )
        lengths = _parse_lengths(args.lengths)
        alphabet = Alphabet.default()
        cells = {}
        for name in names:
            cell_rng = substream(seed, "length-gen", name)
            for length in lengths:
                cells[(name, length)] = make_primitive_length_corpus(
                    name,
                    [length],
                    args.per_length,
                    alphabet,
                    cell_rng,
                    vary_arg=_default_vary_arg(name),
                )
        with build_adapter(
            args.adapter, timeout_s=args.timeout, jobs=args.jobs, seed=seed or 0
        ) as adapter:
            grid = run_length_generalisation(adapter, cells)
        corpus_io.write_grid_csv(out / "grid.csv", grid)
        corpus_io.write_report(
            out / "report.json",
            {
                "metric": "length_generalisation",
                "grid": [
                    {"function": fn, "length": L, "accuracy": acc, "count": count}
                    for (fn, L), (acc, count) in sorted(grid.items())
                ],
            },
        )
        worst = min(acc for acc, _ in grid.values())
        print(f"{len(grid)} cells, worst accuracy {worst:.4f}")
        return 0

    # remaining modes read the one split they score of a corpus directory
    split = _pick_split(args.data, args.split)
    testset = _load_base(args.data, [split]).split(split)
    registry = corpus_io.registry_for_directory(args.data)
    if args.mode == "eos":
        if args.preds:
            predictions: list = corpus_io.read_predictions(args.preds)
        else:
            adapter = build_adapter(
                args.adapter,
                testset=testset,
                registry=registry,
                timeout_s=args.timeout,
                jobs=args.jobs,
                seed=_resolve_seed(args, required=False) or 0,
            )
            with adapter:
                predictions = [p.tokens for p in adapter.predict_batch([s.src for s in testset])]
        result = run_eos_analysis(predictions, [s.tgt for s in testset])
        corpus_io.write_report(out / "report.json", {"metric": "eos_analysis", **result})
        corpus_io.write_kv_csv(out / "eos.csv", result)
        prefix = result["strict_prefix_frac"]
        print(
            f"incorrect: {result['incorrect']} of {result['total']}; "
            f"strict-prefix fraction: "
            + ("n/a" if prefix is None else f"{prefix:.4f}")
        )
        return 0
    seed = _resolve_seed(args, required=False) or 0
    adapter = build_adapter(
        args.adapter,
        testset=testset,
        registry=registry,
        timeout_s=args.timeout,
        jobs=args.jobs,
        seed=seed,
    )
    with adapter:
        if args.mode == "accuracy":
            pairs_path = Path(args.data) / "pairs.json"
            pairs = corpus_io.read_pairs(pairs_path) if pairs_path.exists() else None
            strata = list(STRATA_FAMILIES)
            if pairs:
                strata.append("pair")
            report = run_accuracy(
                adapter, testset, strata=strata, pairs=pairs, keep_predictions=True
            )
            if args.save_preds:
                corpus_io.write_predictions(
                    out / "predictions.pred",
                    [p.tokens for p in report.predictions],
                )
        elif args.mode == "consistency":
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
        elif args.mode == "localism":
            report = run_localism(adapter, testset, registry=registry)
        else:
            raise SystemExit(f"unknown eval mode: {args.mode!r}")
    corpus_io.write_report(out / "report.json", report)
    corpus_io.write_strata_csv(out / "strata.csv", report)
    print(f"{report.metric}: {report.overall:.6f} over {report.count} samples")
    if report.errors:
        tags = ", ".join(f"{k}: {v}" for k, v in sorted(report.errors.items()))
        print(f"adapter errors: {tags}")
    return 0


def cmd_validate(args) -> int:
    exceptions = corpus_io.read_exceptions(args.exceptions) if args.exceptions else None
    problems = corpus_io.validate_corpus_files(args.data, exceptions=exceptions)
    if problems:
        for problem in problems:
            print(problem)
        print(f"FAIL: {len(problems)} problems")
        return 1
    names = corpus_io.discover_splits(args.data)
    total = sum(
        len(corpus_io.read_token_file(Path(args.data) / f"{n}.src")) for n in names
    )
    print(f"PASS: {total} samples across {len(names)} splits")
    return 0


def cmd_oracle(args) -> int:
    registry = DEFAULT_REGISTRY
    if args.synonyms:
        registry = corpus_io.read_synonyms(args.synonyms).registry()
    for line in sys.stdin:
        line = line.strip()
        try:
            answer = evaluate_text(line, registry) if line else ""
        except LanguageError:
            answer = ""
        print(answer, flush=True)
    return 0


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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
