"""Acceptance gate: one test per release criterion, one verdict line each.

Every test prints `criterion N: PASS ...` (or FAIL with the offending value)
before asserting, so a full run produces a readable scorecard.  Expensive
artifacts (the 100k corpora) are built once per session and shared.
"""

import math
import random
import sys
import time

import pytest

pytestmark = pytest.mark.acceptance

from pcfgset import cli, corpus_io
from pcfgset.generation import (
    Alphabet,
    Corpus,
    GrammarParams,
    Sample,
    generate_corpus,
    sample_tree,
    split_corpus,
)
from pcfgset.harness import (
    FaultyOracleAdapter,
    ModelAdapter,
    OracleAdapter,
    SubprocessAdapter,
    run_accuracy,
    run_consistency,
    run_localism,
    run_overgeneralisation,
)
from pcfgset.language import (
    DEFAULT_REGISTRY,
    evaluate,
    evaluate_text,
    interpret,
    parse,
    render,
)
from pcfgset.naturalise import (
    DistributionSpec,
    GaussianFit,
    fit_gaussian,
    kl_gaussian,
    mle_estimate,
    naturalise_pipeline,
    naturalised_corpus,
)
from pcfgset.seeding import DEFAULT_SEED, subseed, substream
from pcfgset.suite import (
    DEFAULT_HELD_OUT_PAIRS,
    ExceptionEntry,
    SynonymMap,
    contains_pair,
    exception_evaluate,
    exceptions_apply,
    make_consistency_pairs,
    productivity_split,
    substitutivity_equal,
    substitutivity_primitive,
    systematicity_split,
)

import numpy as np

ORACLE_CMD = f"{sys.executable} -m pcfgset oracle"


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="session")
def raw_base(tmp_path_factory):
    """100k raw base corpus written through the CLI; returns (dir, seconds)."""
    out = tmp_path_factory.mktemp("acceptance") / "base"
    start = time.perf_counter()
    assert cli.main(["generate", "--seed", str(DEFAULT_SEED),
                     "--size", "100000", "--out", str(out)]) == 0
    return out, time.perf_counter() - start


@pytest.fixture(scope="session")
def naturalised_base():
    """100k corpus matched against the bundled reference histogram."""
    spec = DistributionSpec.from_csv(cli.reference_spec_path())
    return naturalised_corpus(
        spec,
        GrammarParams.default(),
        100_000,
        rng=substream(DEFAULT_SEED, "base"),
    )


# --- criterion 1: worked examples ------------------------------------------------

WORKED_EXAMPLES = [
    ("repeat A B C", "A B C A B C"),
    ("echo remove_first D K , E F", "E F F"),
    ("append swap F G H , repeat I J", "H G F I J I J"),
]

EXCEPTION_TABLE = [
    ("reverse echo A B C", "C C B A", "A B C C"),
    ("prepend remove_first A , B , C", "C B", "A B"),
    ("echo remove_first A , B C", "B C C", "A B C"),
    ("prepend reverse A B , C", "C B A", "A B B"),
]


def test_criterion_1_oracle_semantics():
    start = time.perf_counter()
    bad = []
    for src, want in WORKED_EXAMPLES:
        got = evaluate_text(src)
        if got != want:
            bad.append(f"{src!r} -> {got!r} (want {want!r})")
    for src, original, exception in EXCEPTION_TABLE:
        program = parse(src.split())
        got_original = " ".join(evaluate(program))
        got_exception = " ".join(exception_evaluate(program))
        if got_original != original:
            bad.append(f"{src!r} original -> {got_original!r}")
        if got_exception != exception:
            bad.append(f"{src!r} exception -> {got_exception!r}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        bad.append(f"took {elapsed:.2f}s (budget 1s)")
    verdict(1, not bad,
            f"3 worked examples and 4 exception rows exact in {elapsed:.3f}s"
            + ("; ".join([""] + bad)))


# --- criterion 2: round-trip ------------------------------------------------------


def test_criterion_2_round_trip(tmp_path):
    start = time.perf_counter()
    seed = subseed(DEFAULT_SEED, "roundtrip")
    corpus = generate_corpus(GrammarParams.default(), 10_000, seed=seed)
    # redraw the trees generate_corpus drew, from the same seeded stream;
    # the accepted ones render to the corpus sources in order
    rng = random.Random(seed)
    mismatches = 0
    accepted = 0
    for _ in range(2 * len(corpus)):
        program = sample_tree(GrammarParams.default(), rng)
        src = tuple(render(program))
        if parse(src) != program:
            mismatches += 1
        if src == corpus.samples[accepted].src:
            accepted += 1
            if accepted == len(corpus):
                break
    mismatches += len(corpus) - accepted
    corpus_io.write_corpus(tmp_path, corpus)
    problems = corpus_io.validate_corpus_files(tmp_path)
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and not problems and elapsed < 10.0
    verdict(2, ok,
            f"10k samples round-trip clean ({mismatches} mismatches, "
            f"{len(problems)} validator problems) in {elapsed:.1f}s")


# --- criterion 3: interpreter properties ------------------------------------------


def test_criterion_3_interpreter_properties():
    start = time.perf_counter()
    rng = random.Random(subseed(DEFAULT_SEED, "properties"))
    alphabet = Alphabet.default()
    registry = DEFAULT_REGISTRY
    unary_lengths = {
        "copy": lambda n: n, "reverse": lambda n: n, "shift": lambda n: n,
        "swap": lambda n: n, "repeat": lambda n: 2 * n, "echo": lambda n: n + 1,
    }
    failures = 0
    checked = 0
    for _ in range(10_000):
        n = rng.randint(1, 5)
        x = tuple(rng.sample(alphabet.symbols, n))
        m = rng.randint(1, 5)
        y = tuple(rng.sample(alphabet.symbols, m))
        for name, expect_len in unary_lengths.items():
            out = interpret(registry.lookup(name), None, [x])
            checked += 1
            if len(out) != expect_len(len(x)):
                failures += 1
        for name, expect_len in (
            ("append", len(x) + len(y)), ("prepend", len(x) + len(y)),
            ("remove_first", len(y)), ("remove_second", len(x)),
        ):
            out = interpret(registry.lookup(name), None, [x, y])
            checked += 1
            if len(out) != expect_len:
                failures += 1
        for name in ("reverse", "swap"):
            fn = registry.lookup(name)
            checked += 1
            if interpret(fn, None, [interpret(fn, None, [x])]) != x:
                failures += 1
        for name in ("copy", "reverse", "shift", "swap"):
            checked += 1
            if sorted(interpret(registry.lookup(name), None, [x])) != sorted(x):
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    verdict(3, ok,
            f"length/involution/multiset properties held on {checked} "
            f"applications over 10k random strings in {elapsed:.1f}s "
            f"({failures} failures)")


# --- criterion 4: localism ground truth -------------------------------------------


def test_criterion_4_localism(naturalised_base):
    picks = substream(DEFAULT_SEED, "localism").sample(
        range(len(naturalised_base.samples)), 5_000
    )
    subset = [naturalised_base.samples[i] for i in picks]
    report = run_localism(OracleAdapter(), subset)
    steps = report.extras["mean_unroll_steps"]
    ok = report.overall == 1.0 and 3.0 <= steps <= 8.0
    verdict(4, ok,
            f"oracle unrolling consistency {report.overall} over "
            f"{report.count} naturalised sequences, mean steps {steps:.2f}")


# --- criterion 5: substitutivity ground truth -------------------------------------


def test_criterion_5_substitutivity():
    base = generate_corpus(
        GrammarParams.default(), 20_000, seed=subseed(DEFAULT_SEED, "subst")
    )
    split_corpus(base, rng=substream(DEFAULT_SEED, "subst-split"))
    train = base.split("train")
    test = base.split("test")
    synonyms = SynonymMap.default()
    syn_registry = synonyms.registry()
    oracle = OracleAdapter(syn_registry)
    issues = []

    ed_train, audit = substitutivity_equal(
        train, synonyms, rng=substream(DEFAULT_SEED, "ed")
    )
    for fn, syn in synonyms.as_dict().items():
        k = sum(s.src.count(fn) for s in train)
        rewritten = sum(s.src.count(syn) for s in ed_train)
        if rewritten != k // 2:
            issues.append(f"{fn}: {rewritten} of {k} rewritten, want {k // 2}")
    pairs, _ = make_consistency_pairs(test, synonyms)
    ed_report = run_consistency(oracle, pairs)
    if ed_report.overall != 1.0:
        issues.append(f"ED consistency {ed_report.overall}")

    prim_train, _ = substitutivity_primitive(
        train, synonyms, fraction=0.001, rng=substream(DEFAULT_SEED, "prim"), written=train
    )
    want_added = math.floor(0.001 * len(train.samples) + 0.5)
    if prim_train.samples[:len(train)] != train.samples:
        issues.append("primitive samples are not appended after train")
    added = prim_train.samples[len(train):]
    for syn in synonyms.as_dict().values():
        mine = [s for s in added if s.src[0] == syn]
        if len(mine) != want_added:
            issues.append(f"{syn}: added {len(mine)}, want {want_added}")
        if any(s.stats.num_functions != 1 for s in mine):
            issues.append(f"{syn}: non-primitive addition")
    prim_report = run_consistency(oracle, pairs)
    if prim_report.overall != 1.0:
        issues.append(f"primitive consistency {prim_report.overall}")

    verdict(5, not issues,
            f"half-of-k rewrites and {want_added} primitive additions per "
            f"synonym exact; oracle consistency 1.0 both ways"
            + ("; ".join([""] + issues)))


# --- criterion 6: split invariants ------------------------------------------------


def test_criterion_6_split_invariants(naturalised_base):
    pairs = list(DEFAULT_HELD_OUT_PAIRS)
    sys_train, sys_test = systematicity_split(
        naturalised_base, pairs, 10_000, rng=substream(DEFAULT_SEED, "sys")
    )
    issues = []
    leak = sum(1 for s in sys_train if contains_pair(s.src, pairs))
    missing = sum(1 for s in sys_test if not contains_pair(s.src, pairs))
    if leak or missing:
        issues.append(f"{leak} train leaks, {missing} test misses")
    if not 77_900 <= len(sys_train.samples) <= 86_100:
        issues.append(f"systematicity train size {len(sys_train.samples)}")
    if not 9_500 <= len(sys_test.samples) <= 10_500:
        issues.append(f"systematicity test size {len(sys_test.samples)}")

    prod_train, prod_test = productivity_split(naturalised_base)
    train_fns = [s.stats.num_functions for s in prod_train]
    test_fns = [s.stats.num_functions for s in prod_test]
    if max(train_fns) != 8 or min(test_fns) != 9:
        issues.append(f"boundary {max(train_fns)}/{min(test_fns)}")
    train_avg = sum(train_fns) / len(train_fns)
    test_avg = sum(test_fns) / len(test_fns)
    if not 0.8 * 4.3 <= train_avg <= 1.2 * 4.4:
        issues.append(f"train avg functions {train_avg:.3f}")
    if not 0.8 * 11.5 <= test_avg <= 1.2 * 11.5:
        issues.append(f"test avg functions {test_avg:.3f}")

    verdict(6, not issues,
            f"systematicity {len(sys_train.samples)}/{len(sys_test.samples)} "
            f"with clean bigram scan; productivity boundary 8/9, "
            f"avgs {train_avg:.2f}/{test_avg:.2f}"
            + ("; ".join([""] + issues)))


# --- criterion 7: exception construction ------------------------------------------


def test_criterion_7_exception_counts(raw_base):
    base_dir, _ = raw_base
    train = corpus_io.read_corpus(base_dir).split("train")
    issues = []
    grid = (0.0001, 0.0005, 0.001, 0.005)
    variants = exceptions_apply(
        train, {pct: substream(DEFAULT_SEED, "exc", repr(pct)) for pct in grid}
    )
    for pct, (variant, entries) in variants.items():
        by_pair: dict[tuple[str, str], list[ExceptionEntry]] = {}
        for entry in entries:
            by_pair.setdefault(entry.pair, []).append(entry)
        for pair, got in sorted(by_pair.items()):
            min_occ = min(
                sum(s.src.count(fn) for s in train) for fn in pair
            )
            want = math.floor(pct * min_occ + 0.5)
            if len(got) != want:
                issues.append(f"pct {pct} {pair}: {len(got)} want {want}")
        for entry in entries:
            program = parse(entry.src)
            if evaluate(program) != entry.original_tgt:
                issues.append(f"original target wrong for {' '.join(entry.src)}")
            if exception_evaluate(program) != entry.exception_tgt:
                issues.append(f"exception target wrong for {' '.join(entry.src)}")
    verdict(7, not issues,
            "exception counts equal round(pct * min occurrence) for the four "
            "percentages and both stored targets verify"
            + ("; ".join([""] + issues)))


# --- criterion 8: metric validation -----------------------------------------------


class TableAdapter(ModelAdapter):
    """Answers from a fixed source-to-tokens table."""

    def __init__(self, table):
        self.table = {k: v.split() for k, v in table.items()}
        self.name = "table"

    def predict(self, src):
        text = src if isinstance(src, str) else " ".join(src)
        return list(self.table[text])


def test_criterion_8_metric_validation(raw_base):
    base_dir, _ = raw_base
    testset = corpus_io.read_corpus(base_dir).split("test")
    issues = []

    faulty = run_accuracy(
        FaultyOracleAdapter(0.3, seed=subseed(DEFAULT_SEED, "faulty")), testset
    )
    if not 0.68 <= faulty.overall <= 0.72:
        issues.append(f"faulty accuracy {faulty.overall:.4f}")

    from pcfgset.suite import ConsistencyPair

    pairs = [
        ConsistencyPair(("copy", "A"), ("copy_syn", "A"), ("A",)),
        ConsistencyPair(("copy", "B"), ("copy_syn", "B"), ("B",)),
        ConsistencyPair(("copy", "C"), ("copy_syn", "C"), ("C",)),
        ConsistencyPair(("copy", "D"), ("copy_syn", "D"), ("D",)),
    ]
    table = {
        "copy A": "A", "copy_syn A": "A",          # consistent and correct
        "copy B": "X", "copy_syn B": "X",          # consistent but wrong
        "copy C": "C", "copy_syn C": "Y",          # inconsistent, one wrong
        "copy D": "Z", "copy_syn D": "W",          # inconsistent, both wrong
    }
    report = run_consistency(TableAdapter(table), pairs)
    got = (
        report.overall,
        report.extras["consistent_correct"],
        report.extras["consistent_incorrect"],
        report.extras["consistency_across_incorrect"],
    )
    if got != (0.5, 0.25, 0.25, 1 / 3):
        issues.append(f"consistency fixture {got}")

    entries = [
        ExceptionEntry(
            sample_id=i,
            src=("copy", sym),
            original_tgt=(sym,),
            exception_tgt=(sym, sym),
            pair=("copy", "copy"),
        )
        for i, sym in enumerate("ABCDEFGHIJ")
    ]
    def preds(n_orig, n_exc):
        out = []
        for i, entry in enumerate(entries):
            if i < n_orig:
                out.append(entry.original_tgt)
            elif i < n_orig + n_exc:
                out.append(entry.exception_tgt)
            else:
                out.append(("Q9",))
        return out
    profile = run_overgeneralisation(
        [("1", preds(8, 1)), ("2", preds(4, 5)), ("3", preds(1, 9))], entries
    )
    peak = profile.extras["peak_checkpoint"]
    if peak != "1" or profile.overall != 0.8:
        issues.append(f"peak {profile.overall} at {peak}")
    for checkpoint in profile.strata["other"]:
        total = sum(profile.strata[family][checkpoint][0]
                    for family in ("overgeneralisation", "memorisation", "other"))
        if abs(total - 1.0) > 1e-12:
            issues.append(f"fractions sum {total} at {checkpoint}")

    verdict(8, not issues,
            f"faulty-oracle accuracy {faulty.overall:.4f} in [0.68, 0.72]; "
            f"consistency fixture exact; overgeneralisation peak 0.8 at "
            f"checkpoint 1" + ("; ".join([""] + issues)))


# --- criterion 9: naturalisation --------------------------------------------------


def test_criterion_9_naturalisation():
    issues = []
    rng = np.random.default_rng(subseed(DEFAULT_SEED, "kl"))
    for _ in range(5):
        pts = [tuple(row) for row in rng.normal(size=(40, 2)) * 3.0]
        fit = fit_gaussian(pts)
        self_kl = kl_gaussian(fit, fit)
        if abs(self_kl) > 1e-9:
            issues.append(f"self KL {self_kl}")
    shifted = kl_gaussian(
        GaussianFit(np.zeros(2), np.eye(2)),
        GaussianFit(np.array([1.0, 0.0]), np.eye(2)),
    )
    if abs(shifted - 0.5) > 1e-9:
        issues.append(f"unit-shift KL {shifted}")

    spec = DistributionSpec.from_csv(cli.reference_spec_path())
    start = time.perf_counter()
    result = naturalise_pipeline(spec, rng=substream(DEFAULT_SEED, "pipeline"))
    elapsed = time.perf_counter() - start
    kls = [row.kl for row in result.trace]
    if not kls or kls[-1] >= result.initial_kl:
        issues.append(f"final KL {kls[-1]:.4f} vs initial {result.initial_kl:.4f}")
    if any(a < b for a, b in zip(kls, kls[1:])):
        issues.append(f"trace not monotone: {kls}")
    if elapsed >= 300:
        issues.append(f"pipeline took {elapsed:.0f}s (budget 300s)")

    true = GrammarParams.default()
    tree_rng = random.Random(subseed(DEFAULT_SEED, "mle"))
    samples = [
        Sample.from_src(sample_tree(true, tree_rng, force_function=False))
        for _ in range(100_000)
    ]
    est = mle_estimate(Corpus(samples))
    tv = 0.5 * (
        abs(est.p_unary - true.p_unary)
        + abs(est.p_binary - true.p_binary)
        + abs(est.p_leaf - true.p_leaf)
    )
    if tv >= 0.02:
        issues.append(f"MLE round-trip TV {tv:.4f}")

    verdict(9, not issues,
            f"KL identities exact; pipeline KL {result.initial_kl:.1f} -> "
            f"{kls[-1]:.4f} monotone in {elapsed:.0f}s; MLE TV {tv:.4f}"
            + ("; ".join([""] + issues)))


# --- criterion 10: end to end -----------------------------------------------------


def test_criterion_10_end_to_end(raw_base, tmp_path):
    base_dir, gen_seconds = raw_base
    start = time.perf_counter()
    issues = []

    def build(name, *extra):
        out = tmp_path / name
        rc = cli.main(["testbuild", "--test", name, "--base", str(base_dir),
                       "--out", str(out), "--seed", str(DEFAULT_SEED), *extra])
        if rc != 0:
            issues.append(f"testbuild {name} rc {rc}")
        return out

    sys_dir = build("systematicity")
    prod_dir = build("productivity")
    ed_dir = build("substitutivity-ed")
    prim_dir = build("substitutivity-prim")
    og_dir = build("overgen")

    def check(mode, data, adapter, expect_label):
        out = tmp_path / f"eval-{expect_label}"
        rc = cli.main(["eval", mode, "--data", str(data), "--adapter", adapter,
                       "--jobs", "4", "--out", str(out)])
        report = corpus_io.read_json(out / "report.json")
        if rc != 0 or report["overall"] != 1.0:
            issues.append(f"{expect_label}: overall {report.get('overall')}")
        return report

    check("accuracy", sys_dir, f"cmd:{ORACLE_CMD}", "systematicity")
    check("accuracy", prod_dir, f"cmd:{ORACLE_CMD}", "productivity")
    check("consistency", ed_dir,
          f"cmd:{ORACLE_CMD} --synonyms {ed_dir / 'synonyms.json'}",
          "substitutivity-ed")
    check("consistency", prim_dir,
          f"cmd:{ORACLE_CMD} --synonyms {prim_dir / 'synonyms.json'}",
          "substitutivity-prim")

    for pct_dir in sorted(og_dir.glob("pct-*")):
        entries = corpus_io.read_exceptions(pct_dir / "exceptions.json")
        with SubprocessAdapter(ORACLE_CMD, jobs=4) as adapter:
            preds = adapter.predict_batch([" ".join(e.src) for e in entries])
        ck = tmp_path / f"ck-{pct_dir.name}"
        ck.mkdir()
        corpus_io.write_predictions(ck / "1_oracle.pred",
                                    [p.tokens for p in preds])
        out = tmp_path / f"eval-og-{pct_dir.name}"
        rc = cli.main(["eval", "overgen-profile",
                       "--exceptions", str(pct_dir / "exceptions.json"),
                       "--preds", str(ck), "--out", str(out)])
        report = corpus_io.read_json(out / "report.json")
        peak = report["extras"]["peak_checkpoint"]
        memorised = report["strata"]["memorisation"][peak]["mean"]
        if rc != 0 or report["overall"] != 1.0 or memorised != 0.0:
            issues.append(f"{pct_dir.name}: peak {report['overall']}, memorised {memorised}")

    elapsed = gen_seconds + (time.perf_counter() - start)
    if elapsed >= 600:
        issues.append(f"end-to-end took {elapsed:.0f}s (budget 600s)")
    verdict(10, not issues,
            f"100k generate, five builds and subprocess-loopback oracle "
            f"evals all 1.0 in {elapsed:.0f}s"
            + ("; ".join([""] + issues)))
