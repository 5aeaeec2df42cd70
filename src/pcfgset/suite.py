"""Constructors for the five compositionality tests.

Each constructor redistributes or rewrites a generated corpus:
systematicity holds out function pairs, productivity holds out long
compositions, substitutivity introduces synonyms, localism produces
unroll plans for step-by-step evaluation, and overgeneralisation plants
exception targets for selected function pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .generation import Alphabet, Corpus, Sample, UniquenessLedger
from .language import (
    DEFAULT_REGISTRY,
    SEPARATOR,
    FunctionRegistry,
    FunctionSymbol,
    apply_function,
    evaluate,
    fold,
)
from .naturalise import round_half_up


class InsufficientPositives(Exception):
    """Not enough pair-containing samples to fill the requested test set."""


class EmptySide(Exception):
    """A split constructor produced an empty train or test side."""


@dataclass(frozen=True)
class HeldOutPair:
    """A function bigram: ``outer`` immediately followed by ``inner``."""

    outer: str
    inner: str

    def __post_init__(self):
        for name in (self.outer, self.inner):
            if name not in DEFAULT_REGISTRY:
                raise ValueError(f"unknown function {name!r}")


DEFAULT_HELD_OUT_PAIRS = (
    HeldOutPair("swap", "repeat"),
    HeldOutPair("append", "remove_second"),
    HeldOutPair("repeat", "remove_second"),
    HeldOutPair("append", "swap"),
)


def contains_pair(src: Sequence[str], pairs: Iterable[HeldOutPair]) -> bool:
    """True when any pair occurs as adjacent tokens in the source.

    Adjacency of two function tokens in this grammar happens exactly when
    the second heads the first's (first) argument, so a bigram scan is a
    faithful containment test.
    """
    wanted = {(p.outer, p.inner) for p in pairs}
    return any((a, b) in wanted for a, b in zip(src, src[1:]))


def systematicity_split(
    corpus: Corpus,
    pairs: Sequence[HeldOutPair] = DEFAULT_HELD_OUT_PAIRS,
    test_size: int = 10_000,
    rng: random.Random | None = None,
) -> tuple[Corpus, Corpus]:
    """Hold out every sample containing a listed pair; draw the test set.

    Train keeps all pair-free samples.  The test set is a uniform draw of
    ``test_size`` pair-containing samples; fewer available positives raise
    InsufficientPositives.
    """
    rng = rng or random.Random(0)
    positives = [s for s in corpus if contains_pair(s.src, pairs)]
    negatives = [s for s in corpus if not contains_pair(s.src, pairs)]
    if not pairs:
        return Corpus(negatives, seed=corpus.seed, params=corpus.params), Corpus([])
    if len(positives) < test_size:
        raise InsufficientPositives(
            f"need {test_size} pair-containing samples, found {len(positives)}"
        )
    chosen = rng.sample(range(len(positives)), test_size)
    test = [positives[i] for i in sorted(chosen)]
    return (
        Corpus(negatives, seed=corpus.seed, params=corpus.params),
        Corpus(test, seed=corpus.seed, params=corpus.params),
    )


def productivity_split(
    corpus: Corpus, threshold: int = 8
) -> tuple[Corpus, Corpus]:
    """Train on compositions of at most ``threshold`` functions, test above."""
    train = [s for s in corpus if s.stats.num_functions <= threshold]
    test = [s for s in corpus if s.stats.num_functions > threshold]
    if not train or not test:
        raise EmptySide(
            f"threshold {threshold} leaves train={len(train)} test={len(test)}"
        )
    return (
        Corpus(train, seed=corpus.seed, params=corpus.params),
        Corpus(test, seed=corpus.seed, params=corpus.params),
    )


@dataclass(frozen=True)
class SynonymMap:
    """Maps base function names to their synonym names."""

    mapping: tuple[tuple[str, str], ...]

    def __post_init__(self):
        syns = [s for _, s in self.mapping]
        if len(set(syns)) != len(syns):
            raise ValueError("synonym names must be distinct")

    @classmethod
    def default(cls) -> "SynonymMap":
        return cls.from_dict(
            {
                "swap": "swap_syn",
                "repeat": "repeat_syn",
                "append": "append_syn",
                "remove_second": "remove_second_syn",
            }
        )

    @classmethod
    def from_dict(cls, d: dict[str, str]) -> "SynonymMap":
        return cls(tuple(d.items()))

    def as_dict(self) -> dict[str, str]:
        return dict(self.mapping)

    def registry(self, base: FunctionRegistry = DEFAULT_REGISTRY) -> FunctionRegistry:
        return base.with_synonyms(self.as_dict())


def substitutivity_equal(
    train: Corpus,
    synonyms: SynonymMap | None = None,
    rng: random.Random | None = None,
) -> tuple[Corpus, dict[str, tuple[int, int]]]:
    """Rewrite exactly half of each base function's occurrences (floor).

    Occurrences are counted token-wise across the whole train side; the
    rewritten occurrences are a uniform draw.  Targets stay untouched
    because a synonym means the same thing.  Returns the rewritten corpus
    and an audit mapping base -> (rewritten, total).
    """
    synonyms = synonyms or SynonymMap.default()
    rng = rng or random.Random(0)
    registry = synonyms.registry()
    replacements: dict[int, dict[int, str]] = {}
    audit: dict[str, tuple[int, int]] = {}
    for base, syn in synonyms.mapping:
        occurrences = [
            (pos, t_idx)
            for pos, s in enumerate(train.samples)
            for t_idx, tok in enumerate(s.src)
            if tok == base
        ]
        k = len(occurrences) // 2
        chosen = rng.sample(occurrences, k) if k else []
        for pos, t_idx in chosen:
            replacements.setdefault(pos, {})[t_idx] = syn
        audit[base] = (k, len(occurrences))
    rewritten: list[Sample] = []
    for pos, s in enumerate(train.samples):
        subs = replacements.get(pos)
        if not subs:
            rewritten.append(s)
            continue
        src = tuple(subs.get(i, tok) for i, tok in enumerate(s.src))
        new = Sample.from_src(s.id, src, registry)
        assert new.tgt == s.tgt, "synonym rewriting must not change the target"
        rewritten.append(new)
    return Corpus(rewritten, seed=train.seed, params=train.params), audit


def substitutivity_primitive(
    train: Corpus,
    synonyms: SynonymMap | None = None,
    fraction: float = 0.001,
    alphabet: Alphabet | None = None,
    rng: random.Random | None = None,
    *,
    arg_len_range: tuple[int, int] = (1, 5),
    max_attempts: int = 10_000,
) -> tuple[Corpus, dict[str, int]]:
    """Add primitive synonym samples instead of rewriting.

    Per base function, round(fraction * |train|) fresh one-function
    samples ``F_syn <args>`` are appended, with arguments respecting the
    corpus constraints (no literal repeats inside a sample, no reuse of a
    multi-symbol argument seen anywhere in train or among the additions).
    """
    synonyms = synonyms or SynonymMap.default()
    alphabet = alphabet or Alphabet.default()
    rng = rng or random.Random(0)
    registry = synonyms.registry()
    per_base = round_half_up(fraction * len(train))
    ledger = UniquenessLedger(train)
    next_id = max((s.id for s in train), default=-1) + 1
    added: list[Sample] = []
    counts: dict[str, int] = {}
    for base, syn in synonyms.mapping:
        fn = registry.lookup(syn)
        made = 0
        attempts = 0
        while made < per_base:
            attempts += 1
            if attempts > max_attempts:
                raise RuntimeError(f"could not place fresh arguments for {syn}")
            if fn.arity == 1:
                n = rng.randint(*arg_len_range)
                src = [syn, *rng.sample(alphabet.symbols, n)]
            else:
                n1 = rng.randint(*arg_len_range)
                n2 = rng.randint(*arg_len_range)
                syms = rng.sample(alphabet.symbols, n1 + n2)
                src = [syn, *syms[:n1], SEPARATOR, *syms[n1:]]
            sample = Sample.from_src(next_id, src, registry)
            if ledger.violation(sample.src) is not None:
                continue
            ledger.add(sample.src, f"sample {next_id}")
            next_id += 1
            added.append(sample)
            made += 1
            attempts = 0
        counts[base] = made
    merged = Corpus(
        list(train.samples) + added, seed=train.seed, params=train.params
    )
    return merged, counts


@dataclass(frozen=True)
class ConsistencyPair:
    """One test item rendered both with base functions and with synonyms."""

    id: int
    src_base: tuple[str, ...]
    src_syn: tuple[str, ...]
    tgt: tuple[str, ...]


def make_consistency_pairs(
    testset: Corpus, synonyms: SynonymMap | None = None
) -> tuple[list[ConsistencyPair], int]:
    """Pair each test source with its fully synonym-substituted variant.

    Samples containing none of the mapped functions are skipped; the skip
    count is returned alongside the pairs.
    """
    synonyms = synonyms or SynonymMap.default()
    table = synonyms.as_dict()
    pairs: list[ConsistencyPair] = []
    skipped = 0
    for s in testset:
        syn_src = tuple(table.get(tok, tok) for tok in s.src)
        if syn_src == s.src:
            skipped += 1
            continue
        pairs.append(ConsistencyPair(s.id, s.src, syn_src, s.tgt))
    return pairs, skipped


# --- overgeneralisation ------------------------------------------------------

ExceptionRemap = dict[tuple[str, str], tuple[str, str]]

DEFAULT_EXCEPTION_REMAP: ExceptionRemap = {
    ("reverse", "echo"): ("echo", "copy"),
    ("prepend", "remove_first"): ("remove_second", "append"),
    ("echo", "remove_first"): ("copy", "append"),
    ("prepend", "reverse"): ("remove_second", "echo"),
}


def _check_remap(remap: ExceptionRemap) -> None:
    for (outer, inner), (outer_new, inner_new) in remap.items():
        for a, b in ((outer, outer_new), (inner, inner_new)):
            if DEFAULT_REGISTRY.lookup(a).arity != DEFAULT_REGISTRY.lookup(b).arity:
                raise ValueError(f"remap {a}->{b} changes arity")


def exception_evaluate(
    src: Sequence[str], remap: ExceptionRemap | None = None
) -> tuple[str, ...]:
    """Evaluate with pair exceptions applied.

    Wherever a remapped pair occurs as a function immediately followed by
    another function (parent and first child), both members take their
    replacement meanings for that occurrence.  Matching is decided on the
    original source, so overlapping pairs each contribute a substitution;
    a custom table whose overlaps disagree on some member is rejected.
    """
    remap = DEFAULT_EXCEPTION_REMAP if remap is None else remap
    _check_remap(remap)
    # per function position: the meaning its pair as outer member (own)
    # and as inner member (forced) gives it
    own: dict[int, str] = {}
    forced: dict[int, str] = {}
    for i, pair in enumerate(zip(src, src[1:])):
        if pair in remap:
            own[i], forced[i + 1] = remap[pair]

    def apply(fn: FunctionSymbol, position: int, args: list) -> tuple[str, ...]:
        mine, given = own.get(position), forced.get(position)
        if mine is not None and given is not None and mine != given:
            raise ValueError(
                f"conflicting exception remaps for {fn.name!r}: {given!r} vs {mine!r}"
            )
        meaning = mine or given
        return apply_function(DEFAULT_REGISTRY.lookup(meaning) if meaning else fn, args)

    return fold(src, DEFAULT_REGISTRY, apply)[1]


@dataclass(frozen=True)
class ExceptionEntry:
    sample_id: int
    src: tuple[str, ...]
    original_tgt: tuple[str, ...]
    exception_tgt: tuple[str, ...]
    pair: tuple[str, str]


def _synthesise_pair_sample(
    outer: str,
    inner: str,
    alphabet: Alphabet,
    rng: random.Random,
    arg_len_range: tuple[int, int] = (1, 5),
) -> list[str]:
    """A minimal source that contains ``outer inner`` adjacently."""
    outer_arity = DEFAULT_REGISTRY.lookup(outer).arity
    inner_arity = DEFAULT_REGISTRY.lookup(inner).arity
    lens = [rng.randint(*arg_len_range) for _ in range(inner_arity + outer_arity - 1)]
    syms = rng.sample(alphabet.symbols, sum(lens))
    # the string arguments in source order, a separator between each two
    src = [outer, inner]
    start = 0
    for n in lens:
        if start:
            src.append(SEPARATOR)
        src += syms[start:start + n]
        start += n
    return src


def exceptions_apply(
    train: Corpus,
    remap: ExceptionRemap | None = None,
    percentage: float = 0.001,
    rng: random.Random | None = None,
    alphabet: Alphabet | None = None,
) -> tuple[Corpus, list[ExceptionEntry]]:
    """Plant exception targets in the train side.

    Per pair, the exception count is round(percentage * occurrences of the
    rarer member function, counted token-wise over train).  That many
    pair-containing samples get their target rewritten to the exception
    interpretation; if too few exist, fresh pair-containing samples are
    synthesised and appended.  A sample serves at most one pair.
    """
    remap = DEFAULT_EXCEPTION_REMAP if remap is None else remap
    _check_remap(remap)
    rng = rng or random.Random(0)
    alphabet = alphabet or Alphabet.default()
    fn_counts: dict[str, int] = {}
    for s in train:
        for tok in s.src:
            if tok in DEFAULT_REGISTRY:
                fn_counts[tok] = fn_counts.get(tok, 0) + 1
    samples = list(train.samples)
    # per remapped pair, the ascending positions of the samples holding it
    holders: dict[tuple[str, str], list[int]] = {pair: [] for pair in remap}

    def index(pos: int, src: Sequence[str]) -> None:
        for pair in zip(src, src[1:]):
            positions = holders.get(pair)
            if positions is not None and (not positions or positions[-1] != pos):
                positions.append(pos)

    for pos, s in enumerate(samples):
        index(pos, s.src)
    ledger = UniquenessLedger(train)
    next_id = max((s.id for s in train), default=-1) + 1
    taken: set[int] = set()
    entries: list[ExceptionEntry] = []

    for (outer, inner) in remap:
        k = round_half_up(
            percentage * min(fn_counts.get(outer, 0), fn_counts.get(inner, 0))
        )
        if k == 0:
            continue
        candidates = [pos for pos in holders[outer, inner] if pos not in taken]
        if len(candidates) >= k:
            chosen = sorted(rng.sample(candidates, k))
        else:
            chosen = list(candidates)
            while len(chosen) < k:
                sample = Sample.from_src(
                    next_id, _synthesise_pair_sample(outer, inner, alphabet, rng)
                )
                if ledger.violation(sample.src) is not None:
                    continue
                ledger.add(sample.src, f"sample {next_id}")
                next_id += 1
                samples.append(sample)
                index(len(samples) - 1, sample.src)
                chosen.append(len(samples) - 1)
        for pos in chosen:
            s = samples[pos]
            exc = exception_evaluate(s.src, remap)
            samples[pos] = replace(s, tgt=exc)
            taken.add(pos)
            entries.append(
                ExceptionEntry(
                    sample_id=s.id,
                    src=s.src,
                    original_tgt=evaluate(s.src),
                    exception_tgt=exc,
                    pair=(outer, inner),
                )
            )
    return Corpus(samples, seed=train.seed, params=train.params), entries


# --- localism ------------------------------------------------------------------

@dataclass(frozen=True)
class UnrollStep:
    """One function application in an unrolled evaluation.

    ``args`` holds either ("lit", symbols) for string arguments or
    ("step", index) for the output of an earlier step.
    """

    fn_name: str
    args: tuple[tuple, ...]


@dataclass(frozen=True)
class UnrollPlan:
    src: tuple[str, ...]
    steps: tuple[UnrollStep, ...]

    @property
    def num_steps(self) -> int:
        return len(self.steps)


def build_unroll_plan(
    src: Sequence[str], registry: FunctionRegistry = DEFAULT_REGISTRY
) -> UnrollPlan:
    """Innermost-first evaluation schedule for a source.

    Steps proceed in rounds: a round takes every application whose
    function arguments were all completed in earlier rounds (innermost
    applications first), left to right.  The final step is the root.
    """
    # per application, in the order the fold closes them: its round, the
    # position of its function token, its name and its argument values
    # (symbols for a string, the index of the application heading it)
    apps: list[tuple[int, int, str, list]] = []

    def record(fn: FunctionSymbol, position: int, args: list) -> int:
        round_ = 1 + max((apps[a][0] for a in args if isinstance(a, int)), default=0)
        apps.append((round_, position, fn.name, args))
        return len(apps) - 1

    fold(src, registry, record)
    if not apps:
        raise ValueError("cannot unroll a bare string")
    # within a round no application contains another, so their positions
    # rank them left to right
    ordered = sorted(range(len(apps)), key=lambda j: apps[j][:2])
    step_index = {j: k for k, j in enumerate(ordered)}
    steps = []
    for j in ordered:
        args = tuple(("step", step_index[a]) if isinstance(a, int) else ("lit", a)
                     for a in apps[j][3])
        steps.append(UnrollStep(fn_name=apps[j][2], args=args))
    return UnrollPlan(src=tuple(src), steps=tuple(steps))
