"""Constructors for the five compositionality tests.

Each constructor redistributes or rewrites a generated corpus:
systematicity holds out function pairs, productivity holds out long
compositions, substitutivity introduces synonyms, localism produces
unroll plans for step-by-step evaluation, and overgeneralisation plants
exception targets for selected function pairs.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

from .generation import Corpus, Sample, UniquenessLedger, draw_admitted, round_half_up
from .language import DEFAULT_REGISTRY, FunctionRegistry, FunctionSymbol, evaluate, fold, interpret


class InsufficientPositives(ValueError):
    """Not enough pair-containing samples to fill the requested test set."""


class EmptySide(ValueError):
    """A split constructor produced an empty train or test side."""


class HeldOutPair(NamedTuple("HeldOutPair", [("outer", str), ("inner", str)])):
    """A function bigram: ``outer`` immediately followed by ``inner``."""

    __slots__ = ()

    def __new__(cls, outer: str, inner: str):
        for name in (outer, inner):
            if name not in DEFAULT_REGISTRY:
                raise ValueError(f"unknown function {name!r}")
        return super().__new__(cls, outer, inner)


DEFAULT_HELD_OUT_PAIRS = (
    HeldOutPair("swap", "repeat"),
    HeldOutPair("append", "remove_second"),
    HeldOutPair("repeat", "remove_second"),
    HeldOutPair("append", "swap"),
)


def contains_pair(src: Sequence[str], pairs: Collection[tuple[str, str]]) -> bool:
    """True when any of ``pairs`` occurs as adjacent tokens in the source;
    a caller testing many sources passes the pairs as one set.

    Adjacency of two function tokens in this grammar happens exactly when
    the second heads the first's (first) argument, so a bigram scan is a
    faithful containment test.
    """
    return any(pair in pairs for pair in zip(src, src[1:]))


def systematicity_split(
    corpus: Corpus,
    pairs: Sequence[HeldOutPair] = DEFAULT_HELD_OUT_PAIRS,
    test_size: int = 10_000,
    *,
    rng: random.Random,
) -> tuple[Corpus, Corpus]:
    """Hold out every sample containing a listed pair; draw the test set.

    Train keeps all pair-free samples.  The test set is a uniform draw of
    ``test_size`` pair-containing samples; fewer available positives raise
    InsufficientPositives.
    """
    positives, negatives = [], []
    wanted = set(pairs)
    for s in corpus:
        (positives if contains_pair(s.src, wanted) else negatives).append(s)
    if not pairs:
        return Corpus(negatives), Corpus([])
    if len(positives) < test_size:
        raise InsufficientPositives(
            f"need {test_size} pair-containing samples, found {len(positives)}"
        )
    chosen = rng.sample(range(len(positives)), test_size)
    return Corpus(negatives), Corpus([positives[i] for i in sorted(chosen)])


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
    return Corpus(train), Corpus(test)


class SynonymMap(NamedTuple("SynonymMap", [("mapping", tuple[tuple[str, str], ...])])):
    """Maps base function names to their synonym names."""

    __slots__ = ()

    def __new__(cls, mapping: tuple[tuple[str, str], ...]):
        for name, _ in mapping:
            if name not in DEFAULT_REGISTRY:
                raise ValueError(f"unknown function {name!r}")
        syns = [s for _, s in mapping]
        if len(set(syns)) != len(syns):
            raise ValueError("synonym names must be distinct")
        return super().__new__(cls, mapping)

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

    def registry(self) -> FunctionRegistry:
        return DEFAULT_REGISTRY.with_synonyms(self.as_dict())


def substitutivity_equal(
    train: Corpus,
    synonyms: SynonymMap,
    *,
    rng: random.Random,
) -> tuple[Corpus, dict[str, tuple[int, int]]]:
    """Rewrite exactly half of each base function's occurrences (floor).

    Occurrences are counted token-wise across the whole train side; the
    rewritten occurrences are a uniform draw.  A rewritten sample keeps
    its target and stats, because a synonym takes its base's arity and
    meaning.  Returns the rewritten corpus and an audit mapping base ->
    (rewritten, total).
    """
    # refuses a synonym name that is not fresh, the one way a synonym
    # could read differently from its base
    synonyms.registry()
    # per base function, its (sample, token) positions in one walk
    occurrences: dict[str, list[tuple[int, int]]] = {base: [] for base, _ in synonyms.mapping}
    for pos, s in enumerate(train.samples):
        for t_idx, tok in enumerate(s.src):
            found = occurrences.get(tok)
            if found is not None:
                found.append((pos, t_idx))
    replacements: dict[int, dict[int, str]] = {}
    audit: dict[str, tuple[int, int]] = {}
    for base, syn in synonyms.mapping:
        k = len(occurrences[base]) // 2
        chosen = rng.sample(occurrences[base], k) if k else []
        for pos, t_idx in chosen:
            replacements.setdefault(pos, {})[t_idx] = syn
        audit[base] = (k, len(occurrences[base]))
    rewritten: list[Sample] = []
    for pos, s in enumerate(train.samples):
        subs = replacements.get(pos)
        if not subs:
            rewritten.append(s)
            continue
        src = list(s.src)
        for t_idx, syn in subs.items():
            src[t_idx] = syn
        rewritten.append(s._replace(src=tuple(src)))
    return Corpus(rewritten), audit


def substitutivity_primitive(
    train: Corpus,
    synonyms: SynonymMap,
    fraction: float = 0.001,
    *,
    rng: random.Random,
    written: Iterable[Sample],
) -> tuple[Corpus, dict[str, int]]:
    """Add primitive synonym samples instead of rewriting.

    Per base function, round(fraction * |train|) fresh one-function
    samples ``F_syn <args>`` from ``draw_admitted`` are appended, with
    arguments respecting the corpus constraints (no literal repeats
    inside a sample, no reuse of a multi-symbol argument seen anywhere
    in ``written``, every sample the output is written with, train
    included, or among the additions).
    """
    registry = synonyms.registry()
    per_base = round_half_up(fraction * len(train))
    ledger = UniquenessLedger(written)
    added: list[Sample] = []
    counts: dict[str, int] = {}
    for base, syn in synonyms.mapping:
        arity = registry.lookup(syn).arity
        for _ in range(per_base):
            src = draw_admitted([syn], arity, rng, ledger, f"sample {len(train) + len(added)}")
            added.append(Sample.from_src(src, registry))
        counts[base] = per_base
    return Corpus(list(train.samples) + added), counts


class ConsistencyPair(NamedTuple):
    """One test item rendered both with base functions and with synonyms."""

    src_base: tuple[str, ...]
    src_syn: tuple[str, ...]
    tgt: tuple[str, ...]


def make_consistency_pairs(
    testset: Corpus, synonyms: SynonymMap
) -> tuple[list[ConsistencyPair], int]:
    """Pair each test source with its fully synonym-substituted variant.

    Samples containing none of the mapped functions are skipped; the skip
    count is returned alongside the pairs.
    """
    table = synonyms.as_dict()
    pairs: list[ConsistencyPair] = []
    skipped = 0
    for s in testset:
        syn_src = tuple(table.get(tok, tok) for tok in s.src)
        if syn_src == s.src:
            skipped += 1
            continue
        pairs.append(ConsistencyPair(s.src, syn_src, s.tgt))
    return pairs, skipped


# --- overgeneralisation ------------------------------------------------------

# Each row keeps its members' arities, and a function that two rows remap
# (reverse, echo, prepend, remove_first) takes the same meaning in both.
DEFAULT_EXCEPTION_REMAP = {
    ("reverse", "echo"): ("echo", "copy"),
    ("prepend", "remove_first"): ("remove_second", "append"),
    ("echo", "remove_first"): ("copy", "append"),
    ("prepend", "reverse"): ("remove_second", "echo"),
}


def exception_evaluate(src: Sequence[str]) -> tuple[str, ...]:
    """Evaluate with pair exceptions applied.

    Wherever a pair of DEFAULT_EXCEPTION_REMAP occurs as a function
    immediately followed by another function (parent and first child),
    both members take their replacement meanings for that occurrence.
    Matching is decided on the original source, so overlapping pairs each
    contribute a substitution, and they agree on the function they share.
    """
    # per function position, the meaning a remapped pair gives it
    meanings: dict[int, str] = {}
    for i, pair in enumerate(zip(src, src[1:])):
        if pair in DEFAULT_EXCEPTION_REMAP:
            meanings[i], meanings[i + 1] = DEFAULT_EXCEPTION_REMAP[pair]

    def apply(fn: FunctionSymbol, position: int, args: list) -> tuple[str, ...]:
        meaning = meanings.get(position)
        return interpret(DEFAULT_REGISTRY.lookup(meaning) if meaning else fn, position, args)

    return fold(src, DEFAULT_REGISTRY, apply)[1]


class ExceptionEntry(NamedTuple):
    """One planted exception.  ``sample_id`` is the sample's position in
    the train side the exception was planted in, the 0-based line of that
    variant's ``train.src``."""

    sample_id: int
    src: tuple[str, ...]
    original_tgt: tuple[str, ...]
    exception_tgt: tuple[str, ...]
    pair: tuple[str, str]


def exceptions_apply(
    train: Corpus,
    streams: Mapping[float, random.Random],
) -> dict[float, tuple[Corpus, list[ExceptionEntry]]]:
    """Plant exception targets in the train side, once per percentage.

    ``streams`` maps each percentage to the random stream it draws from;
    each gets its own rewritten train side and entries.  Per pair of
    DEFAULT_EXCEPTION_REMAP, the exception count is round(percentage *
    occurrences of the rarer member function, counted token-wise over
    train).  That many pair-containing samples get their target rewritten
    to the exception interpretation; if too few exist, fresh minimal
    sources ``outer inner <args>`` from ``draw_admitted`` are synthesised
    and appended.  A sample serves at most one pair.
    """
    # one census of train for every percentage, which each only reads:
    # every token is counted, but only function names are looked up
    fn_counts = Counter(tok for s in train for tok in s.src)
    # per remapped pair, the ascending positions of the train samples
    # holding it
    holders: dict[tuple[str, str], list[int]] = {p: [] for p in DEFAULT_EXCEPTION_REMAP}
    for pos, s in enumerate(train.samples):
        for pair in zip(s.src, s.src[1:]):
            positions = holders.get(pair)
            if positions is not None and (not positions or positions[-1] != pos):
                positions.append(pos)
    variants: dict[float, tuple[Corpus, list[ExceptionEntry]]] = {}
    for percentage, rng in streams.items():
        samples = list(train.samples)
        # built when a first source is synthesised, which few runs need
        ledger: UniquenessLedger | None = None
        taken: set[int] = set()
        entries: list[ExceptionEntry] = []
        for (outer, inner) in DEFAULT_EXCEPTION_REMAP:
            k = round_half_up(
                percentage * min(fn_counts.get(outer, 0), fn_counts.get(inner, 0))
            )
            if k == 0:
                continue
            candidates = [pos for pos in holders[outer, inner] if pos not in taken]
            if len(candidates) >= k:
                chosen = sorted(rng.sample(candidates, k))
            else:
                # a synthesised sample is taken as it is made
                chosen = list(candidates)
                n_args = sum(DEFAULT_REGISTRY.lookup(name).arity for name in (outer, inner)) - 1
                ledger = ledger or UniquenessLedger(train)
                while len(chosen) < k:
                    src = draw_admitted([outer, inner], n_args, rng, ledger,
                                        f"sample {len(samples)}")
                    samples.append(Sample.from_src(src))
                    chosen.append(len(samples) - 1)
            for pos in chosen:
                s = samples[pos]
                exc = exception_evaluate(s.src)
                samples[pos] = s._replace(tgt=exc)
                taken.add(pos)
                entries.append(
                    ExceptionEntry(
                        sample_id=pos,
                        src=s.src,
                        original_tgt=evaluate(s.src),
                        exception_tgt=exc,
                        pair=(outer, inner),
                    )
                )
        variants[percentage] = (Corpus(samples), entries)
    return variants


# --- localism ------------------------------------------------------------------

class UnrollStep(NamedTuple):
    """One function application in an unrolled evaluation.

    ``args`` holds either ("lit", symbols) for string arguments or
    ("step", index) for the output of an earlier step.
    """

    fn_name: str
    args: tuple[tuple, ...]


class UnrollPlan(NamedTuple):
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
