"""Probabilistic generation of PCFG SET corpora.

Trees are drawn top-down from a three-way choice (unary call, binary call,
string leaf) with function identities and leaf lengths drawn from their own
distributions.  Corpus assembly enforces the anti-memorisation constraints:
distinct sources, no repeated literal within a sample, and no reuse of a
multi-symbol string argument anywhere else in the corpus.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, Sequence

from .language import (
    DEFAULT_REGISTRY,
    LITERAL_SET,
    LITERALS,
    Apply,
    FunctionRegistry,
    FunctionSymbol,
    LanguageError,
    Leaf,
    SequenceStats,
    SyntaxTree,
    evaluate,
    parse,
    render,
    stats,
)

MAX_RECURSION_DEFAULT = 25


class ExhaustedUniqueArguments(Exception):
    """Could not satisfy the corpus uniqueness constraints by resampling."""


@dataclass(frozen=True)
class Alphabet:
    """The literal symbol inventory.

    The default inventory is A..Z followed by the suffixed variants A1..Z1
    up to A19..Z19, 520 symbols in total.
    """

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        if not self.symbols:
            raise ValueError("alphabet must not be empty")

    def __len__(self) -> int:
        return len(self.symbols)

    @classmethod
    def default(cls) -> "Alphabet":
        return cls(LITERALS)


@dataclass(frozen=True)
class GrammarParams:
    """Production probabilities for tree sampling.

    ``p_unary`` / ``p_binary`` / ``p_leaf`` govern the expansion of every
    tree position; ``fn_weights`` (normalised within the unary and binary
    classes separately) pick the function identity; ``arg_len_dist`` maps
    leaf length to probability.
    """

    p_unary: float
    p_binary: float
    p_leaf: float
    fn_weights: dict[str, float]
    arg_len_dist: dict[int, float]
    max_arg_len: int = 5

    def __post_init__(self):
        triple = (self.p_unary, self.p_binary, self.p_leaf)
        if any(p < 0 for p in triple):
            raise ValueError("production probabilities must be non-negative")
        if abs(sum(triple) - 1.0) > 1e-9:
            raise ValueError("p_unary + p_binary + p_leaf must equal 1")
        if any(w < 0 for w in self.fn_weights.values()):
            raise ValueError("function weights must be non-negative")
        unary = [self.fn_weights.get(n, 0.0) for n in DEFAULT_REGISTRY.unary_names()]
        binary = [self.fn_weights.get(n, 0.0) for n in DEFAULT_REGISTRY.binary_names()]
        if sum(unary) <= 0 or sum(binary) <= 0:
            raise ValueError("each function class needs positive total weight")
        if not self.arg_len_dist:
            raise ValueError("arg_len_dist must not be empty")
        if any(k < 1 or k > self.max_arg_len for k in self.arg_len_dist):
            raise ValueError("leaf lengths must lie in 1..max_arg_len")
        if any(p < 0 for p in self.arg_len_dist.values()):
            raise ValueError("leaf length probabilities must be non-negative")
        if abs(sum(self.arg_len_dist.values()) - 1.0) > 1e-9:
            raise ValueError("arg_len_dist must sum to 1")

    @classmethod
    def default(cls) -> "GrammarParams":
        """Parameters fitted by the naturalisation pipeline against the
        bundled reference length/depth distribution (see
        scripts/calibrate_default_grammar.py for the provenance run)."""
        return _DEFAULT_PARAMS

    def to_dict(self) -> dict:
        return {
            "p_unary": self.p_unary,
            "p_binary": self.p_binary,
            "p_leaf": self.p_leaf,
            "fn_weights": dict(self.fn_weights),
            "arg_len_dist": {str(k): v for k, v in self.arg_len_dist.items()},
            "max_arg_len": self.max_arg_len,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GrammarParams":
        return cls(
            p_unary=float(d["p_unary"]),
            p_binary=float(d["p_binary"]),
            p_leaf=float(d["p_leaf"]),
            fn_weights={k: float(v) for k, v in d["fn_weights"].items()},
            arg_len_dist={int(k): float(v) for k, v in d["arg_len_dist"].items()},
            max_arg_len=int(d.get("max_arg_len", 5)),
        )


@dataclass(frozen=True)
class Sample:
    """One (source sequence, target string) pair; ``parse(src)`` gives its tree."""

    id: int
    src: tuple[str, ...]
    tgt: tuple[str, ...]
    stats: SequenceStats

    @classmethod
    def from_tree(cls, sample_id: int, tree: SyntaxTree) -> "Sample":
        return cls(sample_id, tuple(render(tree)), evaluate(tree), stats(tree))

    def src_text(self) -> str:
        return " ".join(self.src)

    def tgt_text(self) -> str:
        return " ".join(self.tgt)


@dataclass
class Corpus:
    samples: list[Sample]
    seed: int | None = None
    params: GrammarParams | None = None
    splits: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)

    def by_id(self) -> dict[int, Sample]:
        return {s.id: s for s in self.samples}

    def subset(self, ids: Iterable[int]) -> "Corpus":
        table = self.by_id()
        return Corpus([table[i] for i in ids], seed=self.seed, params=self.params)

    def split(self, name: str) -> "Corpus":
        return self.subset(self.splits[name])


def _cumulative(weights: Sequence[float]) -> tuple[list[float], float, int]:
    """What ``random.choices`` computes from ``weights`` before each draw:
    cumulative weights, their total and the upper index bound, so that
    ``bisect_right(cum, rng.random() * total, 0, hi)`` picks the index
    ``choices`` would, from the same single ``rng.random()`` call.
    Weights that sum to zero count as uniform."""
    if sum(weights) <= 0:
        weights = [1.0] * len(weights)
    cum = list(accumulate(weights))
    return cum, cum[-1] + 0.0, len(cum) - 1


def sample_tree(
    params: GrammarParams,
    rng: random.Random,
    *,
    alphabet: Alphabet | None = None,
    max_recursion: int = MAX_RECURSION_DEFAULT,
    force_function: bool = True,
    max_nodes: int | None = None,
    registry: FunctionRegistry = DEFAULT_REGISTRY,
    bound: tuple[int, int] | None = None,
) -> SyntaxTree | None:
    """Draw one syntax tree.

    The top-level position is forced to expand into a function call unless
    ``force_function`` is off, so every sample contains at least one
    function.  ``max_recursion`` forces a leaf at that nesting depth and
    ``max_nodes`` caps the total number of expanded positions; both guards
    exist for pathological parameter draws, not for normal operation.

    Positions are expanded in preorder from an explicit stack, and each
    leaf closes the applications it completes, as in ``parse``, so any
    ``max_recursion`` fits in memory.  With ``bound = (max_length,
    max_depth)`` a tree whose ``stats`` exceed either is not built: once
    its running length or depth passes the bound, the draw only consumes
    the random numbers the tree would have used and returns None.  So
    ``rng`` ends in the same state with or without a bound.
    """
    alphabet = alphabet or Alphabet.default()
    symbols = alphabet.symbols
    random_, choice = rng.random, rng.choice
    unary_fns = [registry.lookup(n) for n in registry.unary_names()]
    binary_fns = [registry.lookup(n) for n in registry.binary_names()]
    unary_cum, unary_total, unary_hi = _cumulative(
        [params.fn_weights.get(fn.name, 0.0) for fn in unary_fns]
    )
    binary_cum, binary_total, binary_hi = _cumulative(
        [params.fn_weights.get(fn.name, 0.0) for fn in binary_fns]
    )
    lengths = sorted(params.arg_len_dist)
    length_cum, length_total, length_hi = _cumulative(
        [params.arg_len_dist[k] for k in lengths]
    )
    # kinds are drawn as indices: 0 unary call, 1 binary call, 2 leaf
    kind_cum, kind_total, _ = _cumulative([params.p_unary, params.p_binary, params.p_leaf])
    root_cum, root_total, _ = _cumulative([params.p_unary, params.p_binary])
    max_length, max_depth = bound or (None, None)

    pending = [0]  # nesting depths of the positions still to draw, next on top
    waiting: list[tuple[FunctionSymbol, list[SyntaxTree]]] = []
    length = depth = expanded = 0
    building = True
    node: SyntaxTree | None = None
    while pending:
        level = pending.pop()
        expanded += 1
        if level >= max_recursion or (max_nodes is not None and expanded > max_nodes):
            kind = 2
        elif expanded == 1 and force_function:
            kind = bisect_right(root_cum, random_() * root_total, 0, 1)
        else:
            kind = bisect_right(kind_cum, random_() * kind_total, 0, 2)
        if kind == 2:
            n = lengths[bisect_right(length_cum, random_() * length_total, 0, length_hi)]
            leaf = tuple([choice(symbols) for _ in range(n)])
            if not building:
                continue
            length += n
            if bound is not None and length > max_length:
                building = False
                continue
            node = Leaf(leaf)
            while waiting:
                fn, args = waiting[-1]
                args.append(node)
                if fn.arity == 2 and len(args) < 2:
                    break
                waiting.pop()
                node = Apply(fn, tuple(args))
            continue
        if kind == 0:
            fn = unary_fns[bisect_right(unary_cum, random_() * unary_total, 0, unary_hi)]
            pending.append(level + 1)
        else:
            fn = binary_fns[bisect_right(binary_cum, random_() * binary_total, 0, binary_hi)]
            pending += (level + 1, level + 1)
        if not building:
            continue
        # the function name, and the separator after a first argument
        length += fn.arity
        depth = max(depth, level + 1)
        if bound is not None and (length > max_length or depth > max_depth):
            building = False
            continue
        waiting.append((fn, []))
    return node if building else None


def leaf_tuples(src: Sequence[str]) -> list[tuple[str, ...]]:
    """All string arguments of a source, in left-to-right order.

    A string argument is a maximal run of literal tokens: the parser ends
    one only at a separator or the end of input.
    """
    runs: list[tuple[str, ...]] = []
    run: list[str] = []
    for tok in src:
        if tok in LITERAL_SET:
            run.append(tok)
        elif run:
            runs.append(tuple(run))
            run = []
    if run:
        runs.append(tuple(run))
    return runs


class UniquenessLedger:
    """The corpus constraints, decided one sample at a time.

    Sources are pairwise distinct, no literal occurs twice within one
    sample, and every string argument of two or more symbols occurs in at
    most one sample of the corpus.  ``violation`` says whether a source may
    join the samples recorded so far; ``add`` records an accepted one.
    Constructing the ledger from samples records them unchecked.
    """

    def __init__(self, samples: Iterable[Sample] = ()):
        self.seen_src: dict[tuple[str, ...], str] = {}
        self.used_args: dict[tuple[str, ...], str] = {}
        for s in samples:
            self.add(s.src, f"sample {s.id}")

    def violation(self, src: Sequence[str]) -> str | None:
        """The first constraint the source breaks, in words, or None."""
        src = tuple(src)
        if src in self.seen_src:
            return f"duplicate source (also at {self.seen_src[src]})"
        args = leaf_tuples(src)
        literals = [sym for arg in args for sym in arg]
        if len(set(literals)) != len(literals):
            repeated = next(sym for sym in literals if literals.count(sym) > 1)
            return f"repeated literal {repeated!r} within sample"
        for arg in args:
            if len(arg) >= 2 and arg in self.used_args:
                return f"argument {' '.join(arg)!r} reused (also at {self.used_args[arg]})"
        return None

    def add(self, src: Sequence[str], where: str) -> None:
        """Record a sample; ``where`` names it in later violations."""
        self.seen_src[tuple(src)] = where
        for arg in leaf_tuples(src):
            if len(arg) >= 2:
                self.used_args[arg] = where


def audit_sample(
    src: Sequence[str],
    tgt: Sequence[str],
    ledger: UniquenessLedger,
    problems: list[str],
    where: str,
    *,
    tgt_where: str | None = None,
    registry: FunctionRegistry = DEFAULT_REGISTRY,
    excused: Mapping[tuple[str, ...], tuple[str, ...]] | None = None,
) -> SyntaxTree | None:
    """Check one (source, target) row of a corpus under audit.

    Parses the source, evaluates it against the target (a mismatch is
    excused when ``excused`` prescribes exactly that target for the
    source; a value too long to build is a problem of its own) and asks
    the ledger about the constraints, recording the row if it breaks
    none.  Violations are appended to ``problems`` prefixed
    with ``where`` (``tgt_where`` for the target).  Returns the parsed
    tree, or None when the source does not parse.
    """
    try:
        tree = parse(list(src), registry)
    except LanguageError as exc:
        problems.append(f"{where}: does not parse ({exc})")
        return None
    tgt = tuple(tgt)
    try:
        value = evaluate(tree)
    except LanguageError as exc:
        problems.append(f"{where}: does not evaluate ({exc})")
    else:
        if value != tgt and (excused or {}).get(tuple(src)) != tgt:
            problems.append(f"{tgt_where or where}: target does not match evaluation")
    violation = ledger.violation(src)
    if violation is None:
        ledger.add(src, where)
    else:
        problems.append(f"{where}: {violation}")
    return tree


def generate_corpus(
    params: GrammarParams,
    n: int,
    alphabet: Alphabet | None = None,
    rng: random.Random | None = None,
    *,
    seed: int | None = None,
    max_recursion: int = MAX_RECURSION_DEFAULT,
    max_rejects: int = 100_000,
) -> Corpus:
    """Sample ``n`` distinct pairs under the uniqueness constraints.

    Constraints: sources are pairwise distinct, no literal occurs twice
    within one sample, and every string argument of two or more symbols is
    used at most once across the entire corpus.  Violations are resolved by
    rejection; ``max_rejects`` consecutive failures raise
    ExhaustedUniqueArguments.
    """
    alphabet = alphabet or Alphabet.default()
    if rng is None:
        rng = random.Random(seed)
    samples: list[Sample] = []
    ledger = UniquenessLedger()
    rejects = 0
    while len(samples) < n:
        tree = sample_tree(
            params, rng, alphabet=alphabet, max_recursion=max_recursion
        )
        src = tuple(render(tree))
        if ledger.violation(src) is not None:
            rejects += 1
            if rejects > max_rejects:
                raise ExhaustedUniqueArguments(
                    f"{max_rejects} consecutive rejections at {len(samples)} samples"
                )
            continue
        rejects = 0
        ledger.add(src, f"sample {len(samples)}")
        samples.append(Sample(len(samples), src, evaluate(tree), stats(tree)))
    return Corpus(samples, seed=seed, params=params)


def split_corpus(
    corpus: Corpus,
    fractions: tuple[float, float, float] = (0.85, 0.05, 0.10),
    rng: random.Random | None = None,
) -> Corpus:
    """Partition into train/valid/test splits, recorded on the corpus.

    Split sizes are floor-based on the valid and test fractions; any
    remainder goes to train.
    """
    if rng is None:
        rng = random.Random(0)
    f_train, f_valid, f_test = fractions
    if min(fractions) < 0 or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must be non-negative and sum to 1")
    ids = [s.id for s in corpus.samples]
    shuffled = rng.sample(ids, len(ids))
    n = len(ids)
    n_valid = int(n * f_valid)
    n_test = int(n * f_test)
    n_train = n - n_valid - n_test
    corpus.splits = {
        "train": tuple(shuffled[:n_train]),
        "valid": tuple(shuffled[n_train:n_train + n_valid]),
        "test": tuple(shuffled[n_train + n_valid:]),
    }
    return corpus


def make_primitive_length_corpus(
    fn_name: str,
    arg_lengths: Sequence[int],
    per_length: int,
    alphabet: Alphabet | None = None,
    rng: random.Random | None = None,
    *,
    vary_arg: int = 0,
    fixed_len_range: tuple[int, int] = (1, 5),
    registry: FunctionRegistry = DEFAULT_REGISTRY,
) -> Corpus:
    """Single-function samples whose argument length sweeps ``arg_lengths``.

    For binary functions only the argument selected by ``vary_arg`` takes
    the probed length; the other argument keeps an ordinary length drawn
    from ``fixed_len_range``.  Literals never repeat within a sample.
    """
    alphabet = alphabet or Alphabet.default()
    rng = rng or random.Random(0)
    fn = registry.lookup(fn_name)
    if fn.arity == 2 and vary_arg not in (0, 1):
        raise ValueError("vary_arg must be 0 or 1")
    samples: list[Sample] = []
    for length in arg_lengths:
        if length < 1:
            raise ValueError("argument lengths must be at least 1")
        for _ in range(per_length):
            if fn.arity == 1:
                syms = rng.sample(alphabet.symbols, length)
                tree: SyntaxTree = Apply(fn, (Leaf(tuple(syms)),))
            else:
                other = rng.randint(*fixed_len_range)
                lens = [length, other] if vary_arg == 0 else [other, length]
                syms = rng.sample(alphabet.symbols, sum(lens))
                first = Leaf(tuple(syms[: lens[0]]))
                second = Leaf(tuple(syms[lens[0]:]))
                tree = Apply(fn, (first, second))
            samples.append(Sample.from_tree(len(samples), tree))
    return Corpus(samples)


def validate_corpus(
    corpus: Corpus, registry: FunctionRegistry = DEFAULT_REGISTRY
) -> list[str]:
    """Independent audit of a corpus; returns human-readable violations.

    Every sample goes through ``audit_sample``, the routine the file
    validator uses, so both report the same violations in the same words.
    On top, recorded stats must match the source, ids must be distinct and
    the splits must partition the corpus.
    """
    problems: list[str] = []
    ledger = UniquenessLedger()
    ids = set()
    for s in corpus.samples:
        if s.id in ids:
            problems.append(f"sample {s.id}: duplicate id")
        ids.add(s.id)
        tree = audit_sample(s.src, s.tgt, ledger, problems, f"sample {s.id}", registry=registry)
        if tree is not None and stats(tree) != s.stats:
            problems.append(f"sample {s.id}: recorded stats are stale")
    if corpus.splits:
        all_split_ids: list[int] = []
        for name, split_ids in corpus.splits.items():
            unknown = set(split_ids) - ids
            if unknown:
                problems.append(f"split {name}: unknown ids {sorted(unknown)[:5]}")
            all_split_ids.extend(split_ids)
        if len(all_split_ids) != len(set(all_split_ids)):
            problems.append("splits overlap")
        if set(all_split_ids) != ids:
            problems.append("splits do not cover the corpus")
    return problems


# Calibrated against data/reference_length_depth.csv; the provenance run is
# scripts/calibrate_default_grammar.py.  The four functions appearing in the
# held-out bigrams (swap, repeat, append, remove_second) are upweighted so a
# 100k corpus yields a full 10k bigram-containing test split with margin.
_DEFAULT_PARAMS = GrammarParams(
    p_unary=0.46,
    p_binary=0.19,
    p_leaf=0.35,
    fn_weights={
        "copy": 0.14,
        "reverse": 0.14,
        "shift": 0.14,
        "echo": 0.14,
        "swap": 0.22,
        "repeat": 0.22,
        "append": 0.30,
        "prepend": 0.20,
        "remove_first": 0.20,
        "remove_second": 0.30,
    },
    arg_len_dist={1: 0.2, 2: 0.2, 3: 0.2, 4: 0.2, 5: 0.2},
    max_arg_len=5,
)
