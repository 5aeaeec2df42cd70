"""Probabilistic generation of PCFG SET corpora.

Programs are drawn top-down, as their prefix-notation tokens, from a
three-way choice (unary call, binary call, string leaf) with function
identities and leaf lengths drawn from their own distributions.  Corpus assembly enforces the anti-memorisation constraints:
distinct sources, no repeated literal within a sample, and no reuse of a
multi-symbol string argument anywhere else in the corpus.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from itertools import accumulate, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

from .language import (
    DEFAULT_REGISTRY,
    LITERAL_SET,
    LITERALS,
    SEPARATOR,
    MAX_OUTPUT_LENGTH,
    FunctionRegistry,
    FunctionSymbol,
    OutputTooLong,
    SequenceStats,
    build,
    evaluator,
    fold,
    within_output_limit,
)

MAX_RECURSION_DEFAULT = 25
# an ordinary string argument is 1 to MAX_ARG_LEN symbols long
MAX_ARG_LEN = 5
# consecutive rejected draws after which generate_corpus gives up
MAX_REJECTS = 100_000


class ExhaustedUniqueArguments(Exception):
    """Could not satisfy the corpus uniqueness constraints by resampling."""


class Alphabet:
    """The literal symbol inventory.

    The default inventory is A..Z followed by the suffixed variants A1..Z1
    up to A19..Z19, 520 symbols in total.
    """

    def __init__(self, symbols: tuple[str, ...]):
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        if not symbols:
            raise ValueError("alphabet must not be empty")
        self.symbols = symbols

    def __len__(self) -> int:
        return len(self.symbols)

    @staticmethod
    def default() -> "Alphabet":
        """The one shared default inventory."""
        return _DEFAULT_ALPHABET


_DEFAULT_ALPHABET = Alphabet(LITERALS)


class GrammarParams(NamedTuple("GrammarParams", [
    ("p_unary", float), ("p_binary", float), ("p_leaf", float),
    ("fn_weights", dict[str, float]), ("arg_len_dist", dict[int, float]), ("max_arg_len", int),
])):
    """Production probabilities for tree sampling.

    ``p_unary`` / ``p_binary`` / ``p_leaf`` govern the expansion of every
    tree position; ``fn_weights`` (normalised within the unary and binary
    classes separately) pick the function identity; ``arg_len_dist`` maps
    leaf length to probability.
    """

    __slots__ = ()

    def __new__(cls, p_unary: float, p_binary: float, p_leaf: float,
                fn_weights: dict[str, float], arg_len_dist: dict[int, float],
                max_arg_len: int = MAX_ARG_LEN):
        self = super().__new__(cls, p_unary, p_binary, p_leaf, fn_weights, arg_len_dist,
                               max_arg_len)
        # written so that NaN, which fails every comparison, fails each check
        triple = (self.p_unary, self.p_binary, self.p_leaf)
        if not all(p >= 0 for p in triple):
            raise ValueError("production probabilities must be non-negative")
        if not abs(sum(triple) - 1.0) <= 1e-9:
            raise ValueError("p_unary + p_binary + p_leaf must equal 1")
        if not all(0 <= w < math.inf for w in self.fn_weights.values()):
            raise ValueError("function weights must be non-negative and finite")
        unary = [self.fn_weights.get(n, 0.0) for n in DEFAULT_REGISTRY.unary_names()]
        binary = [self.fn_weights.get(n, 0.0) for n in DEFAULT_REGISTRY.binary_names()]
        if sum(unary) <= 0 or sum(binary) <= 0:
            raise ValueError("each function class needs positive total weight")
        if not self.arg_len_dist:
            raise ValueError("arg_len_dist must not be empty")
        if any(k < 1 or k > self.max_arg_len for k in self.arg_len_dist):
            raise ValueError("leaf lengths must lie in 1..max_arg_len")
        if not all(p >= 0 for p in self.arg_len_dist.values()):
            raise ValueError("leaf length probabilities must be non-negative")
        if not abs(sum(self.arg_len_dist.values()) - 1.0) <= 1e-9:
            raise ValueError("arg_len_dist must sum to 1")
        # a sample never repeats a literal, so a longer leaf can never be drawn
        too_long = [k for k, p in self.arg_len_dist.items() if p > 0 and k > len(LITERALS)]
        if too_long:
            raise ValueError(f"leaf length {max(too_long)} is over the {len(LITERALS)} "
                             "literals a sample can hold")
        return self

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
        """The parameters of a ``to_dict`` document.  One of another shape
        (not an object, a key missing, a value that is not a number)
        raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"expected a JSON object, got {type(d).__name__}")
        missing = [key for key in ("p_unary", "p_binary", "p_leaf", "fn_weights",
                                   "arg_len_dist") if key not in d]
        if missing:
            raise ValueError(f"missing {', '.join(missing)}")
        for key in ("fn_weights", "arg_len_dist"):
            if not isinstance(d[key], dict):
                raise ValueError(f"{key} must be a JSON object")
        try:
            return cls(
                p_unary=float(d["p_unary"]),
                p_binary=float(d["p_binary"]),
                p_leaf=float(d["p_leaf"]),
                fn_weights={k: float(v) for k, v in d["fn_weights"].items()},
                arg_len_dist={int(k): float(v) for k, v in d["arg_len_dist"].items()},
                max_arg_len=int(d.get("max_arg_len", MAX_ARG_LEN)),
            )
        except TypeError as exc:  # a value such as null or a list
            raise ValueError(str(exc)) from None


class Sample(NamedTuple):
    """One (source sequence, target string) pair; the source is the program."""

    src: tuple[str, ...]
    tgt: tuple[str, ...]
    stats: SequenceStats

    @classmethod
    def from_src(cls, src: Sequence[str],
                 registry: FunctionRegistry = DEFAULT_REGISTRY) -> "Sample":
        """The sample of a source, its target evaluated and its stats
        taken in one fold."""
        seq_stats, tgt = fold(src, registry, evaluator(src, registry))
        return cls(tuple(src), tgt, seq_stats)

    def src_text(self) -> str:
        return " ".join(self.src)

    def tgt_text(self) -> str:
        return " ".join(self.tgt)


class Corpus:
    """Samples in order, with the seed and grammar parameters they came
    from when generated, read or combined for writing; a corpus derived
    from another carries neither.  ``splits`` names each split's
    positions in ``samples``.  ``synonyms`` maps each function to the
    synonym its tokens may use, and a split keeps it."""

    def __init__(
        self,
        samples: list[Sample],
        seed: int | None = None,
        params: GrammarParams | None = None,
        splits: dict[str, tuple[int, ...]] | None = None,
        synonyms: dict[str, str] | None = None,
    ):
        self.samples = samples
        self.seed = seed
        self.params = params
        self.splits = {} if splits is None else splits
        self.synonyms = {} if synonyms is None else synonyms

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)

    def split(self, name: str) -> "Corpus":
        return Corpus([self.samples[i] for i in self.splits[name]], synonyms=self.synonyms)


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


class DrawTables(NamedTuple):
    """What ``sample_tree`` draws with under one params: the
    function names of each call class, the leaf lengths, and a
    ``_cumulative`` table for each weighted pick (the three-way kind, the
    forced root's call class, the function within each class and the leaf
    length).  A caller that draws many trees from the same params builds
    them once; one that varies only the kind and leaf-length weights
    reweights one set with ``reweighted``."""

    unary_names: tuple[str, ...]
    binary_names: tuple[str, ...]
    lengths: list[int]
    kind: tuple[list[float], float, int]
    root: tuple[list[float], float, int]
    unary: tuple[list[float], float, int]
    binary: tuple[list[float], float, int]
    length: tuple[list[float], float, int]

    @classmethod
    def build(cls, params: GrammarParams) -> "DrawTables":
        unary_names = DEFAULT_REGISTRY.unary_names()
        binary_names = DEFAULT_REGISTRY.binary_names()
        lengths = sorted(params.arg_len_dist)
        return cls(
            unary_names,
            binary_names,
            lengths,
            None,
            None,
            _cumulative([params.fn_weights.get(n, 0.0) for n in unary_names]),
            _cumulative([params.fn_weights.get(n, 0.0) for n in binary_names]),
            None,
        ).reweighted((params.p_unary, params.p_binary, params.p_leaf),
                     [params.arg_len_dist[k] for k in lengths])

    def reweighted(self, kind_weights: Sequence[float],
                   length_weights: Sequence[float]) -> "DrawTables":
        """These tables with the kind tables drawn from ``kind_weights``
        (unary call, binary call, leaf) and the leaf-length table from
        ``length_weights``, one per ``lengths``."""
        # kinds are drawn as indices: 0 unary call, 1 binary call, 2 leaf
        return DrawTables(self.unary_names, self.binary_names, self.lengths,
                          _cumulative(kind_weights), _cumulative(kind_weights[:2]),
                          self.unary, self.binary, _cumulative(length_weights))


def sample_tree(
    params: GrammarParams | None,
    rng: random.Random,
    *,
    alphabet: Alphabet | None = None,
    max_recursion: int = MAX_RECURSION_DEFAULT,
    force_function: bool = True,
    max_nodes: int | None = None,
    bound: tuple[int, int] | None = None,
    tables: DrawTables | None = None,
) -> tuple[str, ...] | None:
    """Draw one program, as its tokens.

    The top-level position is forced to expand into a function call unless
    ``force_function`` is off, so every sample contains at least one
    function.  ``max_recursion`` forces a leaf at that nesting depth and
    ``max_nodes`` caps the total number of expanded positions; both guards
    exist for pathological parameter draws, not for normal operation.

    Positions are expanded in preorder from an explicit stack, on which a
    binary call leaves a separator marker between its two argument
    positions, so tokens come out in prefix order and any
    ``max_recursion`` fits in memory.  With ``bound = (max_length,
    max_depth)`` a program whose ``stats`` exceed either is not built: the
    draw returns None as soon as its running length or depth passes the
    bound, and ``rng`` is left wherever the draw stopped.

    Every draw makes the calls ``rng.random()`` and ``rng.choice`` would:
    a weighted pick is one ``random()`` call (see ``_cumulative``), and a
    leaf symbol is ``symbols[r]`` for the first ``r = rng.getrandbits(k)``
    below ``len(symbols)``, ``k`` being that length's bit count, which is
    how ``random.Random.choice`` picks.  ``tables`` are
    ``DrawTables.build(params)``, passed by callers that draw
    many trees from one params so they are built once; given tables,
    ``params`` is not read.
    """
    alphabet = alphabet or Alphabet.default()
    symbols = alphabet.symbols
    n_symbols = len(symbols)
    bits = n_symbols.bit_length()
    random_, getrandbits = rng.random, rng.getrandbits
    tables = tables or DrawTables.build(params)
    unary_names, binary_names, lengths = tables.unary_names, tables.binary_names, tables.lengths
    kind_cum, kind_total, _ = tables.kind
    root_cum, root_total, _ = tables.root
    unary_cum, unary_total, unary_hi = tables.unary
    binary_cum, binary_total, binary_hi = tables.binary
    length_cum, length_total, length_hi = tables.length
    max_length, max_depth = bound or (sys.maxsize, sys.maxsize)
    max_nodes = sys.maxsize if max_nodes is None else max_nodes

    # nesting depths of the positions still to draw, next on top; None
    # marks the separator between a binary call's arguments
    pending: list[int | None] = [0]
    out: list[str] = []
    append = out.append
    expanded = 0
    while pending:
        level = pending.pop()
        if level is None:
            append(SEPARATOR)
            if len(out) > max_length:
                return None
            continue
        expanded += 1
        if level >= max_recursion or expanded > max_nodes:
            kind = 2
        elif expanded == 1 and force_function:
            kind = bisect_right(root_cum, random_() * root_total, 0, 1)
        else:
            kind = bisect_right(kind_cum, random_() * kind_total, 0, 2)
        if kind == 2:
            n = lengths[bisect_right(length_cum, random_() * length_total, 0, length_hi)]
            for _ in range(n):
                r = getrandbits(bits)
                while r >= n_symbols:
                    r = getrandbits(bits)
                append(symbols[r])
            if len(out) > max_length:
                return None
            continue
        if kind == 0:
            append(unary_names[bisect_right(unary_cum, random_() * unary_total, 0, unary_hi)])
            pending.append(level + 1)
        else:
            append(binary_names[bisect_right(binary_cum, random_() * binary_total, 0, binary_hi)])
            pending += (level + 1, None, level + 1)
        # the call's depth is level + 1
        if len(out) > max_length or level >= max_depth:
            return None
    return tuple(out)


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
    most one sample of the corpus.  ``admit`` checks a source against the
    samples recorded so far and records it if it breaks none.
    Constructing the ledger from samples records them unchecked.
    """

    def __init__(self, samples: Iterable[Sample] = ()):
        self.seen_src: dict[tuple[str, ...], str] = {}
        self.used_args: dict[tuple[str, ...], str] = {}
        for pos, s in enumerate(samples):
            self._record(tuple(s.src), leaf_tuples(s.src), f"sample {pos}")

    def _record(self, src: tuple[str, ...], args: list[tuple[str, ...]], where: str) -> None:
        self.seen_src[src] = where
        for arg in args:
            if len(arg) >= 2:
                self.used_args[arg] = where

    def admit(self, src: Sequence[str], where: str) -> str | None:
        """The first constraint the source breaks, in words, or None; a
        source that breaks none is recorded, in the same walk of its
        leaves, and ``where`` names it in later violations."""
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
        self._record(src, args, where)
        return None


def fresh_source(head: Sequence[str], lengths: Sequence[int], rng: random.Random) -> list[str]:
    """``head`` followed by one string argument per length, separators
    between them.  All symbols come from one ``rng.sample`` of LITERALS,
    so no literal repeats within the source."""
    syms = iter(rng.sample(LITERALS, sum(lengths)))
    src = list(head)
    for k, n in enumerate(lengths):
        if k:
            src.append(SEPARATOR)
        src += islice(syms, n)
    return src


# how many fresh sources in a row draw_admitted may draw before giving up
PLACEMENT_ATTEMPTS = 10_000


def draw_admitted(head: Sequence[str], n_args: int, rng: random.Random,
                  ledger: UniquenessLedger, where: str) -> list[str]:
    """A ``fresh_source`` of ``head`` and ``n_args`` arguments, each of
    length 1..MAX_ARG_LEN, that ``ledger`` admits as ``where``.  Sources
    are drawn until one breaks no constraint; PLACEMENT_ATTEMPTS refused
    draws in a row raise ExhaustedUniqueArguments."""
    for _ in range(PLACEMENT_ATTEMPTS):
        lengths = [rng.randint(1, MAX_ARG_LEN) for _ in range(n_args)]
        src = fresh_source(head, lengths, rng)
        if ledger.admit(src, where) is None:
            return src
    raise ExhaustedUniqueArguments(
        f"could not place fresh arguments for {' '.join(head)} in {PLACEMENT_ATTEMPTS} draws"
    )


def _output_length(fn: FunctionSymbol, position: int, args: Sequence) -> int:
    """``fold``'s callback for a value's length alone: ``interpret``'s
    check on ``fn.size``, without building the value.  A string argument
    arrives as its symbols, a call's value as its length."""
    length = fn.size(*[arg if type(arg) is int else len(arg) for arg in args])
    if length > MAX_OUTPUT_LENGTH:
        raise OutputTooLong(fn.name, length)
    return length


def _too_long(src: Sequence[str]) -> bool:
    """Whether evaluating a drawn source would build a value longer than
    MAX_OUTPUT_LENGTH, decided from lengths alone.

    The length fold runs only for a source that ``within_output_limit``
    does not clear: 115 of the first 100,000 default-grammar draws at
    seed 0.
    """
    if within_output_limit(src):
        return False
    try:
        fold(src, DEFAULT_REGISTRY, _output_length)
    except OutputTooLong:
        return True
    return False


def generate_corpus(
    params: GrammarParams,
    n: int,
    rng: random.Random | None = None,
    *,
    seed: int | None = None,
) -> Corpus:
    """Sample ``n`` distinct pairs under the uniqueness constraints.

    Constraints: sources are pairwise distinct, no literal occurs twice
    within one sample, and every string argument of two or more symbols is
    used at most once across the entire corpus.  Violations, and draws
    whose value would be longer than MAX_OUTPUT_LENGTH, are resolved by
    rejection; MAX_REJECTS consecutive rejections raise
    ExhaustedUniqueArguments.  Draws come from ``rng``, or, without one,
    from ``random.Random(seed)``.
    """
    if rng is None:
        rng = random.Random(seed)
    samples: list[Sample] = []
    ledger = UniquenessLedger()
    rejects = 0
    tables = DrawTables.build(params)
    while len(samples) < n:
        src = sample_tree(params, rng, tables=tables)
        if _too_long(src) or ledger.admit(src, f"sample {len(samples)}") is not None:
            rejects += 1
            if rejects > MAX_REJECTS:
                raise ExhaustedUniqueArguments(
                    f"{MAX_REJECTS} consecutive rejections at {len(samples)} samples"
                )
            continue
        rejects = 0
        # _too_long has bounded every call's output, so none is checked again
        seq_stats, tgt = fold(src, DEFAULT_REGISTRY, build)
        samples.append(Sample(src, tgt, seq_stats))
    return Corpus(samples, seed=seed, params=params)


def round_half_up(x: float) -> int:
    """Rounding with ties away from zero, for quota arithmetic."""
    return int(math.floor(x + 0.5))


def split_corpus(corpus: Corpus, rng: random.Random) -> Corpus:
    """Partition into train/valid/test splits, recorded on the corpus.

    Valid and test take the floor of 5% and 10% of the samples; train
    takes the rest.
    """
    n = len(corpus)
    shuffled = rng.sample(range(n), n)
    n_valid = int(n * 0.05)
    n_test = int(n * 0.10)
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
    rng: random.Random,
    *,
    vary_arg: int = 0,
) -> Corpus:
    """Single-function samples whose argument length sweeps ``arg_lengths``.

    For binary functions only the argument selected by ``vary_arg`` takes
    the probed length; the other argument keeps an ordinary length drawn
    from 1..MAX_ARG_LEN.  Literals never repeat within a sample.
    """
    fn = DEFAULT_REGISTRY.lookup(fn_name)
    if fn.arity == 2 and vary_arg not in (0, 1):
        raise ValueError("vary_arg must be 0 or 1")
    samples: list[Sample] = []
    for length in arg_lengths:
        if length < 1:
            raise ValueError("argument lengths must be at least 1")
        for _ in range(per_length):
            lengths = [length]
            if fn.arity == 2:
                lengths.insert(1 - vary_arg, rng.randint(1, MAX_ARG_LEN))
            samples.append(Sample.from_src(fresh_source([fn_name], lengths, rng)))
    return Corpus(samples)


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
)
