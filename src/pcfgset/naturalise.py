"""Shaping generated corpora toward a natural length/depth distribution.

The pipeline starts from trees sampled under per-instance random
probabilities, partitions them on binned (length, depth) features,
subsamples each bin to the relative frequencies of a reference histogram,
re-estimates grammar parameters from the survivors by maximum likelihood,
and regenerates.  Progress is scored by the KL divergence between
two-variate Gaussians fitted to the feature clouds, and the loop repeats
until the improvement falls below a tolerance.
"""

from __future__ import annotations

import csv
import math
import random
from collections import Counter
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .generation import (
    MAX_ARG_LEN,
    Corpus,
    DrawTables,
    GrammarParams,
    Sample,
    generate_corpus,
    leaf_tuples,
    round_half_up,
    sample_tree,
)
from .corpus_io import write_csv
from .language import DEFAULT_REGISTRY
from .seeding import subseed, substream

DEFAULT_EPSILON = 1e-3
DEFAULT_MAX_ITERS = 5
# the most positions one random-probability draw expands
RANDOM_SAMPLE_NODE_BUDGET = 2_000


class EmptyAnchorCell(Exception):
    """The random sample has no instance in the reference's largest cell."""


class DegenerateCovariance(Exception):
    """Too few or collinear feature points for a Gaussian fit."""


class SingularCovariance(Exception):
    """KL divergence is undefined for a non positive-definite covariance."""


class DistributionSpec(NamedTuple("DistributionSpec",
                                  [("entries", tuple[tuple[int, int, int], ...])])):
    """Reference histogram over (length, depth) cells.

    CSV format: header ``length,depth,count`` then one row per cell.
    Zero-count rows are accepted on read and dropped; a histogram needs at
    least one cell.
    """

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int, int, int], ...]):
        if not entries:
            raise ValueError("no cell with a positive count")
        seen = set()
        for length, depth, count in entries:
            if length < 1 or depth < 0 or count < 1:
                raise ValueError(f"bad entry ({length}, {depth}, {count})")
            if (length, depth) in seen:
                raise ValueError(f"duplicate cell ({length}, {depth})")
            seen.add((length, depth))
        return super().__new__(cls, entries)

    @property
    def total(self) -> int:
        return sum(c for _, _, c in self.entries)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[int, int, int]]) -> "DistributionSpec":
        return cls(tuple((l, d, c) for l, d, c in rows if c > 0))

    @classmethod
    def from_csv(cls, path: str | Path) -> "DistributionSpec":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["length", "depth", "count"]:
                raise ValueError(f"{path}: expected header 'length,depth,count'")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 3:
                    raise ValueError(f"{path}:{lineno}: expected three columns")
                try:
                    l, d, c = (int(x) for x in row)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: non-integer value") from exc
                if min(l, d, c) < 0:
                    raise ValueError(f"{path}:{lineno}: negative value")
                rows.append((l, d, c))
        try:
            return cls.from_rows(rows)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, ["length", "depth", "count"], sorted(self.entries))


class PartitionConfig(NamedTuple("PartitionConfig", [("i_length", int), ("i_depth", int)])):
    """Bin widths for the partitioning vector (length // i, depth // j)."""

    __slots__ = ()

    def __new__(cls, i_length: int, i_depth: int):
        if i_length < 1 or i_depth < 1:
            raise ValueError("increments must be positive integers")
        return super().__new__(cls, i_length, i_depth)

    def vector(self, length: int, depth: int) -> tuple[int, int]:
        return (length // self.i_length, depth // self.i_depth)


DEFAULT_INCREMENT_GRID = tuple(
    PartitionConfig(i, j) for i in (1, 2, 3) for j in (1, 2, 3)
)


class GaussianFit(NamedTuple):
    """Mean vector and covariance matrix as numpy arrays.  The annotations
    are never evaluated, so this module loads without numpy."""

    mean: numpy.ndarray
    cov: numpy.ndarray


def extract_features(corpus: Corpus) -> list[tuple[int, int]]:
    return [(s.stats.length, s.stats.depth) for s in corpus]


def support_bound(
    spec: DistributionSpec, candidate_configs: Sequence[PartitionConfig]
) -> tuple[int, int]:
    """The largest length and depth that any candidate maps into a
    reference cell.

    Under increments (i, j) a reference cell (v, w) holds lengths up to
    (v + 1) * i - 1 and depths up to (w + 1) * j - 1, so a tree beyond
    either maximum can never be kept by ``subsample_to_match``.
    """
    max_length = max(length for length, _, _ in spec.entries)
    max_depth = max(depth for _, depth, _ in spec.entries)
    return (
        max((max_length // c.i_length + 1) * c.i_length - 1 for c in candidate_configs),
        max((max_depth // c.i_depth + 1) * c.i_depth - 1 for c in candidate_configs),
    )


def _dirichlet(rng: random.Random, k: int) -> list[float]:
    """One draw from the symmetric Dirichlet(1) over ``k`` categories.
    Each Exp(1) is ``-log(1.0 - rng.random())``, the expression
    ``rng.gammavariate(1.0, 1.0)`` evaluates, from the same one call."""
    random_, log = rng.random, math.log
    draws = [-log(1.0 - random_()) for _ in range(k)]
    total = sum(draws)
    return [d / total for d in draws]


def random_probability_sample(
    n: int,
    spec: DistributionSpec,
    candidate_configs: Sequence[PartitionConfig] = DEFAULT_INCREMENT_GRID,
    *,
    rng: random.Random,
) -> Corpus:
    """The trees of ``n`` draws, each under freshly randomised
    probabilities, that some candidate can match to the reference.

    Per instance the production triple and the leaf-length distribution
    are drawn from symmetric Dirichlet(1) priors (uniform on the simplex),
    leaves being 1 to MAX_ARG_LEN symbols long; function weights stay
    uniform, and a draw expands at most RANDOM_SAMPLE_NODE_BUDGET
    positions.  No uniqueness constraints apply here:
    the sample only exists to cover feature space.  A draw longer or
    deeper than ``support_bound(spec, candidate_configs)`` stops as soon as
    it passes the bound, and the corpus holds only the kept trees, in draw
    order.

    ``rng`` gives one 64-bit base; instance ``i`` draws its probabilities
    and its tree from ``substream(base, "pool", i)``, so no instance
    depends on how far an earlier draw went, and a pool of ``n`` is the
    first ``n`` instances of any larger pool from the same ``rng``.
    """
    base = rng.getrandbits(64)
    bound = support_bound(spec, candidate_configs)
    # the uniform function tables and the leaf lengths 1..MAX_ARG_LEN are
    # built once; each instance reweights only the kind and length tables.
    # No GrammarParams is built per instance, since none of its checks
    # could fail: a Dirichlet(1) draw is non-negative and sums to 1, the
    # lengths lie in 1..MAX_ARG_LEN and the function weights are uniform.
    uniform = DrawTables.build(GrammarParams(
        p_unary=1 / 3,
        p_binary=1 / 3,
        p_leaf=1 / 3,
        fn_weights={name: 1.0 for name in DEFAULT_REGISTRY.names()},
        arg_len_dist={k: 1 / MAX_ARG_LEN for k in range(1, MAX_ARG_LEN + 1)},
    ))

    samples = []
    # re-seeding one generator gives it the state substream(base, "pool", i)
    # would start in
    instance = random.Random()
    for i in range(n):
        instance.seed(subseed(base, "pool", i))
        kind_probs = _dirichlet(instance, 3)
        len_probs = _dirichlet(instance, MAX_ARG_LEN)
        src = sample_tree(None, instance, max_nodes=RANDOM_SAMPLE_NODE_BUDGET,
                          bound=bound, tables=uniform.reweighted(kind_probs, len_probs))
        if src is not None:
            samples.append(Sample.from_src(src))
    return Corpus(samples)


def partition(
    features: Sequence[tuple[int, int]], config: PartitionConfig
) -> dict[tuple[int, int], list[int]]:
    """Group feature indices by their partitioning vector."""
    cells: dict[tuple[int, int], list[int]] = {}
    for idx, (length, depth) in enumerate(features):
        cells.setdefault(config.vector(length, depth), []).append(idx)
    return cells


def _spec_cells(
    spec: DistributionSpec, config: PartitionConfig
) -> dict[tuple[int, int], int]:
    cells: dict[tuple[int, int], int] = {}
    for length, depth, count in spec.entries:
        vec = config.vector(length, depth)
        cells[vec] = cells.get(vec, 0) + count
    return cells


def subsample_to_match(
    d_r: Corpus,
    d_n: DistributionSpec,
    config: PartitionConfig,
    rng: random.Random,
) -> Corpus:
    """Subsample ``d_r`` so its cell masses track the reference histogram.

    The largest reference cell anchors the scale: the matching sample cell
    is kept whole, and every other cell's quota is the reference count
    scaled by |anchor sample cell| / |anchor reference cell|, rounded half
    up and capped by availability.  Cells absent from the reference
    contribute nothing.
    """
    features = extract_features(d_r)
    sample_cells = partition(features, config)
    ref_cells = _spec_cells(d_n, config)
    anchor_vec = min(
        (vec for vec in ref_cells),
        key=lambda v: (-ref_cells[v], v),
    )
    anchor_pool = sample_cells.get(anchor_vec, [])
    if not anchor_pool:
        raise EmptyAnchorCell(
            f"no sample in the largest reference cell {anchor_vec} "
            f"(increments {config.i_length}x{config.i_depth})"
        )
    scale = len(anchor_pool) / ref_cells[anchor_vec]
    chosen: list[int] = []
    for vec in sorted(sample_cells):
        ref_count = ref_cells.get(vec, 0)
        if ref_count == 0:
            continue
        pool = sample_cells[vec]
        quota = min(round_half_up(ref_count * scale), len(pool))
        if quota <= 0:
            continue
        chosen.extend(pool if quota == len(pool) else rng.sample(pool, quota))
    chosen.sort()
    return Corpus([d_r.samples[i] for i in chosen])


def fit_gaussian(
    features: Sequence[tuple[int, int]],
    weights: Sequence[int] | None = None,
) -> GaussianFit:
    """Sample mean and unbiased covariance of 2-d feature points.

    ``weights`` are frequency weights (histogram counts).  Raises
    DegenerateCovariance when fewer than three points are available or the
    points are collinear.
    """
    # numpy is imported here, not at module level, so that only the
    # Gaussian fit pays its start-up cost
    import numpy as np

    pts = np.asarray(features, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("features must be (length, depth) pairs")
    if weights is None:
        if pts.shape[0] < 3:
            raise DegenerateCovariance("need at least three feature points")
        mean = pts.mean(axis=0)
        centred = pts - mean
        cov = centred.T @ centred / (pts.shape[0] - 1)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape[0] != pts.shape[0] or np.any(w < 0):
            raise ValueError("weights must be non-negative, one per point")
        total = w.sum()
        if total < 3:
            raise DegenerateCovariance("need at least three weighted points")
        mean = (w[:, None] * pts).sum(axis=0) / total
        centred = pts - mean
        cov = (w[:, None] * centred).T @ centred / (total - 1)
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise DegenerateCovariance("feature points are collinear") from exc
    return GaussianFit(mean=mean, cov=cov)


def fit_gaussian_spec(spec: DistributionSpec) -> GaussianFit:
    pts = [(l, d) for l, d, _ in spec.entries]
    counts = [c for _, _, c in spec.entries]
    return fit_gaussian(pts, weights=counts)


def kl_gaussian(p: GaussianFit, q: GaussianFit) -> float:
    """KL divergence between two 2-d Gaussians, in nats.

    0.5 * (tr(Sq^-1 Sp) + (mq - mp)^T Sq^-1 (mq - mp) - 2
           + ln det Sq - ln det Sp)
    """
    import numpy as np

    sign_q, logdet_q = np.linalg.slogdet(q.cov)
    sign_p, logdet_p = np.linalg.slogdet(p.cov)
    if sign_q <= 0 or sign_p <= 0:
        raise SingularCovariance("covariances must be positive definite")
    try:
        q_inv = np.linalg.inv(q.cov)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(str(exc)) from exc
    diff = q.mean - p.mean
    term_trace = float(np.trace(q_inv @ p.cov))
    term_mahal = float(diff @ q_inv @ diff)
    return 0.5 * (term_trace + term_mahal - 2.0 + logdet_q - logdet_p)


def select_increments(
    d_r: Corpus,
    d_n: DistributionSpec,
    *,
    rng: random.Random,
) -> tuple[PartitionConfig, Corpus, float]:
    """Try every bin width of DEFAULT_INCREMENT_GRID and keep the subsample
    with least KL.

    Each candidate runs on its own derived substream, so the winner does
    not depend on evaluation order.  Ties go to the earliest candidate.
    A candidate whose anchor cell holds no sample is skipped; when every
    candidate is skipped, EmptyAnchorCell is raised.
    Returns (config, subsampled corpus, kl).
    """
    base = rng.getrandbits(64)
    reference = fit_gaussian_spec(d_n)
    best: tuple[PartitionConfig, Corpus, float] | None = None
    for config in DEFAULT_INCREMENT_GRID:
        sub_rng = substream(base, "increments", config.i_length, config.i_depth)
        try:
            subset = subsample_to_match(d_r, d_n, config, sub_rng)
        except EmptyAnchorCell:
            continue
        fit = fit_gaussian(extract_features(subset))
        kl = kl_gaussian(fit, reference)
        if best is None or kl < best[2]:
            best = (config, subset, kl)
    if best is None:
        raise EmptyAnchorCell(f"no sample in the largest reference cell under any of "
                              f"{len(DEFAULT_INCREMENT_GRID)} candidate increments")
    return best


def mle_estimate(corpus: Corpus) -> GrammarParams:
    """Maximum-likelihood grammar parameters from observed sources.

    Counts every tree position (including roots) as one expansion of the
    three-way choice; function identities and leaf lengths are counted
    within their own distributions.  Every category receives add-one
    smoothing, so choices never observed keep a small positive mass;
    leaf lengths range over 1..MAX_ARG_LEN, and a longer observed leaf
    raises ValueError.
    The positions are read off the tokens: each function token heads one
    application and each maximal literal run is one leaf.
    """
    arity = {fn.name: fn.arity for fn in DEFAULT_REGISTRY}
    fn_counts: Counter[str] = Counter()
    len_counts: Counter[int] = Counter()
    for s in corpus:
        fn_counts.update(tok for tok in s.src if tok in arity)
        len_counts.update(len(arg) for arg in leaf_tuples(s.src))
    n_unary = sum(count for name, count in fn_counts.items() if arity[name] == 1)
    n_binary = sum(fn_counts.values()) - n_unary
    n_leaf = sum(len_counts.values())

    total = n_unary + n_binary + n_leaf
    if total == 0:
        raise ValueError("cannot estimate parameters from an empty corpus")
    p_unary = (n_unary + 1) / (total + 3)
    p_binary = (n_binary + 1) / (total + 3)
    p_leaf = (n_leaf + 1) / (total + 3)

    unary_names = DEFAULT_REGISTRY.unary_names()
    binary_names = DEFAULT_REGISTRY.binary_names()
    fn_weights: dict[str, float] = {}
    u_total = sum(fn_counts.get(n, 0) for n in unary_names) + len(unary_names)
    for name in unary_names:
        fn_weights[name] = (fn_counts.get(name, 0) + 1) / u_total
    b_total = sum(fn_counts.get(n, 0) for n in binary_names) + len(binary_names)
    for name in binary_names:
        fn_weights[name] = (fn_counts.get(name, 0) + 1) / b_total

    observed_max = max(len_counts, default=1)
    if observed_max > MAX_ARG_LEN:
        raise ValueError(f"leaf of length {observed_max} exceeds max_arg_len {MAX_ARG_LEN}")
    l_total = sum(len_counts.values()) + MAX_ARG_LEN
    arg_len_dist = {
        k: (len_counts.get(k, 0) + 1) / l_total for k in range(1, MAX_ARG_LEN + 1)
    }
    return GrammarParams(
        p_unary=p_unary,
        p_binary=p_binary,
        p_leaf=p_leaf,
        fn_weights=fn_weights,
        arg_len_dist=arg_len_dist,
    )


class TraceRow(NamedTuple):
    iteration: int
    i_length: int
    i_depth: int
    kl: float


class PipelineResult:
    """What the loop produced, and the pool it started from: ``initial_kl``
    scores the ``pool_kept`` random-probability trees within
    ``pool_bound`` (max length, max depth)."""

    def __init__(
        self,
        params: GrammarParams,
        corpus: Corpus,
        initial_kl: float,
        pool_kept: int,
        pool_bound: tuple[int, int],
        trace: list[TraceRow] | None = None,
    ):
        self.params = params
        self.corpus = corpus
        self.initial_kl = initial_kl
        self.pool_kept = pool_kept
        self.pool_bound = pool_bound
        self.trace = [] if trace is None else trace

    @property
    def final_kl(self) -> float:
        return self.trace[-1].kl if self.trace else self.initial_kl


def naturalise_pipeline(
    d_n: DistributionSpec,
    *,
    rng: random.Random,
    random_sample_size: int = 20_000,
    regenerate_size: int = 20_000,
    epsilon: float = DEFAULT_EPSILON,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> PipelineResult:
    """Full distribution-matching loop.

    Each iteration subsamples the current corpus toward the reference
    (searching DEFAULT_INCREMENT_GRID anew), refits grammar parameters on the
    survivors, and regenerates.  A candidate state is adopted only if its
    recorded KL improves on the incumbent, so the trace is monotone
    non-increasing; the loop stops once the improvement drops below
    ``epsilon`` (or on the first non-improving candidate, or after
    ``max_iters`` iterations).

    The loop starts from the trees of ``random_sample_size`` random-
    probability draws that some candidate can match to the reference
    (see ``random_probability_sample``); ``initial_kl`` is the KL of that
    kept pool.
    """
    base = rng.getrandbits(64)
    current = random_probability_sample(
        random_sample_size, d_n, rng=substream(base, "random-sample")
    )
    pool_kept = len(current)
    reference = fit_gaussian_spec(d_n)

    params: GrammarParams | None = None
    corpus: Corpus | None = None
    trace: list[TraceRow] = []
    for iteration in range(1, max_iters + 1):
        config, subset, kl = select_increments(
            current, d_n, rng=substream(base, "select", iteration)
        )
        if params is None:
            # the pool fits once a subset of it did, so a pool too small
            # to fit has already failed the selection
            initial_kl = best_kl = kl_gaussian(
                fit_gaussian(extract_features(current)), reference
            )
        if params is None or kl < best_kl:
            params = mle_estimate(subset)
            corpus = generate_corpus(params, regenerate_size, substream(base, "regen", iteration))
            improvement = best_kl - kl
            best_kl = kl
            trace.append(TraceRow(iteration, config.i_length, config.i_depth, best_kl))
            current = corpus
            if improvement < epsilon:
                break
        else:
            # candidate would regress; keep the incumbent state and stop
            trace.append(TraceRow(iteration, config.i_length, config.i_depth, best_kl))
            break
    assert params is not None and corpus is not None
    return PipelineResult(
        params=params,
        corpus=corpus,
        initial_kl=initial_kl,
        pool_kept=pool_kept,
        pool_bound=support_bound(d_n, DEFAULT_INCREMENT_GRID),
        trace=trace,
    )


def naturalised_corpus(
    d_n: DistributionSpec,
    params: GrammarParams,
    size: int,
    *,
    rng: random.Random,
) -> Corpus:
    """A ``size``-sample corpus whose (length, depth) histogram tracks ``d_n``.

    Draws a pool of 2.4 ``size`` from ``params``, keeps the subsample
    matched at unit increments and thins it uniformly down to ``size``.
    Each of up to three retries regrows the pool from scratch at 1.6 times
    the size, so the argument-uniqueness constraints stay global.
    """
    if size < 1:
        raise ValueError("size must be positive")
    max_attempts = 4
    pool_size = int(size * 2.4)
    for _ in range(max_attempts):
        pool = generate_corpus(params, pool_size, rng)
        matched = subsample_to_match(pool, d_n, PartitionConfig(1, 1), rng)
        if len(matched.samples) >= size:
            keep = sorted(rng.sample(range(len(matched.samples)), size))
            return Corpus([matched.samples[i] for i in keep])
        pool_size = int(pool_size * 1.6)
    raise ValueError(
        f"matched subsample stayed below {size} after {max_attempts} attempts"
    )


def write_kl_trace(path: str | Path, trace: Sequence[TraceRow]) -> None:
    write_csv(path, ["iteration", "i_length", "i_depth", "kl"], (
        [row.iteration, row.i_length, row.i_depth, f"{row.kl:.9f}"] for row in trace
    ))
