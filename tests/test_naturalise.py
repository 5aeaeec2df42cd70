"""Distribution matching: fits, KL, quotas, MLE, pipeline behaviour.

Numeric expectations in this file were worked out by hand (weighted
covariance sums, closed-form Gaussian KL, quota scaling) and frozen as
independent oracles.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcfgset.cli import reference_spec_path
from pcfgset.generation import Corpus, GrammarParams, Sample, sample_tree
from pcfgset.language import DEFAULT_REGISTRY, SequenceStats, fold
from pcfgset.naturalise import (
    DEFAULT_INCREMENT_GRID,
    DegenerateCovariance,
    DistributionSpec,
    EmptyAnchorCell,
    GaussianFit,
    PartitionConfig,
    SingularCovariance,
    extract_features,
    fit_gaussian,
    fit_gaussian_spec,
    kl_gaussian,
    mle_estimate,
    naturalise_pipeline,
    partition,
    random_probability_sample,
    round_half_up,
    select_increments,
    subsample_to_match,
    support_bound,
    _dirichlet,
)
from pcfgset.seeding import substream


def fake_sample(length, depth):
    """A sample whose stats are set directly; the source is a placeholder."""
    return Sample(
        src=("copy", "A"), tgt=("A",),
        stats=SequenceStats(length=length, depth=depth, num_functions=1),
    )


def fake_corpus(cells: dict[tuple[int, int], int]) -> Corpus:
    samples = []
    for (length, depth), count in sorted(cells.items()):
        for _ in range(count):
            samples.append(fake_sample(length, depth))
    return Corpus(samples)


# --- rounding and partitioning ----------------------------------------------

@pytest.mark.parametrize(
    "x,expected", [(0.0, 0), (0.4, 0), (0.5, 1), (1.5, 2), (2.5, 3), (2.49, 2), (3.0, 3)]
)
def test_round_half_up(x, expected):
    assert round_half_up(x) == expected


def test_partitioning_vector():
    cfg = PartitionConfig(2, 2)
    assert cfg.vector(7, 3) == (3, 1)
    assert cfg.vector(0, 0) == (0, 0)
    assert PartitionConfig(1, 1).vector(7, 3) == (7, 3)
    assert PartitionConfig(3, 2).vector(9, 4) == (3, 2)


def test_partition_config_validation():
    with pytest.raises(ValueError):
        PartitionConfig(0, 1)


def test_partition_groups_indices():
    feats = [(1, 1), (2, 1), (1, 1), (4, 2)]
    cells = partition(feats, PartitionConfig(2, 2))
    assert cells == {(0, 0): [0, 2], (1, 0): [1], (2, 1): [3]}


# --- distribution spec --------------------------------------------------------

def test_spec_csv_round_trip(tmp_path):
    spec = DistributionSpec.from_rows([(3, 1, 5), (10, 4, 2), (7, 2, 9)])
    path = tmp_path / "ref.csv"
    spec.to_csv(path)
    again = DistributionSpec.from_csv(path)
    assert sorted(again.entries) == sorted(spec.entries)
    assert again.total == 16


def test_spec_to_csv_rewrites_the_bundled_reference_byte_for_byte(tmp_path):
    bundled = reference_spec_path()
    DistributionSpec.from_csv(bundled).to_csv(tmp_path / "ref.csv")
    assert (tmp_path / "ref.csv").read_bytes() == bundled.read_bytes()


def test_spec_drops_zero_count_rows(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("length,depth,count\n3,1,5\n4,1,0\n", encoding="utf-8")
    spec = DistributionSpec.from_csv(path)
    assert spec.entries == ((3, 1, 5),)


def test_spec_rejects_bad_header(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("len,dep,n\n3,1,5\n", encoding="utf-8")
    with pytest.raises(ValueError):
        DistributionSpec.from_csv(path)


def test_spec_rejects_duplicates_and_negatives():
    with pytest.raises(ValueError):
        DistributionSpec.from_rows([(3, 1, 5), (3, 1, 2)])
    with pytest.raises(ValueError):
        DistributionSpec(((3, 1, -2),))


# --- gaussian fit ---------------------------------------------------------------

def test_fit_gaussian_hand_example():
    fit = fit_gaussian([(0, 0), (2, 0), (0, 2), (2, 2)])
    assert np.allclose(fit.mean, [1.0, 1.0])
    assert np.allclose(fit.cov, [[4 / 3, 0.0], [0.0, 4 / 3]])


def test_fit_gaussian_weighted_hand_example():
    # points (1,1) x2, (3,2) x1, (2,3) x1; worked out with pencil and paper
    fit = fit_gaussian([(1, 1), (3, 2), (2, 3)], weights=[2, 1, 1])
    assert np.allclose(fit.mean, [7 / 4, 7 / 4])
    assert np.allclose(fit.cov, [[2.75 / 3, 1.75 / 3], [1.75 / 3, 2.75 / 3]])


def test_fit_gaussian_needs_three_points():
    with pytest.raises(DegenerateCovariance):
        fit_gaussian([(1, 1), (2, 2)])


def test_fit_gaussian_rejects_collinear():
    with pytest.raises(DegenerateCovariance):
        fit_gaussian([(1, 1), (2, 2), (3, 3), (4, 4)])


def test_fit_gaussian_spec_matches_expanded_points():
    spec = DistributionSpec.from_rows([(1, 1, 2), (3, 2, 1), (2, 3, 1)])
    weighted = fit_gaussian_spec(spec)
    expanded = fit_gaussian([(1, 1), (1, 1), (3, 2), (2, 3)])
    assert np.allclose(weighted.mean, expanded.mean)
    assert np.allclose(weighted.cov, expanded.cov)


# --- KL divergence ---------------------------------------------------------------

def gauss(mean, cov):
    return GaussianFit(np.array(mean, dtype=float), np.array(cov, dtype=float))


def test_kl_self_is_zero():
    p = gauss([3.0, 4.0], [[2.0, 0.3], [0.3, 1.0]])
    assert abs(kl_gaussian(p, p)) <= 1e-12


def test_kl_unit_shift_closed_form():
    p = gauss([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    q = gauss([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    assert abs(kl_gaussian(p, q) - 0.5) <= 1e-9


def test_kl_scale_closed_form():
    # KL(N(0, diag(2,1)) || N(0, I)) = 0.5 * (3 - 2 - ln 2)
    p = gauss([0.0, 0.0], [[2.0, 0.0], [0.0, 1.0]])
    q = gauss([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    assert abs(kl_gaussian(p, q) - 0.5 * (1 - math.log(2))) <= 1e-12
    # and it is asymmetric
    assert abs(kl_gaussian(q, p) - 0.5 * (math.log(2) - 0.5)) <= 1e-12


def test_kl_rejects_singular():
    p = gauss([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
    q = gauss([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SingularCovariance):
        kl_gaussian(p, q)
    with pytest.raises(SingularCovariance):
        kl_gaussian(q, p)


@st.composite
def _pd_gaussians(draw):
    mean = draw(st.lists(st.floats(-5, 5), min_size=2, max_size=2))
    vals = draw(st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4))
    a = np.array(vals).reshape(2, 2)
    cov = a @ a.T + 0.2 * np.eye(2)
    return gauss(mean, cov)


@given(_pd_gaussians(), _pd_gaussians())
@settings(max_examples=80, deadline=None)
def test_kl_non_negative(p, q):
    assert kl_gaussian(p, q) >= -1e-10


# --- subsampling -------------------------------------------------------------------

def test_subsample_quota_example():
    # reference cells (1,1)=10 (anchor) and (2,1)=5; sample holds 40 in each
    d_n = DistributionSpec.from_rows([(1, 1, 10), (2, 1, 5)])
    d_r = fake_corpus({(1, 1): 40, (2, 1): 40})
    out = subsample_to_match(d_r, d_n, PartitionConfig(1, 1), random.Random(0))
    sizes = {vec: len(ix) for vec, ix in
             partition(extract_features(out), PartitionConfig(1, 1)).items()}
    assert sizes == {(1, 1): 40, (2, 1): 20}


def test_subsample_quota_caps_at_cell_size():
    d_n = DistributionSpec.from_rows([(1, 1, 10), (2, 1, 50)])
    d_r = fake_corpus({(1, 1): 5, (2, 1): 20})
    out = subsample_to_match(d_r, d_n, PartitionConfig(1, 1), random.Random(0))
    sizes = {vec: len(ix) for vec, ix in
             partition(extract_features(out), PartitionConfig(1, 1)).items()}
    # anchor (2,1): kept whole; (1,1): quota round(10 * 20/50) = 4 of 5
    assert sizes == {(2, 1): 20, (1, 1): 4}


def test_subsample_rounds_half_up():
    d_n = DistributionSpec.from_rows([(1, 1, 10), (2, 1, 5)])
    d_r = fake_corpus({(1, 1): 5, (2, 1): 5})
    out = subsample_to_match(d_r, d_n, PartitionConfig(1, 1), random.Random(0))
    sizes = {vec: len(ix) for vec, ix in
             partition(extract_features(out), PartitionConfig(1, 1)).items()}
    # scale 5/10; (2,1) quota = 5 * 0.5 = 2.5 -> 3
    assert sizes == {(1, 1): 5, (2, 1): 3}


def test_subsample_ignores_cells_missing_from_reference():
    d_n = DistributionSpec.from_rows([(1, 1, 10)])
    d_r = fake_corpus({(1, 1): 8, (9, 9): 20})
    out = subsample_to_match(d_r, d_n, PartitionConfig(1, 1), random.Random(0))
    assert {f for f in extract_features(out)} == {(1, 1)}
    assert len(out) == 8


def test_subsample_empty_anchor_cell():
    d_n = DistributionSpec.from_rows([(1, 1, 10), (2, 1, 5)])
    d_r = fake_corpus({(2, 1): 40})
    with pytest.raises(EmptyAnchorCell):
        subsample_to_match(d_r, d_n, PartitionConfig(1, 1), random.Random(0))


def test_subsample_anchor_tie_breaks_lexicographically():
    d_n = DistributionSpec.from_rows([(2, 1, 10), (1, 1, 10)])
    # only the lexicographically smaller tied cell is populated
    d_r = fake_corpus({(1, 1): 4})
    out = subsample_to_match(d_r, d_n, PartitionConfig(1, 1), random.Random(0))
    assert len(out) == 4


def test_subsample_is_subset_preserving_samples():
    d_n = DistributionSpec.from_rows([(1, 1, 3), (2, 1, 2), (3, 1, 1)])
    d_r = fake_corpus({(1, 1): 30, (2, 1): 30, (3, 1): 30})
    out = subsample_to_match(d_r, d_n, PartitionConfig(1, 1), random.Random(7))
    # the fake samples of a cell are equal, so they are told apart by identity
    position = {id(s): i for i, s in enumerate(d_r.samples)}
    picked = [position[id(s)] for s in out]
    assert picked == sorted(set(picked))


# --- increment selection --------------------------------------------------------

def test_select_increments_returns_grid_member_and_consistent_kl():
    d_n = DistributionSpec.from_rows(
        [(4, 1, 6), (6, 2, 10), (8, 2, 6), (10, 3, 4), (14, 4, 2)]
    )
    rng = random.Random(3)
    d_r = random_probability_sample(1200, d_n, rng=rng)
    config, subset, kl = select_increments(d_r, d_n, DEFAULT_INCREMENT_GRID,
                                           random.Random(5))
    assert config in DEFAULT_INCREMENT_GRID
    refit = kl_gaussian(fit_gaussian(extract_features(subset)), fit_gaussian_spec(d_n))
    assert math.isclose(kl, refit, rel_tol=0, abs_tol=1e-12)
    assert {id(s) for s in subset} <= {id(s) for s in d_r}


def test_select_increments_tie_prefers_first_candidate():
    # reference proportional to the sample in every cell: all quotas keep
    # whole cells under any increments, so every candidate ties
    d_n = DistributionSpec.from_rows([(2, 1, 10), (4, 2, 10), (6, 3, 10), (9, 4, 10)])
    d_r = fake_corpus({(2, 1): 7, (4, 2): 7, (6, 3): 7, (9, 4): 7})
    config, subset, _ = select_increments(d_r, d_n, DEFAULT_INCREMENT_GRID,
                                          random.Random(0))
    assert config == DEFAULT_INCREMENT_GRID[0]
    assert len(subset) == 28


def test_select_increments_skips_candidates_with_an_empty_anchor_cell():
    d_n = DistributionSpec.from_rows([(5, 1, 10), (3, 1, 4), (7, 2, 4), (9, 3, 4)])
    # nothing at length 5: the unit increments find the anchor cell empty
    d_r = fake_corpus({(4, 1): 6, (3, 1): 5, (7, 2): 5, (9, 3): 5})
    with pytest.raises(EmptyAnchorCell):
        subsample_to_match(d_r, d_n, PartitionConfig(1, 1), random.Random(0))
    config, subset, _ = select_increments(d_r, d_n, DEFAULT_INCREMENT_GRID, random.Random(0))
    assert config != PartitionConfig(1, 1)
    assert len(subset) > 0
    with pytest.raises(EmptyAnchorCell):
        select_increments(fake_corpus({(20, 5): 10}), d_n, DEFAULT_INCREMENT_GRID,
                          random.Random(0))


# --- random probability sample ----------------------------------------------------

def bundled_spec() -> DistributionSpec:
    return DistributionSpec.from_csv(reference_spec_path())


def pool_draws(n, seed, bound):
    """The samples of ``random_probability_sample(n, ..., rng=random.Random(seed))``
    under a support bound, rebuilt draw by draw: instance ``i`` draws its
    Dirichlet(1) probabilities and its tree from ``substream(base, "pool", i)``."""
    base = random.Random(seed).getrandbits(64)
    kept = []
    for i in range(n):
        instance = substream(base, "pool", i)
        p_unary, p_binary, p_leaf = _dirichlet(instance, 3)
        params = GrammarParams(
            p_unary=p_unary, p_binary=p_binary, p_leaf=p_leaf,
            fn_weights={name: 1.0 for name in DEFAULT_REGISTRY.names()},
            arg_len_dist=dict(enumerate(_dirichlet(instance, 5), start=1)),
        )
        tree = sample_tree(params, instance, max_nodes=2_000, bound=bound)
        if tree is not None:
            kept.append(Sample.from_src(tree))
    return kept


def test_support_bound_of_the_bundled_reference_over_the_default_grid():
    # lengths 57-59 share cell 19 under i_length 3; depths 15-17 share cell 5 under i_depth 3
    assert support_bound(bundled_spec(), DEFAULT_INCREMENT_GRID) == (59, 17)


def test_support_bound_of_unit_increments_is_the_reference_maximum():
    spec = bundled_spec()
    longest = max(length for length, _, _ in spec.entries)
    deepest = max(depth for _, depth, _ in spec.entries)
    assert support_bound(spec, [PartitionConfig(1, 1)]) == (longest, deepest)


def test_random_probability_sample_shape():
    corpus = random_probability_sample(60, bundled_spec(), rng=random.Random(11))
    assert 0 < len(corpus) <= 60
    assert corpus.samples == pool_draws(60, 11, (59, 17))
    for s in corpus:
        assert s.stats.num_functions >= 1  # root is forced to be a function
        assert s.tgt  # evaluates to something non-empty
        assert s.stats.length <= 59 and s.stats.depth <= 17


def test_random_probability_sample_keeps_exactly_the_draws_in_bound():
    # a one-cell reference far beyond any tree: unit increments keep every draw
    everything = random_probability_sample(
        200, DistributionSpec.from_rows([(100_000, 1_000, 1)]), [PartitionConfig(1, 1)],
        rng=random.Random(7),
    )
    assert everything.samples == pool_draws(200, 7, None)
    kept = random_probability_sample(200, bundled_spec(), rng=random.Random(7))
    assert kept.samples == [
        s for s in everything if s.stats.length <= 59 and s.stats.depth <= 17
    ]
    assert 0 < len(kept) < 200


def test_a_random_probability_pool_is_the_prefix_of_a_larger_one():
    # each instance draws from its own substream of the one base rng gives
    small = random_probability_sample(60, bundled_spec(), rng=random.Random(5))
    large = random_probability_sample(120, bundled_spec(), rng=random.Random(5))
    assert small.samples == large.samples[:len(small)]
    # 32 of the first 60 draws and 73 of 120 fall within the bundled bound
    assert (len(small), len(large)) == (32, 73)


def test_random_probability_sample_deterministic():
    a = random_probability_sample(25, bundled_spec(), rng=random.Random(4))
    b = random_probability_sample(25, bundled_spec(), rng=random.Random(4))
    assert [s.src for s in a] == [s.src for s in b]


def test_random_probability_sample_respects_node_budget():
    corpus = random_probability_sample(40, bundled_spec(), rng=random.Random(9), max_nodes=50)
    for s in corpus:
        n_leaves = len(s.tgt)  # not exact, but leaves <= symbols emitted
        assert s.stats.num_functions <= 50


# --- maximum likelihood estimation -------------------------------------------------

def test_mle_hand_counts():
    # "copy A B" and "append A , B": expansions = 1 unary, 1 binary, 3 leaves
    samples = [
        Sample.from_src("copy A B".split()),
        Sample.from_src("append A , B".split()),
    ]
    params = mle_estimate(Corpus(samples))
    # add-one over three categories: (1+1, 1+1, 3+1) / 8
    assert math.isclose(params.p_unary, 2 / 8)
    assert math.isclose(params.p_binary, 2 / 8)
    assert math.isclose(params.p_leaf, 4 / 8)
    # unary weights: copy seen once, five unseen -> (2, 1x5) / 7
    assert math.isclose(params.fn_weights["copy"], 2 / 7)
    assert math.isclose(params.fn_weights["reverse"], 1 / 7)
    # binary weights: append seen once -> (2, 1x3) / 5
    assert math.isclose(params.fn_weights["append"], 2 / 5)
    assert math.isclose(params.fn_weights["prepend"], 1 / 5)
    # leaf lengths observed: one of length 2, two of length 1
    assert params.max_arg_len == 2
    assert math.isclose(params.arg_len_dist[1], 3 / 5)
    assert math.isclose(params.arg_len_dist[2], 2 / 5)


def test_mle_counts_equal_a_walk_over_the_parsed_trees():
    pool = random_probability_sample(300, bundled_spec(), rng=random.Random(5))
    n_unary = n_binary = 0
    fn_counts: dict[str, int] = {}
    len_counts: dict[int, int] = {}

    def count(function, position, args):
        nonlocal n_unary, n_binary
        for arg in args:
            if arg is not None:  # a string argument; applications are None
                len_counts[len(arg)] = len_counts.get(len(arg), 0) + 1
        n_unary += function.arity == 1
        n_binary += function.arity == 2
        fn_counts[function.name] = fn_counts.get(function.name, 0) + 1

    for s in pool:
        fold(s.src, apply=count)
    total = n_unary + n_binary + sum(len_counts.values())
    params = mle_estimate(pool, max_arg_len=5)
    assert params.p_unary == (n_unary + 1) / (total + 3)
    assert params.p_binary == (n_binary + 1) / (total + 3)
    unary_total = sum(fn_counts.get(n, 0) for n in DEFAULT_REGISTRY.unary_names()) + 6
    assert params.fn_weights["swap"] == (fn_counts.get("swap", 0) + 1) / unary_total
    binary_total = sum(fn_counts.get(n, 0) for n in DEFAULT_REGISTRY.binary_names()) + 4
    assert params.fn_weights["append"] == (fn_counts.get("append", 0) + 1) / binary_total
    leaf_total = sum(len_counts.values()) + 5
    assert params.arg_len_dist == {k: (len_counts.get(k, 0) + 1) / leaf_total
                                   for k in range(1, 6)}


def test_mle_unseen_categories_get_smoothing_mass_only():
    samples = [Sample.from_src("copy A".split())]
    params = mle_estimate(Corpus(samples))
    assert 0 < params.p_binary < params.p_unary
    assert params.fn_weights["append"] == params.fn_weights["remove_first"]
    assert params.fn_weights["append"] > 0


def test_mle_recovers_known_params():
    true = GrammarParams(
        p_unary=0.45,
        p_binary=0.15,
        p_leaf=0.40,
        fn_weights={n: 1.0 for n in
                    ("copy", "reverse", "shift", "echo", "swap", "repeat",
                     "append", "prepend", "remove_first", "remove_second")},
        arg_len_dist={1: 0.1, 2: 0.2, 3: 0.4, 4: 0.2, 5: 0.1},
    )
    rng = random.Random(17)
    samples = [
        Sample.from_src(sample_tree(true, rng, force_function=False))
        for _ in range(30_000)
    ]
    est = mle_estimate(Corpus(samples), max_arg_len=5)
    tv_expansion = 0.5 * (
        abs(est.p_unary - true.p_unary)
        + abs(est.p_binary - true.p_binary)
        + abs(est.p_leaf - true.p_leaf)
    )
    assert tv_expansion < 0.02
    tv_len = 0.5 * sum(
        abs(est.arg_len_dist[k] - true.arg_len_dist[k]) for k in range(1, 6)
    )
    assert tv_len < 0.02


def test_mle_rejects_empty():
    with pytest.raises(ValueError):
        mle_estimate(Corpus([]))


# --- pipeline -----------------------------------------------------------------------

def small_reference() -> DistributionSpec:
    rows = []
    for length in range(3, 30):
        for depth in range(1, 8):
            weight = math.exp(-((length - 12) ** 2) / 40 - ((depth - 3) ** 2) / 3)
            count = int(200 * weight)
            if count > 0 and depth <= length:
                rows.append((length, depth, count))
    return DistributionSpec.from_rows(rows)


def test_pipeline_improves_and_trace_is_monotone():
    result = naturalise_pipeline(
        small_reference(),
        rng=random.Random(23),
        random_sample_size=1_500,
        regenerate_size=1_500,
        max_iters=4,
    )
    assert result.trace, "pipeline must run at least one iteration"
    assert result.final_kl < result.initial_kl
    assert 0 < result.pool_kept <= 1_500
    assert result.pool_bound == support_bound(small_reference(), DEFAULT_INCREMENT_GRID)
    kls = [row.kl for row in result.trace]
    assert all(a >= b - 1e-12 for a, b in zip(kls, kls[1:]))
    assert len(result.corpus) == 1_500
    # returned params regenerate the returned corpus's feature scale
    assert result.params.p_leaf > 0


def test_pipeline_max_iters_one():
    result = naturalise_pipeline(
        small_reference(),
        rng=random.Random(5),
        random_sample_size=800,
        regenerate_size=800,
        max_iters=1,
    )
    assert len(result.trace) == 1


def test_pipeline_infinite_epsilon_stops_after_first_iteration():
    result = naturalise_pipeline(
        small_reference(),
        rng=random.Random(6),
        random_sample_size=800,
        regenerate_size=800,
        epsilon=math.inf,
        max_iters=5,
    )
    assert len(result.trace) == 1
