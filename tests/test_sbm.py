import numpy as np
import pytest

from synnetgen import (
    BlockMatrix,
    Clustering,
    build_block_matrix,
    degree_weights,
    sample_dcsbm,
    sbm,
)

from helpers import (
    block_tally_oracle,
    random_clustering,
    random_edge_array,
    reference_sample_dcsbm,
)


def bm_as_dict(bm, c):
    return {
        (int(c.cluster_ids[r]), int(c.cluster_ids[s])): int(cnt)
        for r, s, cnt in zip(bm.r, bm.s, bm.counts)
    }


def test_block_matrix_matches_tally_oracle():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 50))
        arr = random_edge_array(rng, n, 0.2)
        c = random_clustering(rng, n, int(rng.integers(1, 8)))
        bm = build_block_matrix(arr, c)
        expect = block_tally_oracle(arr.tolist(), c.assignment)
        assert bm_as_dict(bm, c) == expect
        assert bm.total_edges == len(arr)
        assert np.all(bm.r <= bm.s)


def test_empty_edges():
    bm = build_block_matrix(np.empty((0, 2), dtype=np.int64), Clustering([0, 1]))
    assert len(bm) == 0
    assert bm.total_edges == 0


def test_degree_weights():
    arr = np.array([[0, 1], [0, 2], [0, 3]])
    w = degree_weights(arr, 5)
    assert w.tolist() == [3.0, 1.0, 1.0, 1.0, 0.0]


def sample_round_trip(arr, c, seed=0):
    bm = build_block_matrix(arr, c)
    w = degree_weights(arr, c.n)
    return bm, sample_dcsbm(bm, c, w, seed=seed)


def test_sample_respects_block_counts():
    rng = np.random.default_rng(17)
    for trial in range(25):
        n = int(rng.integers(4, 40))
        arr = random_edge_array(rng, n, 0.3)
        if len(arr) == 0:
            continue
        c = random_clustering(rng, n, int(rng.integers(1, 6)))
        bm, (out, report) = sample_round_trip(arr, c, seed=trial)
        # canonical: u < v (no self-loops), unique, lexicographically sorted
        assert np.all(out[:, 0] < out[:, 1])
        assert out.tolist() == [list(e) for e in sorted(set(map(tuple, out.tolist())))]
        # every placed edge lands in a demanded coordinate, never above count
        got = block_tally_oracle(out.tolist(), c.assignment)
        want = bm_as_dict(bm, c)
        for pair, cnt in got.items():
            assert cnt <= want[pair]
        assert report.placed + report.shortfall == report.requested
        assert report.placed == len(out)
        assert int(report.coordinate_shortfall.sum()) == report.shortfall


def test_sample_exact_when_blocks_are_roomy():
    # plenty of nodes per block and low demand: no shortfall expected
    c = Clustering([0] * 12 + [1] * 12)
    arr = np.array([[0, 1], [2, 3], [4, 5], [0, 12], [1, 13], [12, 13]])
    bm, (edges, report) = sample_round_trip(arr, c, seed=3)
    assert report.shortfall == 0
    got = block_tally_oracle(edges.tolist(), c.assignment)
    assert got == bm_as_dict(bm, c)


def test_complete_block_saturation():
    # demand every possible intra edge of a 4-node block
    c = Clustering([0, 0, 0, 0])
    bm = BlockMatrix(
        r=np.array([0]),
        s=np.array([0]),
        counts=np.array([6]),
    )
    edges, report = sample_dcsbm(bm, c, np.ones(4), seed=1)
    assert len(edges) == 6
    assert report.shortfall == 0
    # demanding more than possible leaves a shortfall
    bm2 = BlockMatrix(
        r=np.array([0]),
        s=np.array([0]),
        counts=np.array([9]),
    )
    edges2, report2 = sample_dcsbm(bm2, c, np.ones(4), seed=1)
    assert len(edges2) == 6
    assert report2.shortfall == 3


def test_single_node_intra_block_drops_demand():
    c = Clustering([0, 1, 1])
    bm = BlockMatrix(
        r=np.array([0]),
        s=np.array([0]),
        counts=np.array([4]),
    )
    edges, report = sample_dcsbm(bm, c, np.ones(3), seed=0)
    assert len(edges) == 0
    assert report.shortfall == 4


def test_two_single_node_blocks_force_the_edge():
    c = Clustering([0, 1])
    bm = BlockMatrix(
        r=np.array([0]),
        s=np.array([1]),
        counts=np.array([5]),
    )
    edges, report = sample_dcsbm(bm, c, np.ones(2), seed=0)
    assert edges.tolist() == [[0, 1]]
    assert report.shortfall == 4


def test_zero_weight_nodes_never_drawn():
    c = Clustering([0] * 6)
    w = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    bm = BlockMatrix(
        r=np.array([0]),
        s=np.array([0]),
        counts=np.array([3]),
    )
    for seed in range(30):
        edges, _ = sample_dcsbm(bm, c, w, seed=seed)
        assert np.all(np.isin(edges, [0, 2, 4]))


def test_all_zero_weights_fall_back_to_uniform():
    c = Clustering([0] * 5)
    bm = BlockMatrix(
        r=np.array([0]),
        s=np.array([0]),
        counts=np.array([4]),
    )
    edges, report = sample_dcsbm(bm, c, np.zeros(5), seed=2)
    assert len(edges) == 4
    assert report.shortfall == 0


def test_determinism_and_seed_sensitivity():
    rng = np.random.default_rng(44)
    arr = random_edge_array(rng, 30, 0.3)
    c = random_clustering(rng, 30, 4)
    bm = build_block_matrix(arr, c)
    w = degree_weights(arr, 30)
    a1, _ = sample_dcsbm(bm, c, w, seed=7)
    a2, _ = sample_dcsbm(bm, c, w, seed=7)
    b, _ = sample_dcsbm(bm, c, w, seed=8)
    assert a1.tolist() == a2.tolist()
    assert a1.tolist() != b.tolist()


def test_coordinates_are_independent_streams():
    # zeroing one coordinate's demand must not change any other coordinate
    rng = np.random.default_rng(50)
    arr = random_edge_array(rng, 24, 0.4)
    c = Clustering(np.repeat([0, 1, 2], 8))
    bm = build_block_matrix(arr, c)
    assert len(bm) >= 3
    w = degree_weights(arr, 24)
    full, _ = sample_dcsbm(bm, c, w, seed=5)
    counts = bm.counts.copy()
    counts[1] = 0
    bm2 = BlockMatrix(r=bm.r, s=bm.s, counts=counts)
    partial, _ = sample_dcsbm(bm2, c, w, seed=5)

    def coord_of(u, v):
        a, b = sorted((int(c.assignment[u]), int(c.assignment[v])))
        return a, b

    dropped = (int(c.cluster_ids[bm.r[1]]), int(c.cluster_ids[bm.s[1]]))
    full_rest = {tuple(e) for e in full.tolist() if coord_of(*e) != dropped}
    assert {tuple(e) for e in partial.tolist()} == full_rest


def test_weighted_endpoint_frequencies():
    """Endpoint marginals follow the weights (3 sigma over many seeds)."""
    c = Clustering([0, 1, 1, 1, 1])
    w = np.array([1.0, 8.0, 4.0, 2.0, 1.0])
    bm = BlockMatrix(
        r=np.array([0]),
        s=np.array([1]),
        counts=np.array([1]),
    )
    n_trials = 6000
    tally = np.zeros(5, dtype=np.int64)
    for seed in range(n_trials):
        edges, _ = sample_dcsbm(bm, c, w, seed=seed)
        (u, v), = edges
        assert u == 0
        tally[v] += 1
    p = w[1:] / w[1:].sum()
    expect = n_trials * p
    sigma = np.sqrt(n_trials * p * (1 - p))
    assert np.all(np.abs(tally[1:] - expect) <= 3 * sigma), (tally, expect)


def _redraw_reference():
    """Three blocks, four coordinates: a near-saturated skewed intra block
    (13 of 15 pairs), its pair with block 1, block 1 (which holds a
    zero-weight node) and block 1's pair with the one-node block 2."""
    c = Clustering([0] * 6 + [1] * 4 + [2])
    w = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 1.0, 1.0, 2.0, 3.0, 0.0, 1.0])
    bm = BlockMatrix(
        r=np.array([0, 0, 1, 1]),
        s=np.array([0, 1, 1, 2]),
        counts=np.array([13, 5, 3, 2]),
    )
    return bm, c, w


def test_distribution_matches_coordinate_loop_sampler():
    """Per-node endpoint frequencies and the mean shortfall agree with the
    per-coordinate Generator sampler within 4 sigma over 2000 seeds."""
    bm, c, w = _redraw_reference()
    n_seeds = 2000
    runs = {}
    for name, sampler in (("hash", sample_dcsbm), ("loop", reference_sample_dcsbm)):
        degrees = np.zeros((n_seeds, c.n))
        short = np.zeros(n_seeds)
        for seed in range(n_seeds):
            edges, report = sampler(bm, c, w, seed)
            degrees[seed] = np.bincount(edges.ravel(), minlength=c.n)
            short[seed] = report.shortfall
        runs[name] = np.column_stack([degrees, short])
    assert runs["hash"][:, -1].max() > 0, "the reference never needed a redraw past the cap"
    diff = runs["hash"].mean(axis=0) - runs["loop"].mean(axis=0)
    sigma = np.sqrt((runs["hash"].var(axis=0) + runs["loop"].var(axis=0)) / n_seeds)
    assert np.all(np.abs(diff) <= 4 * sigma), (diff, sigma)


def test_sampler_builds_no_generator(monkeypatch):
    bm, c, w = _redraw_reference()

    def forbidden(*args, **kwargs):
        raise AssertionError("sample_dcsbm built a numpy random generator")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    monkeypatch.setattr(np.random, "SeedSequence", forbidden)
    edges, report = sample_dcsbm(bm, c, w, seed=3)
    assert report.placed == len(edges) > 0


def test_pick_rounded_past_its_block_stays_on_a_positive_weight_node(monkeypatch):
    # every uniform is 1 - 2**-53: block 1 spans cumulative weights (1, 3],
    # and 1 + u * 2 rounds up to 3, the right end of block 1, where the
    # zero-weight node 3 sits just before block 2's first node 4
    c = Clustering([0, 1, 1, 1, 2, 2])
    w = np.array([1.0, 1.0, 1.0, 0.0, 1.0, 1.0])
    bm = BlockMatrix(r=np.array([0]), s=np.array([1]), counts=np.array([1]))
    monkeypatch.setattr(sbm, "_hash",
                        lambda key, x: np.full(np.broadcast(key, x).shape,
                                               2**64 - 1, dtype=np.uint64))
    edges, report = sample_dcsbm(bm, c, w, seed=0)
    assert edges.tolist() == [[0, 2]]
    assert report.shortfall == 0


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seed_outside_uint64_rejected(seed):
    bm = BlockMatrix(
        r=np.array([0]),
        s=np.array([0]),
        counts=np.array([1]),
    )
    with pytest.raises(ValueError, match="seed"):
        sample_dcsbm(bm, Clustering([0, 0]), np.ones(2), seed=seed)
