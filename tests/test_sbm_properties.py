"""Property tests of sample_dcsbm on small random block models.

Nodes are laid out block after block, so a block's last node is always
next to the following block's first node in the sampler's cumulative
weights, and zero weights are common, so the generated models include
zero-weight nodes at the end of a block.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from synnetgen import BlockMatrix, Clustering, sample_dcsbm

from helpers import block_tally_oracle

MAX_EXAMPLES = 60


@st.composite
def block_models(draw):
    """(bm, c, weights, seed) with distinct coordinates and ids 3, 10, 17, ..."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    ids = 3 + 7 * np.arange(len(sizes))
    c = Clustering(np.repeat(ids, sizes))
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]),
                                     min_size=c.n, max_size=c.n)))
    pairs = [(r, s) for r in range(len(sizes)) for s in range(r, len(sizes))]
    chosen = sorted(draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)))
    counts = draw(st.lists(st.integers(0, 12), min_size=len(chosen), max_size=len(chosen)))
    bm = BlockMatrix(r=np.array([p[0] for p in chosen]),
                     s=np.array([p[1] for p in chosen]), counts=np.array(counts))
    return bm, c, weights, draw(st.integers(0, 2**64 - 1))


def tally(edges, c):
    return block_tally_oracle(edges.tolist(), c.assignment)


def demand(bm, c):
    return {(int(c.cluster_ids[r]), int(c.cluster_ids[s])): int(cnt)
            for r, s, cnt in zip(bm.r, bm.s, bm.counts)}


@settings(max_examples=MAX_EXAMPLES)
@given(block_models())
def test_output_is_canonical(model):
    edges, _ = sample_dcsbm(*model)
    assert edges.dtype == np.int64 and edges.shape[1] == 2
    assert np.all(edges[:, 0] < edges[:, 1])
    keys = edges[:, 0] * model[1].n + edges[:, 1]
    assert np.all(np.diff(keys) > 0)


@settings(max_examples=MAX_EXAMPLES)
@given(block_models())
def test_placement_and_shortfall_account_for_the_demand(model):
    bm, c, _, _ = model
    edges, report = sample_dcsbm(*model)
    got = tally(edges, c)
    want = demand(bm, c)
    assert set(got) <= set(want)
    for i, (pair, cnt) in enumerate(want.items()):
        assert got.get(pair, 0) <= cnt
        assert got.get(pair, 0) + int(report.coordinate_shortfall[i]) == cnt
    assert report.placed == len(edges)
    assert report.placed + report.shortfall == report.requested == bm.total_edges
    assert int(report.coordinate_shortfall.sum()) == report.shortfall


@settings(max_examples=MAX_EXAMPLES)
@given(block_models())
# a zero-weight node ends block 3 and is followed by block 10's first node
@example((BlockMatrix(r=np.array([0, 0, 1]), s=np.array([0, 1, 1]),
                      counts=np.array([2, 4, 1])),
          Clustering([3, 3, 3, 10, 10]), np.array([1.0, 2.0, 0.0, 1.0, 1.0]), 9))
def test_zero_weight_nodes_are_never_drawn(model):
    _, c, weights, _ = model
    edges, _ = sample_dcsbm(*model)
    _, block = np.unique(c.assignment, return_inverse=True)
    block_weight = np.bincount(block, weights=weights)[block]
    drawn = np.unique(edges)
    # a block with no weight at all falls back to uniform endpoints
    assert np.all((weights[drawn] > 0) | (block_weight[drawn] <= 0))


@settings(max_examples=MAX_EXAMPLES)
@given(block_models(), st.data())
def test_zeroing_a_coordinate_leaves_the_others_unchanged(model, data):
    bm, c, weights, seed = model
    i = data.draw(st.integers(0, len(bm) - 1))
    counts = bm.counts.copy()
    counts[i] = 0
    zeroed = BlockMatrix(r=bm.r, s=bm.s, counts=counts)
    full, _ = sample_dcsbm(bm, c, weights, seed)
    partial, report = sample_dcsbm(zeroed, c, weights, seed)
    dropped = (int(c.cluster_ids[bm.r[i]]), int(c.cluster_ids[bm.s[i]]))
    assert dropped not in tally(partial, c)
    assert report.coordinate_shortfall[i] == 0

    def block_pair(u, v):
        return tuple(sorted((int(c.assignment[u]), int(c.assignment[v]))))

    rest = [e for e in full.tolist() if block_pair(*e) != dropped]
    assert partial.tolist() == rest
