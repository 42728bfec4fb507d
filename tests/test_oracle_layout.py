"""Oracle layout: the distributed build against a driver replay, and the
merge of vertex-grouped batches on hand-built pieces.

``build_oracle`` draws batch b of ``batch_size`` RR sets from
``trial_rng(base_seed, b)``; RR set j of batch b gets id
``b * batch_size + j``. Replaying those batches on the driver must give the
same per-vertex counts and the same set of RR ids for every vertex, for any
θ: a multiple of the batch size, one with a short last batch, and one below
a single batch.
"""
import numpy as np
import pytest

from repro.experiments.rr_oracle import build_oracle, merge_pieces
from repro.graphs import assign_probabilities, build_network, to_csr
from repro.ic.rr import random_targets, rr_batch
from repro.util import trial_rng

BATCH = 8192  # build_oracle's default batch size
SEED = 11


@pytest.fixture(scope="module", params=[("Karate", "UC_0.1"), ("BA_s", "IWC")])
def graph(spark, request):
    net, setting = request.param
    return to_csr(assign_probabilities(build_network(spark, net), setting))


def replay(graph, theta, base_seed):
    """(vertex, rr_id) membership of build_oracle's batches, on the driver."""
    verts, ids = [], []
    for b, lo in enumerate(range(0, theta, BATCH)):
        rng = trial_rng(base_seed, b)
        res = rr_batch(
            graph, random_targets(graph.n, min(BATCH, theta - lo), rng), rng
        )
        verts.append(res.vertex)
        ids.append(res.rr_id + lo)
    return np.concatenate(verts), np.concatenate(ids)


@pytest.mark.parametrize("theta", [2 * BATCH, BATCH + 1000, 3000])
def test_build_oracle_matches_batch_replay(spark, graph, theta):
    oracle = build_oracle(spark, graph, theta, SEED)
    vertex, rr_id = replay(graph, theta, SEED)
    assert oracle.n == graph.n and oracle.theta == theta
    counts = np.bincount(vertex, minlength=graph.n)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    np.testing.assert_array_equal(oracle.vert_indptr, indptr)
    # Equal RR-id sets per vertex: sort both sides by (vertex, id).
    owner = np.repeat(np.arange(graph.n), np.diff(oracle.vert_indptr))
    got = oracle.rr_ids[np.lexsort((oracle.rr_ids, owner))]
    want = rr_id[np.lexsort((rr_id, vertex))]
    np.testing.assert_array_equal(got, want)


def piece(batch, counts, ids):
    return batch, np.array(counts, dtype=np.int64), np.array(ids)


# n = 3, θ = 5, batch size 3. Batch 0: R0 = {0, 1}, R1 = {1}, R2 = {0, 2};
# batch 1: R3 = {2}, R4 = {0, 2}. Ids are batch-local, grouped by vertex.
GOOD = [
    piece(1, [1, 0, 2], [1, 0, 1]),
    piece(0, [2, 2, 1], [0, 2, 0, 1, 2]),
]


def test_merge_pieces_layout():
    oracle = merge_pieces(3, 5, 3, GOOD)
    np.testing.assert_array_equal(oracle.vert_indptr, [0, 3, 5, 8])
    np.testing.assert_array_equal(oracle.rr_ids, [0, 2, 4, 0, 1, 2, 3, 4])
    assert oracle.estimate([1]) == 3 * 2 / 5


@pytest.mark.parametrize(
    "pieces, message",
    [
        (GOOD[:1], "missing RR batches"),
        (GOOD + GOOD[:1], "duplicate RR batch 1"),
        (GOOD + [piece(2, [1, 0, 0], [0])], "unexpected or duplicate RR batch 2"),
        ([GOOD[0], piece(0, [1, 2, 0], [0, 0, 1])], "batch 0: empty RR set"),
        ([GOOD[0], piece(0, [2, 2, 1], [0, 2, 0, 1, 3])], "batch 0: id out of range"),
        ([GOOD[0], piece(0, [2, 2, 2], [0, 2, 0, 1, 2])], "batch 0: counts"),
        ([GOOD[0], piece(0, [2, 2], [0, 2, 0, 1])], "batch 0: counts"),
    ],
    ids=["missing", "duplicate", "extra", "empty-rr-set", "id-range",
         "count-sum", "count-shape"],
)
def test_merge_pieces_rejects_malformed(pieces, message):
    with pytest.raises(ValueError, match=message):
        merge_pieces(3, 5, 3, pieces)
