"""Batched forward IC simulation (the Oneshot primitive).

A batch of B independent diffusions runs as one :func:`repro.ic.frontier_bfs`
over the out-adjacency of B disjoint copies of the graph (vertex key =
batch·n + v), with a fresh coin per examined edge — exactly the naive
Oneshot of Algorithm 3.2.

Traversal-cost accounting follows the paper's appendix: every activated
vertex is scanned once (vertex cost) and all of its out-edges are examined
(edge cost), so E[vertex cost] = Inf(S) and the edge cost matches
Σ_w d⁺(w)·1[w activated].
"""
from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.ic import frontier_bfs, single_seed_batches


@dataclass
class SimBatchResult:
    activated: np.ndarray  # int64[B] — |A_≤n| per simulation (includes seeds)
    vertex_cost: int
    edge_cost: int


def simulate_batch(
    graph: CSRGraph,
    seed_b: np.ndarray,
    seed_v: np.ndarray,
    n_batches: int,
    rng: np.random.Generator,
) -> SimBatchResult:
    """Run ``n_batches`` IC diffusions; simulation i starts from the seed
    vertices ``seed_v[seed_b == i]``."""
    n = graph.n
    visited, vertex_cost, edge_cost = frontier_bfs(
        graph.out_indptr, graph.out_dst, graph.out_p,
        seed_b.astype(np.int64) * n + seed_v, n, n_batches, rng,
    )
    counts = np.bincount(visited // n, minlength=n_batches).astype(np.int64)
    return SimBatchResult(counts, vertex_cost, edge_cost)


def simulate_single_seeds(
    graph: CSRGraph,
    candidates: np.ndarray,
    beta: int,
    rng: np.random.Generator,
    base_seeds: np.ndarray | None = None,
) -> SimBatchResult:
    """β simulations from ``{base_seeds} ∪ {v}`` for every candidate v.

    Returns per-candidate *summed* activation counts over the β runs (divide
    by β for the Oneshot estimate). Chunked so the batch × n state array
    stays under ``repro.ic.MAX_BATCH_CELLS`` cells.
    """
    base = np.asarray([] if base_seeds is None else base_seeds, np.int64)
    cand = np.asarray(candidates, dtype=np.int64)
    totals = np.zeros(len(cand), dtype=np.int64)
    vertex_cost = 0
    edge_cost = 0
    for j, seed_b, seed_v in single_seed_batches(cand, beta, base, graph.n):
        res = simulate_batch(graph, seed_b, seed_v, len(j), rng)
        # Fold per-simulation counts back onto candidates.
        np.add.at(totals, j // beta, res.activated)
        vertex_cost += res.vertex_cost
        edge_cost += res.edge_cost
    return SimBatchResult(totals, vertex_cost, edge_cost)
