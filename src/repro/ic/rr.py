"""Batched reverse-reachable (RR) set generation (the RIS primitive).

An RR set for target z is the set of vertices that reach z in G ~ 𝒢
(Definition 3.1); it is generated by a reverse BFS from z that examines each
visited vertex's in-edges with a fresh coin (Borgs et al.'s reverse
simulation). A batch of θ RR sets runs as one :func:`repro.ic.frontier_bfs`
over the in-adjacency of θ disjoint copies of the graph.

Costs per the paper (§3.5.2): vertex cost = |R| (so E = EPT), edge cost =
w(R) = Σ_{v∈R} d⁻(v) — every in-edge of a visited vertex is examined.
"""
from dataclasses import dataclass

import numpy as np

from repro import ic
from repro.graphs.csr import CSRGraph


@dataclass
class RRBatchResult:
    rr_id: np.ndarray  # int64[K] — RR-set index per membership entry
    vertex: np.ndarray  # int64[K] — member vertex
    sizes: np.ndarray  # int64[θ] — |R| per RR set
    weights: np.ndarray  # int64[θ] — w(R) = Σ_{v∈R} d⁻(v)
    vertex_cost: int  # Σ sizes
    edge_cost: int  # Σ weights


def rr_batch(
    graph: CSRGraph, targets: np.ndarray, rng: np.random.Generator
) -> RRBatchResult:
    """Generate one RR set per entry of ``targets`` (vertex ids)."""
    n = graph.n
    theta = len(targets)
    visited, vertex_cost, edge_cost = ic.frontier_bfs(
        graph.in_indptr, graph.in_src, graph.in_p,
        np.arange(theta, dtype=np.int64) * n + targets, n, theta, rng,
    )
    rr_id, vertex = np.divmod(visited, n)
    sizes = np.bincount(rr_id, minlength=theta).astype(np.int64)
    weights = np.zeros(theta, dtype=np.int64)
    np.add.at(weights, rr_id, graph.in_degree()[vertex])
    return RRBatchResult(rr_id, vertex, sizes, weights, vertex_cost, edge_cost)


def random_targets(
    n: int, theta: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniformly random targets, one per RR set (the paper's first PRNG)."""
    return rng.integers(0, n, size=theta, dtype=np.int64)


def rr_sets(
    graph: CSRGraph,
    theta: int,
    rng: np.random.Generator,
) -> RRBatchResult:
    """θ RR sets for uniformly random targets, chunked so the θ × n state
    array stays under ``repro.ic.MAX_BATCH_CELLS`` cells."""
    per_chunk = max(1, ic.MAX_BATCH_CELLS // max(1, graph.n))
    parts: list[RRBatchResult] = []
    done = 0
    while done < theta:
        b = min(per_chunk, theta - done)
        parts.append(rr_batch(graph, random_targets(graph.n, b, rng), rng))
        done += b
    if len(parts) == 1:
        return parts[0]
    offs = np.cumsum([0] + [len(p.sizes) for p in parts[:-1]])
    return RRBatchResult(
        np.concatenate([p.rr_id + o for p, o in zip(parts, offs)]),
        np.concatenate([p.vertex for p in parts]),
        np.concatenate([p.sizes for p in parts]),
        np.concatenate([p.weights for p in parts]),
        sum(p.vertex_cost for p in parts),
        sum(p.edge_cost for p in parts),
    )
