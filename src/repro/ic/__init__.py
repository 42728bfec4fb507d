"""Independent-cascade (IC) model substrate.

Vectorized NumPy kernels over :class:`repro.graphs.csr.CSRGraph`. The three
sampling primitives are thin wrappers around one disjoint-union BFS,
:func:`frontier_bfs`; they differ only in where the randomness comes from:

* :mod:`repro.ic.forward` — batched forward Monte-Carlo diffusion (Oneshot):
  fresh coins on out-edges.
* :mod:`repro.ic.live` — live-edge graph sampling + batched reachability
  (Snapshot): no coins, the live edges were sampled in Build.
* :mod:`repro.ic.rr` — batched reverse-reachable set generation (RIS):
  fresh coins on in-edges.
* :mod:`repro.ic.exact` — exact influence by live-graph enumeration (tiny
  graphs; test oracle).

All kernels count *traversal cost* with the paper's definitions (§3.2): the
vertex cost is the number of vertices scanned, the edge cost the number of
edges examined.
"""
import numpy as np

# Cap on B·n, the cells of one batch's dense visited array. The chunked
# callers (simulate_single_seeds, rr_sets, SnapshotEstimator) read it at
# call time.
MAX_BATCH_CELLS = 50_000_000


def gather_edges(indptr: np.ndarray, frontier: np.ndarray):
    """Flatten the adjacency ranges of ``frontier`` vertices.

    Returns ``(eidx, owner)`` where ``eidx`` are edge indices into the CSR
    arrays and ``owner[i]`` is the position in ``frontier`` owning edge i.
    """
    cnt = indptr[frontier + 1] - indptr[frontier]
    total = int(cnt.sum())
    if total == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(cnt) - cnt, cnt
    )
    eidx = np.repeat(indptr[frontier], cnt) + offsets
    owner = np.repeat(np.arange(len(frontier), dtype=np.int64), cnt)
    return eidx, owner


def frontier_bfs(
    indptr: np.ndarray,
    nbr: np.ndarray,
    p: np.ndarray | None,
    key: np.ndarray,
    n: int,
    n_batches: int,
    rng: np.random.Generator | None,
    row: np.ndarray | None = None,
) -> tuple[np.ndarray, int, int]:
    """BFS over ``n_batches`` disjoint copies of an n-vertex graph.

    Batch b's vertex v has key b·n + v; the BFS starts from ``key``. Vertex
    v of batch b scans CSR row ``row[b] + v`` (row v without ``row``) and
    reaches ``nbr[e]`` over each examined edge e that survives its coin
    flip, drawn as one ``rng.random`` per level over the level's edges in
    CSR order. With ``p=None`` every edge is live and no coin is drawn.

    Returns ``(visited keys ascending, vertex cost, edge cost)``: each
    visited vertex is scanned once and all its edges are examined.
    """
    key = np.unique(key)
    visited = np.zeros(n_batches * n, dtype=bool)
    visited[key] = True
    vertex_cost = 0
    edge_cost = 0
    while len(key):
        f_b, f_v = key // n, key % n
        vertex_cost += len(key)
        eidx, owner = gather_edges(
            indptr, f_v if row is None else row[f_b] + f_v
        )
        edge_cost += len(eidx)
        if len(eidx) == 0:
            break
        hit = slice(None) if p is None else rng.random(len(eidx)) < p[eidx]
        key = np.unique(f_b[owner[hit]] * n + nbr[eidx[hit]])
        key = key[~visited[key]]
        visited[key] = True
    return np.flatnonzero(visited), vertex_cost, edge_cost


def single_seed_batches(
    cand: np.ndarray, copies: int, base: np.ndarray, n: int
):
    """Batches j = 0 … len(cand)·copies − 1, batch j seeded with
    ``base ∪ {cand[j // copies]}``, in chunks of at most
    ``MAX_BATCH_CELLS // n`` batches (at least one).

    Yields ``(j, seed_b, seed_v)`` per chunk: the chunk's batch numbers and
    its seeds, with ``seed_b`` numbering the chunk's batches from 0.
    """
    total = len(cand) * copies
    size = max(1, MAX_BATCH_CELLS // max(1, n))
    for lo in range(0, total, size):
        j = np.arange(lo, min(lo + size, total), dtype=np.int64)
        b = j - lo
        yield j, np.concatenate([b, np.repeat(b, len(base))]), np.concatenate(
            [cand[j // copies], np.tile(base, len(j))]
        )
