"""The shared RR-set influence oracle (§5.2).

The paper evaluates every recorded seed set with one fixed unbiased
estimator per influence graph — 10⁷ RR sets ℛ_𝒢, Inf(S) ≈ n · F_ℛ(S) — so
identical seed sets get identical estimates across algorithms and trials.
``build_oracle`` generates the collection in one Spark job: batches of RR
sets fan out as an RDD over the broadcast graph, each worker groups its
batches by vertex (``rr_piece``), and the driver merges the groups in
linear time (``merge_pieces``). Estimates are evaluated locally, over RR
ids grouped by vertex, inside the trial runner.

The 99% confidence half-width for an estimate is 1.288·n/√θ (a Bernoulli
proportion at z = 2.576), as in the paper.
"""
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.graphs.csr import CSRGraph
from repro.ic.rr import rr_batch, random_targets
from repro.util import trial_rng


@dataclass(frozen=True)
class RROracle:
    """RR membership grouped by vertex for O(Σ|R_v|) seed-set evaluation."""

    n: int
    theta: int
    vert_indptr: np.ndarray  # int64[n+1]
    rr_ids: np.ndarray  # int64[K], grouped by vertex

    @property
    def ci99_halfwidth(self) -> float:
        return 1.288 * self.n / np.sqrt(self.theta)

    def estimate(self, seeds) -> float:
        """Inf(S) ≈ n · F_ℛ(S) for one seed set."""
        seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
        ids = np.concatenate(
            [
                self.rr_ids[self.vert_indptr[v] : self.vert_indptr[v + 1]]
                for v in seeds
            ]
        ) if len(seeds) else np.empty(0, dtype=np.int64)
        covered = len(np.unique(ids))
        return self.n * covered / self.theta

    def singleton_estimates(self) -> np.ndarray:
        """Inf({v}) for all v in one pass (Table 4's workhorse)."""
        counts = np.diff(self.vert_indptr)
        return self.n * counts / self.theta


def rr_piece(
    graph: CSRGraph, base_seed: int, batch: int, count: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """Generate RR batch ``batch`` and group it by vertex.

    Returns ``(batch, counts, ids)``: ``counts[v]`` RR sets of the batch
    contain v, and ``ids`` lists their batch-local ids, vertex by vertex,
    ascending within a vertex. The batch draws from
    ``trial_rng(base_seed, batch)``.
    """
    rng = trial_rng(base_seed, batch)
    res = rr_batch(graph, random_targets(graph.n, count, rng), rng)
    # rr_batch lists members by (rr_id, vertex), so a stable sort by
    # vertex keeps each vertex's ids ascending.
    order = np.argsort(res.vertex, kind="stable")
    counts = np.bincount(res.vertex, minlength=graph.n).astype(np.int64)
    return batch, counts, res.rr_id[order]


def merge_pieces(
    n: int, theta: int, batch_size: int, pieces
) -> RROracle:
    """Merge vertex-grouped batches into one oracle in O(K + B·n).

    Batch b holds RR ids ``b * batch_size`` onwards; its ids for vertex v go
    after those of every earlier batch, so each vertex's ids stay ascending.
    Raises ``ValueError`` on a missing or duplicate batch, on a malformed
    piece and on an empty RR set (every RR set contains its target).
    """
    n_batches = -(-theta // batch_size)
    by_batch = {}
    for batch, counts, ids in pieces:
        if not 0 <= batch < n_batches or batch in by_batch:
            raise ValueError(f"unexpected or duplicate RR batch {batch}")
        by_batch[batch] = (counts, ids)
    if len(by_batch) != n_batches:
        missing = sorted(set(range(n_batches)) - set(by_batch))
        raise ValueError(f"missing RR batches {missing}")
    total = np.zeros(n, dtype=np.int64)
    for b in range(n_batches):
        counts, ids = by_batch[b]
        size = min(batch_size, theta - b * batch_size)
        if counts.shape != (n,) or counts.sum() != len(ids):
            raise ValueError(f"RR batch {b}: counts do not match its ids")
        if len(ids) and (ids.min() < 0 or ids.max() >= size):
            raise ValueError(f"RR batch {b}: id out of range [0, {size})")
        if np.bincount(ids, minlength=size).min() == 0:
            raise ValueError(f"RR batch {b}: empty RR set")
        total += counts
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(total, out=indptr[1:])
    rr_ids = np.empty(indptr[-1], dtype=np.int64)
    start = indptr[:-1].copy()  # next free slot per vertex
    for b in range(n_batches):
        counts, ids = by_batch[b]
        first = np.cumsum(counts) - counts  # first entry of v within ids
        dest = np.repeat(start - first, counts) + np.arange(len(ids))
        rr_ids[dest] = ids + b * batch_size
        start += counts
    return RROracle(n, theta, indptr, rr_ids)


def build_oracle_local(
    graph: CSRGraph, theta: int, base_seed: int = 7
) -> RROracle:
    """Single-process build (tests, small θ): one batch of θ RR sets."""
    piece = rr_piece(graph, base_seed, 0, theta)
    return merge_pieces(graph.n, theta, theta, [piece])


def build_oracle(
    spark: SparkSession,
    graph: CSRGraph,
    theta: int,
    base_seed: int = 7,
    batch_size: int = 8192,
) -> RROracle:
    """Distributed build: one Spark job; every worker groups its own RR
    batches by vertex and the driver merges them."""
    sc = spark.sparkContext
    n_batches = -(-theta // batch_size)
    bc = sc.broadcast(graph)

    def gen(batches):
        for b in batches:
            count = min(batch_size, theta - b * batch_size)
            yield rr_piece(bc.value, base_seed, b, count)

    pieces = (
        sc.parallelize(range(n_batches), min(n_batches, sc.defaultParallelism))
        .mapPartitions(gen)
        .collect()
    )
    return merge_pieces(graph.n, theta, batch_size, pieces)

