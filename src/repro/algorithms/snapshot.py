"""Algorithm 3.3 — naive Snapshot estimator.

Build samples τ live-edge random graphs once; Estimate(S, v) returns
(1/τ) Σ_i [r_{G(i)}(S + v) − r_{G(i)}(S)] by plain reachability scans
(Update does nothing — no graph-reduction speed-ups, per the naive
implementation the paper measures). r_{G(i)}(S) is computed once per greedy
iteration per graph and its scan charged once, then each candidate's
r(S+v) scan is charged in full.

Because the τ graphs are fixed, this estimator is monotone and submodular
(§3.4.1) — property-tested in tests/test_snapshot.py.

Sample size = total number of live edges stored (≈ τ·m̃ in expectation).
"""
import numpy as np

from repro.graphs.csr import CSRGraph
from repro.ic import single_seed_batches
from repro.ic.live import reach_batch, sample_live_set


class SnapshotEstimator:
    def __init__(
        self, graph: CSRGraph, tau: int, rng: np.random.Generator
    ) -> None:
        if tau < 1:
            raise ValueError("tau must be >= 1")
        self.graph = graph
        self.tau = tau
        self.live = sample_live_set(graph, tau, rng)
        self.vertex_cost = 0
        self.edge_cost = 0
        self.sample_size = int(self.live.total_live_edges)

    def _reach(self, cand: np.ndarray, base: np.ndarray) -> np.ndarray:
        """r_{G(i)}(base ∪ {v}) for every candidate v and layer i; returns a
        (len(cand), τ) matrix. Batch j is candidate j // τ on layer j % τ."""
        tau = self.tau
        out = np.empty(len(cand) * tau, dtype=np.int64)
        for j, seed_b, seed_v in single_seed_batches(
            cand, tau, base, self.graph.n
        ):
            res = reach_batch(self.live, j % tau, seed_b, seed_v, len(j))
            out[j] = res.reached
            self.vertex_cost += res.vertex_cost
            self.edge_cost += res.edge_cost
        return out.reshape(len(cand), tau)

    def estimate_all(self, current_seeds: np.ndarray) -> np.ndarray:
        current = np.asarray(current_seeds, dtype=np.int64)
        if len(current):
            # r_i(S), scanned once: S as {S[0]} ∪ S[1:].
            base = self._reach(current[:1], current[1:])[0]
        else:
            base = np.zeros(self.tau, dtype=np.int64)
        reach = self._reach(np.arange(self.graph.n, dtype=np.int64), current)
        return (reach - base[None, :]).mean(axis=1)

    def update(self, chosen: int) -> None:  # noqa: ARG002 — per Alg 3.3
        return None
