"""Reverse-reachable set generation: correctness, unbiasedness, costs."""
import numpy as np
import pytest

from repro import ic
from repro.ic.exact import exact_influence
from repro.ic.rr import random_targets, rr_batch, rr_sets
from tests.helpers import graph_from_edges, path_graph, random_tiny_graph, ref_rr_set


class TestDeterministic:
    def test_p1_path_ancestors(self):
        g = path_graph(4, p=1.0)
        res = rr_batch(g, np.array([3]), np.random.default_rng(0))
        assert sorted(res.vertex.tolist()) == [0, 1, 2, 3]
        assert res.sizes[0] == 4
        # w(R) = Σ d⁻ over members = 1+1+1+0 (vertex 0 has no in-edge).
        assert res.weights[0] == 3

    def test_target_always_member(self):
        rng = np.random.default_rng(1)
        g = random_tiny_graph(rng, n=6, m=8)
        res = rr_batch(g, np.arange(6, dtype=np.int64), rng)
        for i in range(6):
            assert i in set(res.vertex[res.rr_id == i])

    def test_tiny_p_singleton(self):
        g = path_graph(3, p=1e-12)
        res = rr_batch(g, np.array([2]), np.random.default_rng(0))
        assert res.sizes[0] == 1
        assert res.weights[0] == 1  # d⁻(2) = 1 examined


class TestUnbiasedness:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_membership_probability(self, seed):
        # Pr[v ∈ R] = Inf(v)/n for a random-target RR set (Observation 3.2
        # applied to S = {v}).
        rng = np.random.default_rng(seed)
        g = random_tiny_graph(rng, n=5, m=7)
        theta = 30_000
        res = rr_sets(g, theta, rng)
        counts = np.bincount(res.vertex, minlength=g.n)
        for v in range(g.n):
            inf_v = exact_influence(g, [v])
            est = g.n * counts[v] / theta
            assert est == pytest.approx(inf_v, abs=0.12), v

    def test_seed_set_coverage(self):
        rng = np.random.default_rng(2)
        g = random_tiny_graph(rng, n=5, m=7)
        S = [0, 3]
        inf_s = exact_influence(g, S)
        theta = 30_000
        res = rr_sets(g, theta, rng)
        member = np.isin(res.vertex, S)
        covered = len(np.unique(res.rr_id[member]))
        assert g.n * covered / theta == pytest.approx(inf_s, abs=0.12)

    def test_expected_size_is_ept(self):
        rng = np.random.default_rng(3)
        g = random_tiny_graph(rng, n=5, m=7)
        ept = sum(exact_influence(g, [v]) for v in range(g.n)) / g.n
        res = rr_sets(g, 20_000, rng)
        assert res.sizes.mean() == pytest.approx(ept, abs=0.08)

    def test_matches_reference_sizes(self):
        rng = np.random.default_rng(4)
        g = random_tiny_graph(rng, n=7, m=12)
        T = 4000
        res = rr_batch(g, np.full(T, 4, dtype=np.int64), rng)
        ref = np.array(
            [
                len(ref_rr_set(g, 4, np.random.default_rng(50_000 + t)))
                for t in range(T)
            ]
        )
        se = np.sqrt(res.sizes.var() / T + ref.var() / T)
        assert abs(res.sizes.mean() - ref.mean()) < max(5 * se, 0.05)


class TestCosts:
    def test_weights_are_indegree_sums(self):
        rng = np.random.default_rng(5)
        g = random_tiny_graph(rng, n=8, m=14)
        res = rr_batch(g, random_targets(g.n, 200, rng), rng)
        indeg = g.in_degree()
        for i in range(200):
            members = res.vertex[res.rr_id == i]
            assert res.weights[i] == indeg[members].sum()
        assert res.vertex_cost == res.sizes.sum()
        assert res.edge_cost == res.weights.sum()

    def test_chunked_generation_counts(self, monkeypatch):
        g = path_graph(4, p=0.5)
        monkeypatch.setattr(ic, "MAX_BATCH_CELLS", 64)
        res = rr_sets(g, 1000, np.random.default_rng(6))
        assert len(res.sizes) == 1000
        assert res.rr_id.max() == 999 or 999 in res.rr_id


class TestRandomTargets:
    def test_uniform(self):
        rng = np.random.default_rng(7)
        t = random_targets(10, 50_000, rng)
        counts = np.bincount(t, minlength=10)
        assert counts.min() > 4000
