"""Forward IC simulation kernel: exact cases, unbiasedness, cost identities."""
import numpy as np
import pytest

from repro import ic
from repro.ic.exact import exact_influence
from repro.ic.forward import simulate_batch, simulate_single_seeds
from tests.helpers import (
    graph_from_edges,
    path_graph,
    random_tiny_graph,
    ref_simulate_ic,
    star_graph,
)


def _simulate(graph, seeds, rng):
    seeds = np.asarray(seeds, dtype=np.int64)
    res = simulate_batch(
        graph, np.zeros(len(seeds), np.int64), seeds, 1, rng
    )
    return int(res.activated[0]), res


class TestDeterministic:
    def test_p1_path_full_reach(self):
        g = path_graph(5, p=1.0)
        rng = np.random.default_rng(0)
        count, res = _simulate(g, [0], rng)
        assert count == 5
        assert res.vertex_cost == 5  # every activated vertex scanned once
        assert res.edge_cost == 4  # each vertex's single out-edge examined

    def test_p1_path_middle_seed(self):
        g = path_graph(5, p=1.0)
        count, _ = _simulate(g, [2], np.random.default_rng(0))
        assert count == 3  # 2, 3, 4

    def test_p0_only_seeds(self):
        g = star_graph(4, p=1e-12)
        count, res = _simulate(g, [0], np.random.default_rng(0))
        assert count == 1
        assert res.vertex_cost == 1
        assert res.edge_cost == 4  # all out-edges examined even on failure

    def test_multi_seed_dedupe(self):
        g = path_graph(4, p=1.0)
        count, _ = _simulate(g, [0, 0, 1], np.random.default_rng(0))
        assert count == 4

    def test_empty_seed_set(self):
        g = path_graph(3, p=1.0)
        res = simulate_batch(
            g, np.empty(0, np.int64), np.empty(0, np.int64), 2,
            np.random.default_rng(0),
        )
        assert list(res.activated) == [0, 0]

    def test_cycle_p1(self):
        g = graph_from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        count, res = _simulate(g, [1], np.random.default_rng(0))
        assert count == 3
        assert res.edge_cost == 3


class TestUnbiasedness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_exact_influence(self, seed):
        rng = np.random.default_rng(seed)
        g = random_tiny_graph(rng, n=6, m=9)
        exact = exact_influence(g, [0])
        T = 6000
        res = simulate_batch(
            g,
            np.arange(T, dtype=np.int64),
            np.zeros(T, dtype=np.int64),
            T,
            rng,
        )
        mean = res.activated.mean()
        sd = res.activated.std() / np.sqrt(T)
        assert abs(mean - exact) < max(5 * sd, 0.05)

    def test_matches_reference_distribution(self):
        # Batched kernel vs naive per-edge reference: equal means.
        rng = np.random.default_rng(3)
        g = random_tiny_graph(rng, n=7, m=12)
        T = 4000
        res = simulate_batch(
            g, np.arange(T, dtype=np.int64), np.full(T, 2, np.int64), T, rng
        )
        ref = np.array(
            [ref_simulate_ic(g, [2], np.random.default_rng(10_000 + t)) for t in range(T)]
        )
        se = np.sqrt(res.activated.var() / T + ref.var() / T)
        assert abs(res.activated.mean() - ref.mean()) < max(5 * se, 0.05)


class TestCostAccounting:
    def test_vertex_cost_equals_total_activations(self):
        rng = np.random.default_rng(4)
        g = random_tiny_graph(rng, n=8, m=14)
        T = 500
        res = simulate_batch(
            g, np.arange(T, dtype=np.int64), np.zeros(T, np.int64), T, rng
        )
        assert res.vertex_cost == res.activated.sum()

    def test_edge_cost_is_outdeg_of_activated(self):
        # On a p=1 star from the hub: edge cost = d⁺(hub) + 0s.
        g = star_graph(6, p=1.0)
        _, res = _simulate(g, [0], np.random.default_rng(0))
        assert res.edge_cost == 6
        assert res.vertex_cost == 7


class TestSingleSeedScan:
    def test_shape_and_scaling(self):
        g = path_graph(4, p=1.0)
        rng = np.random.default_rng(0)
        res = simulate_single_seeds(g, np.arange(4, dtype=np.int64), 3, rng)
        # From vertex i the whole suffix activates: total = 3 * (4 - i).
        assert list(res.activated) == [12, 9, 6, 3]

    def test_base_seeds_included(self):
        g = path_graph(4, p=1.0)
        rng = np.random.default_rng(0)
        res = simulate_single_seeds(
            g, np.array([3]), 2, rng, base_seeds=np.array([0])
        )
        assert list(res.activated) == [8]  # all 4 vertices, twice

    def test_chunking_matches_unchunked(self, monkeypatch):
        g = path_graph(6, p=1.0)
        a = simulate_single_seeds(
            g, np.arange(6, dtype=np.int64), 4, np.random.default_rng(1)
        )
        monkeypatch.setattr(ic, "MAX_BATCH_CELLS", 7)  # forces many chunks
        b = simulate_single_seeds(
            g, np.arange(6, dtype=np.int64), 4, np.random.default_rng(1)
        )
        assert list(a.activated) == list(b.activated)
        assert a.vertex_cost == b.vertex_cost
        assert a.edge_cost == b.edge_cost
