"""Snapshot estimator (Algorithm 3.3): correctness and submodularity."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ic
from repro.algorithms.snapshot import SnapshotEstimator
from repro.ic.exact import exact_singleton_influences
from tests.helpers import path_graph, random_tiny_graph


def _influence_estimate(est, seed_set):
    """Inf-hat(S) via telescoping marginals (the estimator is consistent:
    Σ marginal gains along any chain equals the set estimate)."""
    total = 0.0
    s = []
    for v in seed_set:
        vals = est.estimate_all(np.array(s, dtype=np.int64))
        total += vals[v]
        s.append(v)
    return total


def test_p1_estimates_exact():
    g = path_graph(4, p=1.0)
    est = SnapshotEstimator(g, 3, np.random.default_rng(0))
    vals = est.estimate_all(np.empty(0, dtype=np.int64))
    assert list(vals) == [4.0, 3.0, 2.0, 1.0]


def test_unbiased():
    rng = np.random.default_rng(1)
    g = random_tiny_graph(rng, n=6, m=9)
    exact = exact_singleton_influences(g)
    est = SnapshotEstimator(g, 4000, rng)
    vals = est.estimate_all(np.empty(0, dtype=np.int64))
    assert np.allclose(vals, exact, atol=0.15)


def test_sample_size_close_to_tau_m_tilde():
    g = path_graph(30, p=0.5)
    tau = 400
    est = SnapshotEstimator(g, tau, np.random.default_rng(2))
    expected = tau * g.m_tilde
    assert est.sample_size == pytest.approx(expected, rel=0.1)


def test_marginals_shrink_with_seed_set():
    # Monotonicity of coverage: marginal of v given S ≥ marginal given T ⊇ S.
    rng = np.random.default_rng(3)
    g = random_tiny_graph(rng, n=7, m=14)
    est = SnapshotEstimator(g, 200, rng)
    m_empty = est.estimate_all(np.empty(0, dtype=np.int64))
    m_after = est.estimate_all(np.array([0], dtype=np.int64))
    # Same fixed graphs → marginals can only shrink (submodularity).
    assert (m_after <= m_empty + 1e-9).all()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 10_000))
def test_submodular_property(u, v, seed):
    # f(S+x)-f(S) >= f(T+x)-f(T) with S={u} ⊆ T={u,v}: fixed live graphs
    # make the Snapshot estimator exactly submodular (§3.4.1).
    rng = np.random.default_rng(seed)
    g = random_tiny_graph(rng, n=7, m=12)
    est = SnapshotEstimator(g, 30, rng)
    S = np.array([u], dtype=np.int64)
    T = np.array(sorted({u, v}), dtype=np.int64)
    gain_s = est.estimate_all(S)
    gain_t = est.estimate_all(T)
    assert (gain_t <= gain_s + 1e-9).all()


def test_estimator_is_frozen_across_calls():
    # Same estimator, same query → identical values (graphs are fixed).
    g = path_graph(5, p=0.5)
    est = SnapshotEstimator(g, 50, np.random.default_rng(4))
    a = est.estimate_all(np.empty(0, dtype=np.int64))
    b = est.estimate_all(np.empty(0, dtype=np.int64))
    assert np.array_equal(a, b)


def test_costs_accumulate():
    g = path_graph(5, p=0.5)
    est = SnapshotEstimator(g, 10, np.random.default_rng(5))
    assert est.vertex_cost == 0  # Build is not charged scan cost
    est.estimate_all(np.empty(0, dtype=np.int64))
    assert est.vertex_cost > 0


def test_rejects_bad_tau():
    with pytest.raises(ValueError):
        SnapshotEstimator(path_graph(2), 0, np.random.default_rng(0))


def test_chunking_consistency(monkeypatch):
    g = path_graph(6, p=1.0)
    rng1, rng2 = np.random.default_rng(6), np.random.default_rng(6)
    a = SnapshotEstimator(g, 7, rng1).estimate_all(np.empty(0, np.int64))
    small = SnapshotEstimator(g, 7, rng2)
    monkeypatch.setattr(ic, "MAX_BATCH_CELLS", 13)
    b = small.estimate_all(np.empty(0, np.int64))
    assert np.array_equal(a, b)
