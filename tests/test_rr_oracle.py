"""Shared RR influence oracle: build paths and evaluation."""
import numpy as np
import pytest

from repro.experiments.rr_oracle import build_oracle, build_oracle_local
from repro.graphs import assign_probabilities, build_network, to_csr
from repro.ic.exact import exact_influence, exact_singleton_influences
from tests.helpers import path_graph, random_tiny_graph


@pytest.fixture(scope="module")
def karate_graph(spark):
    return to_csr(
        assign_probabilities(build_network(spark, "Karate"), "UC_0.1")
    )


def test_local_build_unbiased():
    rng = np.random.default_rng(0)
    g = random_tiny_graph(rng, n=6, m=9)
    oracle = build_oracle_local(g, 40_000)
    exact = exact_singleton_influences(g)
    assert np.allclose(oracle.singleton_estimates(), exact, atol=0.12)


def test_seed_set_estimate_matches_exact():
    rng = np.random.default_rng(1)
    g = random_tiny_graph(rng, n=6, m=9)
    oracle = build_oracle_local(g, 40_000)
    S = [0, 4]
    assert oracle.estimate(S) == pytest.approx(
        exact_influence(g, S), abs=0.12
    )


def test_estimate_monotone():
    g = path_graph(5, p=0.5)
    oracle = build_oracle_local(g, 5000)
    assert oracle.estimate([0, 1]) >= oracle.estimate([0]) - 1e-9


def test_distributed_build_matches_local_statistics(spark, karate_graph):
    theta = 1 << 13
    dist = build_oracle(spark, karate_graph, theta)
    local = build_oracle_local(karate_graph, theta)
    assert dist.theta == local.theta == theta
    # Same graph, independent randomness → singleton estimates agree to CI.
    ci = dist.ci99_halfwidth + local.ci99_halfwidth
    d = np.abs(dist.singleton_estimates() - local.singleton_estimates())
    assert (d < 2 * ci + 0.3).all()


def test_ci_formula(karate_graph):
    oracle = build_oracle_local(karate_graph, 1 << 12)
    assert oracle.ci99_halfwidth == pytest.approx(
        1.288 * 34 / np.sqrt(1 << 12)
    )

