"""Network registry: every entry builds and matches its documented shape."""
import pytest

from repro.experiments.instances import STAR_NETWORKS
from repro.graphs.networks import NETWORKS, build_network_pandas

SMALL = ["Karate", "Physicians_syn", "GrQc_syn", "WikiVote_syn", "BA_s", "BA_d"]


@pytest.mark.parametrize("name", list(NETWORKS))
def test_builds_and_simple(name):
    pdf = build_network_pandas(name)
    assert (pdf["src"] != pdf["dst"]).all()
    assert not pdf.duplicated().any()
    assert pdf["src"].min() >= 0 and pdf["dst"].min() >= 0


@pytest.mark.parametrize("name", ["Karate", "BA_s", "BA_d"])
def test_exact_networks_match_paper(name):
    spec = NETWORKS[name]
    pdf = build_network_pandas(name)
    n = len(set(pdf["src"]) | set(pdf["dst"]))
    assert n == spec.paper_n
    assert len(pdf) == spec.paper_m


@pytest.mark.parametrize("name", ["Physicians_syn"])
def test_substitutes_match_paper_scale(name):
    spec = NETWORKS[name]
    pdf = build_network_pandas(name)
    assert 0.8 * spec.paper_m <= len(pdf) <= 1.1 * spec.paper_m


@pytest.mark.parametrize("name", ["GrQc_syn", "WikiVote_syn"])
def test_scaled_substitutes_keep_density(name):
    spec = NETWORKS[name]
    pdf = build_network_pandas(name)
    n = len(set(pdf["src"]) | set(pdf["dst"]))
    ours = len(pdf) / n
    paper = spec.paper_m / spec.paper_n
    assert 0.5 * paper <= ours <= 2.0 * paper


@pytest.mark.parametrize("name", STAR_NETWORKS)
def test_large_substitutes(name):
    spec = NETWORKS[name]
    pdf = build_network_pandas(name)
    n = len(set(pdf["src"]) | set(pdf["dst"]))
    assert n >= 10_000  # big enough to behave like a ★ instance locally
    ours = len(pdf) / n
    paper = spec.paper_m / spec.paper_n
    assert 0.4 * paper <= ours <= 2.5 * paper


@pytest.mark.parametrize("name", ["GrQc_syn", "youtube_lite"])
def test_symmetric_substitutes(name):
    pdf = build_network_pandas(name)
    arcs = set(zip(pdf["src"], pdf["dst"]))
    assert all((v, u) in arcs for u, v in arcs)


def test_build_network_spark(spark):
    df = __import__("repro.graphs.networks", fromlist=["build_network"]).build_network(
        spark, "Karate"
    )
    assert df.count() == 156
