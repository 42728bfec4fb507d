"""Registry of the paper's networks (exact or substituted).

``build_network(spark, name)`` returns a Spark edge-list DataFrame
(``src``, ``dst``). Substitutions for offline-unavailable SNAP/KONECT data
are documented in DESIGN.md §4; scaled-down networks keep the structural
features (degree skew, symmetry, density, core–whisker) the paper's
findings depend on.
"""
from dataclasses import dataclass
from typing import Callable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graphs import generators, karate


@dataclass(frozen=True)
class NetworkSpec:
    """One network: how to build it, and the paper's size for it."""

    name: str
    builder: Callable[[], pd.DataFrame]
    kind: str  # "exact" | "exact-model" | "substitute"
    paper_n: int
    paper_m: int


def _physicians() -> pd.DataFrame:
    # Paper: n=241, m=1,098, Δ⁺=9, Δ⁻=26 (directed advice-seeking network).
    return generators.directed_scale_free(
        241, 1098, max_out=9, in_skew=0.55, seed=41
    )


def _ca_grqc() -> pd.DataFrame:
    # Paper: n=5,242, m=28,968 arcs, symmetric, clustering 0.63. Scaled to
    # n≈1,500 keeping density m/n ≈ 5.5-6.6 and the clique-core structure;
    # power-law clique sizes make the big cliques percolate under UC_0.1
    # (the paper's giant-component finding on ca-GrQc).
    return generators.community_collab(
        1500, whisker_frac=0.3, extra_edge_frac=0.08,
        clique_alpha=2.1, max_clique=40, seed=42,
    )


def _wiki_vote() -> pd.DataFrame:
    # Paper: n=7,115, m=103,689, Δ⁺=893, Δ⁻=457 (very skewed). Scaled to
    # n≈1,500 keeping density m/n ≈ 14.6 and heavy degree tails on both
    # sides (paper Δ⁺/n ≈ 0.13 → cap ≈ 190 here).
    return generators.directed_scale_free(
        1500, 21_900, max_out=190, in_skew=0.85, out_skew=0.8, seed=43
    )


def _youtube_lite() -> pd.DataFrame:
    # Paper: com-Youtube n=1.13M, m=5.98M, symmetric, scale-free.
    # Scaled to n=12,000, density m/n ≈ 5.3 via BA (symmetrized).
    pdf = generators.barabasi_albert(12_000, 3, seed=44)
    rev = pdf.rename(columns={"src": "dst", "dst": "src"})
    return (
        pd.concat([pdf, rev[["src", "dst"]]], ignore_index=True)
        .drop_duplicates(ignore_index=True)
    )


def _pokec_lite() -> pd.DataFrame:
    # Paper: soc-Pokec n=1.63M, m=30.6M, directed, m/n ≈ 18.8.
    # Scaled to n=15,000 with m/n ≈ 18 and skewed in-degree.
    return generators.directed_scale_free(
        15_000, 270_000, max_out=120, in_skew=0.75, seed=45
    )


NETWORKS: dict[str, NetworkSpec] = {
    "Karate": NetworkSpec(
        "Karate", karate.karate_edges_pandas, "exact", 34, 156
    ),
    "Physicians_syn": NetworkSpec(
        "Physicians_syn", _physicians, "substitute", 241, 1098
    ),
    "GrQc_syn": NetworkSpec(
        "GrQc_syn", _ca_grqc, "substitute", 5242, 28_968
    ),
    "WikiVote_syn": NetworkSpec(
        "WikiVote_syn", _wiki_vote, "substitute", 7115, 103_689
    ),
    "youtube_lite": NetworkSpec(
        "youtube_lite", _youtube_lite, "substitute", 1_134_889, 5_975_248
    ),
    "pokec_lite": NetworkSpec(
        "pokec_lite", _pokec_lite, "substitute", 1_632_802, 30_622_564
    ),
    "BA_s": NetworkSpec(
        "BA_s", lambda: generators.barabasi_albert(1000, 1, seed=46),
        "exact-model", 1000, 999,
    ),
    "BA_d": NetworkSpec(
        "BA_d", lambda: generators.barabasi_albert(1000, 11, seed=47),
        "exact-model", 1000, 10_879,
    ),
}


def build_network(spark: SparkSession, name: str) -> DataFrame:
    """Build a registered network as a Spark edge-list DataFrame."""
    spec = NETWORKS[name]
    return spark.createDataFrame(spec.builder())


def build_network_pandas(name: str) -> pd.DataFrame:
    """Build a registered network as a pandas edge list (driver-side)."""
    return NETWORKS[name].builder()
