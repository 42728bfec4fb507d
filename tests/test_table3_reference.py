"""Table 3's Spark statistics against a pandas/NumPy reference.

The reference reads the same edge list on the driver: degrees by counting
rows, global clustering as 3 × triangles / connected triplets of the
simple undirected graph (self-loops and duplicate arcs dropped), with
triangles as trace(A³)/6 of its adjacency matrix.
"""
import numpy as np
import pandas as pd
import pytest

from repro.graphs.networks import build_network_pandas
from repro.graphs.stats import clustering_coefficient, degree_stats


def ref_degree_stats(pdf: pd.DataFrame) -> dict:
    return {
        "n": len(pd.unique(pd.concat([pdf["src"], pdf["dst"]]))),
        "m": len(pdf),
        "max_out": int(pdf["src"].value_counts().max()),
        "max_in": int(pdf["dst"].value_counts().max()),
    }


def ref_clustering(pdf: pd.DataFrame) -> float:
    ids, flat = np.unique(
        pdf[["src", "dst"]].to_numpy().ravel(), return_inverse=True
    )
    u, v = flat.reshape(-1, 2).T
    a = np.zeros((len(ids), len(ids)), dtype=np.int64)
    a[u, v] = a[v, u] = 1
    np.fill_diagonal(a, 0)
    deg = a.sum(axis=1)
    triplets = int((deg * (deg - 1) // 2).sum())
    if triplets == 0:
        return 0.0
    triangles = int(np.trace(a @ a @ a)) // 6
    return float(3 * triangles / triplets)


EDGE_CASES = {
    # No pair of distinct vertices: no triplet, so clustering is 0.0.
    "self_loops_only": [(0, 0), (1, 1), (2, 2)],
    # Vertex 3 is only ever a destination.
    "dst_only_vertex": [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3)],
    # Duplicate arcs count in m and the degrees, once in clustering.
    "duplicate_arcs": [(0, 1), (0, 1), (1, 2), (2, 0), (2, 0), (2, 3), (2, 3)],
}


def edge_list(case: str) -> pd.DataFrame:
    if case in EDGE_CASES:
        return pd.DataFrame(EDGE_CASES[case], columns=["src", "dst"])
    return build_network_pandas(case)


@pytest.mark.parametrize(
    "case", ["Karate", "Physicians_syn", "BA_s", *EDGE_CASES]
)
def test_table3_stats_match_reference(spark, case):
    pdf = edge_list(case)
    edges = spark.createDataFrame(pdf)
    assert degree_stats(edges) == ref_degree_stats(pdf)
    assert clustering_coefficient(edges) == ref_clustering(pdf)
