"""Network statistics for Table 3 (n, m, Δ⁺, Δ⁻, clustering, avg distance).

Degrees and triangle counting run in the DataFrame API, one action each:
``degree_stats`` is one aggregation over both ends of every arc, and
``clustering_coefficient`` counts triangles with the canonical Catalyst
self-join pattern and fetches them together with the triplet sum. Average
distance uses an exact local BFS and is only computed for small graphs (the
paper reports it only for Karate and the BA networks).
"""
import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graphs.csr import CSRGraph
from repro.ic import gather_edges


def degree_stats(edges: DataFrame) -> dict:
    """n, m, max out-degree, max in-degree from the directed edge list.

    One aggregation and one action: each arc counts once for its source's
    out-degree and once for its destination's in-degree.
    """
    ends = edges.select(
        F.explode(
            F.array(
                F.struct(F.col("src").alias("v"), F.lit(1).alias("o"),
                         F.lit(0).alias("i")),
                F.struct(F.col("dst").alias("v"), F.lit(0).alias("o"),
                         F.lit(1).alias("i")),
            )
        ).alias("e")
    ).select("e.*")
    deg = ends.groupBy("v").agg(F.sum("o").alias("o"), F.sum("i").alias("i"))
    row = deg.agg(
        F.count("*").alias("n"),
        F.sum("o").alias("m"),
        F.max("o").alias("max_out"),
        F.max("i").alias("max_in"),
    ).collect()[0]
    return {k: int(row[k]) for k in ("n", "m", "max_out", "max_in")}


def _undirected(edges: DataFrame) -> DataFrame:
    """Canonical u<v undirected edge set underlying the directed list."""
    return (
        edges.select(
            F.least("src", "dst").alias("u"), F.greatest("src", "dst").alias("v")
        )
        .where(F.col("u") != F.col("v"))
        .distinct()
    )


def clustering_coefficient(edges: DataFrame) -> float:
    """Global clustering: 3 × triangles / connected triplets (undirected).

    The triplet sum and the triangle count are two scalar aggregates,
    cross-joined so that one ``collect`` fetches both.
    """
    und = _undirected(edges)
    deg = (
        und.select(F.col("u").alias("x"))
        .union(und.select(F.col("v").alias("x")))
        .groupBy("x").agg(F.count("*").alias("d"))
    )
    triplets = deg.agg(F.sum(F.col("d") * (F.col("d") - 1) / 2).alias("t"))
    e1 = und.select(F.col("u").alias("a"), F.col("v").alias("b"))
    e2 = und.select(F.col("u").alias("b"), F.col("v").alias("c"))
    e3 = und.select(F.col("u").alias("a"), F.col("v").alias("c"))
    # a<b<c closed wedges; each triangle counted exactly once.
    triangles = e1.join(e2, "b").join(e3, ["a", "c"]).agg(
        F.count("*").alias("tri")
    )
    row = triplets.crossJoin(triangles).collect()[0]
    if not row["t"]:
        return 0.0
    return float(3 * row["tri"] / row["t"])


def average_distance(graph: CSRGraph, max_n: int = 2000) -> float | None:
    """Mean shortest-path distance over connected pairs of the undirected
    graph (exact BFS from every vertex); ``None`` for graphs over ``max_n``
    vertices, mirroring the paper's "-" entries."""
    n = graph.n
    if n > max_n:
        return None
    # Symmetrize adjacency into per-vertex neighbour lists.
    src = np.concatenate(
        [np.repeat(np.arange(n), graph.out_degree()), graph.out_dst]
    )
    dst = np.concatenate(
        [graph.out_dst, np.repeat(np.arange(n), graph.out_degree())]
    )
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    total, pairs = 0, 0
    for s in range(n):
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        frontier = np.array([s])
        d = 0
        while len(frontier):
            d += 1
            idx, _ = gather_edges(indptr, frontier)
            if len(idx) == 0:
                break
            nxt = np.unique(dst[idx])
            nxt = nxt[dist[nxt] < 0]
            dist[nxt] = d
            frontier = nxt
        reached = dist > 0
        total += int(dist[reached].sum())
        pairs += int(reached.sum())
    return float(total / pairs) if pairs else 0.0


def table3_row(edges: DataFrame, graph: CSRGraph, *, with_distance: bool) -> dict:
    row = degree_stats(edges)
    row["clustering"] = round(clustering_coefficient(edges), 4)
    row["avg_distance"] = (
        round(average_distance(graph), 4) if with_distance else None
    )
    return row
