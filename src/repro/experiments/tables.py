"""Every evaluation table (Tables 3–9) as one function.

A table builds the influence graphs and RR oracles it reads and drops them
when it returns. Tables 5–7 aggregate the shared trial DataFrame that
``runner.run_sweeps`` writes; Table 9 is arithmetic over Tables 6, 7 and 8.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.experiments import quality, ratios
from repro.experiments.instances import traversal_instances
from repro.experiments.rr_oracle import build_oracle
from repro.experiments.traversal import table8_rows, table9_rows
from repro.graphs import assign_probabilities, build_network, to_csr
from repro.graphs.csr import CSRGraph
from repro.graphs.networks import NETWORKS
from repro.graphs.stats import table3_row


def load_influence_graph(
    spark: SparkSession, network: str, setting: str
) -> CSRGraph:
    """Network + probability setting → broadcastable CSR influence graph."""
    edges = build_network(spark, network)
    return to_csr(assign_probabilities(edges, setting))


def table3(spark: SparkSession, networks=None) -> pd.DataFrame:
    """Network statistics for every registered network (or ``networks``)."""
    rows = []
    for name in networks or NETWORKS:
        spec = NETWORKS[name]
        edges = build_network(spark, name)
        row = table3_row(
            edges, to_csr(edges),
            with_distance=name in ("Karate", "BA_s", "BA_d"),
        )
        rows.append(
            {
                "network": name,
                "kind": spec.kind,
                "paper_n": spec.paper_n,
                "paper_m": spec.paper_m,
                **row,
            }
        )
    return pd.DataFrame(rows)


def table4(
    spark: SparkSession,
    networks=("BA_s", "BA_d"),
    settings=("UC_0.1", "UC_0.01", "IWC", "OWC"),
    theta: int = 1 << 18,
) -> pd.DataFrame:
    """Top-3 single-vertex influence per (network, setting)."""
    rows = []
    for net in networks:
        for setting in settings:
            graph = load_influence_graph(spark, net, setting)
            oracle = build_oracle(spark, graph, theta)
            inf = np.sort(oracle.singleton_estimates())[::-1]
            rows.append(
                {
                    "network": net,
                    "setting": setting,
                    "inf_1st": round(float(inf[0]), 4),
                    "inf_2nd": round(float(inf[1]), 4),
                    "inf_3rd": round(float(inf[2]), 4),
                }
            )
    return pd.DataFrame(rows)


def table5(trials: DataFrame) -> pd.DataFrame:
    """Least sample number and entropy for near-optimal @99%."""
    refs = quality.reference_influence(trials.toPandas())
    t5 = quality.least_sample_number(trials, refs)
    return t5.sort_values(["network", "setting", "k", "alg"])


def table6_and_7(trials: DataFrame) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Median comparable ratios: Oneshot→Snapshot (6), RIS→Snapshot (7)."""
    stats = ratios.mean_stats(trials)
    keys = ["network", "setting", "k"]
    return (
        ratios.table6(stats).sort_values(keys),
        ratios.table7(stats).sort_values(keys),
    )


def table8(spark: SparkSession, profile: str = "quick") -> pd.DataFrame:
    """Per-sample traversal cost at k = 1, sample number 1, per instance."""
    rows = []
    for net, setting, trials, with_oneshot in traversal_instances(profile):
        graph = load_influence_graph(spark, net, setting)
        rows.extend(table8_rows(graph, net, setting, trials, with_oneshot))
    return pd.DataFrame(rows)


def table9(
    t6: pd.DataFrame, t7: pd.DataFrame, t8: pd.DataFrame
) -> pd.DataFrame:
    """Traversal cost conditioned on identical accuracy (§6): Table 8's cost
    at sample number 1 × the comparable number ratio to Snapshot."""
    return table9_rows(t8, t6, t7).sort_values(["network", "setting", "alg"])


def to_markdown(df: pd.DataFrame, floatfmt: str = "{:.4g}") -> str:
    """Minimal markdown renderer (no tabulate dependency offline)."""
    cols = list(df.columns)
    out = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for _, r in df.iterrows():
        cells = []
        for c in cols:
            v = r[c]
            if isinstance(v, float) and not pd.isna(v):
                cells.append(floatfmt.format(v))
            else:
                cells.append(str(v))
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out)
