"""Influence-distribution quality analysis (§5.2, Table 5).

* Exact Greedy reference: the paper takes the unique seed set obtained once
  the seed-set distribution degenerates (H = 0). We take the modal seed set
  at each algorithm's largest sample number (they agree across algorithms
  when converged — asserted by the convergence test) and its shared-oracle
  influence as the reference.
* A trial is *near-optimal* if its influence ≥ 0.95 × reference.
* Table 5 reports, per algorithm, the least sample number s* whose
  near-optimal fraction over T trials is ≥ 99%, and the entropy H* at s*.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.experiments.entropy import GROUP, seed_set_entropy

NEAR_OPTIMAL = 0.95
CONFIDENCE = 0.99
INSTANCE = ["network", "setting", "k"]


def reference_influence(trials_pdf: pd.DataFrame) -> pd.DataFrame:
    """Per instance: modal seed set at the largest sample number and its
    oracle influence. Of the algorithms run at that sample number, 'ris'
    (the paper's deepest grid) is used if present, else the alphabetically
    first; among equally frequent seed sets the lexicographically first
    ``seed_set`` string wins."""
    rows = []
    for keys, g in trials_pdf.groupby(INSTANCE):
        smax = g["sample_number"].max()
        at_max = g[g["sample_number"] == smax]
        # Prefer ris if it is among the algs at the deepest sample number.
        algs = at_max["alg"].unique()
        alg = "ris" if "ris" in algs else sorted(algs)[0]
        sel = at_max[at_max["alg"] == alg]
        mode = sel["seed_set"].mode().iloc[0]
        inf_ref = float(sel.loc[sel["seed_set"] == mode, "influence"].iloc[0])
        rows.append(dict(zip(INSTANCE, keys)) | {
            "ref_seed_set": mode, "ref_influence": inf_ref,
        })
    return pd.DataFrame(rows)


def near_optimal_fraction(trials: DataFrame, refs: pd.DataFrame) -> DataFrame:
    """Fraction of near-optimal trials per experiment group (Spark)."""
    refs_df = trials.sparkSession.createDataFrame(
        refs[INSTANCE + ["ref_influence"]]
    )
    return (
        trials.join(refs_df, INSTANCE)
        .withColumn(
            "ok",
            (
                F.col("influence")
                >= F.lit(NEAR_OPTIMAL) * F.col("ref_influence")
            ).cast("double"),
        )
        .groupBy(*GROUP)
        .agg(
            F.avg("ok").alias("frac_near_optimal"),
            F.count("*").alias("trials"),
        )
    )


def least_sample_number(
    trials: DataFrame, refs: pd.DataFrame
) -> pd.DataFrame:
    """Table 5 rows: per (instance, alg) the least s with ≥99% near-optimal
    trials, plus entropy at that s. NaN when no grid value qualifies."""
    frac = near_optimal_fraction(trials, refs).toPandas()
    ent = seed_set_entropy(trials).toPandas()
    merged = frac.merge(ent[GROUP + ["entropy"]], on=GROUP)
    rows = []
    for keys, g in merged.groupby(INSTANCE + ["alg"]):
        g = g.sort_values("sample_number")
        need = np.ceil(CONFIDENCE * g["trials"]) / g["trials"]
        ok = g[g["frac_near_optimal"] >= need]
        rec = dict(zip(INSTANCE + ["alg"], keys))
        if len(ok):
            best = ok.iloc[0]
            rec |= {
                "least_sample_number": int(best["sample_number"]),
                "log2_s": float(np.log2(best["sample_number"])),
                "entropy_at_s": float(best["entropy"]),
            }
        else:
            rec |= {
                "least_sample_number": None,
                "log2_s": None,
                "entropy_at_s": None,
            }
        rows.append(rec)
    return pd.DataFrame(rows)
