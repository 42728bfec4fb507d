"""Distributed trial fan-out (§4's methodology).

One experiment = run algorithm ``alg`` with sample number ``s`` T times and
record each random seed set with its oracle influence. Trials are
independent, so the task list is dealt round-robin to the partitions of an
RDD whose Python workers hold the broadcast CSR graph and RR oracle and run
``run_trial_local`` per task; the rows become a DataFrame, and all
downstream statistics (entropy, means, percentiles, least sample numbers)
are DataFrame aggregations over that trial table.

Trial-result schema:
  network, setting, alg, sample_number, k, trial,
  seed_set (sorted ','-joined), influence (shared-oracle estimate),
  vertex_cost, edge_cost, sample_size
"""
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.algorithms import ALGORITHMS, make_estimator, run_greedy
from repro.experiments.rr_oracle import RROracle
from repro.graphs.csr import CSRGraph
from repro.util import trial_rng

RESULT_SCHEMA = (
    "network string, setting string, alg string, sample_number long, "
    "k long, trial long, seed_set string, influence double, "
    "vertex_cost long, edge_cost long, sample_size long"
)


@dataclass(frozen=True)
class TrialTask:
    network: str
    setting: str
    alg: str  # "oneshot" | "snapshot" | "ris"
    sample_number: int
    k: int
    trial: int


def run_trial_local(
    graph: CSRGraph,
    oracle: RROracle,
    task: TrialTask,
    base_seed: int,
) -> dict:
    """Run one greedy trial (used by workers and directly in tests)."""
    rng = trial_rng(
        base_seed,
        ALGORITHMS.index(task.alg),
        task.sample_number,
        task.k,
        task.trial,
    )
    est = make_estimator(task.alg, graph, task.sample_number, rng)
    res = run_greedy(est, graph.n, task.k, rng)
    seed_set = ",".join(str(v) for v in sorted(res.seeds))
    return {
        "network": task.network,
        "setting": task.setting,
        "alg": task.alg,
        "sample_number": task.sample_number,
        "k": task.k,
        "trial": task.trial,
        "seed_set": seed_set,
        "influence": oracle.estimate(np.array(res.seeds)),
        "vertex_cost": res.vertex_cost,
        "edge_cost": res.edge_cost,
        "sample_size": res.sample_size,
    }


def run_trials(
    spark: SparkSession,
    graph: CSRGraph,
    oracle: RROracle,
    tasks: list[TrialTask],
    base_seed: int = 2020,
) -> DataFrame:
    """Fan trials out over the cluster; returns the trial-result DataFrame."""
    sc = spark.sparkContext
    bc_graph = sc.broadcast(graph)
    bc_oracle = sc.broadcast(oracle)
    # Round-robin, not contiguous slices: a sweep lists tasks by sample
    # number, whose costs span orders of magnitude.
    n_parts = max(1, min(len(tasks), sc.defaultParallelism * 4))
    hands = [tasks[i::n_parts] for i in range(n_parts)]

    def work(part):
        for hand in part:
            for task in hand:
                yield run_trial_local(
                    bc_graph.value, bc_oracle.value, task, base_seed
                )

    rows = sc.parallelize(hands, n_parts).mapPartitions(work)
    return spark.createDataFrame(rows, RESULT_SCHEMA)


def sweep_tasks(
    network: str,
    setting: str,
    k: int,
    grids: dict[str, list[int]],
    trials: int,
) -> list[TrialTask]:
    """Cartesian task list: every algorithm × its sample-number grid × T."""
    return [
        TrialTask(network, setting, alg, s, k, t)
        for alg, grid in grids.items()
        for s in grid
        for t in range(trials)
    ]
