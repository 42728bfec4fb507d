"""Distributed trial fan-out (§4's methodology) and the sweep runner.

One experiment = run algorithm ``alg`` with sample number ``s`` T times and
record each random seed set with its oracle influence. Trials are
independent, so the task list is packed longest-first (``pack_tasks``) into
one RDD partition per core, whose Python workers hold the broadcast CSR
graph and RR oracle and run ``run_trial_local`` per task; the rows become a
DataFrame, and all downstream statistics (entropy, means, percentiles,
least sample numbers) are DataFrame aggregations over that trial table.

``run_sweeps`` runs a profile's whole sweep grid and persists the trials as
parquet, one directory per sweep; Tables 5–7 aggregate that one pool
(``load_trials``), as in the paper (one pool of recorded trials, many
analyses). Sweeps that share (network, setting, oracle θ) share one
influence graph and one RR oracle: each group builds both once, runs its
sweeps and drops them. A sweep directory counts as done only once Spark has
written its ``_SUCCESS`` marker, so an interrupted run resumes where it
stopped and rewrites a partial write.

Trial-result schema:
  network, setting, alg, sample_number, k, trial,
  seed_set (sorted ','-joined), influence (shared-oracle estimate),
  vertex_cost, edge_cost, sample_size
"""
import heapq
import os
import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.algorithms import ALGORITHMS, make_estimator, run_greedy
from repro.experiments import instances, rr_oracle, tables
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


def task_cost(task: TrialTask, n: int) -> int:
    """A trial's cost in the paper's per-sample units (§3.2, §3.5.2).

    Oneshot and Snapshot traverse about s·k·n samples per greedy run (k
    steps, n candidates, s samples each); RIS traverses its s RR sets. The
    mean singleton influence (EPT) multiplies both and cancels out.
    """
    if task.alg == "ris":
        return task.sample_number
    return task.sample_number * task.k * n


def pack_tasks(
    tasks: list[TrialTask], n_parts: int, n: int
) -> list[list[TrialTask]]:
    """Deal ``tasks`` into ``min(len(tasks), n_parts)`` hands (at least one).

    Longest processing time first: tasks in decreasing ``task_cost``, each
    to the least-loaded hand, so the heaviest hand costs at most
    total / n_parts + the largest task. Ties keep list order and go to the
    lowest hand, so the packing is deterministic. When n_parts divides a
    sweep's T, every hand gets exactly T / n_parts copies of every (alg, s)
    cell whatever the estimate says; the estimate matters only for small
    T, such as a single trial per cell.
    """
    hands: list[list[TrialTask]] = [
        [] for _ in range(max(1, min(len(tasks), n_parts)))
    ]
    loads = [(0, i) for i in range(len(hands))]
    for task in sorted(tasks, key=lambda t: -task_cost(t, n)):
        load, i = heapq.heappop(loads)
        hands[i].append(task)
        heapq.heappush(loads, (load + task_cost(task, n), i))
    return hands


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
    hands = pack_tasks(tasks, sc.defaultParallelism, graph.n)

    def work(part):
        for hand in part:
            for task in hand:
                yield run_trial_local(
                    bc_graph.value, bc_oracle.value, task, base_seed
                )

    rows = sc.parallelize(hands, len(hands)).mapPartitions(work)
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


def sweep_dir(out_dir: str, sw: instances.Sweep) -> str:
    return os.path.join(out_dir, f"{sw.network}__{sw.setting}__k{sw.k}")


def run_sweeps(spark: SparkSession, profile: str, out_dir: str) -> None:
    """Run every sweep of ``profile`` not yet done under ``out_dir``."""
    groups: dict[tuple, list[instances.Sweep]] = {}
    for sw in instances.sweeps(profile):
        key = (sw.network, sw.setting, sw.oracle_theta)
        groups.setdefault(key, []).append(sw)
    for (network, setting, theta), group in groups.items():
        todo = []
        for sw in group:
            part = sweep_dir(out_dir, sw)
            if os.path.exists(os.path.join(part, "_SUCCESS")):
                print(f"skip (done): {part}")
            else:
                todo.append(sw)
        if not todo:
            continue
        graph = tables.load_influence_graph(spark, network, setting)
        oracle = rr_oracle.build_oracle(spark, graph, theta)
        for sw in todo:
            t0 = time.time()
            tasks = sweep_tasks(network, setting, sw.k, sw.grids, sw.trials)
            trials = run_trials(spark, graph, oracle, tasks)
            trials.write.mode("overwrite").parquet(sweep_dir(out_dir, sw))
            print(
                f"{network} {setting} k={sw.k} T={sw.trials}: "
                f"{time.time()-t0:.1f}s"
            )
        del graph, oracle


def load_trials(spark: SparkSession, out_dir: str) -> DataFrame:
    """Every sweep's trials under ``out_dir`` as one DataFrame."""
    return spark.read.parquet(os.path.join(out_dir, "*"))
