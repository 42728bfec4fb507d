"""Guard against Spark-work regressions: jobs and tasks per call.

Each call runs under its own job group, and the status tracker counts the
jobs and completed tasks it caused. The bounds are what the calls cost on
Spark 4.1 in local mode: Table 3's queries on youtube_lite (the benchmark's
Table 3 network), the oracle build and the trial fan-out on Karate UC_0.1.

The edge list is a fresh local relation, which Spark splits into
``defaultParallelism`` partitions; only the first scan of it pays one task
per partition. An input that matches a cached DataFrame adds a cache stage
per scan, so the Table 3 tests use a network no other test caches.
"""
import itertools

import pytest

from repro.experiments.rr_oracle import build_oracle
from repro.experiments.runner import run_trials, sweep_tasks
from repro.graphs import assign_probabilities, build_network, to_csr
from repro.graphs.stats import clustering_coefficient, degree_stats

_groups = itertools.count()


def spark_work(spark, call):
    """Run ``call()``; return (result, jobs, completed tasks) it caused."""
    sc = spark.sparkContext
    group = f"test-spark-work-{next(_groups)}"
    sc.setJobGroup(group, group)
    try:
        result = call()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    tasks = sum(
        tracker.getStageInfo(s).numCompletedTasks
        for j in jobs
        for s in tracker.getJobInfo(j).stageIds
    )
    return result, len(jobs), tasks


@pytest.fixture(scope="module")
def karate_uc(spark):
    return to_csr(
        assign_probabilities(build_network(spark, "Karate"), "UC_0.1")
    )


def test_degree_stats_work(spark):
    edges = build_network(spark, "youtube_lite")
    _, jobs, _ = spark_work(spark, lambda: degree_stats(edges))
    assert jobs <= 3


def test_clustering_coefficient_work(spark):
    edges = build_network(spark, "youtube_lite")
    _, jobs, tasks = spark_work(spark, lambda: clustering_coefficient(edges))
    assert jobs <= 8
    # One task per input partition for the first scan, then one per
    # coalesced shuffle read: 12 on 4 cores (455 with the former
    # cached, two-action query).
    assert tasks <= spark.sparkContext.defaultParallelism + 8


def test_build_oracle_is_one_job(spark, karate_uc):
    oracle, jobs, tasks = spark_work(
        spark, lambda: build_oracle(spark, karate_uc, 3 * 8192 + 5)
    )
    assert oracle.theta == 3 * 8192 + 5
    assert jobs == 1
    # Four batches of 8192, one partition per core: every Python task
    # pays the worker's per-task set-up.
    assert tasks == min(4, spark.sparkContext.defaultParallelism)


def test_run_trials_collect_is_one_job(spark, karate_uc):
    oracle = build_oracle(spark, karate_uc, 1 << 12)
    tasks = sweep_tasks(
        "Karate", "UC_0.1", 1, {"oneshot": [1], "snapshot": [2], "ris": [8]}, 2
    )
    rows, jobs, n_tasks = spark_work(
        spark, lambda: run_trials(spark, karate_uc, oracle, tasks).collect()
    )
    assert len(rows) == len(tasks)
    assert jobs == 1
    assert n_tasks == min(len(tasks), spark.sparkContext.defaultParallelism)
