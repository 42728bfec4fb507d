"""The traced run: one iteration with its layers wrapped, then a replay.

Spark runs the NumPy kernels, the estimators and the oracle's RR batches
in worker processes, where the driver cannot wrap them. The replay runs
that work again on the driver, one call after another, with the kernels
and the estimator phases wrapped: every trial of the traced iteration
through ``runner.run_trial_local`` (with a timing proxy around the
estimator and the oracle), and every RR batch of every oracle the
iteration built. The replayed trial rows must equal the Spark rows.
"""
from collections import defaultdict

import pandas as pd

import repro.algorithms as algorithms
from repro.experiments import rr_oracle, runner, tables
from repro.graphs import csr, networks, probability, stats
from repro.ic import forward, live, rr
from repro.util import trial_rng
from spans import Tracer, patched, timed
from workloads import Output, oracle_batch_size

KERNELS = ("forward", "live", "rr")
ALGS = ("oneshot", "snapshot", "ris")
PHASES = ("build", "estimate", "update")
SPARK = ("spark_jobs", "spark_tasks", "spark_failed_tasks")
SPARK_LAYERS = (
    "graphs.to_csr",
    "graphs.stats.degree_stats",
    "graphs.stats.clustering_coefficient",
    "rr_oracle.build",
    "runner.run_trials",
    "experiments.table5",
    "experiments.table6_and_7",
)

# Every per-layer metric with its unit, in the order they are printed.
PER_LAYER = {
    "graphs.build_network.s": "s",
    "graphs.assign_probabilities.s": "s",
    "graphs.to_csr.s": "s",
    "graphs.stats.degree_stats.s": "s",
    "graphs.stats.clustering_coefficient.s": "s",
    **{
        f"ic.{k}.{m}": u
        for k in KERNELS
        for m, u in (
            ("s", "s"), ("vertex_cost", "count"), ("edge_cost", "count"),
            ("ns_per_cost_unit", "ns/unit"),
        )
    },
    **{f"algorithms.{a}.{p}.s": "s" for a in ALGS for p in PHASES},
    **{f"algorithms.{a}.sample_size": "count" for a in ALGS},
    "rr_oracle.build.s": "s",
    "rr_oracle.build.members": "count",
    "rr_oracle.build.kernel_share": "ratio",
    "rr_oracle.estimate.s": "s",
    "rr_oracle.estimate.calls": "count",
    "runner.run_trials.s": "s",
    "runner.trials": "count",
    "runner.fanout_efficiency": "ratio",
    "experiments.table4.s": "s",
    "experiments.table5.s": "s",
    "experiments.table6_and_7.s": "s",
    **{f"{layer}.{c}": "count" for layer in SPARK_LAYERS for c in SPARK},
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}


def _costs(res) -> dict:
    return {"vertex_cost": res.vertex_cost, "edge_cost": res.edge_cost}


def driver_targets(tr: Tracer) -> list:
    """The driver-side public functions a workload iteration reaches."""
    return [
        (networks, "build_network", timed(tr, "graphs.build_network")),
        (probability, "assign_probabilities",
         timed(tr, "graphs.assign_probabilities")),
        (csr, "to_csr", timed(tr, "graphs.to_csr")),
        (stats, "degree_stats", timed(tr, "graphs.stats.degree_stats")),
        (stats, "clustering_coefficient",
         timed(tr, "graphs.stats.clustering_coefficient")),
        (rr_oracle, "build_oracle", timed(
            tr, "rr_oracle.build", lambda o: {"members": len(o.rr_ids)}
        )),
        (tables, "table5", timed(tr, "experiments.table5")),
        (tables, "table6_and_7", timed(tr, "experiments.table6_and_7")),
    ]


class TimedEstimator:
    """Estimator proxy timing Algorithm 3.1's Estimate and Update calls."""

    def __init__(self, est, alg: str, tr: Tracer):
        self._est, self._alg, self._tr = est, alg, tr

    def estimate_all(self, current_seeds):
        with self._tr.span(f"algorithms.{self._alg}.estimate"):
            return self._est.estimate_all(current_seeds)

    def update(self, chosen):
        with self._tr.span(f"algorithms.{self._alg}.update"):
            return self._est.update(chosen)

    def __getattr__(self, name):  # vertex_cost, edge_cost, sample_size
        return getattr(self._est, name)


class TimedOracle:
    def __init__(self, oracle, tr: Tracer):
        self._oracle, self._tr = oracle, tr

    def estimate(self, seeds):
        with self._tr.span("rr_oracle.estimate"):
            return self._oracle.estimate(seeds)

    def __getattr__(self, name):
        return getattr(self._oracle, name)


def _timed_estimators(tr: Tracer):
    def make(original):
        def wrapper(alg, graph, sample_number, rng):
            with tr.span(f"algorithms.{alg}.build") as sp:
                est = original(alg, graph, sample_number, rng)
            sp.counts["sample_size"] = est.sample_size
            return TimedEstimator(est, alg, tr)

        return wrapper

    return make


def replay(out: Output, seed: int, tr: Tracer) -> tuple[pd.DataFrame, list]:
    """Replay the iteration's worker-side work; returns (trial rows,
    problems)."""
    problems = []
    batch = oracle_batch_size()
    targets = [
        (forward, "simulate_batch", timed(tr, "ic.forward", _costs)),
        (live, "reach_batch", timed(tr, "ic.live", _costs)),
        (rr, "rr_batch", timed(tr, "ic.rr", _costs)),
        (algorithms, "make_estimator", _timed_estimators(tr)),
    ]
    rows = []
    with patched(targets):
        with tr.span("replay.oracles"):
            # build_oracle's per-batch work: batch b draws from
            # trial_rng(base_seed, b).
            for graph, oracle in out.oracles:
                members = 0
                for b, lo in enumerate(range(0, oracle.theta, batch)):
                    rng = trial_rng(seed, b)
                    targets_b = rr.random_targets(
                        graph.n, min(batch, oracle.theta - lo), rng
                    )
                    members += rr.rr_batch(graph, targets_b, rng).vertex_cost
                if members != len(oracle.rr_ids):
                    problems.append("replayed RR batches differ from oracle")
        with tr.span("replay.trials"):
            for run in out.sweeps:
                oracle = TimedOracle(run.oracle, tr)
                for task in run.tasks:
                    with tr.span("runner.trial"):
                        rows.append(runner.run_trial_local(
                            run.graph, oracle, task, seed
                        ))
    return pd.DataFrame(rows), problems


def layer_metrics(
    traced: Tracer, replayed: Tracer, cores: int
) -> dict[str, float]:
    """Per-layer metrics from the traced iteration, whose first span is the
    whole iteration, and from the replay that followed it."""
    m = defaultdict(float)
    dur = defaultdict(float)
    spark = traced.spark_counts()
    for tr in (traced, replayed):
        for i, (sp, self_s) in enumerate(zip(tr.spans, tr.self_seconds())):
            m[f"{sp.name}.s"] += self_s
            dur[sp.name] += sp.seconds
            for key, value in sp.counts.items():
                m[f"{sp.name}.{key}"] += value
            if tr is traced:
                for key, value in zip(SPARK, spark[i]):
                    m[f"{sp.name}.{key}"] += value
            elif sp.name == "ic.rr" and (
                tr.spans[sp.parent].name == "replay.oracles"
            ):
                dur["ic.rr.oracle"] += sp.seconds
    for k in KERNELS:
        cost = m[f"ic.{k}.vertex_cost"] + m[f"ic.{k}.edge_cost"]
        if cost:
            m[f"ic.{k}.ns_per_cost_unit"] = m[f"ic.{k}.s"] * 1e9 / cost
    for a in ALGS:
        m[f"algorithms.{a}.sample_size"] = m[
            f"algorithms.{a}.build.sample_size"
        ]
    names = [sp.name for sp in replayed.spans]
    m["rr_oracle.estimate.calls"] = names.count("rr_oracle.estimate")
    m["runner.trials"] = names.count("runner.trial")
    if dur["runner.run_trials"]:
        m["runner.fanout_efficiency"] = dur["runner.trial"] / (
            cores * dur["runner.run_trials"]
        )
    if dur["rr_oracle.build"]:
        m["rr_oracle.build.kernel_share"] = dur["ic.rr.oracle"] / (
            cores * dur["rr_oracle.build"]
        )
    wall = traced.spans[0].seconds
    m["trace.coverage_pct"] = 100 * (1 - traced.self_seconds()[0] / wall)
    m["trace.overhead_pct"] = 100 * traced.overhead_ns / 1e9 / wall
    return {name: float(m[name]) for name in PER_LAYER}
