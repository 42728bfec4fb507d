"""The benchmark's workloads, composed from the program's public functions.

Every call into the program goes through a module attribute
(``rr_oracle.build_oracle``, not a name imported here), so the traced run
can wrap it in a span by patching that attribute. The workload seed is the
``base_seed`` of every oracle build and trial fan-out; the networks keep
the fixed seeds of their generators.

Sizes are cut so that one run of each workload, Spark start included,
takes under a minute on 4 cores; README.md records why each workload
exists, what was cut and which workload was left out.
"""
import hashlib
import inspect
import math
from dataclasses import dataclass, field, replace

import numpy as np
import pandas as pd

from repro.experiments import instances, rr_oracle, runner, tables
from repro.graphs import csr, networks, stats

# sweep_small: two quick-profile sweeps, all three approaches, T cut to 1.
SWEEP_SMALL = (("Karate", "UC_0.1", 4), ("BA_s", "IWC", 1))
SWEEP_TRIALS = 1
# network_tables: Table 3 on one star network (no average distance, as in
# the paper), and Table 4's eight oracles with theta cut from 2^18 to 2^14.
TABLE3_NETWORKS = ("youtube_lite",)
TABLE4_NETWORKS = ("BA_s", "BA_d")
TABLE4_SETTINGS = ("UC_0.1", "UC_0.01", "IWC", "OWC")
TABLE4_THETA = 1 << 14

# The columns each digest covers. Trial rows leave out anything but keys,
# the seed set and the paper's counters, so that a later column (a wall
# time, say) does not change the digest.
DIGEST_COLUMNS = {
    "trials": [
        "network", "setting", "alg", "sample_number", "k", "trial",
        "seed_set", "influence", "vertex_cost", "edge_cost", "sample_size",
    ],
    "table3": [
        "network", "n", "m", "max_out", "max_in", "clustering",
        "avg_distance",
    ],
    "table4": ["network", "setting", "inf_1st", "inf_2nd", "inf_3rd"],
    "table5": [
        "network", "setting", "k", "alg", "least_sample_number", "log2_s",
        "entropy_at_s",
    ],
    "table6": ["network", "setting", "k", "n_points", "median_number_ratio"],
    "table7": [
        "network", "setting", "k", "n_points", "median_number_ratio",
        "median_size_ratio",
    ],
}


@dataclass
class SweepRun:
    """One sweep's inputs and trial rows, kept for checks and the replay."""

    sweep: instances.Sweep
    graph: csr.CSRGraph
    oracle: rr_oracle.RROracle
    tasks: list
    trials: pd.DataFrame


@dataclass
class Output:
    components: dict[str, pd.DataFrame]
    ops: int
    sweeps: list[SweepRun] = field(default_factory=list)
    # (graph, oracle) of every oracle built, for the traced replay.
    oracles: list = field(default_factory=list)
    trial_seconds: float = 0.0  # fan-out + collect, summed over sweeps


def oracle_batch_size() -> int:
    """RR sets per batch in ``build_oracle`` (its default)."""
    sig = inspect.signature(rr_oracle.build_oracle)
    return sig.parameters["batch_size"].default


def oracle_batches(theta: int) -> int:
    return -(-theta // oracle_batch_size())


def _quick_sweep(key) -> instances.Sweep:
    for sw in instances.sweeps("quick"):
        if (sw.network, sw.setting, sw.k) == key:
            return replace(sw, trials=SWEEP_TRIALS)
    raise KeyError(key)


def sweep_small(spark, seed, tr) -> Output:
    out = Output({}, 0)
    parts = []
    for key in SWEEP_SMALL:
        sw = _quick_sweep(key)
        graph = tables.load_influence_graph(spark, sw.network, sw.setting)
        oracle = rr_oracle.build_oracle(
            spark, graph, sw.oracle_theta, base_seed=seed
        )
        tasks = runner.sweep_tasks(
            sw.network, sw.setting, sw.k, sw.grids, sw.trials
        )
        with tr.span("runner.run_trials") as sp:
            trials = runner.run_trials(
                spark, graph, oracle, tasks, base_seed=seed
            ).toPandas()
        out.trial_seconds += sp.seconds
        out.sweeps.append(SweepRun(sw, graph, oracle, tasks, trials))
        out.oracles.append((graph, oracle))
        out.ops += len(tasks) + oracle_batches(sw.oracle_theta)
        parts.append(trials)
    trials = pd.concat(parts, ignore_index=True)
    with tr.span("experiments.trial_table"):
        trials_df = spark.createDataFrame(trials)
    t5 = tables.table5(trials_df)
    t6, t7 = tables.table6_and_7(trials_df)
    out.components = {
        "trials": trials, "table5": t5, "table6": t6, "table7": t7,
    }
    out.ops += len(t5) + len(t6) + len(t7)
    return out


def network_tables(spark, seed, tr) -> Output:
    out = Output({}, 0)
    rows3 = []
    for name in TABLE3_NETWORKS:
        edges = networks.build_network(spark, name)
        graph = csr.to_csr(edges)
        row = stats.table3_row(edges, graph, with_distance=False)
        rows3.append({"network": name, **row})
    # tables.table4 keeps its oracles in a module-level cache under a fixed
    # seed, so its loop is repeated here with the workload seed.
    rows4 = []
    with tr.span("experiments.table4"):
        for net in TABLE4_NETWORKS:
            for setting in TABLE4_SETTINGS:
                graph = tables.load_influence_graph(spark, net, setting)
                oracle = rr_oracle.build_oracle(
                    spark, graph, TABLE4_THETA, base_seed=seed
                )
                inf = np.sort(oracle.singleton_estimates())[::-1]
                rows4.append({
                    "network": net, "setting": setting,
                    "inf_1st": round(float(inf[0]), 4),
                    "inf_2nd": round(float(inf[1]), 4),
                    "inf_3rd": round(float(inf[2]), 4),
                })
                out.oracles.append((graph, oracle))
    out.components = {
        "table3": pd.DataFrame(rows3), "table4": pd.DataFrame(rows4),
    }
    out.ops = len(rows3) + len(rows4) + len(out.oracles) * oracle_batches(
        TABLE4_THETA
    )
    return out


WORKLOADS = {
    "sweep_small": sweep_small,
    "network_tables": network_tables,
}


# ---- output checks -------------------------------------------------------

def _cell(v) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "null"
    if isinstance(v, (float, np.floating)):
        # Spark sums floats in partition order; ten digits hide that.
        return format(float(v), ".10g")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def digest(components: dict[str, pd.DataFrame]) -> str:
    """Order-independent SHA-256 over the digest columns of each output."""
    h = hashlib.sha256()
    for name in sorted(components):
        df = components[name][DIGEST_COLUMNS[name]]
        lines = sorted(
            "|".join(_cell(v) for v in row)
            for row in df.itertuples(index=False)
        )
        h.update(f"#{name}\n".encode())
        for line in lines:
            h.update(line.encode() + b"\n")
    return h.hexdigest()


def _check_trials(run: SweepRun) -> list[str]:
    """Invariants every trial row must meet, whatever the seed."""
    pdf, n, where = run.trials, run.graph.n, run.sweep.network
    want = sorted((t.alg, t.sample_number, t.trial) for t in run.tasks)
    got = sorted(zip(pdf["alg"], pdf["sample_number"], pdf["trial"]))
    if got != want:
        return [f"{where}: trial rows do not match the task list"]
    problems = []
    for r in pdf.itertuples(index=False):
        tag = f"{where} {r.alg} s={r.sample_number} t={r.trial}"
        seeds = np.array([int(v) for v in r.seed_set.split(",")])
        in_range = ((0 <= seeds) & (seeds < n)).all()
        if len(set(seeds.tolist())) != r.k or not in_range:
            problems.append(f"{tag}: bad seed set {r.seed_set!r}")
            continue
        if r.influence != run.oracle.estimate(seeds):
            problems.append(f"{tag}: influence is not the oracle's estimate")
        # Every candidate scan visits at least its own seed (paper §3.2).
        floor = r.k * n * r.sample_number
        if r.alg == "oneshot" and (
            r.sample_size != 0 or r.vertex_cost < floor
        ):
            problems.append(f"{tag}: Oneshot cost or sample size out of range")
        if r.alg == "snapshot" and r.vertex_cost < floor:
            problems.append(f"{tag}: Snapshot vertex cost below k*n*tau")
        if r.alg == "ris" and not (
            r.vertex_cost == r.sample_size >= r.sample_number
        ):
            problems.append(f"{tag}: RIS vertex cost is not sum |R| >= theta")
        if r.edge_cost < 0:
            problems.append(f"{tag}: negative edge cost")
    return problems


def check(workload: str, out: Output) -> list[str]:
    """Seed-independent checks of one iteration's outputs."""
    problems = [p for run in out.sweeps for p in _check_trials(run)]
    comps = out.components
    if workload == "sweep_small":
        grids = {
            (sw.network, sw.setting, sw.k): sw.grids
            for sw in (run.sweep for run in out.sweeps)
        }
        for r in comps["table5"].itertuples(index=False):
            grid = grids.get((r.network, r.setting, r.k), {}).get(r.alg)
            s = r.least_sample_number
            if grid is None or not (pd.isna(s) or int(s) in grid):
                problems.append(f"table5: bad row {r}")
        if len(comps["table5"]) != sum(len(g) for g in grids.values()):
            problems.append("table5: wrong number of rows")
        for name in ("table6", "table7"):
            if len(comps[name]) != len(grids):
                problems.append(f"{name}: wrong number of rows")
    if workload == "network_tables":
        t4 = comps["table4"]
        if len(t4) != len(TABLE4_NETWORKS) * len(TABLE4_SETTINGS):
            problems.append("table4: wrong number of rows")
        for r in t4.itertuples(index=False):
            n = networks.NETWORKS[r.network].paper_n
            if not 0 < r.inf_3rd <= r.inf_2nd <= r.inf_1st <= n:
                problems.append(f"table4: top-3 out of order or range: {r}")
    return problems
