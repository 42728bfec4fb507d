"""Run the full sweep grid and persist trial results as parquet.

Tables 5, 6 and 7 aggregate from this shared dataset — running sweeps once
and re-aggregating mirrors the paper's design (one pool of recorded trials,
many analyses).

Sweeps that share (network, setting, oracle θ) share one influence graph and
one RR oracle: each group builds both once, runs its sweeps and drops them.
A sweep directory counts as done only once Spark has written its
``_SUCCESS`` marker, so an interrupted run resumes where it stopped and
rewrites a partial write.
"""
import os
import time

from _common import RESULTS_DIR, argparser

from repro.experiments import instances, rr_oracle, tables
from repro.experiments.runner import run_trials, sweep_tasks
from repro.spark import get_spark


def sweep_dir(out_dir: str, sw: instances.Sweep) -> str:
    return os.path.join(out_dir, f"{sw.network}__{sw.setting}__k{sw.k}")


def run(spark, profile: str = "quick", out_dir: str | None = None) -> str:
    out_dir = out_dir or os.path.join(RESULTS_DIR, f"trials_{profile}")
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
    return out_dir


def load_trials(spark, out_dir: str):
    return spark.read.parquet(os.path.join(out_dir, "*"))


if __name__ == "__main__":
    args = argparser("Run all trial sweeps").parse_args()
    path = run(get_spark("sweeps"), args.profile, args.out)
    print(f"trials written under {path}")
