"""Benchmark entry point.

    python3 perfbench/run.py --workload sweep_small --seed 2020 \\
        --seconds 10 --trace 0

Run from a checkout of the repository; the program is imported from its
``src/``. One process starts Spark ``local`` with at most four worker
threads, runs one workload for ``--seconds`` seconds (at least one
iteration), checks every iteration's outputs and prints one JSON object as
its last line: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. README.md beside this file explains both.
"""
import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"  # Spark's and Python's temporary files
DEFAULT_SEED = 2020  # the seed whose digests digests.json pins
DRIVER_MEMORY = "2g"


def proc_peak_mb(pid) -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def start_spark(cores: int):
    """Fresh JVM, SparkSession, then a first SQL and Python action."""
    SCRATCH.mkdir(exist_ok=True)
    tmp = shlex.quote(str(SCRATCH))
    os.environ["TMPDIR"] = str(SCRATCH)
    os.environ["SPARK_LOCAL_DIRS"] = str(SCRATCH)  # wins over spark.local.dir
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options '-XX:-UsePerfData -Djava.io.tmpdir={tmp}' "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    from pyspark.sql import SparkSession

    # The same session settings as jobs/_common.get_spark.
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    spark.range(1).count()
    spark.sparkContext.parallelize(range(cores), cores).map(abs).count()
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for its JVM (and so its Python workers) to end."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    gateway.shutdown()
    proc = gateway.proc
    proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise


def main() -> int:
    t_start = time.perf_counter()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    checker = Checker(args, workloads)
    cores = min(4, len(os.sched_getaffinity(0)))

    shutil.rmtree(SCRATCH, ignore_errors=True)
    spark = start_spark(cores)
    try:
        setup_s = time.perf_counter() - t_start
        if args.trace:
            metrics = traced_metrics(spark, args, checker, cores)
        else:
            metrics = end_to_end_metrics(spark, args, checker)
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
            # The Python driver collects and sorts the oracles; the JVM's
            # peak follows its garbage collector and is only printed.
            py_mb = proc_peak_mb("self")
            jvm_mb = proc_peak_mb(spark.sparkContext._gateway.proc.pid)
            print(f"peak rss: python {py_mb:.0f} MB, jvm {jvm_mb:.0f} MB",
                  flush=True)
            metrics["driver_rss_peak_mb"] = {"value": py_mb, "unit": "MB"}
    finally:
        stop_spark(spark)
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"digest {args.workload} seed={args.seed} {checker.digest}")
    print(json.dumps({
        "correct": checker.failed == 0, "attempted": checker.attempted,
        "failed": checker.failed, "metrics": metrics,
    }), flush=True)
    return 0


class Checker:
    """Checks every iteration's outputs and counts operations; a wrong
    output fails every operation of its iteration."""

    def __init__(self, args, workloads):
        self.workload, self.w = args.workload, workloads
        self.pinned = json.loads((HERE / "digests.json").read_text())
        # Another seed is compared with the run's first digest.
        self.expected = (
            self.pinned[args.workload] if args.seed == DEFAULT_SEED else None
        )
        self.digest = None
        self.attempted = self.failed = 0

    def record(self, out, label: str, wall: float, problems=()) -> None:
        problems = list(problems) + self.w.check(self.workload, out)
        self.digest = self.w.digest(out.components)
        if "table3" in out.components:
            t3 = self.w.digest({"table3": out.components["table3"]})
            if t3 != self.pinned["table3"]:
                problems.append(f"table3 digest {t3} is not the pinned one")
        self.expected = self.expected or self.digest
        if self.digest != self.expected:
            problems.append(f"digest {self.digest} != {self.expected}")
        self.attempted += out.ops
        self.failed += out.ops if problems else 0
        print(f"{label}: {wall:.3f} s, {out.ops} ops, "
              f"digest {self.digest[:16]}", flush=True)
        for p in problems[:20]:
            print(f"  problem: {p}", flush=True)


def end_to_end_metrics(spark, args, checker: Checker) -> dict:
    """Untraced iterations until ``--seconds`` have passed; medians."""
    from spans import Tracer

    run = checker.w.WORKLOADS[args.workload]
    walls, rates = [], []
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        out = run(spark, args.seed, Tracer())
        walls.append(time.perf_counter() - t0)
        checker.record(out, f"iteration {len(walls)}", walls[-1])
        trials = sum(len(r.tasks) for r in out.sweeps)
        rates.append(
            trials / out.trial_seconds if trials else out.ops / walls[-1]
        )
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
    }


def traced_metrics(spark, args, checker: Checker, cores: int) -> dict:
    """One iteration with every driver-side layer wrapped, then the driver
    replay of the worker-side work."""
    import traced
    from spans import Tracer, patched

    tr = Tracer(spark.sparkContext)
    with patched(traced.driver_targets(tr)):
        with tr.span("iteration"):
            out = checker.w.WORKLOADS[args.workload](spark, args.seed, tr)
    replay_tr = Tracer()
    rows, problems = traced.replay(out, args.seed, replay_tr)
    if out.sweeps and checker.w.digest({"trials": rows}) != checker.w.digest(
        {"trials": out.components["trials"]}
    ):
        problems.append("replayed trial rows differ from Spark's")
    checker.record(out, "traced iteration", tr.spans[0].seconds, problems)
    layers = traced.layer_metrics(tr, replay_tr, cores)
    return {name: {"value": v, "unit": traced.PER_LAYER[name]}
            for name, v in layers.items()}


if __name__ == "__main__":
    sys.exit(main())
