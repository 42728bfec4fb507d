"""Self-test of the benchmark.

Runs every workload for the shortest configuration (one iteration), traced
and untraced, and checks that each run prints every metric BENCHMARK.json
names with its unit, passes its own output checks, and prints the pinned
digest both times. Each run starts its own Spark, so the whole test takes
several minutes:

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINNED = json.loads((ROOT / "perfbench" / "digests.json").read_text())
SEED = 2020  # run.DEFAULT_SEED, whose digests are pinned


def bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_metrics_and_digest(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr[-3000:]
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, proc.stdout
        assert result["failed"] == 0 and result["attempted"] >= 1
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert all(isinstance(v, (int, float)) for v in values.values())
        if trace:
            assert values["trace.coverage_pct"] >= 90
        else:
            assert all(v > 0 for v in values.values()), values
        printed = [ln.split()[-1] for ln in lines
                   if ln.startswith(f"digest {workload} ")]
        assert printed == [PINNED[workload]]


def test_fails_without_the_program(tmp_path):
    """Beside only BENCHMARK.json and perfbench/, the run must fail fast."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
