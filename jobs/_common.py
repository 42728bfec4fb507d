"""Shared plumbing for the job entrypoints.

Jobs are thin wrappers: parse arguments, get the session from
``repro.spark.get_spark``, call one ``repro.experiments.tables`` function
and emit its markdown.
"""
import argparse
import os
import sys

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results"
)


def argparser(desc: str) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=desc)
    ap.add_argument("--profile", default="quick", choices=["test", "quick"])
    ap.add_argument("--out", default=None, help="optional output path")
    return ap


def emit(text: str, out: str | None) -> None:
    print(text)
    if out:
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w") as f:
            f.write(text + "\n")
    sys.stdout.flush()
