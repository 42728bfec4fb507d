"""Table 5 — least sample number (and entropy) for near-optimal @99%."""
import run_sweeps
from _common import argparser, emit

from repro.experiments import tables
from repro.spark import get_spark

if __name__ == "__main__":
    args = argparser("Table 5: least sample number").parse_args()
    spark = get_spark("table5")
    trials = run_sweeps.load_trials(spark, run_sweeps.run(spark, args.profile))
    emit(tables.to_markdown(tables.table5(trials)), args.out)
