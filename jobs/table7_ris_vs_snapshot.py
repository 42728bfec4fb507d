"""Table 7 — median comparable number & size ratio of RIS to Snapshot."""
import run_sweeps
from _common import argparser, emit

from repro.experiments import tables
from repro.spark import get_spark

if __name__ == "__main__":
    args = argparser("Table 7: RIS vs Snapshot").parse_args()
    spark = get_spark("table7")
    trials = run_sweeps.load_trials(spark, run_sweeps.run(spark, args.profile))
    emit(tables.to_markdown(tables.table6_and_7(trials)[1]), args.out)
