"""Table 9 — traversal cost conditioned on identical accuracy.

Pure arithmetic over Tables 6, 7 and 8, as in the paper (§6).
"""
import run_sweeps
from _common import argparser, emit

from repro.experiments import tables
from repro.spark import get_spark

if __name__ == "__main__":
    args = argparser("Table 9: conditioned traversal cost").parse_args()
    spark = get_spark("table9")
    trials = run_sweeps.load_trials(spark, run_sweeps.run(spark, args.profile))
    t9 = tables.table9(trials, tables.table8(spark, args.profile))
    emit(tables.to_markdown(t9), args.out)
