"""Regenerate every table in one Spark session, from any working directory.

Writes ``table3.md`` … ``table9.md`` under ``--out``: by default
``results/`` for ``--profile quick`` and ``results/test/`` for
``--profile test``. Table 8 is measured once and reused for Table 9.
"""
import os

import run_sweeps
from _common import RESULTS_DIR, argparser, emit

from repro.experiments import instances, tables
from repro.spark import get_spark

if __name__ == "__main__":
    args = argparser("All tables").parse_args()
    out_dir = args.out or (
        RESULTS_DIR if args.profile == "quick"
        else os.path.join(RESULTS_DIR, args.profile)
    )
    spark = get_spark("all-tables")

    def write(n: int, df) -> None:
        emit(tables.to_markdown(df), os.path.join(out_dir, f"table{n}.md"))

    write(3, tables.table3(spark))
    write(4, tables.table4(
        spark, theta=instances.profile_theta(args.profile)
    ))
    trials = run_sweeps.load_trials(
        spark, run_sweeps.run(spark, args.profile)
    ).cache()
    write(5, tables.table5(trials))
    t6, t7 = tables.table6_and_7(trials)
    write(6, t6)
    write(7, t7)
    t8 = tables.table8(spark, args.profile)
    write(8, t8)
    write(9, tables.table9(trials, t8))
    print("ALL TABLES DONE")
