"""Regenerate every results/*.md from the sweep parquet in one session.

Equivalent to running the per-table jobs in sequence, but measures Table 8
once and reuses it for Table 9.
"""
import run_sweeps
import table3_network_stats
import table4_top_influence
import table8_traversal_cost
import table9_conditioned_cost
from _common import argparser, emit, get_spark

from repro.experiments.tables import table5, table6_and_7, to_markdown

if __name__ == "__main__":
    args = argparser("All tables").parse_args()
    spark = get_spark("all-tables")

    t3 = table3_network_stats.run(spark)
    emit(to_markdown(t3), "../results/table3.md")

    t4 = table4_top_influence.run(
        spark, theta=table4_top_influence.profile_theta(args.profile)
    )
    emit(to_markdown(t4), "../results/table4.md")

    out_dir = run_sweeps.run(spark, args.profile)
    trials = run_sweeps.load_trials(spark, out_dir).cache()

    t5 = table5(trials)
    emit(
        to_markdown(t5.sort_values(["network", "setting", "k", "alg"])),
        "../results/table5.md",
    )

    t6, t7 = table6_and_7(trials)
    emit(to_markdown(t6.sort_values(["network", "setting", "k"])),
         "../results/table6.md")
    emit(to_markdown(t7.sort_values(["network", "setting", "k"])),
         "../results/table7.md")

    t8 = table8_traversal_cost.run(spark, args.profile)
    emit(to_markdown(t8), "../results/table8.md")

    t9 = table9_conditioned_cost.run(spark, trials, t8)
    emit(
        to_markdown(t9.sort_values(["network", "setting", "alg"])),
        "../results/table9.md",
    )
    print("ALL TABLES DONE")
