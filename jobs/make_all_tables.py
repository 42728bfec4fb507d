"""Regenerate the evaluation tables in one Spark session, from any working
directory.

``--tables`` picks which of Tables 3–9 to write (a comma list, default all
seven); each is written as ``tableN.md`` under ``--out``: by default
``results/`` for ``--profile quick`` and ``results/test/`` for ``--profile
test``. Tables 5, 6, 7 and 9 read the trial pool that ``run_sweeps`` writes
(or resumes) under ``results/trials_<profile>/``, so ``--tables 5`` also
runs the sweeps alone. Table 8 is measured once and reused for Table 9.
"""
import argparse
import os

from repro.experiments import instances, tables
from repro.experiments.runner import load_trials, run_sweeps
from repro.spark import get_spark

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results"
)
TABLES = (3, 4, 5, 6, 7, 8, 9)


def table_list(text: str) -> set[int]:
    """``"3,8"`` → ``{3, 8}``; every entry must name one of Tables 3–9."""
    try:
        wanted = {int(t) for t in text.split(",")}
    except ValueError:
        wanted = set()
    if not wanted or not wanted <= set(TABLES):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma list of tables 3-9"
        )
    return wanted


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description="Regenerate evaluation tables")
    ap.add_argument("--profile", default="quick", choices=["test", "quick"])
    ap.add_argument(
        "--tables", type=table_list, default=set(TABLES),
        help="comma list of the tables to write (default: 3,4,5,6,7,8,9)",
    )
    ap.add_argument("--out", default=None, help="output directory")
    args = ap.parse_args(argv)
    want = args.tables
    out_dir = args.out or (
        RESULTS_DIR if args.profile == "quick"
        else os.path.join(RESULTS_DIR, args.profile)
    )
    spark = get_spark("all-tables")

    def write(n: int, df) -> None:
        text = tables.to_markdown(df)
        print(text, flush=True)
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"table{n}.md"), "w") as f:
            f.write(text + "\n")

    if 3 in want:
        write(3, tables.table3(spark))
    if 4 in want:
        write(4, tables.table4(
            spark, theta=instances.profile_theta(args.profile)
        ))
    if want & {5, 6, 7, 9}:
        trials_dir = os.path.join(RESULTS_DIR, f"trials_{args.profile}")
        run_sweeps(spark, args.profile, trials_dir)
        trials = load_trials(spark, trials_dir).cache()
    if 5 in want:
        write(5, tables.table5(trials))
    if want & {6, 7, 9}:
        t6, t7 = tables.table6_and_7(trials)
        if 6 in want:
            write(6, t6)
        if 7 in want:
            write(7, t7)
    if want & {8, 9}:
        t8 = tables.table8(spark, args.profile)
        if 8 in want:
            write(8, t8)
    if 9 in want:
        write(9, tables.table9(t6, t7, t8))
    print("TABLES DONE:", ",".join(str(n) for n in sorted(want)))


if __name__ == "__main__":
    main()
