"""Table 4 — top-3 single-vertex influence spread on BA_s / BA_d."""
from _common import argparser, emit

from repro.experiments import instances, tables
from repro.spark import get_spark

if __name__ == "__main__":
    args = argparser("Table 4: top-3 single-vertex influence").parse_args()
    theta = instances.profile_theta(args.profile)
    t4 = tables.table4(get_spark("table4"), theta=theta)
    emit(tables.to_markdown(t4), args.out)
