"""Table 8 — per-sample traversal cost at k = 1, sample number 1."""
from _common import argparser, emit

from repro.experiments import tables
from repro.spark import get_spark

if __name__ == "__main__":
    args = argparser("Table 8: traversal cost").parse_args()
    t8 = tables.table8(get_spark("table8"), args.profile)
    emit(tables.to_markdown(t8), args.out)
