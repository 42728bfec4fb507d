"""Table 3 — network statistics for every registered network."""
from _common import argparser, emit

from repro.experiments import tables
from repro.spark import get_spark

if __name__ == "__main__":
    args = argparser("Table 3: network statistics").parse_args()
    t3 = tables.table3(get_spark("table3"))
    emit(tables.to_markdown(t3), args.out)
