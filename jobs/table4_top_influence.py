"""Table 4 — top-3 single-vertex influence spread on BA_s / BA_d."""
from repro.experiments.tables import table4, to_markdown


def profile_theta(profile: str) -> int:
    """RR sets per oracle: 2¹⁴ under ``--profile test``, else 2¹⁸."""
    return 1 << (14 if profile == "test" else 18)


def run(spark, theta: int = 1 << 18):
    return table4(spark, theta=theta)


if __name__ == "__main__":
    from _common import argparser, emit, get_spark

    args = argparser("Table 4: top-3 single-vertex influence").parse_args()
    theta = profile_theta(args.profile)
    emit(to_markdown(run(get_spark("table4"), theta=theta)), args.out)
