"""The one Spark session builder, shared by the jobs and the test suite."""
import os

from pyspark.sql import SparkSession


def driver_memory() -> str:
    """``SPARK_DRIVER_MEM`` if set, else half of MemTotal clamped to 2–8 GiB."""
    if mem := os.environ.get("SPARK_DRIVER_MEM"):
        return mem
    try:
        with open("/proc/meminfo") as f:
            kib = int(f.readline().split()[1])  # "MemTotal: <n> kB"
    except OSError:  # not Linux
        return "2g"
    return f"{min(8, max(2, kib // (2 << 20)))}g"


def get_spark(app: str) -> SparkSession:
    """Local-mode session: all cores, 64 shuffle partitions, Arrow on, no
    console progress bars.

    Master and driver memory go in ``PYSPARK_SUBMIT_ARGS``, which pyspark
    reads only when the first ``getOrCreate`` launches the JVM; a value
    already in the environment wins.
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master local[*] --driver-memory {driver_memory()} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
