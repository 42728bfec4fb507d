"""The one session builder: the settings every job and test session gets."""


def test_console_progress_bars_off(spark):
    # Set in the builder config, so it holds even when PYSPARK_SUBMIT_ARGS
    # was already in the environment.
    conf = spark.sparkContext.getConf()
    assert conf.get("spark.ui.showConsoleProgress") == "false"
