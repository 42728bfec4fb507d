import pytest


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session, built by
    ``repro.spark.get_spark`` like the jobs' sessions."""
    # Imported here so that suites which never ask for the fixture
    # (perfbench/tests) collect without ``src`` on the path.
    from repro.spark import get_spark

    s = get_spark("repro-tests")
    yield s
    s.stop()
