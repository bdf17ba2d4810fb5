import sys

import pytest
from pyspark.sql import SparkSession

from repro.session import get_spark


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One Spark session for the whole test session, from the same factory
    the table jobs and the benchmark runner use."""
    s = get_spark()
    sc = s.sparkContext
    # One line in the test log that records the configuration the tests ran.
    print(
        f"[conftest] spark.driver.memory={sc.getConf().get('spark.driver.memory')} "
        f"master={sc.master} defaultParallelism={sc.defaultParallelism} "
        f"shuffle.partitions={s.conf.get('spark.sql.shuffle.partitions')}",
        file=sys.stderr,
    )
    yield s
    s.stop()
