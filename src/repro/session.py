"""The one Spark session factory: tests, table jobs and the benchmark runner
all start Spark through ``get_spark``.

Environment knobs, read here and nowhere else:

* ``SPARK_MASTER`` — master URL (default ``local[*]``);
* ``SPARK_DRIVER_MEM`` — driver heap (default: half of the machine's memory,
  clamped to [2, 8] GiB);
* ``SPARK_SHUFFLE_PARTITIONS`` — ``spark.sql.shuffle.partitions`` (default 32).

Broadcast joins are disabled so ``W·N`` exercises the shuffle path the paper's
cost model describes, at every graph size.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession

__all__ = ["get_spark"]


def _driver_mem() -> str:
    if mem := os.environ.get("SPARK_DRIVER_MEM"):
        return mem
    try:
        with open("/proc/meminfo") as fh:
            kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kb // 2097152))}g"


def get_spark() -> SparkSession:
    """Start (or return the running) local Spark session.

    ``spark.driver.memory`` is read at JVM launch, not from the session
    config, so master and heap go into ``PYSPARK_SUBMIT_ARGS``; an
    inherited ``PYSPARK_SUBMIT_ARGS`` wins."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {_driver_mem()} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    spark = (
        SparkSession.builder.appName("repro")
        .config("spark.sql.shuffle.partitions",
                os.environ.get("SPARK_SHUFFLE_PARTITIONS", "32"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark
