"""The one Spark session factory: tests, table jobs and the benchmark runner
all start Spark through ``get_spark``.

Environment knobs, read here and nowhere else:

* ``SPARK_MASTER`` — master URL (default ``local[*]``);
* ``SPARK_DRIVER_MEM`` — driver heap (default: half of the machine's memory,
  clamped to [2, 8] GiB);
* ``SPARK_SHUFFLE_PARTITIONS`` — ``spark.sql.shuffle.partitions`` (default:
  the session's ``defaultParallelism``, one partition per core).

Broadcast joins are disabled so ``W·N`` exercises the shuffle path the paper's
cost model describes, at every graph size. One shuffle partition per core:
at the graph sizes run here a step's cost is mostly fixed cost per task, so
more partitions than cores only add tasks. PySpark's DataFrame debugging
(the Python call site of every Column call, kept for error messages) is off:
it costs three JVM round trips per Column call, and an iterative step makes
dozens of them. On the 10k-node benchmark graph (4 vCPUs, one profiled run
each) turning it off took the sketch from 6.5 to 5.4 s and LinBP from 8.0 to
7.2 s.
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
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.python.sql.dataFrameDebugging.enabled", "false")
        .getOrCreate()
    )
    spark.conf.set("spark.sql.shuffle.partitions",
                   os.environ.get("SPARK_SHUFFLE_PARTITIONS",
                                  str(spark.sparkContext.defaultParallelism)))
    spark.sparkContext.setLogLevel("ERROR")
    return spark
