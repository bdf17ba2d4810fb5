"""One Spark configuration and one job map: the tests run on the session the
table jobs and the benchmark runner start, and ``jobs/run.py`` reaches every
table driver. Launches no Spark job."""
from __future__ import annotations

import importlib.util
import os
from pathlib import Path

import pytest

from repro import session
from repro.experiments import tables

JOBS = Path(__file__).resolve().parents[1] / "jobs"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, JOBS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_factory_is_the_session_factory():
    assert _load("_common").get_spark is session.get_spark


def test_session_config(spark):
    assert spark.conf.get("spark.sql.shuffle.partitions") == os.environ.get(
        "SPARK_SHUFFLE_PARTITIONS", str(spark.sparkContext.defaultParallelism))
    assert spark.conf.get("spark.sql.autoBroadcastJoinThreshold") == "-1"
    assert spark.conf.get("spark.sql.execution.arrow.pyspark.enabled") == "true"
    assert spark.conf.get("spark.python.sql.dataFrameDebugging.enabled") == "false"


def test_job_map_covers_every_driver_and_result():
    jobs = _load("run").JOBS
    assert sorted(f.__name__ for f in jobs.values()) == sorted(tables.__all__)
    assert {p.stem for p in (JOBS / "results").glob("*.csv")} <= set(jobs)


def test_unknown_stem_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        _load("run").main(["t13_missing"])
    assert exc.value.code != 0
