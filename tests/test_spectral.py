"""Tests for spectral-radius computation (Spark dataflow vs numpy vs dense)."""
from __future__ import annotations

import numpy as np
import pytest

from repro import reference as R
from repro.graphs.edges import to_spark_edges
from repro.linops.spectral import spectral_radius_spark


def test_spark_matches_numpy(tiny_spark):
    rho_np = R.power_iteration_rho(tiny_spark.src, tiny_spark.dst, tiny_spark.n)
    rho_sp = spectral_radius_spark(tiny_spark.edges, iters=25)
    assert rho_sp == pytest.approx(rho_np, rel=0.02)


def test_spark_releases_its_iterates(tiny_spark, spark):
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before = persistent().size()
    spectral_radius_spark(tiny_spark.edges, iters=5)
    assert persistent().size() == before


def test_spark_ring_graph(spark):
    import pandas as pd

    n = 24
    pdf = pd.DataFrame({"src": range(n), "dst": [(i + 1) % n for i in range(n)]})
    # normalize to src<dst unique-undirected convention
    pdf = pd.DataFrame({
        "src": pdf[["src", "dst"]].min(axis=1),
        "dst": pdf[["src", "dst"]].max(axis=1),
    }).drop_duplicates()
    edges = to_spark_edges(spark, pdf)
    assert spectral_radius_spark(edges, iters=60) == pytest.approx(2.0, rel=1e-2)


def test_spark_star_graph(spark):
    import pandas as pd

    # star K_{1,9}: rho = sqrt(9) = 3
    pdf = pd.DataFrame({"src": [0] * 9, "dst": range(1, 10)})
    edges = to_spark_edges(spark, pdf)
    assert spectral_radius_spark(edges, iters=40) == pytest.approx(3.0, rel=1e-2)


def test_spark_edgeless_graph(spark):
    edges = spark.createDataFrame([], "src long, dst long")
    assert spectral_radius_spark(edges, iters=1) == 0.0
