"""Spectral radius of the adjacency matrix (needed for LinBP's convergence
scaling, paper Eq 2).

The paper uses PyAMG's approximate eigenvalue method; here we use textbook
power iteration — a Spark DataFrame version (the dataflow path) and the numpy
reference in ``repro.reference.power_iteration_rho``. Each Spark iterate is
materialized with its lineage cut and the one it replaced released
(``repro.linops.ops``), so every iteration plans over one leaf.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.linops.ops import materialize, release

__all__ = ["spectral_radius_spark"]


def _norm(v: DataFrame) -> float | None:
    return v.agg(F.sqrt(F.sum(F.col("val") ** 2))).first()[0]


def spectral_radius_spark(edges: DataFrame, *, iters: int = 30, seed: int = 0) -> float:
    """Power iteration ``v <- W v / ||v||`` over the symmetric edges
    DataFrame, with ``||W v|| / ||v||`` as the estimate. Converges quickly
    because adjacency spectra of the generated graphs have a clear dominant
    eigenvalue (W symmetric => rho = |lambda_1|).
    """
    nodes = edges.select(F.col("src").alias("node")).distinct()
    v = materialize(nodes.withColumn(
        "val", F.abs(F.hash(F.col("node") + F.lit(seed))).cast("double") % 1000.0 + 1.0
    ))
    nrm = _norm(v)
    rho = 0.0
    for _ in range(iters):
        w = materialize(
            edges.join(v, edges["dst"] == v["node"], "inner")
            .groupBy(edges["src"].alias("node"))
            .agg((F.sum("val") / F.lit(nrm)).alias("val"))
        )
        release(v)
        v = w
        nrm = _norm(v)
        rho = float(nrm or 0.0)
        if not rho:
            break
    release(v)
    return rho
