"""Spectral radius of the adjacency matrix (needed for LinBP's convergence
scaling, paper Eq 2).

The paper uses PyAMG's approximate eigenvalue method; here we use textbook
power iteration — a Spark DataFrame version (the dataflow path) and the numpy
reference in ``repro.reference.power_iteration_rho``. The Spark version is a
one-column ``c0`` frame stepped by ``ops.spmm`` in the ``ops.iterate`` loop
that LinBP and the random walk share, so every iteration plans over one leaf.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.linops.ops import iterate, materialize, release, spmm

__all__ = ["spectral_radius_spark"]


def _norm(v: DataFrame) -> float:
    """``||v||`` of a one-column frame; 0.0 for an empty one."""
    return float(v.agg(F.sqrt(F.sum(F.col("c0") ** 2))).first()[0] or 0.0)


def spectral_radius_spark(edges: DataFrame, *, iters: int = 30, seed: int = 0) -> float:
    """Power iteration ``v <- W v / ||v||`` over the symmetric edges
    DataFrame, with ``||W v|| / ||v||`` as the estimate. Converges quickly
    because adjacency spectra of the generated graphs have a clear dominant
    eigenvalue (W symmetric => rho = |lambda_1|). An edgeless graph gives 0.0.
    """
    nodes = edges.select(F.col("src").alias("node")).distinct()
    v0 = materialize(nodes.withColumn(
        "c0", F.abs(F.hash(F.col("node") + F.lit(seed))).cast("double") % 1000.0 + 1.0
    ))

    def step(v: DataFrame) -> DataFrame:
        nrm = _norm(v)
        scale = 1.0 / nrm if nrm else 0.0
        return spmm(edges, v, 1).select("node", (F.col("c0") * scale).alias("c0"))

    v = iterate(step, v0, iters)
    release(v0)
    rho = _norm(v)
    v.unpersist()
    return rho
