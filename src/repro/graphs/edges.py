"""Edge / label DataFrame utilities for the Spark dataflow.

Conventions used across the reproduction:

* an *undirected* graph is carried as a **symmetric** Spark edges DataFrame
  with columns ``(src: long, dst: long)`` containing both directions of every
  edge, hash-partitioned on ``dst`` into ``spark.sql.shuffle.partitions``
  parts, so that ``W @ N`` is a single join (which reads the edges without a
  shuffle) + groupBy-sum;
* seed labels are a DataFrame ``(node: long, label: int)``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

__all__ = [
    "to_spark_edges",
    "to_spark_labels",
    "degrees_df",
    "sample_seeds",
    "validate_symmetric",
]


def to_spark_edges(spark: SparkSession, edges_pdf: pd.DataFrame) -> DataFrame:
    """Lift a unique undirected edge list (src < dst) to a symmetric Spark
    edges DataFrame (both directions, deduplicated), hash-partitioned on
    ``dst`` into as many parts as a shuffle has: a join on ``dst = node`` then
    shuffles only its other side. Persist the result once; every step that
    reads it keeps that partitioning. Raises ``ValueError`` on a self-loop,
    which the non-backtracking ``(D - I)`` term does not allow for, and on a
    negative node id."""
    pdf = edges_pdf[["src", "dst"]].astype("int64")
    if (pdf["src"] == pdf["dst"]).any():
        raise ValueError("edge list has a self-loop")
    if (pdf.to_numpy() < 0).any():
        raise ValueError("edge list has a negative node id")
    both = pd.concat(
        [pdf, pdf.rename(columns={"src": "dst", "dst": "src"})[["src", "dst"]]],
        ignore_index=True,
    ).drop_duplicates()
    parts = int(spark.conf.get("spark.sql.shuffle.partitions"))
    return spark.createDataFrame(both).repartition(parts, "dst")


def to_spark_labels(spark: SparkSession, labels_pdf: pd.DataFrame) -> DataFrame:
    return spark.createDataFrame(labels_pdf[["node", "label"]].astype("int64"))


def degrees_df(edges: DataFrame) -> DataFrame:
    """Node degrees (node, deg: double) from a symmetric edges DataFrame."""
    return edges.groupBy(F.col("src").alias("node")).agg(
        F.count("*").cast("double").alias("deg")
    )


def sample_seeds(labels_pdf: pd.DataFrame, f: float, *, seed: int = 0) -> pd.DataFrame:
    """Sample a fraction ``f`` of labeled nodes as seeds.

    The paper samples a *stratified* fraction (classes in proportion to their
    frequencies). Each class contributes at least one seed so that extremely
    sparse regimes (f ~ 1e-4) still anchor every class — matching the paper's
    "8 labeled nodes in a 10k graph with k=3" setup.
    """
    rng = np.random.default_rng(seed)
    parts = []
    for _, grp in labels_pdf.groupby("label"):
        n_pick = max(1, int(round(f * len(grp))))
        idx = rng.choice(len(grp), size=min(n_pick, len(grp)), replace=False)
        parts.append(grp.iloc[idx])
    return pd.concat(parts, ignore_index=True)


def validate_symmetric(edges: DataFrame) -> bool:
    """True iff every (src, dst) has its reverse present (W symmetric) and
    there are no self-loops."""
    if edges.filter(F.col("src") == F.col("dst")).limit(1).count() > 0:
        return False
    rev = edges.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    missing = edges.exceptAll(rev).limit(1).count()
    return missing == 0
