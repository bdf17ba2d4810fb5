"""Core DataFrame matrix operations (paper Sections 4.3-4.6).

All operations are pure DataFrame -> DataFrame transformations on the wide
``(node, c0..c{k-1})`` encoding. k is small (2..12 in the paper) so one
double column per class keeps every op a plain join + aggregate that Catalyst
can plan — exactly the paper's point that factorized evaluation *is* join
reordering (its footnote 5 draws the analogy to pushing projections through
joins).

Absent rows mean all-zero rows, so sparsity is preserved through the
recurrences. Every sum ends in one aggregation: ``spmm`` emits one row per edge
from its join and ``add`` unions its terms, then both run one
``groupBy(node).sum``. A frame fresh from ``spmm`` or ``add`` keeps the rows it
sums, and an ``add`` that reads it sums those rows in its own aggregation. So
a recurrence step built from them (a sketch level, a LinBP or random-walk
iteration) is one join against the edges plus one aggregation. The edges come
hash-partitioned on ``dst`` (``repro.graphs.edges.to_spark_edges``), so that
join reads them without a shuffle.

The recurrences (the sketch levels, LinBP, the random walk) would otherwise
grow their logical plan with every step: ``N^(l)`` reads both ``N^(l-1)`` and
``N^(l-2)``, so the plan of level l carries every earlier level, and each
action re-analyses that tree. ``materialize`` cuts the lineage at every step
and ``release`` frees the frame a step replaced; ``iterate`` is the one loop
built on the pair.
"""
from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

__all__ = [
    "cls_cols",
    "onehot_df",
    "spmm",
    "matmul_small",
    "add",
    "scale_rows",
    "xtn",
    "to_numpy_frame",
    "from_numpy_frame",
    "materialize",
    "release",
    "iterate",
]


def cls_cols(k: int) -> list[str]:
    """Column names of the k class channels."""
    return [f"c{i}" for i in range(k)]


def onehot_df(labels: DataFrame, k: int, *, centered: bool = False) -> DataFrame:
    """Seed matrix X as a wide DataFrame: one row per *labeled* node.

    ``centered=True`` gives the residual rows ``e_c - 1/k`` used by LinBP
    (unlabeled nodes are simply absent ≡ zero residual rows)."""
    off = -1.0 / k if centered else 0.0
    on = 1.0 + off
    cols = [
        F.when(F.col("label") == i, F.lit(on)).otherwise(F.lit(off)).alias(c)
        for i, c in enumerate(cls_cols(k))
    ]
    return labels.select(F.col("node"), *cols)


def _summed(rows: DataFrame, k: int) -> DataFrame:
    """``rows`` summed per node: the one aggregation ``spmm`` and ``add`` end
    in. The result keeps ``rows``, for an ``add`` that reads it."""
    out = rows.groupBy("node").agg(*[F.sum(c).alias(c) for c in cls_cols(k)])
    out._summed_rows = rows
    return out


def _rows(df: DataFrame) -> DataFrame:
    """The unsummed rows of a frame from ``_summed``, else the frame."""
    return vars(df).get("_summed_rows", df)


def spmm(edges: DataFrame, N: DataFrame, k: int, *, back: DataFrame | None = None) -> DataFrame:
    """``W @ N``: for each node, sum the rows of N over its neighbors.

    One join (edges.dst = N.node) that emits ``(src, N[dst])`` per edge, and
    one aggregation. The join is a shuffled hash join built on N's side (at
    most n rows), so the m edge rows stream through it and are never sorted,
    as a sort-merge join would. Nodes none of whose neighbors appear in N are
    absent from the result (zero rows).

    ``back=B`` gives the non-backtracking ``W @ N - D @ B`` from the same join:
    B's rows are negated and tagged onto N's side, and the join emits a tagged
    row at ``dst`` instead, once per incident edge, so the degrees come from
    the edges without a degree frame (W is symmetric)."""
    cols = cls_cols(k)
    side, node = N, edges["src"]
    if back is not None:
        side = N.withColumn("_at_src", F.lit(True)).unionByName(
            back.select("node", *[(-F.col(c)).alias(c) for c in cols],
                        F.lit(False).alias("_at_src")))
        node = F.when(side["_at_src"], edges["src"]).otherwise(edges["dst"])
    joined = edges.join(side.hint("shuffle_hash"), edges["dst"] == side["node"], "inner")
    return _summed(joined.select(node.alias("node"), *[side[c] for c in cols]), k)


def matmul_small(N: DataFrame, H: np.ndarray) -> DataFrame:
    """``N @ H`` for a small k x k numpy matrix H: each output column is a
    literal linear combination of the k input columns (no shuffle)."""
    k = H.shape[0]
    cols = cls_cols(k)
    exprs = []
    for j in range(k):
        e = sum(F.col(cols[i]) * float(H[i, j]) for i in range(k))
        exprs.append(e.alias(cols[j]))
    return N.select(F.col("node"), *exprs)


def add(A: DataFrame, B: DataFrame, k: int, *, ca: float = 1.0, cb: float = 1.0) -> DataFrame:
    """``ca * A + cb * B`` with absent rows treated as zero: one union and one
    aggregation. A frame from ``spmm`` or ``add`` enters as the rows it sums,
    so ``add(spmm(edges, N, k), X, k)`` is one join and one aggregation."""
    a, b = (_rows(df).select("node", *[(F.col(x) * c).alias(x) for x in cls_cols(k)])
            for df, c in ((A, ca), (B, cb)))
    return _summed(a.unionByName(b), k)


def scale_rows(N: DataFrame, diag: DataFrame, k: int) -> DataFrame:
    """``diag(d) @ N`` — multiply each row by a per-node scalar from ``diag``
    (node, deg), e.g. the random walk's ``D^-1 F``."""
    return N.join(diag, on="node", how="inner").select(
        "node", *[(F.col("deg") * F.col(c)).alias(c) for c in cls_cols(k)])


def xtn(labels: DataFrame, N: DataFrame, k: int) -> np.ndarray:
    """``M = X^T N`` collected to a k x k numpy matrix: join the labeled nodes
    onto N, group by class, sum each channel. Classes with no labeled nodes
    (or none reached) yield zero rows. A label outside [0, k) on a node that
    N reaches raises ``ValueError`` (checked on the collected rows, so it
    costs no job)."""
    cols = cls_cols(k)
    rows = (
        labels.join(N, on="node", how="inner")
        .groupBy("label")
        .agg(*[F.sum(c).alias(c) for c in cols])
        .collect()
    )
    M = np.zeros((k, k))
    for r in rows:
        label = int(r["label"])
        if not 0 <= label < k:
            raise ValueError(f"seed label {label} outside [0, {k})")
        M[label] = [r[c] for c in cols]
    return M


def to_numpy_frame(N: DataFrame, n: int, k: int) -> np.ndarray:
    """Collect a wide frame to a dense n x k array (tests / small graphs)."""
    out = np.zeros((n, k))
    pdf = N.toPandas()
    idx = pdf["node"].to_numpy().astype(int)
    out[idx] = pdf[cls_cols(k)].to_numpy()
    return out


def from_numpy_frame(spark: SparkSession, A: np.ndarray, *, drop_zero_rows: bool = True) -> DataFrame:
    """Lift a dense n x k array to the wide DataFrame encoding."""
    n, k = A.shape
    pdf = pd.DataFrame(A, columns=cls_cols(k))
    pdf.insert(0, "node", np.arange(n, dtype=np.int64))
    if drop_zero_rows:
        pdf = pdf[(A != 0).any(axis=1)]
    return spark.createDataFrame(pdf)


def materialize(df: DataFrame) -> DataFrame:
    """Compute ``df`` now and cut its lineage (an eager ``localCheckpoint()``).

    The returned frame's logical plan is a single leaf over the checkpointed
    blocks, so a step that reads it plans in constant size however many steps
    came before. Free it with :func:`release`."""
    return df.localCheckpoint(eager=True)


def release(df: DataFrame) -> None:
    """Free a frame returned by :func:`materialize`.

    ``DataFrame.unpersist()`` only drops entries of the SQL cache and leaves a
    local checkpoint's blocks persisted (PySpark 4.1), so the checkpointed RDD
    under the frame's one-leaf plan is unpersisted instead."""
    df._jdf.queryExecution().logical().rdd().unpersist(False)


def iterate(step: Callable[[DataFrame], DataFrame], start: DataFrame, iters: int) -> DataFrame:
    """``F <- step(F)`` for ``iters >= 1`` rounds from ``start``.

    Every iterate but the last is materialized, and the one it replaced is
    released only after that, so each step reads a one-leaf plan and at most
    two iterates are held. The last iterate is ``persist()``-ed and counted
    instead, so the caller frees it with ``unpersist()``. Its lineage runs
    through frames released after it is counted (the previous iterate, and
    ``start`` once the caller frees it). That is safe because the default
    MEMORY_AND_DISK level spills its blocks instead of dropping them, so they
    are never recomputed. ``start``, and anything else ``step`` reads, stays
    the caller's to release. When a step raises, the iterate it read is
    released before the error propagates."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    cur = start
    try:
        for _ in range(iters - 1):
            nxt = materialize(step(cur))
            if cur is not start:
                release(cur)
            cur = nxt
        last = step(cur).persist()
        last.count()
    finally:
        if cur is not start:
            release(cur)
    return last
