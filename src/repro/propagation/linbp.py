"""LinBP label propagation on Spark DataFrames (paper Sections 2.3, 3, 5).

Update equation (Eq 1 without the echo-cancellation term, which the paper
explicitly drops):

    ``F <- X + W F H_eff``

where ``H_eff = eps * (H - 1/k)`` is the centered compatibility matrix scaled
so that ``rho(H_eff) * rho(W) = s < 1`` — the convergence condition of Eq 2
(s = 0.5 and 10 iterations, as the paper's Section 5.3 runs it). Theorem 3.1
guarantees centering does not change the final labels; we center because the
centered iterate provably converges.

Each iteration is one narrow column combination (``F H_eff``), one join
against the edges that emits ``W F H_eff`` one row per edge, and one
aggregation that sums those rows together with ``X`` (``add``) — all
Catalyst-planned. The loop is ``repro.linops.ops.iterate``: every iterate is
materialized with its lineage cut and the one it replaced released, so
iteration t plans over one leaf, not over the t iterations before it; the
last iterate comes back persisted, for the caller to ``unpersist()``.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.linops.ops import (
    add,
    cls_cols,
    iterate,
    materialize,
    matmul_small,
    onehot_df,
    release,
    spmm,
)

__all__ = ["linbp_propagate", "predict_labels", "accuracy_spark", "effective_h"]


def effective_h(H: np.ndarray, rho_w: float, *, s: float = 0.5) -> np.ndarray:
    """Center H and scale it to sit at fraction ``s`` of the convergence
    boundary: ``eps = s / (rho(H_centered) * rho(W))``."""
    H = np.asarray(H, float)
    k = H.shape[0]
    # Mean-row-sum centering (instead of a bare 1/k) so a constant shift of H
    # cancels exactly — this makes the Theorem-3.1 label invariance hold even
    # through the spectral-radius scaling.
    Hc = H - float(H.sum(axis=1).mean()) / k
    rho_h = float(np.max(np.abs(np.linalg.eigvals(Hc))))
    if rho_h * rho_w <= 0:
        return Hc
    return (s / (rho_h * rho_w)) * Hc


def linbp_propagate(
    edges: DataFrame,
    seed_labels: DataFrame,
    H: np.ndarray,
    *,
    rho_w: float,
    s: float = 0.5,
    iters: int = 10,
) -> DataFrame:
    """Run LinBP for ``iters >= 1`` rounds; returns the persisted belief frame
    ``(node, c0..c{k-1})`` over every node reached by propagation (free it
    with ``unpersist()``)."""
    k = H.shape[0]
    Heff = effective_h(H, rho_w, s=s)
    X = materialize(onehot_df(seed_labels, k, centered=True))

    def step(Fdf: DataFrame) -> DataFrame:
        return add(spmm(edges, matmul_small(Fdf, Heff), k), X, k)

    try:
        return iterate(step, X, iters)
    finally:
        release(X)


def predict_labels(beliefs: DataFrame, k: int) -> DataFrame:
    """Final labeling: per-node argmax class (ties -> lowest class id),
    matching the numpy reference's ``argmax`` semantics."""
    cols = cls_cols(k)
    arr = F.array(*[F.col(c) for c in cols])
    # array_position returns the 1-based index of the first maximal entry.
    pred = (F.array_position(arr, F.array_max(arr)) - 1).cast("long")
    return beliefs.select("node", pred.alias("pred"))


def accuracy_spark(pred: DataFrame, truth: DataFrame, seeds: DataFrame) -> float:
    """End-to-end accuracy over non-seed nodes (the paper's quality metric).
    Nodes propagation never reached count as wrong (no prediction). One
    action: the non-seed truth left-joined to the predictions, then one
    ``count`` and one ``sum`` of the matches."""
    eval_set = truth.join(seeds.select("node"), on="node", how="left_anti")
    total, correct = (
        eval_set.join(pred, on="node", how="left")
        .agg(F.count("*"), F.sum((F.col("label") == F.col("pred")).cast("long")))
        .first()
    )
    if total == 0:
        return float("nan")
    return (correct or 0) / total
