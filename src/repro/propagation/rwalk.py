"""Homophily-only baselines (paper Sections 2.4 and Fig 6i).

Standard semi-supervised label propagation (harmonic functions / MultiRankWalk
style) assumes assortative mixing — in the LinBP framework this is exactly
compatibility matrix ``H = I`` (each class prefers itself). The paper's Fig 6i
sanity check shows these methods collapse on graphs with arbitrary
compatibilities; we reproduce that by running the same propagation engine with
the identity compatibility matrix, plus a degree-normalized random-walk
variant.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graphs.edges import degrees_df
from repro.linops.ops import (
    add,
    cls_cols,
    iterate,
    materialize,
    onehot_df,
    release,
    scale_rows,
    spmm,
)
from repro.propagation.linbp import linbp_propagate

__all__ = ["homophily_propagate", "random_walk_propagate"]


def homophily_propagate(
    edges: DataFrame,
    seed_labels: DataFrame,
    k: int,
    *,
    rho_w: float,
    s: float = 0.5,
    iters: int = 10,
) -> DataFrame:
    """Harmonic-functions-style propagation = LinBP with ``H = I_k``."""
    return linbp_propagate(
        edges, seed_labels, np.eye(k), rho_w=rho_w, s=s, iters=iters
    )


def random_walk_propagate(
    edges: DataFrame,
    seed_labels: DataFrame,
    k: int,
    *,
    alpha: float = 0.85,
    iters: int = 10,
) -> DataFrame:
    """MultiRankWalk (paper Eq 3): ``F <- (1-alpha) U + alpha W_col F`` with
    one personalized walk per class. ``W_col`` is the column-normalized
    adjacency, i.e. messages are divided by the *sender's* degree:
    ``W_col F = W (D^-1 F)``. A step joins ``F`` to the inverse degrees, then
    joins the edges and sums their rows together with ``(1-alpha) U`` in one
    aggregation (``add``). The loop is ``repro.linops.ops.iterate``
    (one-leaf plan per step); the returned frame is persisted, for the caller
    to ``unpersist()``."""
    inv_deg = materialize(
        degrees_df(edges).select("node", (1.0 / F.col("deg")).alias("deg"))
    )
    U = onehot_df(seed_labels, k)
    # Normalize each class column of U to sum 1 (teleport distributions).
    cols = cls_cols(k)
    sums = U.agg(*[F.sum(c).alias(c) for c in cols]).first()
    U = materialize(U.select(
        "node",
        *[
            (F.col(c) / F.lit(float(sums[c]) if sums[c] else 1.0)).alias(c)
            for c in cols
        ],
    ))

    def step(Fdf: DataFrame) -> DataFrame:
        return add(U, spmm(edges, scale_rows(Fdf, inv_deg, k), k), k,
                   ca=(1.0 - alpha), cb=alpha)

    try:
        return iterate(step, U, iters)
    finally:
        release(U)
        release(inv_deg)
