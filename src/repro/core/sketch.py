"""Factorized graph sketches (paper Sections 4.3-4.6, Algorithm 4.4).

Step 1 of the paper's two-step estimation: summarize the partially labeled
graph into k x k path-count summaries ``M^(l)`` for path lengths
l = 1..ell_max, in O(m k ell_max), *never* materializing ``W^l``.

* Full-path frames:          ``N^(l)   = W N^(l-1)``,  ``N^(0) = X``
* Non-backtracking frames:   ``N^(1)  = W X``
                             ``N^(2)  = W N^(1) - D X``
                             ``N^(l)  = W N^(l-1) - (D - I) N^(l-2)``   (Prop 4.3)
* Summaries:                 ``M^(l)  = X^T N^(l)``  (k x k, collected)

Normalizing ``M^(l)`` into the statistics ``P_hat^(l)`` (Eqs 9-11) is step
2's (``estimators._dce``); ``P`` holds the row-stochastic ones (Eq 9).

Every intermediate is an n x k DataFrame; the only data leaving the cluster
are the k x k summaries — the "factorized graph representation" whose size is
independent of the graph. Each level is one pass over the edges, as in the
paper's cost model: one join of the edges against ``N^(l-1)`` (and, for an NB
level, ``N^(l-2)``, whose ``D N^(l-2)`` rows the same join emits) and one
aggregation (``repro.linops.ops.spmm`` with ``back=``, and ``add``). Each
level is materialized with its lineage cut
(``repro.linops.ops.materialize``), so level l plans as ``W`` times one-leaf
frames rather than as the whole recurrence so far; a level is released once
the level that last reads it is materialized.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame

from repro.linops.ops import add, materialize, onehot_df, release, spmm, xtn
from repro.linops.ops import scale_rows  # noqa: F401  (counted by pipebench/tracing.py)
from repro.reference import normalize_m

__all__ = ["GraphSketches", "build_sketches", "explicit_power_m"]


@dataclass
class GraphSketches:
    """The factorized representation: raw path-count summaries ``M^(l)`` and
    their row-stochastic statistics ``P^(l)``, for l = 1..ell_max.
    ``variant`` names the normalization of ``P`` (1 when built here)."""

    k: int
    ell_max: int
    nb: bool
    variant: int
    M: list[np.ndarray] = field(default_factory=list)
    P: list[np.ndarray] = field(default_factory=list)


def build_sketches(
    edges: DataFrame,
    labels: DataFrame,
    k: int,
    *,
    ell_max: int = 5,
    nb: bool = True,
) -> GraphSketches:
    """Algorithm 4.4 over Spark DataFrames.

    ``edges`` is the symmetric edge DataFrame, ``labels`` the seed labels
    (node, label). Returns the k x k summaries only; all n x k intermediates
    are materialized per step and released as the recurrence advances, and
    all of them are released when a step raises.
    """
    sk = GraphSketches(k=k, ell_max=ell_max, nb=nb, variant=1)
    n_prev2: DataFrame | None = None  # N^(l-2)
    n_prev: DataFrame | None = None  # N^(l-1), from N^(0) = X
    try:
        n_prev = materialize(onehot_df(labels, k))
        for ell in range(1, ell_max + 1):
            if nb and ell >= 2:  # minus D X at l = 2, (D - I) N^(l-2) beyond
                cur = spmm(edges, n_prev, k, back=n_prev2)
                if ell > 2:
                    cur = add(cur, n_prev2, k)
            else:
                cur = spmm(edges, n_prev, k)
            cur = materialize(cur)
            if n_prev2 is not None:
                release(n_prev2)
            n_prev2, n_prev = n_prev, cur
            M = xtn(labels, cur, k)
            sk.M.append(M)
            sk.P.append(normalize_m(M))
    finally:
        for df in (n_prev2, n_prev):
            if df is not None:
                release(df)
    return sk


def explicit_power_m(
    edges: DataFrame,
    labels: DataFrame,
    k: int,
    ell: int,
) -> np.ndarray:
    """The *unfactorized* evaluation order the paper warns against
    (Section 4.6): materialize ``W^l`` as an edges-with-counts DataFrame by
    repeated self-joins, then compute ``M = X^T (W^l X)``. Intermediate size
    grows as ~d^(l-1) m — used by T4 to reproduce Fig 5b's blowup."""
    from pyspark.sql import functions as F

    w = edges.groupBy("src", "dst").agg(F.count("*").cast("double").alias("w"))
    cur = w
    for _ in range(ell - 1):
        lhs = cur.select(
            F.col("src").alias("a"), F.col("dst").alias("b"), F.col("w").alias("w1")
        )
        rhs = w.select(
            F.col("src").alias("b"), F.col("dst").alias("c"), F.col("w").alias("w2")
        )
        cur = (
            lhs.join(rhs, on="b", how="inner")
            .groupBy(F.col("a").alias("src"), F.col("c").alias("dst"))
            .agg(F.sum(F.col("w1") * F.col("w2")).alias("w"))
        )
    # M_ce = sum over labeled i (class c), labeled j (class e) of W^l_ij
    li = labels.select(F.col("node").alias("src"), F.col("label").alias("lc"))
    lj = labels.select(F.col("node").alias("dst"), F.col("label").alias("le"))
    rows = (
        cur.join(li, on="src").join(lj, on="dst")
        .groupBy("lc", "le")
        .agg(F.sum("w").alias("cnt"))
        .collect()
    )
    M = np.zeros((k, k))
    for r in rows:
        M[int(r["lc"]), int(r["le"])] = r["cnt"]
    return M
