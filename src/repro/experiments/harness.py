"""End-to-end experiment harness (paper Section 5 protocol).

One *trial* = generate a planted graph -> sample a stratified seed fraction f
-> estimate H with each method -> propagate labels with LinBP using the
estimated H -> score accuracy on the non-seed nodes. ``run_trial`` returns
one row per method; drivers in ``tables.py`` sweep parameters and average
over repeated trials.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro import reference
from repro.core import compat
from repro.core.estimators import (
    EstimationResult,
    dce,
    dcer,
    gold_standard,
    heuristic_hl,
    holdout,
    lce,
    mce,
)
from repro.graphs.edges import sample_seeds, to_spark_edges, to_spark_labels
from repro.graphs.generator import PlantedGraph
from repro.propagation.linbp import accuracy_spark, linbp_propagate, predict_labels
from repro.propagation.rwalk import homophily_propagate, random_walk_propagate

__all__ = ["PreparedGraph", "prepare", "score", "run_trial", "DEFAULT_METHODS"]

DEFAULT_METHODS = ("gs", "dcer", "dce", "mce", "lce", "random")


@dataclass
class PreparedGraph:
    """A generated graph lifted into Spark, with seeds sampled and the
    adjacency spectral radius precomputed (shared across methods)."""

    g: PlantedGraph
    f: float
    edges: DataFrame
    all_labels: DataFrame
    seeds: DataFrame
    n_seeds: int
    rho_w: float
    gs_H: np.ndarray

    def unpersist(self) -> None:
        self.edges.unpersist()


def prepare(
    spark: SparkSession, g: PlantedGraph, f: float, *, seed: int = 0
) -> PreparedGraph:
    """Lift a planted graph into Spark and sample the seed fraction f. The
    edges are persisted once, hash-partitioned on ``dst``, so no step that
    joins them reshuffles them. Raises ``ValueError`` on a label outside
    ``[0, k)`` (and, through ``to_spark_edges``, on a self-loop or a negative
    node id).

    rho(W) comes from the numpy power iteration on the driver, as the paper
    computes it on the driver with PyAMG: one scalar, consumed by every
    propagation run."""
    if not g.labels["label"].between(0, g.k - 1).all():
        raise ValueError(f"labels must lie in [0, {g.k})")
    edges = to_spark_edges(spark, g.edges).persist()
    edges.count()
    all_labels = to_spark_labels(spark, g.labels)
    seeds_pdf = sample_seeds(g.labels, f, seed=seed)
    seeds = to_spark_labels(spark, seeds_pdf)
    src, dst = g.coo()
    rho_w = reference.power_iteration_rho(src, dst, g.n)
    gs = gold_standard(edges, all_labels, g.k)
    return PreparedGraph(
        g=g, f=f, edges=edges, all_labels=all_labels, seeds=seeds,
        n_seeds=len(seeds_pdf), rho_w=rho_w, gs_H=gs.H,
    )


def score(prep: PreparedGraph, beliefs: DataFrame) -> float:
    """Accuracy of the argmax labels of ``beliefs`` over the non-seed nodes;
    frees ``beliefs``."""
    acc = accuracy_spark(predict_labels(beliefs, prep.g.k), prep.all_labels,
                         prep.seeds)
    beliefs.unpersist()
    return acc


def _estimate(prep: PreparedGraph, method: str, *, ell_max: int, lam: float,
              restarts: int, holdout_b: int, seed: int) -> EstimationResult | None:
    k = prep.g.k
    if method == "gs":
        return EstimationResult(H=prep.gs_H, method="gs")
    if method == "dcer":
        return dcer(prep.edges, prep.seeds, k, ell_max=ell_max, lam=lam,
                    restarts=restarts, seed=seed)
    if method == "dce":
        return dce(prep.edges, prep.seeds, k, ell_max=ell_max, lam=lam)
    if method == "mce":
        return mce(prep.edges, prep.seeds, k)
    if method == "lce":
        return lce(prep.edges, prep.seeds, k)
    if method == "holdout":
        return holdout(prep.edges, prep.seeds, k, rho_w=prep.rho_w, b=holdout_b,
                       seed=seed)
    if method == "heuristic":
        return heuristic_hl(prep.gs_H)
    return None  # non-estimating methods: random / homophily / rwalk


def run_trial(
    prep: PreparedGraph,
    methods: tuple[str, ...] = DEFAULT_METHODS,
    *,
    ell_max: int = 5,
    lam: float = 10.0,
    restarts: int = 10,
    holdout_b: int = 1,
    prop_iters: int = 10,
    s: float = 0.5,
    seed: int = 0,
) -> pd.DataFrame:
    """Run every method on one prepared graph; returns a row per method with
    estimation time (split by phase), L2 distance to GS, and end-to-end
    propagation accuracy."""
    k = prep.g.k
    truth_np = prep.g.truth()
    seed_nodes = set(prep.seeds.toPandas()["node"].astype(int))
    rows = []
    for method in methods:
        est = _estimate(prep, method, ell_max=ell_max, lam=lam,
                        restarts=restarts, holdout_b=holdout_b, seed=seed)
        t0 = time.perf_counter()
        if method == "random":
            rng = np.random.default_rng(seed)
            pred_np = rng.integers(0, k, prep.g.n)
            acc = reference.accuracy(pred_np, truth_np, exclude=seed_nodes)
            prop_time = 0.0
        else:
            if method == "homophily":
                beliefs = homophily_propagate(
                    prep.edges, prep.seeds, k, rho_w=prep.rho_w, s=s,
                    iters=prop_iters,
                )
            elif method == "rwalk":
                beliefs = random_walk_propagate(
                    prep.edges, prep.seeds, k, iters=prop_iters
                )
            else:
                beliefs = linbp_propagate(
                    prep.edges, prep.seeds, est.H, rho_w=prep.rho_w, s=s,
                    iters=prop_iters,
                )
            acc = score(prep, beliefs)
            prop_time = time.perf_counter() - t0
        rows.append(dict(
            method=method, acc=acc,
            l2_gs=compat.l2_distance(est.H, prep.gs_H) if est else np.nan,
            est_time=est.total_time if est else 0.0,
            sketch_time=est.sketch_time if est else 0.0,
            opt_time=est.opt_time if est else 0.0,
            prop_time=prop_time,
        ))
    out = pd.DataFrame(rows)
    out.insert(0, "f", prep.f)
    out.insert(0, "n_seeds", prep.n_seeds)
    return out
