"""Tests for LinBP propagation on Spark: numpy equivalence, Theorem 3.1
invariance, convergence scaling, labeling and accuracy — plus a DuckDB oracle
check of one propagation step."""
from __future__ import annotations

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro import reference as R
from repro.core.compat import skew_H
from repro.linops.ops import from_numpy_frame, spmm, to_numpy_frame
from repro.oracle import assert_equivalent
from repro.propagation.linbp import (
    accuracy_spark,
    effective_h,
    linbp_propagate,
    predict_labels,
)
from repro.propagation.rwalk import random_walk_propagate


@pytest.fixture(scope="module")
def rho_w(tiny_spark):
    return R.power_iteration_rho(tiny_spark.src, tiny_spark.dst, tiny_spark.n)


def _seed_dict(tiny_spark):
    return dict(zip(tiny_spark.seeds_pdf.node, tiny_spark.seeds_pdf.label))


def test_effective_h_spectral_scaling(rho_w):
    H = skew_H(3, 8.0)
    Heff = effective_h(H, rho_w, s=0.5)
    rho_eff = np.max(np.abs(np.linalg.eigvals(Heff)))
    assert rho_eff * rho_w == pytest.approx(0.5, rel=1e-9)


def test_effective_h_shift_invariance(rho_w):
    H = skew_H(3, 3.0)
    assert np.allclose(effective_h(H, rho_w), effective_h(H + 0.7, rho_w))


def test_linbp_matches_numpy_beliefs(tiny_spark, rho_w, edge_case_spark):
    """Also on a graph with isolated nodes (one a seed) and a bipartite k=2
    graph."""
    cases = [(tiny_spark, rho_w)] + [(g, R.power_iteration_rho(g.src, g.dst, g.n))
                                     for g in edge_case_spark]
    for i, (g, rho) in enumerate(cases):
        H = g.g.H_planted
        bel = linbp_propagate(g.edges, g.seeds, H, rho_w=rho, iters=6)
        got = to_numpy_frame(bel, g.n, g.k)
        ref = R.linbp(g.src, g.dst, _seed_dict(g), H, g.n, iters=6, rho_w=rho)
        bel.unpersist()
        assert np.allclose(got, ref, atol=1e-9), f"graph {i}"


def test_linbp_accuracy_matches_numpy(tiny_spark, rho_w):
    H = skew_H(3, 3.0)
    bel = linbp_propagate(tiny_spark.edges, tiny_spark.seeds, H,
                          rho_w=rho_w, iters=6)
    acc_spark = accuracy_spark(predict_labels(bel, 3), tiny_spark.all_labels,
                               tiny_spark.seeds)
    bel.unpersist()
    ref = R.linbp(tiny_spark.src, tiny_spark.dst, _seed_dict(tiny_spark), H,
                  tiny_spark.n, iters=6, rho_w=rho_w)
    acc_np = R.accuracy(R.labels_from_beliefs(ref), tiny_spark.g.truth(),
                        exclude=set(tiny_spark.seeds_pdf.node))
    assert acc_spark == pytest.approx(acc_np, abs=1e-12)


def test_theorem31_label_invariance_spark(tiny_spark, rho_w):
    H = skew_H(3, 3.0)
    b1 = linbp_propagate(tiny_spark.edges, tiny_spark.seeds, H, rho_w=rho_w, iters=5)
    b2 = linbp_propagate(tiny_spark.edges, tiny_spark.seeds, H + 0.25,
                         rho_w=rho_w, iters=5)
    p1 = predict_labels(b1, 3).toPandas().sort_values("node").reset_index(drop=True)
    p2 = predict_labels(b2, 3).toPandas().sort_values("node").reset_index(drop=True)
    b1.unpersist()
    b2.unpersist()
    assert p1.equals(p2)


def test_one_linbp_step_vs_duckdb_oracle(tiny_spark, spark, rho_w):
    """F^(1) = X + (W X) Heff as SQL over edges/x in DuckDB vs the Spark op
    chain — catches join or aggregation bugs in the propagation step."""
    H = skew_H(3, 8.0)
    Heff = effective_h(H, rho_w)
    bel = linbp_propagate(tiny_spark.edges, tiny_spark.seeds, H, rho_w=rho_w,
                          iters=1)
    k = 3
    Xc = np.where(tiny_spark.X_seed.sum(axis=1, keepdims=True) > 0,
                  tiny_spark.X_seed - 1.0 / k, 0.0)
    x_pdf = from_numpy_frame(spark, Xc).toPandas()
    hcols = []
    for j in range(k):
        terms = " + ".join(f"wx.c{i} * {Heff[i, j]!r}" for i in range(k))
        hcols.append(f"COALESCE(x.c{j}, 0) + COALESCE({terms}, 0) AS c{j}")
    sql = f"""
        WITH wx AS (
            SELECT e.src AS node, SUM(x.c0) AS c0, SUM(x.c1) AS c1, SUM(x.c2) AS c2
            FROM edges e JOIN x ON e.dst = x.node GROUP BY e.src
        )
        SELECT COALESCE(x.node, wx.node) AS node, {", ".join(hcols)}
        FROM x FULL OUTER JOIN wx ON x.node = wx.node
    """
    assert_equivalent(bel, sql, edges=tiny_spark.edges_pdf, x=x_pdf)
    bel.unpersist()


def test_propagation_releases_cached_iterates(spark, tiny_spark, rho_w):
    """After each 10-iteration call plus ``unpersist()`` of the returned
    beliefs, the persistent-RDD count is back at its starting value: every
    materialized iterate and seed frame was released."""
    runs = {
        "linbp": lambda: linbp_propagate(tiny_spark.edges, tiny_spark.seeds, skew_H(3, 3.0),
                                         rho_w=rho_w, iters=10),
        "random walk": lambda: random_walk_propagate(tiny_spark.edges, tiny_spark.seeds, 3,
                                                     iters=10),
    }
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    for name, run in runs.items():
        before = persistent().size()
        for call in range(3):
            run().unpersist()
            assert persistent().size() == before, f"{name}, call {call}"


def test_propagation_releases_its_frames_when_a_step_raises(spark, tiny_spark, rho_w,
                                                           monkeypatch):
    """A step that raises mid-loop (here the third ``W F``) leaves no cached
    frame behind: the seed frames and the iterate the step read are released
    before the error propagates."""
    from repro.propagation import linbp, rwalk

    def failing_spmm(edges, N, k):
        if len(calls) == 2:
            raise RuntimeError("step 3 failed")
        calls.append(None)
        return spmm(edges, N, k)

    for module in (linbp, rwalk):
        monkeypatch.setattr(module, "spmm", failing_spmm)
    runs = {
        "linbp": lambda: linbp_propagate(tiny_spark.edges, tiny_spark.seeds, skew_H(3, 3.0),
                                         rho_w=rho_w, iters=10),
        "random walk": lambda: random_walk_propagate(tiny_spark.edges, tiny_spark.seeds, 3,
                                                     iters=10),
    }
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before = persistent().size()
    for name, run in runs.items():
        calls = []
        with pytest.raises(RuntimeError, match="step 3 failed"):
            run()
        assert persistent().size() == before, name


def test_predict_labels_argmax_semantics(spark):
    A = np.array([[0.2, 0.9, 0.1], [0.5, 0.5, 0.0], [-1.0, -2.0, -0.5]])
    df = from_numpy_frame(spark, A, drop_zero_rows=False)
    pred = {r["node"]: r["pred"] for r in predict_labels(df, 3).collect()}
    assert pred == {0: 1, 1: 0, 2: 2}  # tie -> lowest class id


def test_accuracy_spark_counts_unreached_as_wrong(tiny_spark, spark):
    # A prediction frame covering nobody -> accuracy 0.
    empty = spark.createDataFrame([], "node long, pred long")
    acc = accuracy_spark(empty, tiny_spark.all_labels, tiny_spark.seeds)
    assert acc == 0.0


def test_accuracy_spark_perfect(tiny_spark, spark):
    pred = tiny_spark.all_labels.select("node", F.col("label").alias("pred"))
    acc = accuracy_spark(pred, tiny_spark.all_labels, tiny_spark.seeds)
    assert acc == 1.0


def test_linbp_high_accuracy_with_true_h(spark):
    from repro.graphs.edges import sample_seeds, to_spark_edges, to_spark_labels
    from repro.graphs.generator import planted_graph

    H = skew_H(3, 8.0)
    g = planted_graph(1500, 15_000, [1 / 3] * 3, H, seed=31)
    edges = to_spark_edges(spark, g.edges).persist()
    seeds_pdf = sample_seeds(g.labels, 0.05, seed=0)
    src, dst = g.coo()
    rho = R.power_iteration_rho(src, dst, g.n)
    seeds = to_spark_labels(spark, seeds_pdf)
    all_labels = to_spark_labels(spark, g.labels)
    bel = linbp_propagate(edges, seeds, H, rho_w=rho)
    acc = accuracy_spark(predict_labels(bel, 3), all_labels, seeds)
    bel.unpersist()
    edges.unpersist()
    assert acc > 0.85
