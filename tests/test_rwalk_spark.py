"""Tests for the homophily-only baselines (harmonic-style and MultiRankWalk)."""
from __future__ import annotations

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro import reference as R
from repro.core.compat import skew_H
from repro.graphs.edges import sample_seeds, to_spark_edges, to_spark_labels
from repro.graphs.generator import planted_graph
from repro.linops.ops import cls_cols, to_numpy_frame
from repro.propagation.linbp import accuracy_spark, predict_labels
from repro.propagation.rwalk import homophily_propagate, random_walk_propagate


@pytest.fixture(scope="module")
def homo_graph(spark):
    """A strongly homophilous graph (identity-like H) where the baselines
    should do well."""
    H = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
    g = planted_graph(1200, 12_000, [1 / 3] * 3, H, seed=41)
    edges = to_spark_edges(spark, g.edges).persist()
    edges.count()
    seeds_pdf = sample_seeds(g.labels, 0.05, seed=0)
    yield dict(
        g=g, edges=edges,
        seeds=to_spark_labels(spark, seeds_pdf),
        all_labels=to_spark_labels(spark, g.labels),
        rho_w=R.power_iteration_rho(*g.coo(), g.n),
    )
    edges.unpersist()


def test_homophily_propagate_good_on_homophilous(homo_graph):
    bel = homophily_propagate(homo_graph["edges"], homo_graph["seeds"], 3,
                              rho_w=homo_graph["rho_w"])
    acc = accuracy_spark(predict_labels(bel, 3), homo_graph["all_labels"],
                         homo_graph["seeds"])
    bel.unpersist()
    assert acc > 0.8


def test_random_walk_good_on_homophilous(homo_graph):
    bel = random_walk_propagate(homo_graph["edges"], homo_graph["seeds"], 3)
    acc = accuracy_spark(predict_labels(bel, 3), homo_graph["all_labels"],
                         homo_graph["seeds"])
    bel.unpersist()
    assert acc > 0.7


def test_homophily_fails_on_heterophilous(spark):
    """The paper's Fig 6i: homophily baselines collapse to ~chance on a
    heterophilous graph while LinBP+true-H stays accurate."""
    from repro.propagation.linbp import linbp_propagate

    # Fully heterophilous H (zero diagonal): every class prefers the others,
    # so a homophily assumption is wrong for *all* classes. (skew_H leaves
    # one class homophilous, which lets the baseline scrape ~0.6.)
    H = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    g = planted_graph(1200, 12_000, [1 / 3] * 3, H, seed=42)
    edges = to_spark_edges(spark, g.edges).persist()
    seeds_pdf = sample_seeds(g.labels, 0.05, seed=0)
    seeds = to_spark_labels(spark, seeds_pdf)
    all_labels = to_spark_labels(spark, g.labels)
    rho = R.power_iteration_rho(*g.coo(), g.n)

    bel_h = homophily_propagate(edges, seeds, 3, rho_w=rho)
    acc_h = accuracy_spark(predict_labels(bel_h, 3), all_labels, seeds)
    bel_h.unpersist()

    bel_t = linbp_propagate(edges, seeds, H, rho_w=rho)
    acc_t = accuracy_spark(predict_labels(bel_t, 3), all_labels, seeds)
    bel_t.unpersist()
    edges.unpersist()

    assert acc_t > 0.8
    assert acc_h < 0.6
    assert acc_t > acc_h + 0.3


def test_random_walk_teleport_distributions_normalized(homo_graph, spark):
    bel = random_walk_propagate(homo_graph["edges"], homo_graph["seeds"], 3,
                                iters=1)
    pdf = bel.toPandas()
    # beliefs must be finite and nonnegative after one step
    vals = pdf[cls_cols(3)].to_numpy()
    assert np.isfinite(vals).all()
    assert (vals >= -1e-12).all()
    bel.unpersist()


def test_random_walk_matches_numpy_beliefs(tiny_spark):
    bel = random_walk_propagate(tiny_spark.edges, tiny_spark.seeds, tiny_spark.k, iters=3)
    got = to_numpy_frame(bel, tiny_spark.n, tiny_spark.k)
    bel.unpersist()
    seeds = dict(zip(tiny_spark.seeds_pdf.node, tiny_spark.seeds_pdf.label))
    ref = R.random_walk(tiny_spark.src, tiny_spark.dst, seeds, tiny_spark.n, tiny_spark.k,
                        iters=3)
    assert np.allclose(got, ref, rtol=0, atol=1e-9)
