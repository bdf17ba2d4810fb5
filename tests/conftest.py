"""Shared fixtures for the test suite.

The Spark session comes from the repo-root conftest (session-scoped
``spark``). Here we add session-scoped graph fixtures so the many Spark tests
amortize graph generation and DataFrame materialization.
"""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pandas as pd
import pytest

from repro import reference as R
from repro.core.compat import skew_H
from repro.graphs.edges import sample_seeds, to_spark_edges, to_spark_labels
from repro.graphs.generator import planted_graph


@pytest.fixture(scope="session")
def tiny_graph():
    """A 300-node, d~10, k=3 heterophilous planted graph (numpy side)."""
    return planted_graph(300, 1500, [1 / 3] * 3, skew_H(3, 3.0), seed=7)


@pytest.fixture(scope="session")
def tiny_seeds(tiny_graph):
    """20% stratified seed labels for the tiny graph."""
    return sample_seeds(tiny_graph.labels, 0.2, seed=1)


def _lift(spark, g, seeds_pdf):
    """``g`` lifted into Spark: symmetric edges (persisted), full labels, seed
    labels, plus the matching numpy views for cross-checks."""
    edges = to_spark_edges(spark, g.edges).persist()
    edges.count()
    src, dst = g.coo()
    return SimpleNamespace(
        g=g, edges=edges, all_labels=to_spark_labels(spark, g.labels),
        seeds=to_spark_labels(spark, seeds_pdf), seeds_pdf=seeds_pdf, src=src, dst=dst,
        X_full=R.onehot(dict(zip(g.labels.node, g.labels.label)), g.n, g.k),
        X_seed=R.onehot(dict(zip(seeds_pdf.node, seeds_pdf.label)), g.n, g.k),
        # Symmetric directed edge list as pandas, for the DuckDB oracle.
        edges_pdf=pd.DataFrame({"src": src, "dst": dst}), k=g.k, n=g.n,
    )


@pytest.fixture(scope="session")
def tiny_spark(spark, tiny_graph, tiny_seeds):
    """The tiny graph lifted into Spark (see ``_lift``)."""
    ns = _lift(spark, tiny_graph, tiny_seeds)
    yield ns
    ns.edges.unpersist()


@pytest.fixture(scope="session")
def edge_case_spark(spark):
    """Two small graphs at the edges of the Spark ops' contracts, lifted like
    ``tiny_spark``: a k=3 graph with four isolated nodes, one of them a seed
    (absent from every join on the edges), and a bipartite k=2 graph (every
    edge joins the two classes, so ``rho(W)`` has a twin ``-rho(W)``)."""
    g = planted_graph(200, 800, [1 / 3] * 3, skew_H(3, 3.0), seed=8)
    isolated = pd.DataFrame({"node": [200, 201, 202, 203], "label": [0, 1, 2, 0]})
    seeds = pd.concat([sample_seeds(g.labels, 0.2, seed=1), isolated.iloc[:1]],
                      ignore_index=True)
    g.labels = pd.concat([g.labels, isolated], ignore_index=True)
    g.n += len(isolated)
    bip = planted_graph(200, 800, [0.5, 0.5], np.array([[0.0, 1.0], [1.0, 0.0]]), seed=9)
    cases = [_lift(spark, g, seeds), _lift(spark, bip, sample_seeds(bip.labels, 0.2, seed=1))]
    yield cases
    for ns in cases:
        ns.edges.unpersist()


@pytest.fixture(scope="session")
def micro_coo():
    """A fixed 6-node hand-checkable graph (path + triangle + pendant):

        0-1, 1-2, 2-3, 3-4, 4-2, 4-5
    """
    und = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2), (4, 5)]
    src = np.array([u for u, v in und] + [v for u, v in und])
    dst = np.array([v for u, v in und] + [u for u, v in und])
    return src, dst, 6
