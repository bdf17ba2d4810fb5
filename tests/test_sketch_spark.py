"""Tests for the factorized path summation (Algorithm 4.4) on Spark —
cross-checked against the numpy reference, brute-force path counts, the
explicit W^l evaluation order, and the DuckDB oracle."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference as R
from repro.core import sketch
from repro.core.compat import skew_H
from repro.core.gradient import dce_weights
from repro.core.sketch import build_sketches, explicit_power_m
from repro.graphs.edges import sample_seeds, to_spark_edges, to_spark_labels
from repro.graphs.generator import planted_graph
from repro.linops.ops import from_numpy_frame
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def sketches_nb(tiny_spark):
    return build_sketches(tiny_spark.edges, tiny_spark.seeds, tiny_spark.k,
                          ell_max=4, nb=True, variant=1)


@pytest.fixture(scope="module")
def sketches_full(tiny_spark):
    return build_sketches(tiny_spark.edges, tiny_spark.seeds, tiny_spark.k,
                          ell_max=4, nb=False, variant=1)


def test_sketch_shapes(sketches_nb):
    assert len(sketches_nb.M) == 4 and len(sketches_nb.P) == 4
    for M, P in zip(sketches_nb.M, sketches_nb.P):
        assert M.shape == (3, 3) and P.shape == (3, 3)


def _match_numpy(cases, frames):
    for i, (g, sk) in enumerate(cases):
        for ell, N in enumerate(frames(g.src, g.dst, g.X_seed, 4)):
            M_ref = R.m_matrix(g.X_seed, N)
            assert np.allclose(sk.M[ell], M_ref), f"graph {i}, l={ell+1}"


def test_nb_sketches_match_numpy(tiny_spark, sketches_nb, edge_case_spark):
    """Also on a graph with isolated nodes (one a seed) and a bipartite k=2
    graph."""
    _match_numpy([(tiny_spark, sketches_nb)]
                 + [(g, build_sketches(g.edges, g.seeds, g.k, ell_max=4, nb=True))
                    for g in edge_case_spark], R.nb_n_frames)


def test_full_sketches_match_numpy(tiny_spark, sketches_full, edge_case_spark):
    """Also on a graph with isolated nodes (one a seed) and a bipartite k=2
    graph."""
    _match_numpy([(tiny_spark, sketches_full)]
                 + [(g, build_sketches(g.edges, g.seeds, g.k, ell_max=4, nb=False))
                    for g in edge_case_spark], R.full_n_frames)


@given(k=st.integers(2, 4), n=st.integers(30, 90), isolated=st.integers(0, 3),
       nb=st.booleans(), ell_max=st.integers(1, 5), seed=st.integers(0, 10_000))
@settings(max_examples=6, deadline=None)
def test_sketches_match_numpy_on_random_graphs(spark, k, n, isolated, nb, ell_max, seed):
    """Random small planted graphs with ``isolated`` extra nodes of degree 0
    (the first of them a seed): every Spark ``M^(l)`` equals the numpy
    frames' ``X^T N^(l)``."""
    g = planted_graph(n, 3 * n, [1 / k] * k, skew_H(k, 3.0), seed=seed)
    seeds = sample_seeds(g.labels, 0.3, seed=seed)
    extra = pd.DataFrame({"node": n + np.arange(isolated), "label": np.arange(isolated) % k})
    seeds = pd.concat([seeds, extra.iloc[:1]], ignore_index=True)
    edges = to_spark_edges(spark, g.edges).persist()
    try:
        sk = build_sketches(edges, to_spark_labels(spark, seeds), k, ell_max=ell_max, nb=nb)
    finally:
        edges.unpersist()
    src, dst = g.coo()
    X = R.onehot(list(zip(seeds.node, seeds.label)), n + isolated, k)
    frames = (R.nb_n_frames if nb else R.full_n_frames)(src, dst, X, ell_max)
    for ell, N in enumerate(frames):
        assert np.allclose(sk.M[ell], R.m_matrix(X, N), rtol=0, atol=1e-9), f"l={ell + 1}"


def test_deep_nb_recurrence_matches_numpy_on_one_leaf_plans(tiny_spark, monkeypatch):
    """ell_max=8: the Spark recurrence still matches the numpy reference
    (rtol, since the counts grow as d^l), and every level frame it reads
    plans as a single leaf however deep the recurrence goes."""
    leaves = []
    xtn = sketch.xtn

    def recording_xtn(labels, N, k):
        leaves.append(N._jdf.queryExecution().logical().collectLeaves().size())
        return xtn(labels, N, k)

    monkeypatch.setattr(sketch, "xtn", recording_xtn)
    sk = build_sketches(tiny_spark.edges, tiny_spark.seeds, tiny_spark.k, ell_max=8)
    frames = R.nb_n_frames(tiny_spark.src, tiny_spark.dst, tiny_spark.X_seed, 8)
    for ell, N in enumerate(frames):
        M_ref = R.m_matrix(tiny_spark.X_seed, N)
        assert np.allclose(sk.M[ell], M_ref, rtol=1e-12, atol=0), f"l={ell+1}"
    assert leaves == [1] * 8


def test_build_sketches_releases_its_frames(tiny_spark, spark):
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before = persistent().size()
    for nb in (True, False):
        build_sketches(tiny_spark.edges, tiny_spark.seeds, tiny_spark.k, ell_max=4, nb=nb)
        assert persistent().size() == before, f"nb={nb}"


def test_build_sketches_releases_its_frames_when_a_level_raises(tiny_spark, spark, monkeypatch):
    """A level that raises (here the third level's collect) leaves no cached
    frame behind: the seed frame, the degrees and every level frame are
    released before the error propagates."""
    xtn = sketch.xtn

    def failing_xtn(labels, N, k):
        if len(calls) == 2:
            raise RuntimeError("level 3 failed")
        calls.append(None)
        return xtn(labels, N, k)

    monkeypatch.setattr(sketch, "xtn", failing_xtn)
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before = persistent().size()
    for nb in (True, False):
        calls = []
        with pytest.raises(RuntimeError, match="level 3 failed"):
            build_sketches(tiny_spark.edges, tiny_spark.seeds, tiny_spark.k, ell_max=4, nb=nb)
        assert persistent().size() == before, f"nb={nb}"


@pytest.mark.parametrize("label", [-1, 3])
def test_build_sketches_rejects_label_outside_k(tiny_spark, spark, label):
    """A seed label outside [0, k) is an error, not a fold into class k-1 (a
    label of -1) or an IndexError (a label of k)."""
    seeds = tiny_spark.seeds_pdf.copy()
    seeds.loc[seeds.index[0], "label"] = label
    with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
        build_sketches(tiny_spark.edges, to_spark_labels(spark, seeds), tiny_spark.k, ell_max=1)


def test_p_matrices_are_row_normalized(sketches_nb):
    for P in sketches_nb.P:
        assert np.allclose(P.sum(axis=1), 1.0)


def test_weights_geometric():
    w = dce_weights(10.0, 4)
    assert np.allclose(w, np.array([1, 10, 100, 1000]) / 1111)


def test_full_sketch_equals_explicit_power(tiny_spark, sketches_full):
    """The factorized order W(W(WX)) must equal the explicit (WW)W order —
    the paper's footnote-5 algebraic-equivalence claim — for l = 1..3."""
    for ell in (1, 2, 3):
        M_explicit = explicit_power_m(tiny_spark.edges, tiny_spark.seeds,
                                      tiny_spark.k, ell)
        assert np.allclose(M_explicit, sketches_full.M[ell - 1]), f"l={ell}"


def test_m1_symmetric_total_mass(tiny_spark, sketches_nb):
    M1 = sketches_nb.M[0]
    assert np.allclose(M1, M1.T)
    # total mass = number of directed edges between two *seed* nodes
    seeds = set(tiny_spark.seeds_pdf.node)
    cnt = sum(1 for s, d in zip(tiny_spark.src, tiny_spark.dst)
              if s in seeds and d in seeds)
    assert M1.sum() == cnt


def test_m2_nb_subtracts_backtracks(tiny_spark, sketches_nb, sketches_full):
    """M_NB^(2) = M^(2) - X^T D X elementwise (backtracking only removes the
    return-to-self paths, which land where both endpoints are the same seed)."""
    d = R.degrees(tiny_spark.src, tiny_spark.n)
    DX = d[:, None] * tiny_spark.X_seed
    corr = tiny_spark.X_seed.T @ DX
    assert np.allclose(sketches_nb.M[1], sketches_full.M[1] - corr)


def test_sketches_via_duckdb_oracle_l2(tiny_spark, spark):
    """N_NB^(2) = W(WX) - DX computed in Spark vs the same dataflow written
    as SQL over the edge table in DuckDB."""
    from repro.graphs.edges import degrees_df
    from repro.linops.ops import add, scale_rows, spmm

    k = tiny_spark.k
    X = from_numpy_frame(spark, tiny_spark.X_seed)
    deg = degrees_df(tiny_spark.edges)
    n2 = add(spmm(tiny_spark.edges, spmm(tiny_spark.edges, X, k), k),
             scale_rows(X, deg, k), k, cb=-1.0)
    assert_equivalent(
        n2,
        """
        WITH n1 AS (
            SELECT e.src AS node, SUM(x.c0) AS c0, SUM(x.c1) AS c1, SUM(x.c2) AS c2
            FROM edges e JOIN x ON e.dst = x.node GROUP BY e.src
        ), wn1 AS (
            SELECT e.src AS node, SUM(n1.c0) AS c0, SUM(n1.c1) AS c1, SUM(n1.c2) AS c2
            FROM edges e JOIN n1 ON e.dst = n1.node GROUP BY e.src
        ), deg AS (
            SELECT src AS node, CAST(COUNT(*) AS DOUBLE) AS d FROM edges GROUP BY src
        ), dx AS (
            SELECT x.node, x.c0 * deg.d AS c0, x.c1 * deg.d AS c1, x.c2 * deg.d AS c2
            FROM x JOIN deg ON x.node = deg.node
        )
        SELECT COALESCE(wn1.node, dx.node) AS node,
               COALESCE(wn1.c0, 0) - COALESCE(dx.c0, 0) AS c0,
               COALESCE(wn1.c1, 0) - COALESCE(dx.c1, 0) AS c1,
               COALESCE(wn1.c2, 0) - COALESCE(dx.c2, 0) AS c2
        FROM wn1 FULL OUTER JOIN dx ON wn1.node = dx.node
        """,
        edges=tiny_spark.edges_pdf,
        x=X.toPandas(),
    )


def test_fully_labeled_l1_is_gs(tiny_spark):
    sk = build_sketches(tiny_spark.edges, tiny_spark.all_labels, tiny_spark.k,
                        ell_max=1, nb=True, variant=1)
    # fully labeled, l=1, variant 1 == the measured GS ~ planted H
    assert np.abs(sk.P[0] - tiny_spark.g.H_planted).max() < 0.12  # n=300 noise


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_variants_match_reference_normalization(tiny_spark, variant):
    sk = build_sketches(tiny_spark.edges, tiny_spark.seeds, tiny_spark.k,
                        ell_max=2, nb=True, variant=variant)
    for M, P in zip(sk.M, sk.P):
        assert np.allclose(P, R.normalize_m(M, variant))


def test_nb_consistency_on_larger_graph(spark):
    """On a denser graph the NB statistics must track H^l much closer than the
    full-path statistics on the diagonal (Theorem 4.1 / Fig 5a shape)."""
    from repro.graphs.generator import planted_graph
    from repro.graphs.edges import sample_seeds

    H = skew_H(3, 3.0)
    g = planted_graph(2000, 20_000, [1 / 3] * 3, H, seed=21)
    edges = to_spark_edges(spark, g.edges).persist()
    seeds_pdf = sample_seeds(g.labels, 0.3, seed=0)
    seeds = to_spark_labels(spark, seeds_pdf)
    nb = build_sketches(edges, seeds, 3, ell_max=2, nb=True)
    full = build_sketches(edges, seeds, 3, ell_max=2, nb=False)
    H2 = H @ H
    err_nb = abs(nb.P[1][0, 0] - H2[0, 0])
    err_full = abs(full.P[1][0, 0] - H2[0, 0])
    edges.unpersist()
    assert err_nb < err_full
    assert full.P[1][0, 0] > H2[0, 0]  # the paper's positive diagonal bias
