"""Smoke/shape tests for the per-table experiment drivers, at miniature
parameters. The real table rows are produced by ``jobs/`` and recorded in
EXPERIMENTS.md; these tests pin down the schema and the qualitative shape on
small inputs so table regressions show up in CI time."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.compat import skew_H
from repro.experiments import tables
from repro.graphs.generator import planted_graph


pytestmark = pytest.mark.tables


def test_t3_consistency_shape(spark):
    df = tables.table_t3(spark, n=1500, d=12, f=0.3, ell_max=3, trials=1)
    assert list(df["ell"]) == [1, 2, 3]
    # NB bias must be no worse than full-path bias at l=2 (Theorem 4.1)
    r2 = df[df.ell == 2].iloc[0]
    assert abs(r2["bias_nb"]) <= abs(r2["bias_full"]) + 0.01
    assert {"true_Hl", "p_full", "p_nb"} <= set(df.columns)


def test_t4_factorized_faster_and_complete(spark):
    df = tables.table_t4(spark, n=1200, d=8, f=0.3, ell_explicit_max=3,
                         ell_factorized_max=5)
    assert set(df["method"]) == {"explicit_Wl", "factorized"}
    exp3 = float(df[(df.method == "explicit_Wl") & (df.ell == 3)]["sec"].iloc[0])
    fac5 = float(df[(df.method == "factorized") & (df.ell == 5)]["sec"].iloc[0])
    # factorized evaluates deeper paths without the blowup; on tiny graphs
    # Spark overhead dominates, so just require same order of magnitude.
    assert fac5 < exp3 * 20
    assert (df["approx_paths"].diff().dropna() != 0).any()


def test_t5_scalability_shape(spark):
    df = tables.table_t5(spark, sizes=(1000, 3000), d=5, f=0.05)
    assert set(df["method"]) >= {"mce", "lce", "dce", "dcer", "propagation"}
    for n in (1000, 3000):
        sub = df[df.n == n].set_index("method")["sec"]
        assert (sub > 0).all()


def test_t6_vary_k_shape(spark):
    df = tables.table_t6(spark, n=1200, d=10, ks=(2, 3), f=0.2, trials=1)
    assert set(df["k"]) == {2, 3}
    gs = df[df.method == "gs"].set_index("k")["acc"]
    rnd = df[df.method == "random"].set_index("k")["acc"]
    assert (gs > rnd).all()


def test_t9_variant1_best_or_close(spark):
    df = tables.table_t9(spark, n=1500, d=12, f=0.2, ell_maxes=(1, 3), trials=1)
    assert set(df["variant"]) == {1, 2, 3}
    l2v = df.groupby("variant")["l2"].mean()
    # Variant 1 should not be substantially worse than the others (paper:
    # it is consistently the best).
    assert l2v[1] <= l2v[3] + 0.05


def test_t12_l2_schema(spark):
    df = tables.table_t12(spark, f=0.2, scale=0.05, trials=1)
    assert set(df["method"]) == {"dcer", "dce", "mce", "lce"}
    assert len(df) == 8 * 4
    assert (df["l2"] >= 0).all()
    assert np.isfinite(df["l2"]).all()


def test_sweep_releases_prepared_graph_on_error(spark):
    # A graph no other test lifts: persisting a plan that is already cached
    # would reuse that cache instead of adding an RDD.
    g = planted_graph(200, 800, [1 / 3] * 3, skew_H(3, 3.0), seed=404)
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before = persistent().size()

    def body(prep, case):
        assert persistent().size() > before  # prepare cached the edges
        raise RuntimeError("body failed")

    with pytest.raises(RuntimeError, match="body failed"):
        tables._sweep(spark, [tables._Case({}, g, (0.2,), 0)], body)
    assert persistent().size() == before
