"""Tests for the Spark DataFrame linear operators, cross-checked against the
numpy reference and the DuckDB oracle."""
from __future__ import annotations

import itertools

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import reference as R
from repro.graphs.edges import degrees_df, to_spark_edges, validate_symmetric
from repro.linops.ops import (
    add,
    cls_cols,
    from_numpy_frame,
    iterate,
    materialize,
    matmul_small,
    onehot_df,
    release,
    scale_rows,
    spmm,
    to_numpy_frame,
    xtn,
)
from repro.oracle import assert_equivalent


def test_cls_cols():
    assert cls_cols(3) == ["c0", "c1", "c2"]
    assert cls_cols(1) == ["c0"]


def test_edges_symmetric(tiny_spark):
    assert validate_symmetric(tiny_spark.edges)


@pytest.mark.parametrize("src, dst, match", [
    ([0, 2], [1, 2], "self-loop"),
    ([-1, 0], [1, 1], "negative node id"),
], ids=["self-loop", "negative-id"])
def test_to_spark_edges_rejects_malformed_edges(spark, src, dst, match):
    with pytest.raises(ValueError, match=match):
        to_spark_edges(spark, pd.DataFrame({"src": src, "dst": dst}))


def test_degrees_vs_numpy(tiny_spark):
    got = {r["node"]: r["deg"] for r in degrees_df(tiny_spark.edges).collect()}
    ref = R.degrees(tiny_spark.src, tiny_spark.n)
    for node, deg in got.items():
        assert deg == ref[node]
    # nodes with degree > 0 all present
    assert len(got) == int((ref > 0).sum())


DEGREES_SQL = "SELECT src AS node, CAST(COUNT(*) AS DOUBLE) AS deg FROM edges GROUP BY src"


def test_degrees_vs_duckdb_oracle(tiny_spark):
    assert_equivalent(degrees_df(tiny_spark.edges), DEGREES_SQL, edges=tiny_spark.edges_pdf)


def test_oracle_detects_wrong_result(tiny_spark):
    wrong = degrees_df(tiny_spark.edges).withColumn("deg", F.col("deg") + 1)
    with pytest.raises(AssertionError):
        assert_equivalent(wrong, DEGREES_SQL, edges=tiny_spark.edges_pdf)


def test_oracle_detects_column_mismatch(tiny_spark):
    renamed = degrees_df(tiny_spark.edges).withColumnRenamed("deg", "degree")
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(renamed, DEGREES_SQL, edges=tiny_spark.edges_pdf)


def test_oracle_accepts_spark_and_pandas_tables(tiny_spark):
    # The same edge list registered once from Spark and once from pandas:
    # the self-join keeps every edge exactly once only if both hold it.
    assert_equivalent(
        degrees_df(tiny_spark.edges),
        """
        SELECT a.src AS node, CAST(COUNT(*) AS DOUBLE) AS deg
        FROM a JOIN b ON a.src = b.src AND a.dst = b.dst GROUP BY a.src
        """,
        a=tiny_spark.edges, b=tiny_spark.edges_pdf,
    )


def test_spmm_vs_numpy(tiny_spark, spark):
    k = tiny_spark.k
    X = from_numpy_frame(spark, tiny_spark.X_seed)
    got = to_numpy_frame(spmm(tiny_spark.edges, X, k), tiny_spark.n, k)
    ref = R.spmm(tiny_spark.src, tiny_spark.dst, tiny_spark.X_seed)
    assert np.allclose(got, ref)


def test_spmm_vs_duckdb_oracle(tiny_spark, spark):
    k = tiny_spark.k
    X = from_numpy_frame(spark, tiny_spark.X_seed)
    x_pdf = X.toPandas()
    out = spmm(tiny_spark.edges, X, k)
    assert_equivalent(
        out,
        """
        SELECT e.src AS node,
               SUM(x.c0) AS c0, SUM(x.c1) AS c1, SUM(x.c2) AS c2
        FROM edges e JOIN x ON e.dst = x.node
        GROUP BY e.src
        """,
        edges=tiny_spark.edges_pdf,
        x=x_pdf,
    )


def test_onehot_df_plain(tiny_spark):
    k = tiny_spark.k
    X = onehot_df(tiny_spark.seeds, k)
    pdf = X.toPandas().set_index("node")
    assert len(pdf) == len(tiny_spark.seeds_pdf)
    for r in tiny_spark.seeds_pdf.itertuples():
        row = pdf.loc[r.node]
        assert row[f"c{r.label}"] == 1.0
        assert row.sum() == 1.0


def test_onehot_df_centered(tiny_spark):
    k = tiny_spark.k
    X = onehot_df(tiny_spark.seeds, k, centered=True)
    pdf = X.toPandas().set_index("node")
    for r in tiny_spark.seeds_pdf.head(10).itertuples():
        row = pdf.loc[r.node]
        assert row[f"c{r.label}"] == pytest.approx(1.0 - 1.0 / k)
        assert row.sum() == pytest.approx(0.0)


def test_matmul_small_vs_numpy(tiny_spark, spark):
    k = tiny_spark.k
    rng = np.random.default_rng(0)
    H = rng.random((k, k))
    A = rng.random((tiny_spark.n, k))
    df = from_numpy_frame(spark, A)
    got = to_numpy_frame(matmul_small(df, H), tiny_spark.n, k)
    assert np.allclose(got, A @ H)


def test_add_outer_join_semantics(spark):
    # A has rows {0,1}, B has rows {1,2}; add must union with zero-fill.
    A = from_numpy_frame(spark, np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]]))
    B = from_numpy_frame(spark, np.array([[0.0, 0.0], [10.0, 10.0], [5.0, 6.0]]))
    out = to_numpy_frame(add(A, B, 2, ca=2.0, cb=-1.0), 3, 2)
    assert np.allclose(out, 2 * np.array([[1, 2], [3, 4], [0, 0]]) - np.array([[0, 0], [10, 10], [5, 6]]))


def test_scale_rows_degree(tiny_spark, spark):
    k = tiny_spark.k
    X = from_numpy_frame(spark, tiny_spark.X_seed)
    deg = degrees_df(tiny_spark.edges)
    got = to_numpy_frame(scale_rows(X, deg, k), tiny_spark.n, k)
    d = R.degrees(tiny_spark.src, tiny_spark.n)
    assert np.allclose(got, d[:, None] * tiny_spark.X_seed)


def test_xtn_vs_numpy(tiny_spark, spark):
    k = tiny_spark.k
    N_np = R.spmm(tiny_spark.src, tiny_spark.dst, tiny_spark.X_seed)
    N = from_numpy_frame(spark, N_np)
    M = xtn(tiny_spark.seeds, N, k)
    assert np.allclose(M, tiny_spark.X_seed.T @ N_np)


def test_xtn_missing_class_gives_zero_row(tiny_spark, spark):
    k = tiny_spark.k
    # keep only class-0 seeds: rows 1 and 2 of M must be zero
    only0 = tiny_spark.seeds.filter(F.col("label") == 0)
    N = from_numpy_frame(
        spark, R.spmm(tiny_spark.src, tiny_spark.dst, tiny_spark.X_seed)
    )
    M = xtn(only0, N, k)
    assert np.allclose(M[1:], 0.0)
    assert M[0].sum() > 0


def test_to_from_numpy_roundtrip(spark):
    rng = np.random.default_rng(1)
    A = rng.random((20, 4))
    A[3] = 0.0  # zero row dropped and restored as zeros
    df = from_numpy_frame(spark, A)
    assert df.count() == 19
    assert np.allclose(to_numpy_frame(df, 20, 4), A)


def test_from_numpy_keep_zero_rows(spark):
    A = np.zeros((5, 2))
    A[0, 0] = 1.0
    df = from_numpy_frame(spark, A, drop_zero_rows=False)
    assert df.count() == 5


def test_spmm_two_hops_vs_numpy(tiny_spark, spark):
    """W(WX) — the factorized evaluation order — against numpy."""
    k = tiny_spark.k
    X = from_numpy_frame(spark, tiny_spark.X_seed)
    out = spmm(tiny_spark.edges, spmm(tiny_spark.edges, X, k), k)
    ref = R.spmm(tiny_spark.src, tiny_spark.dst,
                 R.spmm(tiny_spark.src, tiny_spark.dst, tiny_spark.X_seed))
    assert np.allclose(to_numpy_frame(out, tiny_spark.n, k), ref)


def test_spmm_two_hops_vs_duckdb_oracle(tiny_spark, spark):
    k = tiny_spark.k
    X = from_numpy_frame(spark, tiny_spark.X_seed)
    out = spmm(tiny_spark.edges, spmm(tiny_spark.edges, X, k), k)
    assert_equivalent(
        out,
        """
        WITH n1 AS (
            SELECT e.src AS node, SUM(x.c0) AS c0, SUM(x.c1) AS c1, SUM(x.c2) AS c2
            FROM edges e JOIN x ON e.dst = x.node GROUP BY e.src
        )
        SELECT e.src AS node, SUM(n1.c0) AS c0, SUM(n1.c1) AS c1, SUM(n1.c2) AS c2
        FROM edges e JOIN n1 ON e.dst = n1.node GROUP BY e.src
        """,
        edges=tiny_spark.edges_pdf,
        x=X.toPandas(),
    )


def _persistent_rdds(spark) -> int:
    return spark.sparkContext._jsc.getPersistentRDDs().size()


def _plan_leaves(df) -> int:
    return df._jdf.queryExecution().logical().collectLeaves().size()


def test_materialize_keeps_rows_and_cuts_lineage(tiny_spark, spark):
    k, n = tiny_spark.k, tiny_spark.n
    X = from_numpy_frame(spark, tiny_spark.X_seed)
    N = spmm(tiny_spark.edges, spmm(tiny_spark.edges, X, k), k)
    assert _plan_leaves(N) > 1
    before = _persistent_rdds(spark)
    M = materialize(N)
    assert _plan_leaves(M) == 1
    assert np.array_equal(to_numpy_frame(M, n, k), to_numpy_frame(N, n, k))
    assert _persistent_rdds(spark) == before + 1
    release(M)
    assert _persistent_rdds(spark) == before


def test_unpersist_leaves_a_local_checkpoint_persisted(spark):
    """Pins the PySpark behaviour ``release`` exists for: ``unpersist()`` on
    a local checkpoint frees nothing. If an upgrade changes that, this fails
    and ``release`` can become a plain ``unpersist()``."""
    before = _persistent_rdds(spark)
    cp = spark.range(10).localCheckpoint()
    assert _persistent_rdds(spark) == before + 1
    cp.unpersist()
    assert _persistent_rdds(spark) == before + 1
    release(cp)
    assert _persistent_rdds(spark) == before


def test_iterate_applies_step_and_frees_iterates(spark):
    start = materialize(spark.range(5).selectExpr("id AS node", "CAST(id AS DOUBLE) AS c0"))
    before = _persistent_rdds(spark)
    out = iterate(lambda df: df.select("node", (F.col("c0") * 2.0).alias("c0")), start, 4)
    assert out.is_cached
    assert sorted(r["c0"] for r in out.collect()) == [16.0 * i for i in range(5)]
    out.unpersist()
    assert _persistent_rdds(spark) == before
    with pytest.raises(ValueError):
        iterate(lambda df: df, start, 0)
    release(start)


def _name(plan) -> str:
    return plan.getClass().getSimpleName()


def _plan_paths(plan, ancestors=()):
    """Every node of an executed plan with its ancestors (root first), read
    through the adaptive-execution wrappers (final plan, query stages)."""
    yield plan, ancestors
    if _name(plan) == "AdaptiveSparkPlanExec":
        children = [plan.executedPlan()]
    elif _name(plan).endswith("QueryStageExec"):
        children = [plan.plan()]
    else:
        seq = plan.children()
        children = [seq.apply(i) for i in range(seq.size())]
    for child in children:
        yield from _plan_paths(child, ancestors + (plan,))


def _assert_one_pass(df, what):
    """``df``'s executed plan streams the persisted edges into its join
    without a shuffle or a sort, has no full outer join, and aggregates once
    on ``node``."""
    nodes = list(_plan_paths(df._jdf.queryExecution().executedPlan()))
    scans = [a for p, a in nodes if _name(p) == "InMemoryTableScanExec"]
    assert scans, f"{what}: no scan of the persisted edges"
    for ancestors in scans:
        below_join = itertools.takewhile(lambda p: not _name(p).endswith("JoinExec"),
                                         reversed(ancestors))
        assert not {"ShuffleExchangeExec", "SortExec"} & set(map(_name, below_join)), \
            f"{what}: edges reshuffled or sorted"
    assert not [p for p, _ in nodes if "FullOuter" in p.simpleString(3)], f"{what}: outer join"
    aggs = [p.simpleString(3) for p, _ in nodes if _name(p) == "HashAggregateExec"]
    assert len(aggs) == 2 and all("keys=[node#" in a for a in aggs), f"{what}: {aggs}"


def test_a_step_is_one_join_against_partitioned_edges_and_one_aggregation(tiny_spark,
                                                                          monkeypatch):
    """The executed plans of one LinBP iteration and of one NB sketch level
    (l = 3: ``W N^(2) - (D - I) N^(1)``): no exchange or sort between the
    persisted edges scan and the join, no full outer join, and one hash aggregation on
    ``node`` (partial plus final)."""
    from repro.core import sketch
    from repro.linops import ops
    from repro.propagation.linbp import linbp_propagate

    steps = []

    def recording(original):
        def wrapper(df):
            steps.append(df)
            return original(df)
        return wrapper

    monkeypatch.setattr(ops, "materialize", recording(ops.materialize))
    rho = R.power_iteration_rho(tiny_spark.src, tiny_spark.dst, tiny_spark.n)
    linbp_propagate(tiny_spark.edges, tiny_spark.seeds, tiny_spark.g.H_planted, rho_w=rho,
                    iters=2).unpersist()
    _assert_one_pass(steps[-1], "LinBP iteration")  # the first iterate, from X
    monkeypatch.setattr(sketch, "materialize", recording(sketch.materialize))
    sketch.build_sketches(tiny_spark.edges, tiny_spark.seeds, tiny_spark.k, ell_max=3)
    _assert_one_pass(steps[-1], "NB level 3")
