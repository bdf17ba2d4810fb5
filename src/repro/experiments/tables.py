"""Per-table experiment drivers (see DESIGN.md Section 5 for the T# index).

Each ``table_tN`` function runs the experiment behind one evaluation artifact
of the paper and returns a pandas DataFrame whose rows mirror what the paper
reports. The defaults are the sizes EXPERIMENTS.md reports
(``python jobs/run.py <stem>`` runs them); ``pipebench/`` times the whole
pipeline layer by layer.

Every driver follows the Section 5 protocol through one loop, ``_sweep``:
generate a graph, prepare it at each label fraction f, run the driver's body
on it and tag the rows; ``_summarize`` then averages over trials.
"""
from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from typing import NamedTuple

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core import compat
from repro.core.estimators import dce, dcer, lce, mce
from repro.core.sketch import build_sketches, explicit_power_m
from repro.datasets import DATASETS, make_analog
from repro.experiments.harness import PreparedGraph, prepare, run_trial, score
from repro.graphs.generator import PlantedGraph, planted_graph
from repro.propagation.linbp import linbp_propagate

__all__ = [f"table_t{i}" for i in range(1, 13)]


class _Case(NamedTuple):
    """One graph of a sweep: the tag columns its rows get, the graph, the
    label fractions it is prepared at, and the seed for sampling the seed
    labels and for the methods."""

    tags: dict
    g: PlantedGraph
    fs: tuple[float, ...]
    seed: int


def _sweep(
    spark: SparkSession,
    cases: Iterable[_Case],
    body: Callable[[PreparedGraph, _Case], pd.DataFrame | list[dict]],
) -> pd.DataFrame:
    """For each case and each of its fs: prepare the graph, run
    ``body(prep, case)`` and put the case's tag columns in front of the rows
    it returns. The prepared graph is released even when the body raises.
    ``cases`` may be a generator, so that each graph is generated only when
    its turn comes."""
    out = []
    for case in cases:
        for f in case.fs:
            prep = prepare(spark, case.g, f, seed=case.seed)
            try:
                df = pd.DataFrame(body(prep, case))
            finally:
                prep.unpersist()
            for i, (col, val) in enumerate(case.tags.items()):
                df.insert(i, col, val)
            out.append(df)
    return pd.concat(out, ignore_index=True)


def _summarize(df: pd.DataFrame, keys: list[str], **aggs) -> pd.DataFrame:
    """Group by ``keys``, apply the named aggregations ``aggs`` (as in
    ``DataFrameGroupBy.agg``) and sort by ``keys``."""
    return (
        df.groupby(keys, as_index=False).agg(**aggs)
        .sort_values(keys).reset_index(drop=True)
    )


def _balanced(k: int) -> list[float]:
    return [1.0 / k] * k


def table_t1(
    spark: SparkSession, *, scale: float = 0.25, f: float = 0.05, seed: int = 0
) -> pd.DataFrame:
    """T1 (paper Fig 8): dataset statistics and DCEr runtime per dataset.

    The analog sizes are scaled; the paper's absolute DCEr seconds are
    reported alongside for the shape comparison in EXPERIMENTS.md."""

    def body(prep, case):
        g, spec = prep.g, DATASETS[case.tags["dataset"]]
        est = dcer(prep.edges, prep.seeds, g.k, restarts=10, seed=case.seed)
        return [dict(
            n=g.n, m=g.m, d=round(g.avg_degree, 1), k=g.k,
            dcer_sec=round(est.total_time, 2),
            sketch_sec=round(est.sketch_time, 2),
            opt_sec=round(est.opt_time, 2),
            paper_n=spec.n_paper, paper_m=spec.m_paper,
            paper_dcer_sec=spec.dcer_time_paper,
            l2_gs=round(compat.l2_distance(est.H, prep.gs_H), 3),
        )]

    cases = (_Case(dict(dataset=name), make_analog(name, seed=seed, scale=scale), (f,), seed)
             for name in DATASETS)
    return _sweep(spark, cases, body)


def table_t2(
    spark: SparkSession,
    *,
    n: int = 10_000,
    d: float = 10.0,
    h: float = 8.0,
    fs: tuple[float, ...] = (0.0008, 0.01, 0.1),
    methods: tuple[str, ...] = ("gs", "dcer", "dce", "mce", "lce", "random"),
    trials: int = 2,
    include_imbalanced: bool = True,
    seed: int = 0,
) -> pd.DataFrame:
    """T2 (paper Fig 3a / Fig 6f / Fig 6j): end-to-end accuracy vs label
    fraction f for the full methods ladder, on the 10k-node k=3 skew-h graph;
    plus the class-imbalanced general-H block of Fig 6j."""
    k = 3
    settings = [("balanced", _balanced(k), compat.skew_H(k, h))]
    if include_imbalanced:
        H_gen = np.array([[0.2, 0.6, 0.2], [0.6, 0.1, 0.3], [0.2, 0.3, 0.5]])
        settings.append(("imbalanced", [1 / 6, 1 / 3, 1 / 2], H_gen))
    cases = (
        _Case(dict(setting=tag, trial=t),
              planted_graph(n, int(n * d / 2), alpha, H, seed=seed + 100 * t), fs, seed + t)
        for tag, alpha, H in settings for t in range(trials)
    )
    res = _sweep(spark, cases, lambda prep, case: run_trial(prep, methods, seed=case.seed))
    return _summarize(
        res, ["setting", "f", "method"],
        acc=("acc", "mean"), acc_std=("acc", "std"), l2_gs=("l2_gs", "mean"),
        est_sec=("est_time", "mean"), n_seeds=("n_seeds", "mean"),
    )


def table_t3(
    spark: SparkSession,
    *,
    n: int = 10_000,
    d: float = 20.0,
    h: float = 3.0,
    f: float = 0.1,
    ell_max: int = 8,
    trials: int = 2,
    seed: int = 0,
) -> pd.DataFrame:
    """T3 (paper Fig 5a): consistency of the NB estimator. For each path
    length l, the true H^l top entry vs the mean±std of the corresponding
    entry in the full-path and non-backtracking statistics."""
    k = 3
    H = compat.skew_H(k, h)
    # The paper tracks the max entry of row 0 (position (0,1) for skew-H).
    i, j = 0, 1

    def body(prep, case):
        full, nb = (build_sketches(prep.edges, prep.seeds, k, ell_max=ell_max, nb=flag).P
                    for flag in (False, True))
        return [dict(ell=ell, full=Pf[i, j], nb=Pn[i, j])
                for ell, (Pf, Pn) in enumerate(zip(full, nb), start=1)]

    cases = (_Case({}, planted_graph(n, int(n * d / 2), _balanced(k), H, seed=seed + t),
                   (f,), seed + t)
             for t in range(trials))
    res = _sweep(spark, cases, body)
    rows = []
    for ell, grp in res.groupby("ell"):
        true = np.linalg.matrix_power(H, ell)[i, j]
        fl, nbv = grp["full"].to_numpy(), grp["nb"].to_numpy()
        rows.append(
            dict(ell=ell, true_Hl=round(true, 4),
                 p_full=round(fl.mean(), 4), p_full_std=round(fl.std(), 4),
                 p_nb=round(nbv.mean(), 4), p_nb_std=round(nbv.std(), 4),
                 bias_full=round(fl.mean() - true, 4),
                 bias_nb=round(nbv.mean() - true, 4))
        )
    return pd.DataFrame(rows)


def table_t4(
    spark: SparkSession,
    *,
    n: int = 5_000,
    d: float = 10.0,
    f: float = 0.1,
    ell_explicit_max: int = 3,
    ell_factorized_max: int = 8,
    seed: int = 0,
) -> pd.DataFrame:
    """T4 (paper Fig 5b / Example 4.6): wall time of the *explicit* ``W^l``
    evaluation order vs the factorized Algorithm 4.4. The explicit path is
    capped at small l because its intermediate grows ~d^(l-1) m (that blowup
    is the datapoint)."""
    k = 3
    H = compat.skew_H(k, 3.0)
    g = planted_graph(n, int(n * d / 2), _balanced(k), H, seed=seed)

    def body(prep, case):
        rows = []
        for ell in range(1, ell_explicit_max + 1):
            t0 = time.perf_counter()
            explicit_power_m(prep.edges, prep.seeds, k, ell)
            rows.append(dict(ell=ell, method="explicit_Wl",
                             sec=round(time.perf_counter() - t0, 3)))
        for ell in range(1, ell_factorized_max + 1):
            t0 = time.perf_counter()
            build_sketches(prep.edges, prep.seeds, k, ell_max=ell, nb=True)
            rows.append(dict(ell=ell, method="factorized",
                             sec=round(time.perf_counter() - t0, 3)))
        return rows

    df = _sweep(spark, [_Case({}, g, (f,), seed)], body)
    # Number of paths each summary covers grows ~ (d-1)^(l-1) * 2m — report it
    # so EXPERIMENTS.md can mirror the paper's "10^14 paths in <0.1 sec" claim.
    davg = g.avg_degree
    df["approx_paths"] = [2 * g.m * (davg - 1) ** (e - 1) for e in df["ell"]]
    return df


def table_t5(
    spark: SparkSession,
    *,
    sizes: tuple[int, ...] = (5_000, 20_000, 80_000),
    d: float = 5.0,
    h: float = 8.0,
    f: float = 0.01,
    prop_iters: int = 10,
    seed: int = 0,
) -> pd.DataFrame:
    """T5 (paper Fig 6k / Fig 3b): scalability in graph size — estimation
    (MCE/LCE/DCE/DCEr) vs propagation wall time as m grows. The headline
    shape: estimation scales linearly and is cheaper than propagation."""
    k = 3
    H = compat.skew_H(k, h)

    def body(prep, case):
        timings = {
            "mce": mce(prep.edges, prep.seeds, k).total_time,
            "lce": lce(prep.edges, prep.seeds, k).total_time,
            "dce": dce(prep.edges, prep.seeds, k).total_time,
        }
        est_dcer = dcer(prep.edges, prep.seeds, k, restarts=10, seed=case.seed)
        timings["dcer"] = est_dcer.total_time
        t0 = time.perf_counter()
        bel = linbp_propagate(prep.edges, prep.seeds, est_dcer.H,
                              rho_w=prep.rho_w, iters=prop_iters)
        bel.count()
        timings["propagation"] = time.perf_counter() - t0
        bel.unpersist()
        timings["dcer_sketch_only"] = est_dcer.sketch_time
        return [dict(m=prep.g.m, method=meth, sec=round(sec, 2))
                for meth, sec in timings.items()]

    cases = (_Case(dict(n=n), planted_graph(n, int(n * d / 2), _balanced(k), H, seed=seed),
                   (f,), seed)
             for n in sizes)
    return _sweep(spark, cases, body)


def table_t6(
    spark: SparkSession,
    *,
    n: int = 10_000,
    d: float = 20.0,
    h: float = 8.0,
    ks: tuple[int, ...] = (2, 3, 4, 5, 7),
    f: float = 0.05,
    trials: int = 1,
    seed: int = 0,
) -> pd.DataFrame:
    """T6 (paper Fig 6g): accuracy vs number of classes k at fixed n, m, h, f.
    DCEr (10 restarts) stays ahead while neighbor-only methods fall off."""
    cases = (
        _Case(dict(k=k), planted_graph(n, int(n * d / 2), _balanced(k), compat.skew_H(k, h),
                                       seed=seed + t), (f,), seed + t)
        for k in ks for t in range(trials)
    )
    res = _sweep(spark, cases, lambda prep, case: run_trial(
        prep, ("gs", "dcer", "mce", "random"), seed=case.seed))
    return _summarize(res, ["k", "method"], acc=("acc", "mean"), l2_gs=("l2_gs", "mean"))


def table_t7(
    spark: SparkSession,
    *,
    n: int = 10_000,
    d: float = 20.0,
    h: float = 8.0,
    f: float = 0.001,
    rs: tuple[int, ...] = (1, 2, 5, 10, 20),
    trials: int = 3,
    seed: int = 0,
) -> pd.DataFrame:
    """T7 (paper Fig 6h): accuracy of DCEr vs number of restarts r, against
    the global-minimum baseline (DCE initialized at the GS parameters)."""
    k = 3
    H = compat.skew_H(k, h)

    def body(prep, case):
        sk = build_sketches(prep.edges, prep.seeds, k, ell_max=5, nb=True)
        ests = [(r, "dcer", dcer(prep.edges, prep.seeds, k, restarts=r, seed=case.seed,
                                 sketches=sk))
                for r in rs]
        ests.append((0, "global_opt_baseline",
                     dce(prep.edges, prep.seeds, k, sketches=sk, h0=compat.H_to_h(prep.gs_H))))
        rows = []
        for r, method, est in ests:
            bel = linbp_propagate(prep.edges, prep.seeds, est.H, rho_w=prep.rho_w)
            rows.append(dict(r=r, method=method, acc=score(prep, bel), energy=est.energy))
        return rows

    cases = (_Case(dict(trial=t), planted_graph(n, int(n * d / 2), _balanced(k), H,
                                                seed=seed + t), (f,), seed + t)
             for t in range(trials))
    res = _sweep(spark, cases, body)
    return _summarize(res, ["method", "r"], acc=("acc", "mean"), acc_std=("acc", "std"))


def table_t8(
    spark: SparkSession,
    *,
    n: int = 10_000,
    h: float = 8.0,
    lams: tuple[float, ...] = (0.1, 1.0, 10.0, 100.0),
    ell_maxes: tuple[int, ...] = (1, 2, 3, 5),
    grid: tuple[tuple[float, float], ...] = ((5.0, 0.01), (20.0, 0.001), (20.0, 0.01), (20.0, 0.1)),
    trials: int = 1,
    seed: int = 0,
) -> pd.DataFrame:
    """T8 (paper Figs 6b-6d): sensitivity to the single hyperparameter
    lambda and to ell_max, across (d, f) regimes. Reports L2(H_est, GS)."""
    k = 3
    H = compat.skew_H(k, h)

    def body(prep, case):
        sk = build_sketches(prep.edges, prep.seeds, k, ell_max=max(ell_maxes), nb=True)
        rows = []
        for lam in lams:
            for em in ell_maxes:
                est = dcer(prep.edges, prep.seeds, k, ell_max=em, lam=lam,
                           restarts=10, seed=case.seed, sketches=sk)
                rows.append(dict(lam=lam, ell_max=em,
                                 l2=compat.l2_distance(est.H, prep.gs_H)))
        return rows

    cases = (_Case(dict(d=d, f=f, trial=t), planted_graph(n, int(n * d / 2), _balanced(k), H,
                                                          seed=seed + t), (f,), seed + t)
             for d, f in grid for t in range(trials))
    res = _sweep(spark, cases, body)
    return _summarize(res, ["d", "f", "lam", "ell_max"], l2=("l2", "mean"), l2_std=("l2", "std"))


def table_t9(
    spark: SparkSession,
    *,
    n: int = 10_000,
    d: float = 20.0,
    h: float = 8.0,
    f: float = 0.01,
    ell_maxes: tuple[int, ...] = (1, 3, 5),
    trials: int = 2,
    seed: int = 0,
) -> pd.DataFrame:
    """T9 (paper Fig 6a): the three normalization variants of Eqs 9-11 x
    ell_max, by L2 distance of the DCE estimate to GS. Variant 1 wins."""
    k = 3
    H = compat.skew_H(k, h)

    def body(prep, case):
        # One sketch serves every variant: M does not depend on it, and dcer
        # normalizes M by the variant it is given.
        sk = build_sketches(prep.edges, prep.seeds, k, ell_max=max(ell_maxes), nb=True)
        rows = []
        for variant in (1, 2, 3):
            for em in ell_maxes:
                est = dcer(prep.edges, prep.seeds, k, ell_max=em, restarts=10,
                           seed=case.seed, sketches=sk, variant=variant)
                rows.append(dict(variant=variant, ell_max=em,
                                 l2=compat.l2_distance(est.H, prep.gs_H)))
        return rows

    cases = (_Case(dict(trial=t), planted_graph(n, int(n * d / 2), _balanced(k), H,
                                                seed=seed + t), (f,), seed + t)
             for t in range(trials))
    res = _sweep(spark, cases, body)
    return _summarize(res, ["variant", "ell_max"], l2=("l2", "mean"), l2_std=("l2", "std"))


def table_t10(
    spark: SparkSession,
    *,
    n: int = 10_000,
    d: float = 20.0,
    h: float = 8.0,
    fs: tuple[float, ...] = (0.01, 0.05, 0.1),
    trials: int = 2,
    seed: int = 0,
) -> pd.DataFrame:
    """T10 (paper Fig 6i): sanity check — homophily-assuming propagation
    (harmonic functions / random walks) collapses on a heterophilous graph
    while GS/DCEr-driven LinBP does not."""
    k = 3
    H = compat.skew_H(k, h)  # strong heterophily
    cases = (_Case({}, planted_graph(n, int(n * d / 2), _balanced(k), H, seed=seed + t),
                   fs, seed + t)
             for t in range(trials))
    res = _sweep(spark, cases, lambda prep, case: run_trial(
        prep, ("gs", "dcer", "homophily", "rwalk", "random"), seed=case.seed))
    return _summarize(res, ["f", "method"], acc=("acc", "mean"))


def table_t11(
    spark: SparkSession,
    *,
    datasets: tuple[str, ...] = ("movielens", "prop37"),
    fs: tuple[float, ...] = (0.01, 0.1),
    scale: float = 0.25,
    trials: int = 2,
    seed: int = 0,
) -> pd.DataFrame:
    """T11 (paper Fig 12): the two-value H/L heuristic of prior work vs DCEr
    vs GS on the MovieLens- and Prop-37-like graphs. The heuristic holds up
    on MovieLens's near-binary compatibilities and collapses on Prop-37's
    graded ones."""
    cases = (_Case(dict(dataset=name), make_analog(name, seed=seed + t, scale=scale),
                   fs, seed + t)
             for name in datasets for t in range(trials))
    res = _sweep(spark, cases, lambda prep, case: run_trial(
        prep, ("gs", "dcer", "heuristic", "random"), seed=case.seed))
    return _summarize(res, ["dataset", "f", "method"], acc=("acc", "mean"))


def table_t12(
    spark: SparkSession,
    *,
    f: float = 0.03,
    scale: float = 0.25,
    trials: int = 1,
    seed: int = 0,
) -> pd.DataFrame:
    """T12 (paper Fig 14): L2 distance of each method's estimate from the
    measured GS (neighbor frequency distribution) on every dataset analog."""

    def body(prep, case):
        k = prep.g.k
        sk = build_sketches(prep.edges, prep.seeds, k, ell_max=5, nb=True)
        ests = {
            "dcer": dcer(prep.edges, prep.seeds, k, restarts=10, seed=case.seed,
                         sketches=sk),
            "dce": dce(prep.edges, prep.seeds, k, sketches=sk),
            "mce": mce(prep.edges, prep.seeds, k, sketches=sk),
            "lce": lce(prep.edges, prep.seeds, k),
        }
        return [dict(method=meth, l2=compat.l2_distance(est.H, prep.gs_H))
                for meth, est in ests.items()]

    cases = (_Case(dict(dataset=name, trial=t), make_analog(name, seed=seed + t, scale=scale),
                   (f,), seed + t)
             for name in DATASETS for t in range(trials))
    return _summarize(_sweep(spark, cases, body), ["dataset", "method"], l2=("l2", "mean"))
