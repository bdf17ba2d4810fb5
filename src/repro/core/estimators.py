"""Compatibility estimators (paper Section 4).

The methods ladder, in the paper's order:

* :func:`holdout`        — baseline: black-box accuracy maximization using
                           label propagation as a subroutine (Section 4.1).
* :func:`lce`            — linear compatibility estimation ``||X - WXH||^2``
                           (Section 4.2), factorized into k x k sketches.
* :func:`mce`            — myopic compatibility estimation on the length-1
                           neighbor statistics (Section 4.3, Eq 12).
* :func:`dce`            — distant compatibility estimation on length-l
                           non-backtracking statistics (Sections 4.4-4.7).
* :func:`dcer`           — DCE with restarts (Section 4.8).
* :func:`gold_standard`  — "measure" H from a fully labeled graph (Section 5.3).
* :func:`heuristic_hl`   — the two-value H/L heuristic of Appendix E.1.

Every estimator returns an :class:`EstimationResult` carrying the estimated
matrix and wall-clock split between the graph-touching sketch phase and the
graph-size-independent optimization phase (the split Fig 2 / Fig 6k is about).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import compat
from repro.core.gradient import dce_energy, dce_gradient, dce_weights, structure_project
from repro.core.optimize import OptResult, gradient_descent, nelder_mead
from repro.core.sketch import GraphSketches, build_sketches
from repro.linops.ops import cls_cols, onehot_df, spmm, xtn
from repro.reference import normalize_m

__all__ = [
    "EstimationResult",
    "gold_standard",
    "mce",
    "lce",
    "dce",
    "dcer",
    "holdout",
    "heuristic_hl",
    "restart_points",
]


@dataclass
class EstimationResult:
    """Estimated compatibility matrix plus phase timings (seconds)."""

    H: np.ndarray
    method: str
    sketch_time: float = 0.0
    opt_time: float = 0.0
    energy: float = float("nan")
    extra: dict = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        return self.sketch_time + self.opt_time


def gold_standard(edges: DataFrame, all_labels: DataFrame, k: int) -> EstimationResult:
    """The paper's GS: row-normalize the neighbor-count matrix M measured on
    the *fully* labeled graph (Section 5.3)."""
    t0 = time.perf_counter()
    sk = build_sketches(edges, all_labels, k, ell_max=1, nb=True, variant=1)
    return EstimationResult(
        H=sk.P[0], method="gs", sketch_time=time.perf_counter() - t0
    )


def _statistics(sketches: GraphSketches, ell_max: int, variant: int) -> list[np.ndarray]:
    """``P^(1..ell_max)`` under normalization ``variant``: the sketches' own
    statistics when they were built with that variant, else the raw ``M``
    (which does not depend on the variant) normalized again."""
    if sketches.variant == variant:
        return sketches.P[:ell_max]
    return [normalize_m(M, variant) for M in sketches.M[:ell_max]]


def _minimize_energy(
    P: list[np.ndarray], w: np.ndarray, k: int, starts: list[np.ndarray]
) -> tuple[OptResult, dict]:
    """Step 2 of MCE, DCE and DCEr: minimize the DCE energy (Eq 13/14) from
    each start; returns the first lowest-energy result and the per-start
    records, which show any start that stopped at the iteration cap."""
    runs = [gradient_descent(lambda h: dce_energy(h, P, w, k),
                             lambda h: dce_gradient(h, P, w, k), h0) for h0 in starts]
    best = min(runs, key=lambda res: res.fun)
    return best, {
        "restart_energies": [res.fun for res in runs],
        "restart_nit": [res.nit for res in runs],
        "restart_converged": [res.converged for res in runs],
    }


def mce(
    edges: DataFrame,
    seed_labels: DataFrame,
    k: int,
    *,
    variant: int = 1,
    sketches: GraphSketches | None = None,
) -> EstimationResult:
    """Myopic compatibility estimation (Eq 12): the closest symmetric
    doubly-stochastic matrix to the length-1 statistics, i.e. the DCE energy
    with ell_max = 1, from the uniform start."""
    t0 = time.perf_counter()
    if sketches is None:
        sketches = build_sketches(edges, seed_labels, k, ell_max=1, nb=True, variant=variant)
    P = _statistics(sketches, 1, variant)
    t1 = time.perf_counter()
    best, extra = _minimize_energy(P, np.ones(1), k, [compat.uniform_h(k)])
    return EstimationResult(
        H=compat.h_to_H(best.x, k), method=f"mce_v{variant}", sketch_time=t1 - t0,
        opt_time=time.perf_counter() - t1, energy=best.fun, extra=extra,
    )


def lce(edges: DataFrame, seed_labels: DataFrame, k: int) -> EstimationResult:
    """Linear compatibility estimation (Eq 8), with the LinBP scale fitted
    jointly: ``E(H, s) = ||X - s * W X H||^2``.

    Eq 8 taken literally has a scale degeneracy under the doubly-stochastic
    constraint: rows of ``N = W X`` sum to ~d*f while rows of X sum to 1, so
    the constrained optimum collapses toward the uniform matrix. LinBP itself
    propagates an eps-scaled H (Eq 2), so the faithful reading is to let a
    free scalar ``s`` absorb the magnitude and let H capture the pattern.
    Eliminating s* = sum(A∘H) / tr(H^T B H) analytically leaves
    ``E*(H) = const - sum(A∘H)^2 / tr(H^T B H)``
    over the k x k sketches ``A = N^T X`` and ``B = N^T N``, so optimization
    never re-touches the graph (the paper evaluated LCE unfactorized, which
    is why its Fig 6k LCE line is far slower; see EXPERIMENTS.md)."""
    t0 = time.perf_counter()
    X = onehot_df(seed_labels, k)
    N = spmm(edges, X, k).persist()
    A = xtn(seed_labels, N, k).T  # N^T X  (xtn returns X^T N)
    cols = cls_cols(k)
    prods = (
        N.agg(
            *[
                F.sum(F.col(cols[i]) * F.col(cols[j])).alias(f"b_{i}_{j}")
                for i in range(k)
                for j in range(i, k)
            ]
        ).first()
    )
    B = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            v = prods[f"b_{i}_{j}"] or 0.0
            B[i, j] = B[j, i] = v
    N.unpersist()
    t1 = time.perf_counter()

    def energy(h: np.ndarray) -> float:
        H = compat.h_to_H(h, k)
        a = float(np.sum(A * H))
        b = float(np.trace(H.T @ B @ H))
        return 0.0 if b <= 0 else -(a * a) / b

    def grad(h: np.ndarray) -> np.ndarray:
        H = compat.h_to_H(h, k)
        a = float(np.sum(A * H))
        b = float(np.trace(H.T @ B @ H))
        if b <= 0:
            return np.zeros_like(h)
        dH = -(2.0 * a / b) * A + (2.0 * a * a / (b * b)) * (B @ H)
        return structure_project(dH)

    # The uniform matrix is a stationary saddle of the ratio objective
    # (A and B are near-uniform there), so start from a slightly perturbed
    # point; deterministic.
    h0 = compat.uniform_h(k) + 1e-3 * (np.arange(compat.n_free_params(k)) % 3 - 1)
    res = gradient_descent(energy, grad, h0)
    return EstimationResult(
        H=compat.h_to_H(res.x, k), method="lce", sketch_time=t1 - t0,
        opt_time=time.perf_counter() - t1, energy=res.fun,
    )


def dce(
    edges: DataFrame,
    seed_labels: DataFrame,
    k: int,
    *,
    ell_max: int = 5,
    lam: float = 10.0,
    nb: bool = True,
    variant: int = 1,
    h0: np.ndarray | None = None,
    sketches: GraphSketches | None = None,
) -> EstimationResult:
    """Distant compatibility estimation (Eq 13/14) from a single start."""
    t0 = time.perf_counter()
    if sketches is None:
        sketches = build_sketches(edges, seed_labels, k, ell_max=ell_max, nb=nb, variant=variant)
    P = _statistics(sketches, ell_max, variant)
    t1 = time.perf_counter()
    best, extra = _minimize_energy(
        P, dce_weights(lam, ell_max), k, [compat.uniform_h(k) if h0 is None else h0]
    )
    return EstimationResult(
        H=compat.h_to_H(best.x, k), method="dce", sketch_time=t1 - t0,
        opt_time=time.perf_counter() - t1, energy=best.fun, extra=extra,
    )


def restart_points(k: int, r: int, *, seed: int = 0) -> list[np.ndarray]:
    """Restart initializations (Section 4.8): the uniform point first, then
    points in distinct hyper-quadrants of the k*-dimensional space, each free
    parameter 1/k ± delta with delta < 1/k^2 (all 2^k* quadrants when they fit
    in 4r, random sign patterns otherwise). So there are ``min(r, 1 + 2^k*)``
    points when all quadrants are enumerated, else ``r``: (3, 10) gives 9,
    (4, 10) gives 10."""
    ks = compat.n_free_params(k)
    delta = 0.5 / (k * k)
    rng = np.random.default_rng(seed)
    pts = [compat.uniform_h(k)]
    if r <= 1:
        return pts
    if 2**ks <= 4 * r:
        quadrants = [
            np.array([(1 if (q >> b) & 1 else -1) for b in range(ks)], dtype=float)
            for q in range(2**ks)
        ]
        rng.shuffle(quadrants)
    else:
        quadrants = [rng.choice([-1.0, 1.0], size=ks) for _ in range(r - 1)]
    for signs in quadrants[: r - 1]:
        pts.append(compat.uniform_h(k) + delta * signs)
    return pts


def dcer(
    edges: DataFrame,
    seed_labels: DataFrame,
    k: int,
    *,
    ell_max: int = 5,
    lam: float = 10.0,
    restarts: int = 10,
    nb: bool = True,
    variant: int = 1,
    seed: int = 0,
    sketches: GraphSketches | None = None,
) -> EstimationResult:
    """DCE with restarts (Section 4.8): sketch once, optimize ``restarts``
    times from different initial points, keep the lowest-energy solution.
    The sketch phase dominates on large graphs, which is why DCE and DCEr
    cost the same there (paper Fig 6k). The starts are :func:`restart_points`,
    so there can be fewer than ``restarts`` (9 for k = 3, r = 10)."""
    t0 = time.perf_counter()
    if sketches is None:
        sketches = build_sketches(edges, seed_labels, k, ell_max=ell_max, nb=nb, variant=variant)
    P = _statistics(sketches, ell_max, variant)
    t1 = time.perf_counter()
    starts = restart_points(k, restarts, seed=seed)
    if restarts >= 2:
        # One restart is the MCE warm start (the convex closest-DS fit to the
        # length-1 statistics): for high k the random hyper-quadrant starts
        # cover a vanishing fraction of the 2^k* quadrants, and warm-starting
        # from the myopic solution keeps DCEr at least as good as MCE in the
        # label-rich regime (paper Fig 6g's "DCEr stays ahead" shape).
        starts[-1] = _minimize_energy([P[0]], np.ones(1), k, [compat.uniform_h(k)])[0].x
    best, extra = _minimize_energy(P, dce_weights(lam, ell_max), k, starts)
    return EstimationResult(
        H=compat.h_to_H(best.x, k), method="dcer", sketch_time=t1 - t0,
        opt_time=time.perf_counter() - t1, energy=best.fun, extra=extra,
    )


def holdout(
    edges: DataFrame,
    seed_labels: DataFrame,
    k: int,
    *,
    rho_w: float,
    b: int = 1,
    prop_iters: int = 10,
    s: float = 0.5,
    nm_max_iter: int = 60,
    seed: int = 0,
) -> EstimationResult:
    """The textbook baseline (Section 4.1): split the labels into Seed/Holdout
    partitions Q_1..Q_b; for a candidate H run LinBP from each Seed_i and
    score accuracy on Holdout_i; minimize the negative compound accuracy with
    Nelder-Mead (gradient-free — the objective is a step function).

    Every objective evaluation performs full-graph inference, which is the
    paper's point about why this baseline is 3-4 orders of magnitude slower
    than sketch-based estimation."""
    from repro.propagation.linbp import accuracy_spark, linbp_propagate, predict_labels

    t0 = time.perf_counter()
    pdf = seed_labels.toPandas()
    rng = np.random.default_rng(seed)
    splits = []
    for _ in range(b):
        mask = rng.random(len(pdf)) < 0.5
        if mask.all() or (~mask).all():  # degenerate tiny label sets
            mask[0] = ~mask[0]
        splits.append((pdf[mask], pdf[~mask]))
    spark = edges.sparkSession
    split_dfs = [
        (spark.createDataFrame(sd), spark.createDataFrame(hd)) for sd, hd in splits
    ]
    n_evals = 0

    def energy(h: np.ndarray) -> float:
        nonlocal n_evals
        n_evals += 1
        H = compat.h_to_H(h, k)
        acc_sum = 0.0
        for seed_df, hold_df in split_dfs:
            beliefs = linbp_propagate(
                edges, seed_df, H, rho_w=rho_w, s=s, iters=prop_iters
            )
            pred = predict_labels(beliefs, k)
            acc_sum += accuracy_spark(pred, hold_df, seed_df)
            beliefs.unpersist()
        return -acc_sum

    res = nelder_mead(energy, compat.uniform_h(k), max_iter=nm_max_iter)
    return EstimationResult(
        H=compat.h_to_H(res.x, k), method=f"holdout_b{b}", sketch_time=0.0,
        opt_time=time.perf_counter() - t0, energy=res.fun,
        extra={"n_inference_calls": n_evals * b},
    )


def heuristic_hl(gs_H: np.ndarray, *, ratio: float = 3.0) -> EstimationResult:
    """The prior-work heuristic (Appendix E.1): assume H has only two values,
    High and Low; read the *positions* of the high entries off the gold
    standard (the paper grants the heuristic this glance), assign two fixed
    values and rebalance. Only the pattern matters downstream — LinBP rescales
    by the spectral radius anyway."""
    gs_H = np.asarray(gs_H, float)
    mask = gs_H > gs_H.mean()
    A = np.where(mask, ratio, 1.0)
    return EstimationResult(H=compat.sinkhorn(A), method="heuristic")
