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
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame

from repro.core import compat
from repro.core.gradient import (
    dce_energy,
    dce_gauss_newton,
    dce_gradient,
    dce_weights,
    structure_project,
)
from repro.core.optimize import OptResult, bfgs, nelder_mead
# The DCE family's solver, bound under the name pipebench's tracing hooks
# patch for step 2 (one call per start).
from repro.core.optimize import levenberg_marquardt as gradient_descent
from repro.core.sketch import GraphSketches, build_sketches
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
    sk = build_sketches(edges, all_labels, k, ell_max=1)
    return EstimationResult(
        H=sk.P[0], method="gs", sketch_time=time.perf_counter() - t0
    )


def _minimize_energy(method: str, solve: Callable, gradient: Callable,
                     starts: list[np.ndarray]) -> tuple[OptResult, dict]:
    """Step 2 of every sketch-based estimator: one ``solve(h0)`` per start;
    returns the first lowest-energy result and the per-start records. The
    solvers compare and return the objective's own value (``res.fun``), not a
    model of it, and each start's gradient norm is ``gradient`` at the point
    its solve returned.
    ``extra["converged"]`` is the chosen start's flag, and this is the one
    place that warns (``RuntimeWarning``) when that start stopped at the
    iteration cap, so such an estimate is never used silently."""
    runs = [solve(h0) for h0 in starts]
    best = min(runs, key=lambda res: res.fun)
    if not best.converged:
        warnings.warn(f"{method}: step 2 stopped at {best.nit} iterations without converging "
                      f"(energy {best.fun:.6g}); the estimate is not at a minimum",
                      RuntimeWarning)
    return best, {
        "restart_energies": [res.fun for res in runs],
        "restart_grad_norm": [float(np.linalg.norm(gradient(res.x))) for res in runs],
        "restart_nit": [res.nit for res in runs],
        "restart_converged": [res.converged for res in runs],
        "converged": best.converged,
    }


def _two_step(method: str, k: int, sketch: Callable, objective: Callable) -> EstimationResult:
    """The paper's two steps, timed apart: ``sketch()`` is step 1, the only
    part that reads the graph, and ``objective(sketch())`` gives step 2's
    solver, gradient and starts. The one place the split is measured and an
    estimate is built."""
    t0 = time.perf_counter()
    sk = sketch()
    t1 = time.perf_counter()
    best, extra = _minimize_energy(method, *objective(sk))
    return EstimationResult(
        H=compat.h_to_H(best.x, k), method=method, sketch_time=t1 - t0,
        opt_time=time.perf_counter() - t1, energy=best.fun, extra=extra,
    )


def _dce(edges: DataFrame, seed_labels: DataFrame, k: int, method: str, starts: Callable, *,
         ell_max: int, lam: float, variant: int,
         sketches: GraphSketches | None) -> EstimationResult:
    """The core of MCE, DCE and DCEr: the DCE energy (Eq 13/14) on the
    statistics ``P^(l) = normalize_m(M^(l), variant)``, l = 1..ell_max, of the
    non-backtracking ``sketches`` (built when not given), minimized from each
    of ``starts(sketches)`` by Levenberg-Marquardt on the energy's
    Gauss-Newton model. Step 1 yields only ``M``; this is the one place step 2
    normalizes it. Given sketches must be non-backtracking, with k
    classes and at least ``ell_max`` levels, else ``ValueError``."""
    if sketches and not (sketches.k == k and sketches.ell_max >= ell_max and sketches.nb):
        raise ValueError(f"{method} needs non-backtracking sketches with k = {k} and at least "
                         f"{ell_max} levels, got {sketches.k}, {sketches.ell_max}, nb={sketches.nb}")

    def objective(sk: GraphSketches) -> tuple[Callable, Callable, list[np.ndarray]]:
        P = [normalize_m(M, variant) for M in sk.M[:ell_max]]
        w = dce_weights(lam, ell_max)

        def solve(h0: np.ndarray) -> OptResult:
            return gradient_descent(lambda h: dce_energy(h, P, w, k),
                                    lambda h: dce_gauss_newton(h, P, w, k), h0)

        return solve, (lambda h: dce_gradient(h, P, w, k)), starts(sk)

    return _two_step(method, k, lambda: sketches or build_sketches(
        edges, seed_labels, k, ell_max=ell_max), objective)


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
    return _dce(edges, seed_labels, k, f"mce_v{variant}", lambda sk: [compat.uniform_h(k)],
                ell_max=1, lam=1.0, variant=variant, sketches=sketches)


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
    over the k x k sketches ``A = N^T X`` and ``B = N^T N``. W is symmetric,
    so these are the first two levels of the full-path sketch:
    ``A = X^T W X = M^(1)`` and ``B = X^T W^2 X = M^(2)``. Optimization never
    re-touches the graph (the paper evaluated LCE unfactorized, which is why
    its Fig 6k LCE line is far slower; see EXPERIMENTS.md)."""
    def objective(sk: GraphSketches) -> tuple[Callable, Callable, list[np.ndarray]]:
        A, B = sk.M

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
        # Not a sum of squares, so BFGS on the gradient rather than LM.
        return (lambda h: bfgs(energy, grad, h)), grad, [h0]

    return _two_step("lce", k, lambda: build_sketches(edges, seed_labels, k, ell_max=2, nb=False),
                     objective)


def dce(
    edges: DataFrame,
    seed_labels: DataFrame,
    k: int,
    *,
    ell_max: int = 5,
    lam: float = 10.0,
    variant: int = 1,
    h0: np.ndarray | None = None,
    sketches: GraphSketches | None = None,
) -> EstimationResult:
    """Distant compatibility estimation (Eq 13/14) from a single start (the
    uniform point unless ``h0`` is given)."""
    start = compat.uniform_h(k) if h0 is None else h0
    return _dce(edges, seed_labels, k, "dce", lambda sk: [start], ell_max=ell_max, lam=lam,
                variant=variant, sketches=sketches)


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
    variant: int = 1,
    seed: int = 0,
    sketches: GraphSketches | None = None,
) -> EstimationResult:
    """DCE with restarts (Section 4.8): sketch once, optimize ``restarts``
    times from different initial points, keep the lowest-energy solution.
    The sketch phase dominates on large graphs, which is why DCE and DCEr
    cost the same there (paper Fig 6k). The starts are :func:`restart_points`,
    so there can be fewer than ``restarts`` (9 for k = 3, r = 10)."""
    def starts(sk: GraphSketches) -> list[np.ndarray]:
        pts = restart_points(k, restarts, seed=seed)
        if restarts >= 2:
            # One restart is the MCE estimate (the convex closest-DS fit to
            # the length-1 statistics): for high k the random hyper-quadrant
            # starts cover a vanishing fraction of the 2^k* quadrants, and
            # warm-starting from the myopic solution keeps DCEr at least as
            # good as MCE in the label-rich regime (paper Fig 6g's "DCEr stays
            # ahead" shape).
            pts[-1] = compat.H_to_h(mce(edges, seed_labels, k, variant=variant, sketches=sk).H)
        return pts

    return _dce(edges, seed_labels, k, "dcer", starts, ell_max=ell_max, lam=lam,
                variant=variant, sketches=sketches)


def holdout(
    edges: DataFrame,
    seed_labels: DataFrame,
    k: int,
    *,
    rho_w: float,
    b: int = 1,
    prop_iters: int = 10,
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
            beliefs = linbp_propagate(edges, seed_df, H, rho_w=rho_w, iters=prop_iters)
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


def heuristic_hl(gs_H: np.ndarray) -> EstimationResult:
    """The prior-work heuristic (Appendix E.1): assume H has only two values,
    High and Low; read the *positions* of the high entries off the gold
    standard (the paper grants the heuristic this glance), assign the fixed
    values 3 and 1 and rebalance. Only the pattern matters downstream — LinBP
    rescales by the spectral radius anyway."""
    gs_H = np.asarray(gs_H, float)
    mask = gs_H > gs_H.mean()
    A = np.where(mask, 3.0, 1.0)
    return EstimationResult(H=compat.sinkhorn(A), method="heuristic")
