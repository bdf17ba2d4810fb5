"""From-scratch optimizers.

The evaluation environment ships no SciPy, so the two optimizers the paper
relies on are implemented here:

* :func:`bfgs` — dense quasi-Newton BFGS with Armijo backtracking, used
  with the paper's explicit gradient (Prop 4.7) for MCE/DCE/DCEr and with
  LCE's own gradient. The Eq-6 parameterization already bakes the symmetric
  doubly-stochastic constraints into the search space, so the problem is
  unconstrained in h (the paper's SLSQP plays the same role). The problems
  are small (k* <= 55 parameters), so a dense k* x k* inverse-Hessian
  estimate is cheap. Plain gradient descent on the same energies stopped at
  its 2,000-iteration cap on every k = 11 restart, above the minimum BFGS
  reaches in ~170 iterations (DESIGN.md Section 3). MCE, LCE, DCE and
  DCEr reach it through one call site, ``estimators._minimize_energy``.
* :func:`nelder_mead` — the gradient-free simplex method for the Holdout
  baseline, whose objective (negative propagation accuracy) is a step
  function with no gradient (the paper uses scipy's Nelder-Mead for exactly
  this reason).
"""
from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["bfgs", "nelder_mead", "OptResult"]


class OptResult:
    """Minimal scipy-like result: ``x``, ``fun``, ``nit``, ``converged``."""

    def __init__(self, x: np.ndarray, fun: float, nit: int, converged: bool):
        self.x = x
        self.fun = fun
        self.nit = nit
        self.converged = converged

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"OptResult(fun={self.fun:.3e}, nit={self.nit}, converged={self.converged})"


def bfgs(
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    max_iter: int = 2000,
    tol: float = 1e-12,
    armijo_c: float = 1e-4,
    backtrack: float = 0.5,
    max_backtracks: int = 40,
) -> OptResult:
    """Dense BFGS (Nocedal & Wright Alg 6.1) with an Armijo backtracking line
    search from the unit step, on an unconstrained problem.

    The inverse-Hessian estimate starts at the identity. The search direction
    falls back to steepest descent when the quasi-Newton one is not a descent
    direction, and the update is skipped when the curvature ``s @ y`` is not
    positive, so the estimate stays positive definite. Stops when the
    accepted step no longer reduces the objective by more than
    ``tol * max(1, |f|)`` (relative, so energy scale does not matter), when
    the gradient norm vanishes, or when no step passes the Armijo test.
    Deterministic given ``x0``.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx, g = fun(x), grad(x)
    Hinv = np.eye(x.size)
    for it in range(1, max_iter + 1):
        gnorm2 = float(g @ g)
        if gnorm2 < 1e-20:
            return OptResult(x, fx, it, True)
        p = -(Hinv @ g)
        slope = float(p @ g)
        if slope >= 0:
            p, slope = -g, -gnorm2
        step = 1.0
        for _ in range(max_backtracks):
            cand = x + step * p
            fc = fun(cand)
            if fc <= fx + armijo_c * step * slope:
                break
            step *= backtrack
        else:
            return OptResult(x, fx, it, True)  # no step makes progress
        g_new = grad(cand)
        s, y = cand - x, g_new - g
        improved = fx - fc
        x, fx, g = cand, fc, g_new
        if improved < tol * max(1.0, abs(fx)):
            return OptResult(x, fx, it, True)
        sy = float(s @ y)
        if sy > 0:
            Hy = Hinv @ y
            Hinv += ((sy + y @ Hy) / sy**2) * np.outer(s, s) - (np.outer(Hy, s) + np.outer(s, Hy)) / sy
    return OptResult(x, fx, max_iter, False)


def nelder_mead(
    fun: Callable[[np.ndarray], float],
    x0: np.ndarray,
    *,
    step: float = 0.1,
    max_iter: int = 200,
    xatol: float = 1e-4,
    fatol: float = 1e-6,
) -> OptResult:
    """Standard Nelder-Mead simplex (reflection 1, expansion 2, contraction
    0.5, shrink 0.5) — mirrors scipy.optimize.minimize(method="Nelder-Mead")
    closely enough for the Holdout baseline's small k* dimensionality."""
    x0 = np.asarray(x0, dtype=float)
    ndim = len(x0)
    simplex = [x0]
    for i in range(ndim):
        p = x0.copy()
        p[i] += step if p[i] == 0 else step * max(abs(p[i]), 1.0)
        simplex.append(p)
    fvals = [fun(p) for p in simplex]
    nit = 0
    for nit in range(1, max_iter + 1):
        order = np.argsort(fvals)
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        if (
            np.max([np.max(np.abs(p - simplex[0])) for p in simplex[1:]]) < xatol
            and np.max(np.abs(np.array(fvals[1:]) - fvals[0])) < fatol
        ):
            return OptResult(simplex[0], fvals[0], nit, True)
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        xr = centroid + (centroid - worst)
        fr = fun(xr)
        if fvals[0] <= fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[0]:
            xe = centroid + 2.0 * (centroid - worst)
            fe = fun(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        else:
            xc = centroid + 0.5 * (worst - centroid)
            fc = fun(xc)
            if fc < fvals[-1]:
                simplex[-1], fvals[-1] = xc, fc
            else:  # shrink toward best
                best = simplex[0]
                simplex = [best] + [best + 0.5 * (p - best) for p in simplex[1:]]
                fvals = [fvals[0]] + [fun(p) for p in simplex[1:]]
    order = np.argsort(fvals)
    return OptResult(simplex[order[0]], fvals[order[0]], nit, False)
