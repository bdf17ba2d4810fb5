"""From-scratch optimizers.

The evaluation environment ships no SciPy, so the optimizers step 2 relies on
are implemented here:

* :func:`levenberg_marquardt` — for a sum of squares, given its Gauss-Newton
  model. MCE, DCE and DCEr fit with it, on the model of
  ``gradient.dce_gauss_newton``. The Eq-6 parameterization already bakes the
  symmetric doubly-stochastic constraints into the search space, so the
  problem is unconstrained in h (the paper's SLSQP plays the same role). On
  the k = 11 Hep-Th analog, DCEr's ten starts take 294-310 damped
  Gauss-Newton steps in all (DESIGN.md Section 3). Every solve starts from
  one call site, ``estimators._minimize_energy``. LCE needs no iterative
  solver: its minimum is one linear solve (``estimators.lce``).
* :func:`nelder_mead` — the gradient-free simplex method for the Holdout
  baseline, whose objective (negative propagation accuracy) is a step
  function with no gradient (the paper uses scipy's Nelder-Mead for exactly
  this reason).
"""
from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["levenberg_marquardt", "nelder_mead", "OptResult"]

# The relative stop rule of Levenberg-Marquardt: stop once an accepted step
# lowers f by less than this times max(1, |f|).
_REL_TOL = 1e-12
# Levenberg-Marquardt damping: the factors on an accepted and on a rejected
# step, the damping a first rejection sets (times the largest diagonal entry
# of J^T J), the most rejections in a row, and the iteration cap.
_LM_DOWN, _LM_UP, _LM_FLOOR, _LM_MAX_REJECTS = 0.3, 10.0, 1e-2, 40
_LM_MAX_ITER = 2000
# Nelder-Mead: the initial simplex step, the x and f convergence tolerances.
_NM_STEP, _NM_XATOL, _NM_FATOL = 0.1, 1e-4, 1e-6


class OptResult:
    """Minimal scipy-like result: ``x``, ``fun``, ``nit``, ``converged``."""

    def __init__(self, x: np.ndarray, fun: float, nit: int, converged: bool):
        self.x = x
        self.fun = fun
        self.nit = nit
        self.converged = converged

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"OptResult(fun={self.fun:.3e}, nit={self.nit}, converged={self.converged})"


def levenberg_marquardt(
    fun: Callable[[np.ndarray], float],
    model: Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray]],
    x0: np.ndarray,
) -> OptResult:
    """Levenberg-Marquardt (Nocedal & Wright Section 10.3) for a sum of
    squares ``f(x) = ||r(x)||^2``, given ``fun(x) = f(x)`` and its
    Gauss-Newton model ``model(x) = (f(x), J^T J, J^T r)``.

    Each iteration solves ``(J^T J + mu I) p = -J^T r`` and evaluates ``fun``
    at ``x + p``. A step that lowers f is accepted, the model is rebuilt there
    and mu shrinks by 0.3; otherwise mu grows by 10, to at least 1e-2 times
    the largest diagonal entry of ``J^T J``. mu starts at 0, so the first step
    is the Gauss-Newton one, which solves a linear least-squares problem.
    Stops when an accepted step no longer reduces f by more than
    ``1e-12 * max(1, |f|)``, when the gradient ``2 J^T r`` vanishes, or after
    40 rejections in a row (no step makes progress); unconverged after 2,000
    iterations. ``fun`` gives every f compared and returned; the model gives
    only the steps. ``nit`` counts the iterations. Deterministic given ``x0``.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = fun(x)
    _, JtJ, Jtr = model(x)
    mu, rejects, eye = 0.0, 0, np.eye(x.size)
    for it in range(1, _LM_MAX_ITER + 1):
        if 4.0 * float(Jtr @ Jtr) < 1e-20:
            return OptResult(x, fx, it, True)
        cand = x - np.linalg.solve(JtJ + mu * eye, Jtr)
        fc = fun(cand)
        if fc < fx:
            improved = fx - fc
            x, fx, rejects = cand, fc, 0
            _, JtJ, Jtr = model(x)
            mu *= _LM_DOWN
            if improved < _REL_TOL * max(1.0, abs(fx)):
                return OptResult(x, fx, it, True)
        else:
            rejects += 1
            if rejects == _LM_MAX_REJECTS:
                return OptResult(x, fx, it, True)  # no step makes progress
            mu = max(mu * _LM_UP, _LM_FLOOR * float(np.max(np.diag(JtJ))))
    return OptResult(x, fx, _LM_MAX_ITER, False)


def nelder_mead(
    fun: Callable[[np.ndarray], float],
    x0: np.ndarray,
    *,
    max_iter: int = 200,
) -> OptResult:
    """Standard Nelder-Mead simplex (reflection 1, expansion 2, contraction
    0.5, shrink 0.5; initial step 0.1, xatol 1e-4, fatol 1e-6) — mirrors
    scipy.optimize.minimize(method="Nelder-Mead") closely enough for the
    Holdout baseline's small k* dimensionality."""
    x0 = np.asarray(x0, dtype=float)
    ndim = len(x0)
    simplex = [x0]
    for i in range(ndim):
        p = x0.copy()
        p[i] += _NM_STEP if p[i] == 0 else _NM_STEP * max(abs(p[i]), 1.0)
        simplex.append(p)
    fvals = [fun(p) for p in simplex]
    nit = 0
    for nit in range(1, max_iter + 1):
        order = np.argsort(fvals)
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        if (
            np.max([np.max(np.abs(p - simplex[0])) for p in simplex[1:]]) < _NM_XATOL
            and np.max(np.abs(np.array(fvals[1:]) - fvals[0])) < _NM_FATOL
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
