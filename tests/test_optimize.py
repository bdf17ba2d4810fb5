"""Tests for the from-scratch optimizers (Levenberg-Marquardt and
Nelder-Mead).

The ``test_lm_*`` tests check Levenberg-Marquardt, which ``estimators`` binds
as ``gradient_descent``. The two ``test_gd_*`` tests predate it: they checked
the DCE energy's recovery of H under gradient descent and BFGS, and now check
it under Levenberg-Marquardt on the energy's Gauss-Newton model, at the same
bounds."""
from __future__ import annotations

import numpy as np

from repro.core import compat, optimize
from repro.core.gradient import dce_energy, dce_gauss_newton
from repro.core.optimize import levenberg_marquardt, nelder_mead


def test_nm_quadratic():
    fun = lambda x: float((x[0] - 1) ** 2 + (x[1] + 2) ** 2)
    res = nelder_mead(fun, np.zeros(2), max_iter=500)
    assert np.allclose(res.x, [1.0, -2.0], atol=1e-2)


def test_nm_handles_step_function():
    # The Holdout objective is piecewise constant; NM must not crash and must
    # find a plateau at least as good as the start.
    fun = lambda x: float(np.floor(np.abs(x).sum() * 5) / 5)
    x0 = np.array([0.7, -0.4, 0.3])
    res = nelder_mead(fun, x0, max_iter=300)
    assert res.fun <= fun(x0)


def test_nm_1d():
    res = nelder_mead(lambda x: float((x[0] - 3) ** 2), np.array([0.0]), max_iter=300)
    assert abs(res.x[0] - 3) < 1e-2


def test_gd_recovers_H_from_exact_powers():
    """DCE objective with exact H^l targets: Levenberg-Marquardt from the
    uniform start must recover H (the energy has a global minimum of 0
    there)."""
    for k, h in [(2, 4.0), (3, 3.0), (3, 8.0), (4, 5.0)]:
        H = compat.skew_H(k, h)
        P = [np.linalg.matrix_power(H, ell) for ell in range(1, 6)]
        w = np.array([10.0**i for i in range(5)])
        res = levenberg_marquardt(lambda x: dce_energy(x, P, w, k),
                                  lambda x: dce_gauss_newton(x, P, w, k), compat.uniform_h(k))
        Hest = compat.h_to_H(res.x, k)
        assert compat.l2_distance(Hest, H) < 5e-3, (k, h)


def test_gd_ell2_only_has_symmetric_ambiguity():
    """Even path lengths alone cannot distinguish H from a permuted variant
    (the paper's note that even ell_max has multiple minima): the energy at
    the planted H and at the uniform start's solution agree to ~0 but the
    matrix may differ. We assert only that energy goes to ~0."""
    k = 3
    H = compat.skew_H(k, 8.0)
    P = [np.linalg.matrix_power(H, 2)]
    w = np.array([1.0])
    res = levenberg_marquardt(lambda x: dce_energy(x, P, w, k),
                              lambda x: dce_gauss_newton(x, P, w, k),
                              compat.uniform_h(k) + 0.01)
    assert res.fun < 1e-6


def _least_squares(residuals, jacobian):
    """``fun`` and the Gauss-Newton ``model`` of ``||residuals(x)||^2``."""
    def fun(x):
        r = residuals(x)
        return float(r @ r)

    def model(x):
        r, J = residuals(x), jacobian(x)
        return float(r @ r), J.T @ J, J.T @ r

    return fun, model


def _rosenbrock():
    return _least_squares(lambda x: np.array([10 * (x[1] - x[0] ** 2), 1 - x[0]]),
                          lambda x: np.array([[-20 * x[0], 10.0], [-1.0, 0.0]]))


def test_lm_linear_least_squares_in_one_step():
    """The first step is the undamped Gauss-Newton one, so a linear problem is
    solved by the first point tried."""
    rng = np.random.default_rng(0)
    A, b = rng.random((8, 3)), rng.random(8)
    fun, model = _least_squares(lambda x: A @ x - b, lambda x: A)
    tried = []
    res = levenberg_marquardt(lambda x: tried.append(x.copy()) or fun(x), model, np.zeros(3))
    solution = np.linalg.lstsq(A, b, rcond=None)[0]
    assert res.converged
    assert len(tried) == 2 and np.allclose(tried[1], solution, atol=1e-12)
    assert np.allclose(res.x, solution, atol=1e-12)


def test_lm_rosenbrock_reaches_minimum():
    fun, model = _rosenbrock()
    res = levenberg_marquardt(fun, model, np.array([-1.2, 1.0]))
    assert res.converged
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-6) and res.fun < 1e-12


def test_lm_already_at_minimum():
    fun, model = _rosenbrock()
    res = levenberg_marquardt(fun, model, np.array([1.0, 1.0]))
    assert res.converged and res.fun == 0.0 and np.array_equal(res.x, [1.0, 1.0])


def test_lm_deterministic():
    fun, model = _rosenbrock()
    r1 = levenberg_marquardt(fun, model, np.array([-1.2, 1.0]))
    r2 = levenberg_marquardt(fun, model, np.array([-1.2, 1.0]))
    assert np.array_equal(r1.x, r2.x) and r1.nit == r2.nit


def test_lm_iteration_cap_is_reported(monkeypatch):
    monkeypatch.setattr(optimize, "_LM_MAX_ITER", 3)
    fun, model = _rosenbrock()
    res = levenberg_marquardt(fun, model, np.array([-1.2, 1.0]))
    assert not res.converged and res.nit == 3
    assert res.fun < fun(np.array([-1.2, 1.0]))
