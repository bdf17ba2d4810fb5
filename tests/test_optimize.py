"""Tests for the from-scratch optimizers (BFGS + Nelder-Mead).

The ``test_gd_*`` tests predate BFGS: they checked the gradient descent it
replaced and now check BFGS at the same bounds (``estimators`` still binds the
step-2 solver as ``gradient_descent``)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import compat
from repro.core.gradient import dce_energy, dce_gradient
from repro.core.optimize import bfgs, nelder_mead


def test_gd_quadratic():
    A = np.array([[3.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, -1.0])
    fun = lambda x: 0.5 * x @ A @ x - b @ x
    grad = lambda x: A @ x - b
    res = bfgs(fun, grad, np.zeros(2))
    assert res.converged
    assert np.allclose(res.x, np.linalg.solve(A, b), atol=1e-4)


def test_gd_scalar_quartic():
    fun = lambda x: float((x[0] - 2.0) ** 4)
    grad = lambda x: np.array([4 * (x[0] - 2.0) ** 3])
    res = bfgs(fun, grad, np.array([10.0]), max_iter=2000, tol=1e-14)
    assert abs(res.x[0] - 2.0) < 1e-2


def test_gd_rosenbrock_descends():
    fun = lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
    grad = lambda x: np.array(
        [-2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2), 200 * (x[1] - x[0] ** 2)]
    )
    x0 = np.array([-1.2, 1.0])
    res = bfgs(fun, grad, x0, max_iter=3000, tol=1e-14)
    assert res.fun < fun(x0) * 1e-3


def test_gd_already_at_minimum():
    fun = lambda x: float(x @ x)
    grad = lambda x: 2 * x
    res = bfgs(fun, grad, np.zeros(3))
    assert res.converged and res.fun == 0.0


def test_gd_deterministic():
    rng = np.random.default_rng(0)
    A = rng.random((4, 4))
    A = A @ A.T + np.eye(4)
    fun = lambda x: 0.5 * x @ A @ x
    grad = lambda x: A @ x
    r1 = bfgs(fun, grad, np.ones(4))
    r2 = bfgs(fun, grad, np.ones(4))
    assert np.array_equal(r1.x, r2.x)


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
    """DCE objective with exact H^l targets: BFGS from the uniform start must
    recover H (the energy has a global minimum of 0 there)."""
    for k, h in [(2, 4.0), (3, 3.0), (3, 8.0), (4, 5.0)]:
        H = compat.skew_H(k, h)
        P = [np.linalg.matrix_power(H, ell) for ell in range(1, 6)]
        w = np.array([10.0**i for i in range(5)])
        res = bfgs(
            lambda x: dce_energy(x, P, w, k),
            lambda x: dce_gradient(x, P, w, k),
            compat.uniform_h(k),
            max_iter=2000,
            tol=1e-15,
        )
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
    res = bfgs(
        lambda x: dce_energy(x, [np.linalg.matrix_power(H, 2)], w, k),
        lambda x: dce_gradient(x, [np.linalg.matrix_power(H, 2)], w, k),
        compat.uniform_h(k) + 0.01,
        max_iter=3000,
        tol=1e-16,
    )
    assert res.fun < 1e-6
