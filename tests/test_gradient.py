"""Tests for the DCE energy, the explicit gradient of Prop 4.7 and the
Gauss-Newton model step 2 solves with — the load-bearing math of the paper's
optimization step."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference as R
from repro.core import compat
from repro.core.gradient import (
    dce_energy,
    dce_gauss_newton,
    dce_gradient,
    dce_weights,
    structure_project,
)


def _finite_diff(fun, h, eps=1e-6):
    g = np.zeros_like(h)
    for i in range(len(h)):
        hp, hm = h.copy(), h.copy()
        hp[i] += eps
        hm[i] -= eps
        g[i] = (fun(hp) - fun(hm)) / (2 * eps)
    return g


def _random_targets(k, ell_max, seed, symmetric=False):
    rng = np.random.default_rng(seed)
    P = []
    for _ in range(ell_max):
        Z = rng.random((k, k))
        if symmetric:
            Z = (Z + Z.T) / 2
        P.append(Z)
    return P


@pytest.mark.parametrize("k", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("ell_max", [1, 2, 3, 5])
def test_dce_gradient_matches_finite_difference(k, ell_max):
    P = _random_targets(k, ell_max, seed=k * 10 + ell_max)
    w = np.array([2.0**i for i in range(ell_max)])
    rng = np.random.default_rng(1)
    h = rng.random(compat.n_free_params(k))
    g = dce_gradient(h, P, w, k)
    fd = _finite_diff(lambda x: dce_energy(x, P, w, k), h)
    assert np.allclose(g, fd, rtol=1e-4, atol=1e-4)


@pytest.mark.parametrize("k", [3, 4])
def test_dce_gradient_nonsymmetric_targets(k):
    # Variant-1 statistics are not exactly symmetric; the gradient must still
    # be exact in that case.
    P = _random_targets(k, 4, seed=99, symmetric=False)
    w = np.array([1.0, 10.0, 100.0, 1000.0])
    h = np.random.default_rng(7).random(compat.n_free_params(k))
    g = dce_gradient(h, P, w, k)
    fd = _finite_diff(lambda x: dce_energy(x, P, w, k), h)
    assert np.allclose(g, fd, rtol=1e-4, atol=1e-3)


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_dce_gradient_hypothesis(k, seed):
    rng = np.random.default_rng(seed)
    ell_max = int(rng.integers(1, 4))
    P = _random_targets(k, ell_max, seed)
    w = rng.random(ell_max) + 0.1
    h = rng.uniform(-0.5, 1.5, compat.n_free_params(k))
    g = dce_gradient(h, P, w, k)
    fd = _finite_diff(lambda x: dce_energy(x, P, w, k), h)
    scale = max(1.0, np.abs(fd).max())
    assert np.abs(g - fd).max() / scale < 1e-4


@pytest.mark.parametrize("k", [2, 3, 5])
def test_energy_zero_at_exact_powers(k):
    """If the targets are exactly H^l, the energy at H is 0 and its gradient
    vanishes (H is a global minimum)."""
    H = compat.skew_H(k, 4.0)
    P = [np.linalg.matrix_power(H, ell) for ell in range(1, 4)]
    w = np.ones(3)
    h = compat.H_to_h(H)
    assert dce_energy(h, P, w, k) == pytest.approx(0.0, abs=1e-18)
    assert np.allclose(dce_gradient(h, P, w, k), 0.0, atol=1e-12)


def test_energy_weights_scale_terms():
    k = 3
    H = compat.skew_H(k, 3.0)
    P = [np.full((k, k), 1.0 / k), np.full((k, k), 1.0 / k)]
    h = compat.H_to_h(H)
    e1 = dce_energy(h, P, np.array([1.0, 0.0]), k)
    e2 = dce_energy(h, P, np.array([0.0, 1.0]), k)
    e12 = dce_energy(h, P, np.array([1.0, 1.0]), k)
    assert e12 == pytest.approx(e1 + e2)
    e_scaled = dce_energy(h, P, np.array([3.0, 5.0]), k)
    assert e_scaled == pytest.approx(3 * e1 + 5 * e2)


def test_structure_project_matches_parameterization_jacobian():
    """S^ij of Prop 4.7 must equal dH/dh_p contracted with G — check against
    the numerical Jacobian of h_to_H."""
    eps = 1e-7
    for k in (2, 3, 5, 11):
        rng = np.random.default_rng(5 + k)
        G = rng.random((k, k))
        h0 = rng.random(compat.n_free_params(k))
        out = structure_project(G)
        for p in range(compat.n_free_params(k)):
            hp, hm = h0.copy(), h0.copy()
            hp[p] += eps
            hm[p] -= eps
            dH = (compat.h_to_H(hp, k) - compat.h_to_H(hm, k)) / (2 * eps)
            assert out[p] == pytest.approx(float(np.sum(dH * G)), rel=1e-5, abs=1e-6)


def test_energy_and_gradient_need_one_weight_per_level():
    """Weights for more levels than the statistics hold raise instead of
    fitting the levels there are with the wrong weights."""
    P, w, h = _random_targets(3, 3, seed=1), dce_weights(10.0, 5), compat.uniform_h(3)
    for fun in (dce_energy, dce_gradient, dce_gauss_newton):
        with pytest.raises(ValueError):
            fun(h, P, w, 3)


def _residuals(h, P, w, k):
    """The stacked DCE residuals ``sqrt(w_l) vec(H^l - P_hat^(l))``."""
    H = compat.h_to_H(h, k)
    return np.concatenate([np.sqrt(wl) * (np.linalg.matrix_power(H, ell) - Z).ravel()
                           for ell, (wl, Z) in enumerate(zip(w, P), start=1)])


def _check_gauss_newton(h, P, w, k):
    """``dce_gauss_newton`` against the definitions: its E is ``dce_energy``,
    ``2 J^T r`` is ``dce_gradient`` and ``J^T J`` is that of the
    central-difference Jacobian of the stacked residuals."""
    E, JtJ, Jtr = dce_gauss_newton(h, P, w, k)
    assert E == pytest.approx(dce_energy(h, P, w, k), rel=1e-12)
    assert np.allclose(2.0 * Jtr, dce_gradient(h, P, w, k), rtol=0.0, atol=1e-10)
    eps = 1e-6
    J = np.column_stack([(_residuals(h + eps * e, P, w, k) - _residuals(h - eps * e, P, w, k))
                         / (2 * eps) for e in np.eye(len(h))])
    fd = J.T @ J
    assert JtJ.shape == fd.shape == (compat.n_free_params(k),) * 2
    assert np.allclose(JtJ, fd, rtol=1e-5, atol=1e-8 * np.abs(fd).max())


def _variant1_targets(rng, k, ell_max):
    """Row-normalized (variant-1, so not symmetric) statistics of random counts."""
    return [R.normalize_m(rng.integers(0, 50, (k, k)).astype(float), 1) for _ in range(ell_max)]


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_dce_gauss_newton_matches_definitions(k, ell_max, seed):
    """At a random symmetric doubly-stochastic H, against variant-1 statistics."""
    rng = np.random.default_rng(seed)
    P = _variant1_targets(rng, k, ell_max)
    w = dce_weights(float(rng.uniform(0.1, 10.0)), ell_max)
    _check_gauss_newton(compat.H_to_h(compat.sinkhorn(rng.random((k, k)))), P, w, k)


@pytest.mark.parametrize("k", [2, 3, 6])
@pytest.mark.parametrize("point", ["uniform", "identity"])
def test_dce_gauss_newton_at_repeated_eigenvalues(k, point):
    """The uniform H (eigenvalue 0, k - 1 times) and H = I (eigenvalue 1, k
    times), where a divided-difference form of Gamma_l would divide by 0;
    k = 2 has a single free parameter."""
    h = compat.uniform_h(k) if point == "uniform" else compat.H_to_h(np.eye(k))
    P = _variant1_targets(np.random.default_rng(k), k, 5)
    _check_gauss_newton(h, P, dce_weights(10.0, 5), k)
