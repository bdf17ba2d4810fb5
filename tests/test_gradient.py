"""Tests for the DCE energy and the explicit gradient of Prop 4.7 — the
load-bearing math of the paper's optimization step."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compat
from repro.core.gradient import (
    dce_energy,
    dce_gradient,
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
