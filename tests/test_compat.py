"""Unit tests for the Eq-6 parameterization and compatibility utilities."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compat

KS = [2, 3, 4, 5, 6, 7, 8, 11]


@pytest.mark.parametrize("k", KS)
def test_n_free_params(k):
    assert compat.n_free_params(k) == k * (k - 1) // 2


@pytest.mark.parametrize("k", KS)
def test_free_param_indices_count_and_range(k):
    idx = compat.free_param_indices(k)
    assert len(idx) == compat.n_free_params(k)
    for i, j in idx:
        assert 0 <= i <= j < k - 1


@pytest.mark.parametrize("k", KS)
def test_h_to_H_uniform_gives_uniform_matrix(k):
    H = compat.h_to_H(compat.uniform_h(k), k)
    assert np.allclose(H, 1.0 / k)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_h_to_H_symmetric_doubly_stochastic(k, seed):
    rng = np.random.default_rng(seed)
    h = rng.random(compat.n_free_params(k))
    H = compat.h_to_H(h, k)
    assert compat.is_symmetric(H)
    assert compat.is_doubly_stochastic(H)


@pytest.mark.parametrize("k", KS)
def test_roundtrip_h_H_h(k):
    rng = np.random.default_rng(42)
    h = rng.random(compat.n_free_params(k))
    assert np.allclose(compat.H_to_h(compat.h_to_H(h, k)), h)


@pytest.mark.parametrize("k", KS)
def test_roundtrip_H_h_H(k):
    # Start from a genuine symmetric doubly-stochastic matrix (sinkhorn of a
    # random positive matrix) and check H -> h -> H is the identity.
    rng = np.random.default_rng(k)
    H = compat.sinkhorn(rng.random((k, k)) + 0.1)
    H2 = compat.h_to_H(compat.H_to_h(H), k)
    assert np.allclose(H, H2, atol=1e-9)


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_h_to_H_constraints_hypothesis(k, seed):
    rng = np.random.default_rng(seed)
    h = rng.uniform(-2, 2, compat.n_free_params(k))  # arbitrary, even negative
    H = compat.h_to_H(h, k)
    assert np.allclose(H.sum(axis=1), 1.0)
    assert np.allclose(H.sum(axis=0), 1.0)
    assert np.allclose(H, H.T)


def _eq6_entrywise(h, k):
    """Eq 6 transcribed entry by entry: free entries and their mirrors, the
    last row / column from unit row sums, then the corner."""
    H = np.zeros((k, k))
    p = 0
    for i in range(k - 1):
        for j in range(i, k - 1):
            H[i, j] = H[j, i] = h[p]
            p += 1
    for i in range(k - 1):
        H[i, k - 1] = H[k - 1, i] = 1.0 - H[i, : k - 1].sum()
    H[k - 1, k - 1] = 1.0 - H[k - 1, : k - 1].sum()
    return H


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_affine_h_to_H_matches_entrywise_eq6(k, seed):
    # Same entries, summed in another order: allow a few ulps per term of
    # the corner's sum of up to 2k* values in [-2, 2].
    h = np.random.default_rng(seed).uniform(-2, 2, compat.n_free_params(k))
    atol = 8 * k * k * np.finfo(float).eps
    assert np.allclose(compat.h_to_H(h, k), _eq6_entrywise(h, k), rtol=0, atol=atol)


def test_eq6_map_is_cached_and_read_only():
    A, b = compat.eq6_map(4)
    assert compat.eq6_map(4)[0] is A
    with pytest.raises(ValueError):
        A[0, 0] = 2.0
    with pytest.raises(ValueError):
        b[0] = 2.0


def test_h_to_H_k3_matches_paper_formula():
    # Paper Section 4 spells out the k=3 reconstruction explicitly.
    h11, h21, h22 = 0.3, 0.5, 0.1
    H = compat.h_to_H(np.array([h11, h21, h22]), 3)
    expected = np.array(
        [
            [h11, h21, 1 - h11 - h21],
            [h21, h22, 1 - h21 - h22],
            [1 - h11 - h21, 1 - h21 - h22, h11 + 2 * h21 + h22 - 1],
        ]
    )
    assert np.allclose(H, expected)


def test_h_to_H_wrong_size_raises():
    with pytest.raises(ValueError):
        compat.h_to_H(np.zeros(4), 3)


@pytest.mark.parametrize("k,h", [(2, 3.0), (3, 3.0), (3, 8.0), (4, 8.0), (5, 2.0), (7, 8.0)])
def test_skew_H_doubly_stochastic(k, h):
    H = compat.skew_H(k, h)
    assert compat.is_symmetric(H)
    assert compat.is_doubly_stochastic(H)
    assert (H > 0).all()


def test_skew_H_k3_matches_paper_examples():
    H8 = compat.skew_H(3, 8.0)
    assert np.allclose(H8, np.array([[0.1, 0.8, 0.1], [0.8, 0.1, 0.1], [0.1, 0.1, 0.8]]))
    H3 = compat.skew_H(3, 3.0)
    assert np.allclose(H3, np.array([[0.2, 0.6, 0.2], [0.6, 0.2, 0.2], [0.2, 0.2, 0.6]]))


def test_skew_H_ratio_is_h():
    for k in (3, 4, 5):
        H = compat.skew_H(k, 5.0)
        assert np.isclose(H.max() / H.min(), 5.0)


def test_l2_distance_zero_and_symmetry():
    A = compat.skew_H(3, 3.0)
    B = compat.skew_H(3, 8.0)
    assert compat.l2_distance(A, A) == 0.0
    assert compat.l2_distance(A, B) == compat.l2_distance(B, A) > 0


def test_sinkhorn_balances_and_symmetrizes():
    rng = np.random.default_rng(0)
    M = rng.random((4, 4))
    H = compat.sinkhorn(M)
    assert compat.is_symmetric(H)
    assert compat.is_doubly_stochastic(H, tol=1e-6)
    assert (H >= 0).all()


def test_sinkhorn_fixed_point_on_doubly_stochastic():
    H = compat.skew_H(4, 3.0)
    assert np.allclose(compat.sinkhorn(H), H, atol=1e-9)


def test_center_subtracts_inverse_k():
    H = compat.skew_H(3, 8.0)
    Hc = compat.center(H)
    assert np.allclose(Hc, H - 1 / 3)
    assert np.allclose(Hc.sum(axis=1), 0.0)


@pytest.mark.parametrize(
    "k,r,n_points",
    # min(r, 1 + 2^k*) while all 2^k* quadrants fit in 4r, else r.
    [pytest.param(k, r, n, id=f"{k}-{r}")
     for k, r, n in [(3, 1, 1), (3, 5, 5), (3, 10, 9), (4, 10, 10), (5, 20, 20), (7, 10, 10)]],
)
def test_restart_points_shape_and_determinism(k, r, n_points):
    from repro.core.estimators import restart_points

    pts = restart_points(k, r, seed=3)
    assert len(pts) == n_points
    assert np.allclose(pts[0], compat.uniform_h(k))
    for p in pts[1:]:
        # hyper-quadrant points: 1/k +- delta with delta < 1/k^2 (Section 4.8)
        dev = np.abs(p - 1.0 / k)
        assert (dev > 0).all() and (dev < 1.0 / k**2 + 1e-12).all()
    again = restart_points(k, r, seed=3)
    for a, b in zip(pts, again):
        assert np.allclose(a, b)


def test_restart_points_distinct_quadrants_small_k():
    from repro.core.estimators import restart_points

    pts = restart_points(3, 9, seed=0)  # 2^3 = 8 quadrants + uniform
    signs = {tuple(np.sign(p - 1 / 3).astype(int)) for p in pts[1:]}
    assert len(signs) == len(pts) - 1  # all distinct
