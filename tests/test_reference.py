"""Tests for the numpy reference implementations — including brute-force
verification of the non-backtracking recurrence (Prop 4.3)."""
from __future__ import annotations

import numpy as np
import pytest

from repro import reference as R
from repro.core.compat import skew_H
from repro.graphs.generator import planted_graph


def _random_coo(n, m_target, seed):
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < m_target:
        u, v = rng.integers(0, n, 2)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    src = np.array([p[0] for p in pairs] + [p[1] for p in pairs])
    dst = np.array([p[1] for p in pairs] + [p[0] for p in pairs])
    return src, dst


def _dense_W(src, dst, n):
    W = np.zeros((n, n))
    W[src, dst] = 1.0
    return W


def test_degrees_micro(micro_coo):
    src, dst, n = micro_coo
    assert R.degrees(src, n).tolist() == [1, 2, 3, 2, 3, 1]


def test_spmm_matches_dense(micro_coo):
    src, dst, n = micro_coo
    rng = np.random.default_rng(0)
    N = rng.random((n, 3))
    assert np.allclose(R.spmm(src, dst, N), _dense_W(src, dst, n) @ N)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_spmm_matches_dense_random(seed):
    src, dst = _random_coo(40, 120, seed)
    rng = np.random.default_rng(seed)
    N = rng.random((40, 4))
    assert np.allclose(R.spmm(src, dst, N), _dense_W(src, dst, 40) @ N)


def test_onehot_dict_and_list():
    X1 = R.onehot({0: 1, 3: 2}, 5, 3)
    X2 = R.onehot([(0, 1), (3, 2)], 5, 3)
    assert np.allclose(X1, X2)
    assert X1[0, 1] == 1 and X1[3, 2] == 1
    assert X1.sum() == 2


@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
def test_nb_recurrence_vs_bruteforce_micro(micro_coo, ell):
    """The Prop 4.3 recurrence must count exactly the non-backtracking paths
    enumerated by brute force (identity X makes N^(l) = W_NB^(l))."""
    src, dst, n = micro_coo
    N = R.nb_n_frames(src, dst, np.eye(n), ell)[ell - 1]
    brute = R.nb_path_counts_bruteforce(src, dst, n, ell)
    assert np.allclose(N, brute)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("ell", [2, 3, 4])
def test_nb_recurrence_vs_bruteforce_random(seed, ell):
    src, dst = _random_coo(15, 25, seed)
    N = R.nb_n_frames(src, dst, np.eye(15), ell)[ell - 1]
    brute = R.nb_path_counts_bruteforce(src, dst, 15, ell)
    assert np.allclose(N, brute)


def test_nb_l2_closed_form(micro_coo):
    # W_NB^(2) = W^2 - D (the closed form the paper states).
    src, dst, n = micro_coo
    W = _dense_W(src, dst, n)
    D = np.diag(R.degrees(src, n))
    N2 = R.nb_n_frames(src, dst, np.eye(n), 2)[1]
    assert np.allclose(N2, W @ W - D)


def test_nb_l3_closed_form(micro_coo):
    # W_NB^(3) = W^3 - (DW + WD - W)  (paper Section 4.6).
    src, dst, n = micro_coo
    W = _dense_W(src, dst, n)
    D = np.diag(R.degrees(src, n))
    N3 = R.nb_n_frames(src, dst, np.eye(n), 3)[2]
    assert np.allclose(N3, W @ W @ W - (D @ W + W @ D - W))


def test_full_frames_are_w_powers(micro_coo):
    src, dst, n = micro_coo
    W = _dense_W(src, dst, n)
    frames = R.full_n_frames(src, dst, np.eye(n), 4)
    acc = np.eye(n)
    for N in frames:
        acc = W @ acc
        assert np.allclose(N, acc)


def test_m_matrix_counts_class_pairs(micro_coo):
    src, dst, n = micro_coo
    labels = {0: 0, 1: 1, 2: 0, 3: 1, 4: 2, 5: 2}
    X = R.onehot(labels, n, 3)
    M = R.m_matrix(X, R.spmm(src, dst, X))
    # M must be symmetric with total mass = 2m
    assert np.allclose(M, M.T)
    assert M.sum() == len(src)
    # hand-check one entry: edges between class 0 ({0,2}) and class 1 ({1,3}):
    # 0-1, 1-2, 2-3 -> 3 edges
    assert M[0, 1] == 3


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_normalize_m_properties(variant):
    rng = np.random.default_rng(0)
    M = rng.random((4, 4)) * 10
    M = M + M.T
    P = R.normalize_m(M, variant)
    if variant == 1:
        assert np.allclose(P.sum(axis=1), 1.0)
    elif variant == 2:
        assert np.allclose(P, P.T)
    else:
        assert np.isclose(P.mean(), 1.0 / 4)


def test_normalize_m_zero_row_fallback():
    M = np.array([[2.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for variant in (1, 2, 3):
        P = R.normalize_m(M, variant)
        assert np.isfinite(P).all()
    assert np.allclose(R.normalize_m(M, 1)[2], 1 / 3)
    with pytest.raises(ValueError):
        R.normalize_m(M, 4)


def test_normalize_all_zero():
    Z = np.zeros((3, 3))
    for variant in (1, 2, 3):
        assert np.isfinite(R.normalize_m(Z, variant)).all()


def test_power_iteration_matches_eig():
    src, dst = _random_coo(60, 200, 5)
    W = _dense_W(src, dst, 60)
    rho_true = np.max(np.abs(np.linalg.eigvals(W)))
    rho = R.power_iteration_rho(src, dst, 60, iters=200)
    assert np.isclose(rho, rho_true, rtol=1e-3)


def test_power_iteration_regular_graph():
    # Ring graph: every node degree 2, rho(W) = 2.
    n = 30
    src = np.array(list(range(n)) + list(range(n)))
    dst = np.array([(i + 1) % n for i in range(n)] + [(i - 1) % n for i in range(n)])
    assert np.isclose(R.power_iteration_rho(src, dst, n, iters=300), 2.0, rtol=1e-3)


def test_power_iteration_star_graph():
    # Star K_{1,9}: bipartite, so -3 is an eigenvalue as large as rho(W) = 3.
    src = np.array([0] * 9 + list(range(1, 10)))
    dst = np.array(list(range(1, 10)) + [0] * 9)
    assert np.isclose(R.power_iteration_rho(src, dst, 10), 3.0, rtol=1e-6)


def test_power_iteration_edgeless_graph():
    empty = np.array([], dtype=int)
    assert R.power_iteration_rho(empty, empty, 5) == 0.0


def test_labels_from_beliefs_and_accuracy():
    F = np.array([[0.1, 0.5, 0.2], [0.9, 0.0, 0.0], [0.2, 0.2, 0.6]])
    pred = R.labels_from_beliefs(F)
    assert pred.tolist() == [1, 0, 2]
    truth = np.array([1, 1, 2])
    assert R.accuracy(pred, truth) == pytest.approx(2 / 3)
    assert R.accuracy(pred, truth, exclude={1}) == pytest.approx(1.0)
    assert np.isnan(R.accuracy(pred, truth, exclude={0, 1, 2}))


def test_linbp_perfect_recovery_strong_signal():
    """On a clearly structured graph with plenty of seeds, LinBP with the true
    H should label most nodes correctly."""
    H = skew_H(3, 8.0)
    g = planted_graph(1500, 15_000, [1 / 3] * 3, H, seed=9)
    src, dst = g.coo()
    rng = np.random.default_rng(0)
    seeds = {int(r.node): int(r.label) for r in g.labels.sample(150, random_state=1).itertuples()}
    F = R.linbp(src, dst, seeds, H, g.n)
    acc = R.accuracy(R.labels_from_beliefs(F), g.truth(), exclude=set(seeds))
    assert acc > 0.9


def test_linbp_centering_invariance_theorem31():
    """Theorem 3.1: shifting H (and X) by constants leaves labels unchanged.
    Our implementation centers internally, so passing H vs H + c must give
    identical labels."""
    H = skew_H(3, 3.0)
    g = planted_graph(600, 3000, [1 / 3] * 3, H, seed=10)
    src, dst = g.coo()
    seeds = {int(r.node): int(r.label) for r in g.labels.sample(60, random_state=2).itertuples()}
    F1 = R.linbp(src, dst, seeds, H, g.n)
    F2 = R.linbp(src, dst, seeds, H + 0.37, g.n)
    assert np.array_equal(R.labels_from_beliefs(F1), R.labels_from_beliefs(F2))


def test_linbp_homophily_vs_heterophily_H():
    """Using the wrong-sign compatibility (identity on a heterophilous graph)
    must hurt accuracy vs the true H — the paper's core motivation."""
    H = skew_H(3, 8.0)
    g = planted_graph(1500, 15_000, [1 / 3] * 3, H, seed=11)
    src, dst = g.coo()
    seeds = {int(r.node): int(r.label) for r in g.labels.sample(75, random_state=3).itertuples()}
    acc_true = R.accuracy(
        R.labels_from_beliefs(R.linbp(src, dst, seeds, H, g.n)), g.truth(), set(seeds)
    )
    acc_id = R.accuracy(
        R.labels_from_beliefs(R.linbp(src, dst, seeds, np.eye(3), g.n)), g.truth(), set(seeds)
    )
    assert acc_true > acc_id + 0.2
