"""DCE energy function (paper Eqs 13/14), its explicit gradient
(Proposition 4.7) and its Gauss-Newton model, with respect to the k* free
parameters of the Eq-6 parameterization. MCE's objective (Eq 12) is the
ell_max = 1 case, with the single weight 1.

Step 2 of the paper's pipeline: everything here operates on k x k matrices
only — deliberately independent of graph size.
"""
from __future__ import annotations

import numpy as np

from repro.core.compat import eq6_map, h_to_H

__all__ = ["dce_weights", "dce_energy", "dce_gradient", "dce_gauss_newton",
           "structure_project"]


def dce_weights(lam: float, ell_max: int) -> np.ndarray:
    """The geometric distance weights ``lam^(l-1)``, l = 1..ell_max, normalized
    to sum 1: same argmin, but the energy stays O(1) for any lambda, which
    keeps the optimizer's relative stopping rule meaningful."""
    w = np.array([lam**i for i in range(ell_max)])
    return w / w.sum()


def _h_powers(H: np.ndarray, up_to: int) -> list[np.ndarray]:
    """[I, H, H^2, ..., H^up_to]."""
    k = H.shape[0]
    out = [np.eye(k)]
    for _ in range(up_to):
        out.append(out[-1] @ H)
    return out


def dce_energy(
    h: np.ndarray, P: list[np.ndarray], weights: np.ndarray, k: int
) -> float:
    """``E(h) = sum_l w_l || H(h)^l - P_hat^(l) ||_F^2`` (Eq 13/14)."""
    H = h_to_H(h, k)
    pw = _h_powers(H, len(P))
    return float(sum(w * np.sum((pw[ell] - Z) ** 2)
                     for ell, (w, Z) in enumerate(zip(weights, P, strict=True), start=1)))


def _dE_dH(H: np.ndarray, P: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """Gradient of the energy w.r.t. the *full* matrix H (paper's G):

    ``G = 2 sum_l w_l ( l H^(2l-1) - sum_{r=0}^{l-1} H^r Z_l H^(l-r-1) )``

    valid for symmetric H (which the parameterization guarantees); the
    statistics Z_l need not be symmetric (variant-1 normalization is only
    approximately so), and this expression remains the exact full-matrix
    gradient in that case because it is derived from
    ``sum_r (H^r)^T (H^l - Z) (H^{l-1-r})^T`` with H = H^T.
    """
    ell_max = len(P)
    pw = _h_powers(H, 2 * ell_max)
    G = np.zeros_like(H)
    for ell, (w, Z) in enumerate(zip(weights, P, strict=True), start=1):
        term = ell * pw[2 * ell - 1]
        for r in range(ell):
            term = term - pw[r] @ Z @ pw[ell - r - 1]
        G += 2.0 * w * term
    return G


def structure_project(G: np.ndarray) -> np.ndarray:
    """Chain rule through the Eq-6 parameterization: contract the full-matrix
    gradient G with the structure matrices S^ij of Prop 4.7 (the columns of
    ``compat.eq6_map``'s ``A``), yielding the gradient w.r.t. the k* free
    parameters (ordered as ``compat.free_param_indices``)."""
    A, _ = eq6_map(G.shape[0])
    return A.T @ G.ravel()


def dce_gradient(
    h: np.ndarray, P: list[np.ndarray], weights: np.ndarray, k: int
) -> np.ndarray:
    """Explicit gradient of :func:`dce_energy` w.r.t. the free parameters."""
    H = h_to_H(h, k)
    return structure_project(_dE_dH(H, P, weights))


def dce_gauss_newton(
    h: np.ndarray, P: list[np.ndarray], weights: np.ndarray, k: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """The DCE energy as a sum of squares, ``E = ||r||^2`` with the residuals
    ``r = [sqrt(w_l) vec(H^l - P_hat^(l))]_l``, and its Gauss-Newton model:
    returns ``(E, J^T J, J^T r)`` for the Jacobian J of r w.r.t. the k* free
    parameters. ``E`` is :func:`dce_energy` and ``2 J^T r`` is
    :func:`dce_gradient`, up to rounding.

    One ``eigh`` per call, ``H = Q diag(lam) Q^T``; Frobenius norms do not
    change under ``Q^T . Q``, so all of it is computed in that basis:

    * the residuals are ``D_l = diag(lam)^l - Q^T P_hat^(l) Q``;
    * along a symmetric direction S, the derivative of ``H^l`` is
      ``Q (Gamma_l o Q^T S Q) Q^T`` (Daleckii-Krein), where ``Gamma_l[i, j] =
      sum_{s<l} lam_i^s lam_j^(l-1-s)``, built as ``Gamma_(l+1) = lam_i
      Gamma_l + lam_j^l`` with no division, so repeated eigenvalues (the
      uniform start) are safe;
    * with ``B = [vec(Q^T S_p Q)]_p`` over the columns S_p of Eq 6's map,
      ``J^T J = B^T diag(sum_l w_l vec(Gamma_l)^2) B`` and ``J^T r = B^T
      vec(sum_l w_l Gamma_l o D_l)``.

    The (ell_max k^2) x k* Jacobian is never formed; B is
    ``kron(Q, Q)^T A`` for Eq 6's map A.
    """
    if len(weights) != len(P):
        raise ValueError(f"{len(weights)} weights for {len(P)} levels")
    lam, Q = np.linalg.eigh(h_to_H(h, k))
    A, _ = eq6_map(k)
    B = np.kron(Q, Q).T @ A
    powers = lam ** np.arange(len(P) + 1)[:, None]
    D = -(Q.T @ np.asarray(P) @ Q)
    diag = np.arange(k)
    D[:, diag, diag] += powers[1:]
    gamma = [np.ones((k, k))]
    for ell in range(1, len(P)):
        gamma.append(lam[:, None] * gamma[-1] + powers[ell])
    gamma = np.asarray(gamma)
    w = np.asarray(weights, dtype=float)[:, None, None]
    energy = float(np.sum(w * D * D))
    c, g = (w * gamma * gamma).sum(axis=0).ravel(), (w * gamma * D).sum(axis=0).ravel()
    return energy, B.T @ (c[:, None] * B), B.T @ g
