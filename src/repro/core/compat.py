"""Compatibility-matrix parameterization and utilities (paper Section 4).

A compatibility matrix ``H`` is a symmetric doubly-stochastic k x k matrix.
It has ``k* = k(k-1)/2`` degrees of freedom; the paper (Eq 6) parameterizes it
by the upper triangle (including the diagonal) of the leading (k-1) x (k-1)
block, with the last row / column / corner recovered from symmetry and
row/column stochasticity. That reconstruction is affine, ``vec(H) = A @ h + b``
(:func:`eq6_map`), so it and its chain rule are one matmul each.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "n_free_params",
    "free_param_indices",
    "eq6_map",
    "h_to_H",
    "H_to_h",
    "uniform_h",
    "skew_H",
    "l2_distance",
    "is_symmetric",
    "is_doubly_stochastic",
    "sinkhorn",
    "center",
]


def n_free_params(k: int) -> int:
    """Number of free parameters ``k* = k(k-1)/2`` of a symmetric
    doubly-stochastic k x k matrix (paper Section 4)."""
    return k * (k - 1) // 2


def free_param_indices(k: int) -> list[tuple[int, int]]:
    """0-indexed positions ``(i, j)`` of the free parameters: the upper
    triangle (i <= j) of the leading (k-1) x (k-1) block, row-major.

    This matches the paper's "entries ``H_ij`` with i <= j, j != k"
    (1-indexed there).
    """
    return [(i, j) for i in range(k - 1) for j in range(i, k - 1)]


@lru_cache(maxsize=32)
def eq6_map(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Eq 6 as the affine map ``vec(H) = A @ h + b``; read-only ``A`` (k*k, k*)
    and ``b`` (k*k,). Column p of ``A`` is ``vec(S^ij)`` of Prop 4.7 for the
    p-th free parameter ``(i, j)`` of :func:`free_param_indices`."""
    rows, cols = np.triu_indices(k - 1)
    p = np.arange(len(rows))
    A = np.zeros((k, k, len(rows)))
    A[rows, cols, p] = A[cols, rows, p] = 1.0
    # Last column and row from row-stochasticity, corner from Eq 6.
    A[:-1, -1] = -A[:-1, :-1].sum(axis=1)
    A[-1, :-1] = A[:-1, -1]
    A[-1, -1] = -A[-1, :-1].sum(axis=0)
    b = np.zeros((k, k))
    b[:-1, -1] = b[-1, :-1] = 1.0
    b[-1, -1] = 2.0 - k
    A, b = A.reshape(k * k, -1), b.ravel()
    A.setflags(write=False)
    b.setflags(write=False)
    return A, b


def h_to_H(h: np.ndarray, k: int) -> np.ndarray:
    """Reconstruct the full k x k matrix from the ``k*`` free parameters
    (paper Eq 6). The result is symmetric with unit row- and column-sums by
    construction (entries may be negative for an arbitrary ``h``; the
    optimizers rely on that — the constraint surface, not the box, is baked
    in)."""
    h = np.asarray(h, dtype=float)
    if h.shape != (n_free_params(k),):
        raise ValueError(f"expected h of shape ({n_free_params(k)},), got {h.shape}")
    A, b = eq6_map(k)
    return (A @ h + b).reshape(k, k)


def H_to_h(H: np.ndarray) -> np.ndarray:
    """Extract the free parameters from a symmetric doubly-stochastic matrix
    (inverse of :func:`h_to_H`)."""
    H = np.asarray(H, dtype=float)
    return H[np.triu_indices(H.shape[0] - 1)]


def uniform_h(k: int) -> np.ndarray:
    """The uninformative starting point used by the paper: every free
    parameter equal to 1/k (which maps to the uniform matrix ``J/k``)."""
    return np.full(n_free_params(k), 1.0 / k)


def skew_H(k: int, h: float) -> np.ndarray:
    """The paper's skew-parameterized compatibility matrix (Section 5).

    For k = 3 this is exactly ``[[1,h,1],[h,1,1],[1,1,h]] / (2+h)``.
    Generalization to any k: pair up classes (0,1), (2,3), ... and place the
    high value ``h`` on the paired off-diagonal (heterophily); an odd leftover
    class gets ``h`` on its diagonal (homophily), all other entries 1. Rows
    and columns sum to ``k - 1 + h`` before normalization, so the result is
    symmetric doubly stochastic.
    """
    H = np.ones((k, k))
    for c in range(0, k - 1, 2):
        H[c, c + 1] = h
        H[c + 1, c] = h
    if k % 2 == 1:
        H[k - 1, k - 1] = h
    return H / (k - 1 + h)


def l2_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Frobenius (L2) distance between two matrices — the paper's estimation
    quality metric (Figs 6a-6d, Fig 14)."""
    return float(np.linalg.norm(np.asarray(A, float) - np.asarray(B, float)))


def is_symmetric(H: np.ndarray, tol: float = 1e-9) -> bool:
    H = np.asarray(H, float)
    return bool(np.allclose(H, H.T, atol=tol))


def is_doubly_stochastic(H: np.ndarray, tol: float = 1e-6) -> bool:
    """Unit row- and column-sums (entries are allowed outside [0,1]; the
    paper's parameterization only enforces the sum constraints)."""
    H = np.asarray(H, float)
    return bool(
        np.allclose(H.sum(axis=0), 1.0, atol=tol)
        and np.allclose(H.sum(axis=1), 1.0, atol=tol)
    )


def sinkhorn(M: np.ndarray, iters: int = 500, tol: float = 1e-12) -> np.ndarray:
    """Symmetrize and Sinkhorn-balance a nonnegative matrix to (symmetric)
    doubly stochastic. Used to turn published gold-standard neighbor-frequency
    matrices (paper Fig 13, row-stochastic only) into valid planted
    compatibility matrices."""
    A = np.asarray(M, dtype=float)
    A = (A + A.T) / 2.0
    A = np.maximum(A, 1e-12)
    for _ in range(iters):
        r = A.sum(axis=1)
        A = A / r[:, None]
        A = (A + A.T) / 2.0
        if np.abs(A.sum(axis=1) - 1.0).max() < tol:
            break
    return A


def center(H: np.ndarray) -> np.ndarray:
    """Residual (centered-around-1/k) version of a matrix — paper Section 2.3."""
    H = np.asarray(H, float)
    return H - 1.0 / H.shape[0]
