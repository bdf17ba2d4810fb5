"""Driver-side numpy reference implementations.

Dense / COO mirrors of every distributed operation in ``repro.linops`` and
``repro.core.sketch``. Tests cross-check the Spark dataflow against these;
they are also used where the paper's own design calls for driver-local work
(the k x k optimization step is *independent of graph size* by construction —
that is the paper's headline property).

Graphs are represented as COO edge arrays ``(src, dst)`` containing **both**
directions of every undirected edge (so the implied W is symmetric 0/1).
n x k matrices are plain numpy arrays indexed by node id in ``[0, n)``.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "degrees",
    "spmm",
    "onehot",
    "nb_n_frames",
    "full_n_frames",
    "m_matrix",
    "normalize_m",
    "nb_path_counts_bruteforce",
    "linbp",
    "random_walk",
    "power_iteration_rho",
    "labels_from_beliefs",
    "accuracy",
]


def degrees(src: np.ndarray, n: int) -> np.ndarray:
    """Node degrees from symmetric COO edges (counts outgoing directed arcs,
    which equals the undirected degree)."""
    return np.bincount(src, minlength=n).astype(float)


def spmm(src: np.ndarray, dst: np.ndarray, N: np.ndarray) -> np.ndarray:
    """``W @ N`` for the symmetric 0/1 adjacency implied by the edges:
    ``out[i] = sum over neighbors j of N[j]``."""
    n, k = N.shape
    out = np.zeros_like(N)
    for c in range(k):
        out[:, c] = np.bincount(src, weights=N[dst, c], minlength=n)
    return out


def onehot(labels: dict[int, int] | list[tuple[int, int]], n: int, k: int) -> np.ndarray:
    """Sparse seed-label matrix X (n x k): one-hot rows for labeled nodes,
    zero rows elsewhere."""
    X = np.zeros((n, k))
    items = labels.items() if isinstance(labels, dict) else labels
    for node, lab in items:
        X[node, lab] = 1.0
    return X


def full_n_frames(src, dst, X: np.ndarray, ell_max: int) -> list[np.ndarray]:
    """Full-path frames ``N^(l) = W^l X`` for l = 1..ell_max, computed in the
    factorized order ``W (W (... (W X)))`` (paper Section 4.6, footnote 5)."""
    out, N = [], X
    for _ in range(ell_max):
        N = spmm(src, dst, N)
        out.append(N)
    return out


def nb_n_frames(src, dst, X: np.ndarray, ell_max: int) -> list[np.ndarray]:
    """Non-backtracking frames ``N_NB^(l) = W_NB^(l) X`` via the recurrence of
    Prop 4.3 / Alg 4.4:

    ``N^(1) = W X``, ``N^(2) = W N^(1) - D X``,
    ``N^(l) = W N^(l-1) - (D - I) N^(l-2)``.
    """
    n = X.shape[0]
    d = degrees(src, n)[:, None]
    N1 = spmm(src, dst, X)
    if ell_max == 1:
        return [N1]
    N2 = spmm(src, dst, N1) - d * X
    out = [N1, N2]
    for _ in range(3, ell_max + 1):
        nxt = spmm(src, dst, out[-1]) - (d - 1.0) * out[-2]
        out.append(nxt)
    return out


def m_matrix(X: np.ndarray, N: np.ndarray) -> np.ndarray:
    """``M = X^T N`` — the k x k class-to-class path-count summary."""
    return X.T @ N


def normalize_m(M: np.ndarray, variant: int = 1) -> np.ndarray:
    """The paper's three normalizations of M into a statistics matrix P-hat:

    1. row-stochastic ``diag(M 1)^-1 M``                        (Eq 9)
    2. symmetric ``diag(M 1)^-1/2 M diag(M 1)^-1/2``            (Eq 10)
    3. scaled so the mean entry is 1/k: ``k M / (1^T M 1)``      (Eq 11)

    Zero rows (a class with no observed paths) fall back to uniform 1/k so
    downstream optimization stays finite.
    """
    M = np.asarray(M, dtype=float)
    k = M.shape[0]
    if variant == 1:
        r = M.sum(axis=1)
        P = np.full_like(M, 1.0 / k)
        nz = r > 0
        P[nz] = M[nz] / r[nz, None]
        return P
    if variant == 2:
        r = M.sum(axis=1)
        s = np.where(r > 0, 1.0 / np.sqrt(np.where(r > 0, r, 1.0)), 0.0)
        P = s[:, None] * M * s[None, :]
        P[(r == 0)] = 1.0 / k
        return P
    if variant == 3:
        tot = M.sum()
        return np.full_like(M, 1.0 / k) if tot == 0 else k * M / tot
    raise ValueError(f"unknown normalization variant {variant}")


def nb_path_counts_bruteforce(src, dst, n: int, ell: int) -> np.ndarray:
    """O(n * d^l) brute-force enumeration of non-backtracking paths; ground
    truth for the recurrence on tiny graphs."""
    adj = [[] for _ in range(n)]
    for s, t in zip(src, dst):
        adj[s].append(t)
    counts = np.zeros((n, n))
    for start in range(n):
        frontier = [(start, None)]
        for _ in range(ell):
            nxt = []
            for node, prev in frontier:
                for nb in adj[node]:
                    if nb != prev:
                        nxt.append((nb, node))
            frontier = nxt
        for node, _ in frontier:
            counts[start, node] += 1
    return counts


def power_iteration_rho(src, dst, n: int, iters: int = 60) -> float:
    """Spectral radius of the symmetric adjacency W by power iteration
    (stand-in for the paper's PyAMG approximate method), from a fixed random
    start (generator seed 0), so the result is deterministic."""
    rng = np.random.default_rng(0)
    v = rng.random(n) + 0.1
    v /= np.linalg.norm(v)
    rho = 0.0
    for _ in range(iters):
        w = np.bincount(src, weights=v[dst], minlength=n)
        nrm = np.linalg.norm(w)
        if nrm == 0:
            return 0.0
        rho, v = nrm, w / nrm
    return float(rho)


def linbp(
    src,
    dst,
    seed_labels,
    H: np.ndarray,
    n: int,
    *,
    s: float = 0.5,
    iters: int = 10,
    rho_w: float | None = None,
) -> np.ndarray:
    """Reference LinBP (paper Eq 1 without echo cancellation):
    ``F <- X + W F (eps * H-centered)`` with the scaling factor eps chosen so
    that ``rho(eps Hc) * rho(W) = s < 1`` (the paper's convergence condition
    Eq 2; s = 0.5 and 10 iterations per Section 5.3)."""
    k = H.shape[0]
    # Center by the mean row-sum over k, not a bare 1/k: for a (possibly
    # constant-shifted) compatibility matrix H + c this removes the shift
    # exactly, making the Theorem-3.1 label invariance hold including the
    # spectral-radius-based scaling below.
    Hc = H - float(H.sum(axis=1).mean()) / k
    rho_h = float(np.max(np.abs(np.linalg.eigvals(Hc))))
    if rho_w is None:
        rho_w = power_iteration_rho(src, dst, n)
    eps = s / (rho_h * rho_w) if rho_h * rho_w > 0 else 1.0
    Heff = eps * Hc
    X = onehot(seed_labels, n, k)
    X = np.where(X.sum(axis=1, keepdims=True) > 0, X - 1.0 / k, 0.0)
    F = X.copy()
    for _ in range(iters):
        F = X + spmm(src, dst, F) @ Heff
    return F


def random_walk(src, dst, seed_labels, n: int, k: int, *, iters: int = 10) -> np.ndarray:
    """Reference MultiRankWalk (paper Eq 3): ``F <- (1-alpha) U + alpha W_col F``
    from ``F = U``, with alpha = 0.85 fixed, ``W_col = W D^-1`` the
    column-normalized adjacency and U the seed one-hot matrix with each class
    column normalized to sum 1 (a class with no seeds keeps a zero column)."""
    alpha = 0.85
    U = onehot(seed_labels, n, k)
    sums = U.sum(axis=0)
    U = U / np.where(sums > 0, sums, 1.0)
    d = degrees(src, n)[:, None]
    F = U
    for _ in range(iters):
        sent = np.divide(F, d, out=np.zeros_like(F), where=d > 0)
        F = (1.0 - alpha) * U + alpha * spmm(src, dst, sent)
    return F


def labels_from_beliefs(F: np.ndarray) -> np.ndarray:
    """Final labeling: argmax class per node (ties -> lowest class id)."""
    return F.argmax(axis=1)


def accuracy(pred: np.ndarray, truth: np.ndarray, exclude: set[int] | None = None) -> float:
    """Fraction of correctly labeled nodes, excluding seed nodes."""
    mask = np.ones(len(truth), dtype=bool)
    if exclude:
        mask[list(exclude)] = False
    if mask.sum() == 0:
        return float("nan")
    return float((pred[mask] == truth[mask]).mean())
