"""Correctness gate and numpy floors of the pipeline benchmark.

The gate uses the tolerance the tier-1 tests use (``np.allclose`` with
``atol=1e-9``). Each check returns a list of failure messages; an empty list
passes. The floors are the numpy reference implementations of the Spark
layers, run on the same graph and seeds outside the timed trials; their
outputs are also what the gate compares the Spark outputs against.
"""
from __future__ import annotations

import time

import numpy as np

from repro import reference
from repro.core import compat
from repro.core.gradient import dce_energy

__all__ = [
    "ATOL",
    "dcer_weights",
    "check_estimate",
    "check_sketch",
    "check_beliefs",
    "floor_sketch",
    "floor_linbp",
    "floor_rho",
]

ATOL = 1e-9


def dcer_weights(lam: float, ell_max: int) -> np.ndarray:
    """The normalized geometric weights ``dcer`` optimizes with."""
    w = np.array([lam**i for i in range(ell_max)])
    return w / w.sum()


def check_estimate(H: np.ndarray, energy: float, P: list[np.ndarray],
                   w: np.ndarray) -> list[str]:
    """H-hat is symmetric doubly stochastic, and the DCE energy recomputed at
    H-hat matches the energy the estimator reported."""
    errors = []
    if not compat.is_symmetric(H):
        errors.append("H-hat is not symmetric")
    if not compat.is_doubly_stochastic(H):
        errors.append("H-hat is not doubly stochastic")
    k = H.shape[0]
    again = dce_energy(compat.H_to_h(H), P, w, k)
    if not np.allclose(again, energy, atol=ATOL):
        errors.append(f"energy at H-hat is {again!r}, estimator reported {energy!r}")
    return errors


def check_sketch(M_spark: list[np.ndarray], M_ref: list[np.ndarray]) -> list[str]:
    """The Spark summaries M^(l) equal the numpy reference, level by level."""
    if len(M_spark) != len(M_ref):
        return [f"sketch has {len(M_spark)} levels, reference {len(M_ref)}"]
    return [f"M^({ell}) differs from the numpy reference"
            for ell, (a, b) in enumerate(zip(M_spark, M_ref), start=1)
            if not np.allclose(a, b, atol=ATOL)]


def check_beliefs(F_spark: np.ndarray, F_ref: np.ndarray) -> list[str]:
    """The Spark LinBP beliefs equal the numpy reference on every node."""
    if F_spark.shape == F_ref.shape and np.allclose(F_spark, F_ref, atol=ATOL):
        return []
    return ["LinBP beliefs differ from the numpy reference"]


def floor_sketch(src, dst, X: np.ndarray, ell_max: int) -> tuple[list[np.ndarray], float]:
    """Reference M^(1..ell_max) on the same seeds, and its wall time."""
    t0 = time.perf_counter()
    M = [reference.m_matrix(X, N) for N in reference.nb_n_frames(src, dst, X, ell_max)]
    return M, time.perf_counter() - t0


def floor_linbp(src, dst, seeds: list[tuple[int, int]], H: np.ndarray, n: int, *,
                rho_w: float, s: float, iters: int) -> tuple[np.ndarray, float]:
    """Reference LinBP beliefs for the same seeds and H-hat, and its wall time."""
    t0 = time.perf_counter()
    F = reference.linbp(src, dst, seeds, H, n, s=s, iters=iters, rho_w=rho_w)
    return F, time.perf_counter() - t0


def floor_rho(src, dst, n: int) -> float:
    """Wall time of the numpy power iteration for rho(W)."""
    t0 = time.perf_counter()
    reference.power_iteration_rho(src, dst, n)
    return time.perf_counter() - t0
