"""Planted-compatibility graph generator (paper Section 5, "Synthetic graph
generator").

The paper's generator is a stochastic-block-model variant with two twists:
(1) controlled degree distributions (power-law or uniform) and (2) *planted*
graph properties — the desired compatibility matrix H is imposed on the
generated edge counts, not just in expectation.

Input is the paper's tuple ``(n, m, alpha, H, dist)``:

* ``n``     number of nodes,
* ``m``     number of undirected edges,
* ``alpha`` class proportions (len k, sums to 1),
* ``H``     symmetric row-stochastic compatibility matrix (doubly stochastic
            in the balanced experiments),
* ``dist``  "uniform" or "powerlaw" degree-weight family.

Planting: the class-pair edge-count matrix is fixed to the exact target
``#edges(c,e) = 2m H_ce / k`` for c != e and ``m H_cc / k`` for c == e (so the
fully-labeled neighbor-statistics matrix row-normalizes to H; see DESIGN.md).
Endpoints within each class are then drawn Chung-Lu style, proportional to
per-node weights from ``dist``. Duplicate edges and self-loops are resampled,
so the realized m can fall slightly short on dense blocks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

__all__ = ["PlantedGraph", "planted_graph", "degree_weights"]

_RESAMPLE_ROUNDS = 8  # redraws of a block's duplicate and self-loop edges


@dataclass
class PlantedGraph:
    """A generated graph: undirected unique edge list + ground-truth labels.

    ``edges`` has columns (src, dst) with src < dst (one row per undirected
    edge); ``labels`` has columns (node, label). ``coo()`` returns the
    symmetric COO arrays used by ``repro.reference``.
    """

    n: int
    k: int
    edges: pd.DataFrame
    labels: pd.DataFrame
    H_planted: np.ndarray

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def avg_degree(self) -> float:
        return 2.0 * self.m / self.n

    def coo(self) -> tuple[np.ndarray, np.ndarray]:
        s = self.edges["src"].to_numpy()
        d = self.edges["dst"].to_numpy()
        return np.concatenate([s, d]), np.concatenate([d, s])

    def truth(self) -> np.ndarray:
        t = np.full(self.n, -1, dtype=np.int64)
        t[self.labels["node"].to_numpy()] = self.labels["label"].to_numpy()
        return t


def degree_weights(n_c: int, dist: str, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Per-node sampling weights within one class. "uniform" gives equal
    weights; "powerlaw" gives rank^(-exponent) weights (the paper uses
    power-law coefficient 0.3), shuffled so node id carries no information."""
    if dist == "uniform":
        return np.full(n_c, 1.0 / n_c)
    if dist == "powerlaw":
        w = np.arange(1, n_c + 1, dtype=float) ** (-exponent)
        rng.shuffle(w)
        return w / w.sum()
    raise ValueError(f"unknown degree distribution {dist!r}")


def planted_graph(
    n: int,
    m: int,
    alpha: np.ndarray | list[float],
    H: np.ndarray,
    *,
    dist: str = "powerlaw",
    exponent: float = 0.3,
    seed: int = 0,
) -> PlantedGraph:
    """Generate a graph whose fully-labeled neighbor statistics row-normalize
    to (approximately) ``H``. Deterministic in ``seed``."""
    alpha = np.asarray(alpha, dtype=float)
    H = np.asarray(H, dtype=float)
    k = H.shape[0]
    if len(alpha) != k:
        raise ValueError("alpha and H dimension mismatch")
    if not np.allclose(alpha.sum(), 1.0, atol=1e-6):
        raise ValueError("alpha must sum to 1")
    if not np.allclose(H, H.T, atol=1e-6):
        raise ValueError("H must be symmetric")
    rng = np.random.default_rng(seed)

    # --- node labels: exact class counts (largest-remainder rounding) ---
    counts = np.floor(alpha * n).astype(int)
    while counts.sum() < n:
        counts[np.argmax(alpha * n - counts)] += 1
    node_class = np.repeat(np.arange(k), counts)
    # Node ids are assigned contiguously by class; an id permutation would
    # change nothing downstream, so we keep them sorted for debuggability.
    class_nodes = [np.flatnonzero(node_class == c) for c in range(k)]
    weights = [degree_weights(len(class_nodes[c]), dist, exponent, rng) for c in range(k)]

    # --- planted edge counts per class pair (see module docstring) ---
    target = np.zeros((k, k), dtype=int)
    for c in range(k):
        for e in range(c, k):
            cnt = m * H[c, e] / k * (2.0 if c != e else 1.0)
            target[c, e] = int(round(cnt))

    # --- sample endpoints per block, resampling collisions ---
    seen: set[tuple[int, int]] = set()
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    for c in range(k):
        for e in range(c, k):
            need = target[c, e]
            if need == 0:
                continue
            got_s: list[int] = []
            got_d: list[int] = []
            for _ in range(_RESAMPLE_ROUNDS):
                if need <= 0:
                    break
                a = rng.choice(class_nodes[c], size=need, p=weights[c])
                b = rng.choice(class_nodes[e], size=need, p=weights[e])
                lo, hi = np.minimum(a, b), np.maximum(a, b)
                for u, v in zip(lo, hi):
                    if u == v or (u, v) in seen:
                        continue
                    seen.add((u, v))
                    got_s.append(u)
                    got_d.append(v)
                need = target[c, e] - len(got_s)
            srcs.append(np.asarray(got_s, dtype=np.int64))
            dsts.append(np.asarray(got_d, dtype=np.int64))

    edges = pd.DataFrame(
        {"src": np.concatenate(srcs), "dst": np.concatenate(dsts)}
    ).astype({"src": "int64", "dst": "int64"})
    labels = pd.DataFrame(
        {"node": np.arange(n, dtype=np.int64), "label": node_class.astype(np.int64)}
    )
    return PlantedGraph(n=n, k=k, edges=edges, labels=labels, H_planted=H)
