"""Self-test of the benchmark: ``python3 pipebench/run.py --smoke``.

1. Runs the ``smoke`` workload (a 600-node graph) untraced and traced, each
   in its own process as the benchmark is run, and checks that each prints
   exactly the metrics BENCHMARK.json names, each with its unit and a finite
   value, and that the correctness gate passed.
2. Checks, in numpy only, that the gate accepts a correct H-hat and rejects
   a wrong one, a perturbed sketch and perturbed beliefs.

Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_child(trace: int) -> tuple[dict | None, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=175)
    if proc.returncode != 0:
        return None, f"trace={trace}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def check_result(result: dict, specs: list[dict], trace: int) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"trace={trace}: result keys are {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        errors.append(f"trace={trace}: the gate failed on correct code")
    got = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in specs}
    if set(got) != set(want):
        errors.append(f"trace={trace}: missing {sorted(set(want) - set(got))}, "
                      f"unexpected {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append(f"trace={trace}: {name} has unit {m.get('unit')!r}, not {unit!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"trace={trace}: {name} value {m.get('value')!r} is not finite")
    return errors


def check_gate() -> list[str]:
    """The gate passes a correct estimate and rejects deliberately bad ones."""
    import numpy as np

    import checks
    from repro import reference
    from repro.core.compat import skew_H
    from repro.core.estimators import dcer
    from repro.core.sketch import GraphSketches
    from repro.graphs.edges import sample_seeds
    from repro.graphs.generator import planted_graph

    g = planted_graph(300, 1500, [1 / 3] * 3, skew_H(3, 3.0), seed=7)
    seeds = sample_seeds(g.labels, 0.2, seed=1)
    pairs = list(zip(seeds["node"].astype(int), seeds["label"].astype(int)))
    src, dst = g.coo()
    X = reference.onehot(pairs, g.n, g.k)
    M, _ = checks.floor_sketch(src, dst, X, 5)
    sk = GraphSketches(k=g.k, ell_max=5, nb=True, variant=1, M=M,
                       P=[reference.normalize_m(m) for m in M])
    est = dcer(None, None, g.k, sketches=sk, seed=0)  # sketches given: no Spark
    w = checks.dcer_weights(10.0, 5)
    F, _ = checks.floor_linbp(src, dst, pairs, est.H, g.n,
                              rho_w=reference.power_iteration_rho(src, dst, g.n), s=0.5, iters=10)

    errors = []
    if checks.check_estimate(est.H, est.energy, sk.P, w):
        errors.append("gate rejects a correct H-hat")
    not_stochastic = est.H.copy()
    not_stochastic[0, 0] += 0.05
    if not checks.check_estimate(not_stochastic, est.energy, sk.P, w):
        errors.append("gate accepts an H-hat that is not doubly stochastic")
    uniform = np.full((g.k, g.k), 1.0 / g.k)  # valid matrix, wrong energy
    if not checks.check_estimate(uniform, est.energy, sk.P, w):
        errors.append("gate accepts an H-hat whose energy differs from the reported one")
    if checks.check_sketch(M, M):
        errors.append("gate rejects a correct sketch")
    perturbed = [m.copy() for m in M]
    perturbed[2][0, 1] += 1.0
    if not checks.check_sketch(perturbed, M):
        errors.append("gate accepts a perturbed sketch")
    if not checks.check_beliefs(F + 1e-6, F):
        errors.append("gate accepts perturbed beliefs")
    return errors


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    errors = check_gate()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, err = run_child(trace)
        errors += [err] if result is None else check_result(result, spec[key], trace)
    for e in errors:
        print(f"FAIL {e}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
