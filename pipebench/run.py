"""End-to-end benchmark of the estimation and labeling pipeline.

One run = one process, one workload, one seed:

    python3 pipebench/run.py --workload pipeline-10k --seed 1 --seconds 20 --trace 0
    python3 pipebench/run.py --workload sweep-k11 --seed 1 --seconds 20 --trace 1
    python3 pipebench/run.py --smoke

Set-up starts Spark through the program's own factory (``jobs/_common.py``),
generates the graph and calls ``harness.prepare``. Each trial then runs the
path ``run_trial`` takes for DCEr: ``dcer`` (sketch + optimization), then
``linbp_propagate``, ``predict_labels`` and ``accuracy_spark``. Every trial
passes a correctness gate (``checks.py``). ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones (``tracing.py``); the
last line of standard output is one JSON object. See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".pipebench_out"

# The paper's Section 5.3 settings, as run_trial uses them for DCEr.
ELL_MAX, LAM, RESTARTS = 5, 10.0, 10
S, PROP_ITERS = 0.5, 10
# A run starts no trial that would end past this many seconds after launch,
# so that it exits well within the 180 s a run may take.
RUN_BUDGET_S = 150.0


@dataclass(frozen=True)
class Workload:
    """A fixed dataset: the graph and the seed labels come from
    ``data_seed``; the run seed varies the DCEr restart points of each trial.
    ``sweep`` workloads build the sketches once in set-up and time only
    ``dcer(..., sketches=sk)`` per trial (the T7/T8 pattern), with no
    labeling; the others run the whole pipeline per trial."""

    name: str
    f: float
    data_seed: int
    n: int = 0
    m: int = 0
    analog: str = ""
    scale: float = 1.0
    sweep: bool = False


WORKLOADS = {w.name: w for w in [
    Workload("pipeline-10k", f=0.01, data_seed=77, n=10_000, m=50_000),
    Workload("sweep-k11", f=0.05, data_seed=0, analog="hepth", scale=0.1, sweep=True),
    # Too slow for the benchmark's time budget; run by hand. pipeline-20k is
    # the ROADMAP's bench_graph (benchmarks/conftest.py, graph seed 77).
    Workload("pipeline-20k", f=0.01, data_seed=77, n=20_000, m=100_000),
    Workload("pipeline-80k", f=0.01, data_seed=77, n=80_000, m=400_000),
    # The self-test's graph (--smoke); not a benchmark workload.
    Workload("smoke", f=0.1, data_seed=7, n=600, m=3_000),
]}


def median(xs):
    return statistics.median(xs) if xs else float("nan")


# --------------------------------------------------------------------------
# Environment
# --------------------------------------------------------------------------
def driver_mem() -> str:
    """Half the machine's memory in GiB, clamped to [2, 8] (the tier-1
    formula); ``get_spark``'s 16g default can exceed the machine."""
    try:
        with open("/proc/meminfo") as fh:
            kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kb // 2097152))}g"


def pin_env(trace: bool, tag: str) -> Path | None:
    """Pin the Spark environment before the JVM starts; keep every file the
    run writes inside the checkout. Returns the event-log directory of a
    traced run."""
    for var in ("SPARK_SHUFFLE_PARTITIONS", "SPARK_MASTER", "PYSPARK_SUBMIT_ARGS",
                "SPARK_CONF_DIR"):
        os.environ.pop(var, None)
    os.environ["SPARK_DRIVER_MEM"] = driver_mem()
    scratch = OUT / "tmp" / tag
    shutil.rmtree(scratch, ignore_errors=True)
    (scratch / "local").mkdir(parents=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(scratch / "local")
    os.environ["TMPDIR"] = str(scratch)
    os.environ["SPARK_SUBMIT_OPTS"] = (
        os.environ.get("SPARK_SUBMIT_OPTS", "")
        + f" -Djava.io.tmpdir={scratch} -XX:-UsePerfData").strip()
    if not trace:
        return None
    events = scratch / "events"
    events.mkdir()
    conf = scratch / "conf"
    conf.mkdir()
    (conf / "spark-defaults.conf").write_text(
        "spark.eventLog.enabled true\n"
        f"spark.eventLog.dir {events.as_uri()}\n"
        "spark.eventLog.compress false\n"
        "spark.eventLog.rolling.enabled false\n"
    )
    os.environ["SPARK_CONF_DIR"] = str(conf)
    return events


def source_ids() -> dict:
    """The git commit when the checkout is a repository, and always a digest
    of the program's sources."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py")) + [ROOT / "jobs" / "_common.py"]
    for p in files:
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_commit": commit or None, "source_sha256": digest.hexdigest()[:16]}


def untraced_trial_s(workload: str, digest: str) -> list[float]:
    """``trial_s`` of the untraced runs of this workload recorded in this
    checkout for the same program sources: the base of trace.overhead_s."""
    out = []
    for path in sorted((OUT / "results").glob(f"{workload}-seed*-trace0.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if record.get("env", {}).get("source_sha256") == digest:
            out.append(record["metrics"]["trial_s"]["value"])
    return out


def environment(spark, seed: int, trace: bool) -> dict:
    import numpy as np
    import pyspark

    sc = spark.sparkContext
    return {
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "shuffle_partitions": int(spark.conf.get("spark.sql.shuffle.partitions")),
        "driver_memory": sc.getConf().get("spark.driver.memory", "unset"),
        "pyspark": pyspark.__version__,
        "numpy": np.__version__,
        "java": sc._jvm.java.lang.System.getProperty("java.version"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "trace": int(trace),
    }


def load_get_spark():
    """The program's own session factory, loaded from its file."""
    spec = importlib.util.spec_from_file_location("_common", ROOT / "jobs" / "_common.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.get_spark


def stop_spark() -> None:
    """Stop the Spark context, if any, and the JVM it runs in, and wait for
    the JVM to end."""
    from pyspark import SparkContext

    if SparkContext._active_spark_context is not None:
        SparkContext._active_spark_context.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# --------------------------------------------------------------------------
# The run
# --------------------------------------------------------------------------
@dataclass
class Trial:
    index: int
    traced: bool
    seed: int
    trial_s: float = float("nan")
    estimate_s: float = float("nan")
    propagate_s: float = float("nan")
    sketch_s: float = float("nan")
    accuracy: float = float("nan")
    l2_gs: float = float("nan")
    dce_energy: float = float("nan")
    counts: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


class Run:
    """Set-up, trials, gate and floors of one workload run."""

    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool, t_launch: float):
        import numpy as np

        self.wl, self.seed, self.seconds, self.trace = wl, seed, seconds, trace
        self.t_launch = t_launch
        rng = np.random.default_rng(seed)
        self.trial_seeds = [int(x) for x in rng.integers(2**31, size=256)]
        self.trials: list[Trial] = []
        self.floors: dict[str, float] = {}
        self.setup: dict[str, float] = {}
        self.sources = source_ids()
        self.untraced_trial_s = untraced_trial_s(wl.name, self.sources["source_sha256"])

    # -- set-up ------------------------------------------------------------
    def start(self, get_spark) -> None:
        t0 = time.perf_counter()
        self.spark = get_spark()
        self.setup["session_s"] = time.perf_counter() - t0

        from repro.core import estimators
        from tracing import Hooks

        self.hooks = Hooks(self.spark.sparkContext, trace=self.trace)
        self.hooks.install()
        try:
            self._build()
            if self.wl.sweep:
                t = time.perf_counter()
                self.sk = estimators.build_sketches(self.prep.edges, self.prep.seeds, self.g.k,
                                                    ell_max=ELL_MAX)
                self.setup["sketch_s"] = time.perf_counter() - t
        finally:
            self.hooks.uninstall()
        self.setup["setup_s"] = time.perf_counter() - t0

    def _build(self) -> None:
        from repro.core.compat import skew_H
        from repro.datasets import make_analog
        from repro.experiments.harness import prepare
        from repro.graphs.edges import sample_seeds
        from repro.graphs.generator import planted_graph

        wl = self.wl
        t = time.perf_counter()
        if wl.analog:
            self.g = make_analog(wl.analog, seed=wl.data_seed, scale=wl.scale)
        else:
            self.g = planted_graph(wl.n, wl.m, [1 / 3] * 3, skew_H(3, 8.0), seed=wl.data_seed)
        self.setup["generate_s"] = time.perf_counter() - t
        t = time.perf_counter()
        self.prep = prepare(self.spark, self.g, wl.f, seed=wl.data_seed)
        self.setup["prepare_s"] = time.perf_counter() - t
        # The seed labels prepare sampled, for the numpy references.
        seeds = sample_seeds(self.g.labels, wl.f, seed=wl.data_seed)
        self.seed_pairs = list(zip(seeds["node"].astype(int), seeds["label"].astype(int)))
        self.src, self.dst = self.g.coo()

    # -- trials ------------------------------------------------------------
    def measure(self) -> None:
        """Start trials until ``seconds`` have passed; the last may run past
        it. A traced run with no untraced record of the same sources to
        compare with then adds one trial with the hooks off, the base of
        trace.overhead_s."""
        from tracing import Hooks

        t_start = time.perf_counter()
        walls: list[float] = []
        while True:
            t = time.perf_counter()
            self.trials.append(self._trial(len(self.trials), self.hooks))
            walls.append(time.perf_counter() - t)
            now = time.perf_counter()
            if now - t_start >= self.seconds or now - self.t_launch + median(walls) > RUN_BUDGET_S:
                break
        if (self.trace and not self.untraced_trial_s
                and time.perf_counter() - self.t_launch + median(walls) <= RUN_BUDGET_S):
            self.spark.sparkContext.setJobDescription("plain:trial")
            self.trials.append(self._trial(len(self.trials), Hooks(self.spark.sparkContext,
                                                                   trace=False)))

    def _trial(self, index: int, hooks) -> Trial:
        trial = Trial(index=index, traced=hooks.trace, seed=self.trial_seeds[index])
        hooks.start_trial()
        hooks.install()
        try:
            if self.wl.sweep:
                self._sweep_trial(trial, hooks)
            else:
                self._pipeline_trial(trial, hooks)
        except Exception:  # a trial that raises is counted as failed, never dropped
            trial.errors.append(traceback.format_exc())
            print(trial.errors[-1], file=sys.stderr)
        finally:
            hooks.uninstall()
        trial.counts = dict(hooks.counts)
        return trial

    def _pipeline_trial(self, trial: Trial, hooks) -> None:
        from repro.core.estimators import dcer

        first = trial.index == 0
        t0 = time.perf_counter()
        est = dcer(self.prep.edges, self.prep.seeds, self.g.k, ell_max=ELL_MAX, lam=LAM,
                   restarts=RESTARTS, seed=trial.seed)
        trial.estimate_s = time.perf_counter() - t0
        if hooks.trace:
            trial.sketch_s = hooks.times["sketch"][-1]
        sk = hooks.last_sketches
        trial.propagate_s, trial.accuracy = self._label(trial, hooks, est.H, gate=first)
        trial.trial_s = trial.estimate_s + trial.propagate_s
        self._score(trial, est, sk)
        if first:
            self._gate_sketch(trial, sk)

    def _sweep_trial(self, trial: Trial, hooks) -> None:
        from repro.core.estimators import dcer

        t0 = time.perf_counter()
        est = dcer(self.prep.edges, self.prep.seeds, self.g.k, ell_max=ELL_MAX, lam=LAM,
                   restarts=RESTARTS, seed=trial.seed, sketches=self.sk)
        trial.estimate_s = trial.trial_s = time.perf_counter() - t0
        self._score(trial, est, self.sk)
        if trial.index == 0:
            self._gate_sketch(trial, self.sk)

    def _label(self, trial: Trial, hooks, H, *, gate: bool):
        """LinBP, predict_labels, accuracy_spark; with ``gate`` the beliefs are
        collected and checked against the numpy reference, off the clock."""
        import checks
        from repro.linops.ops import to_numpy_frame
        from repro.propagation.linbp import accuracy_spark, linbp_propagate, predict_labels

        k, seeds = self.g.k, self.prep.seeds
        before = hooks.cache_state() if hooks.trace else None
        t0 = time.perf_counter()
        with hooks.linbp_span():
            beliefs = linbp_propagate(self.prep.edges, seeds, H, rho_w=self.prep.rho_w,
                                      s=S, iters=PROP_ITERS)
        with hooks.span("accuracy"):
            acc = accuracy_spark(predict_labels(beliefs, k), self.prep.all_labels, seeds)
        t1 = time.perf_counter()
        if gate:
            if hooks.trace:
                hooks.sc.setJobDescription("gate:beliefs")
            F_spark = to_numpy_frame(beliefs, self.g.n, k)
            F_ref, self.floors["floor.linbp_s"] = checks.floor_linbp(
                self.src, self.dst, self.seed_pairs, H, self.g.n, rho_w=self.prep.rho_w, s=S,
                iters=PROP_ITERS)
            trial.errors += checks.check_beliefs(F_spark, F_ref)
        t2 = time.perf_counter()
        beliefs.unpersist()
        t3 = time.perf_counter()
        if hooks.trace:
            hooks.log_cache("linbp", before)
        return (t1 - t0) + (t3 - t2), acc

    def _score(self, trial: Trial, est, sk) -> None:
        import checks
        from repro.core import compat

        w = checks.dcer_weights(LAM, ELL_MAX)
        P = sk.P[:ELL_MAX]
        trial.errors += checks.check_estimate(est.H, est.energy, P, w)
        trial.l2_gs = compat.l2_distance(est.H, self.prep.gs_H)
        trial.dce_energy = est.energy

    def _gate_sketch(self, trial: Trial, sk) -> None:
        import checks
        from repro import reference

        X = reference.onehot(self.seed_pairs, self.g.n, self.g.k)
        M_ref, self.floors["floor.sketch_s"] = checks.floor_sketch(self.src, self.dst, X, ELL_MAX)
        trial.errors += checks.check_sketch(sk.M, M_ref)

    def finish(self) -> None:
        """Cache state at the end of the run, rho floor, environment."""
        import checks

        self.end_cached_mb = self.hooks.cached_mb()
        self.end_persistent_rdds = self.hooks.persistent_rdds()
        self.floors["floor.rho_s"] = checks.floor_rho(self.src, self.dst, self.g.n)
        self.env = {**environment(self.spark, self.seed, self.trace), **self.sources}


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------
def end_to_end(run: Run) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count)."""
    done = [t for t in run.trials if t.trial_s == t.trial_s]  # completed trials
    n = len(done)
    out = {
        "setup_s": (run.setup["setup_s"], "s", 1),
        "trial_s": (median([t.trial_s for t in done]), "s", n),
        "estimate_s": (median([t.estimate_s for t in done]), "s", n),
    }
    out["l2_gs"] = (median([t.l2_gs for t in done]), "norm", n)
    out["dce_energy"] = (median([t.dce_energy for t in done]), "energy", n)
    out["cached_mb"] = (run.end_cached_mb, "MB", 1)
    attempted = len(run.trials)
    failed = sum(not t.ok for t in run.trials)
    out["success_rate"] = ((attempted - failed) / attempted, "ratio", attempted)
    return out


def per_layer(run: Run, spark_totals: dict) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count), from the traced trials; on sweep
    workloads the sketch is the one built in set-up. A layer a workload does
    not run (LinBP on sweep workloads) reads 0 with 0 samples."""
    from collections import Counter

    from tracing import MB

    hooks, wl = run.hooks, run.wl
    traced = [t for t in run.trials if t.traced and t.trial_s == t.trial_s]
    plain = [t for t in run.trials if not t.traced and t.trial_s == t.trial_s]
    nt = len(traced)
    cores = run.env["default_parallelism"]

    def span(name):
        return median(hooks.times[name]), "s", len(hooks.times[name])

    def per_trial(key, unit="count"):
        return median([t.counts.get(key, 0) for t in traced]), unit, nt

    def spark(prefix, calls, wall, name):
        """Event-log totals of the jobs described ``prefix*``, per call."""
        c = sum((v for d, v in spark_totals.items() if d.startswith(prefix)), start=Counter())
        per = max(calls, 1)
        busy = c["busy_ms"] / 1000 / per
        rows = {
            "jobs": (c["jobs"] / per, "count"),
            "stages": (c["stages"] / per, "count"),
            "tasks": (c["tasks"] / per, "count"),
            "shuffle_read_mb": (c["read_bytes"] / MB / per, "MB"),
            "shuffle_write_mb": (c["write_bytes"] / MB / per, "MB"),
            "task_busy_s": (busy, "s"),
        }
        if wall is None:
            rows["job_wall_s"] = (c["job_wall_ms"] / 1000 / per, "s")
        else:
            rows["util"] = (busy / (wall * cores) if wall > 0 else 0.0, "ratio")
        return {f"{name}.{k}": (v, u, calls) for k, (v, u) in rows.items()}

    def cache_delta(layer):
        rows = [r for r in hooks.cache_log if r["layer"] == layer]
        return median([r["rdds_after"] - r["rdds_before"] for r in rows]), "count", len(rows)

    def ratio(num, den):
        return (num / den, "ratio", 1) if den else (0.0, "ratio", 0)

    out: dict[str, tuple[float, str, int]] = {}
    gs_s, rho_s = hooks.times["prepare.gs"][0], hooks.times["prepare.rho"][0]
    out["graphs.generate_s"] = (run.setup["generate_s"], "s", 1)
    out["graphs.lift_s"] = (run.setup["prepare_s"] - gs_s - rho_s, "s", 1)
    out["prepare.rho_s"] = (rho_s, "s", 1)
    out["prepare.gs_s"] = (gs_s, "s", 1)

    sketch_phase = "setup" if wl.sweep else "trial"
    sketch_s = span("sketch")
    out["sketch.s"] = sketch_s
    for ell in range(1, ELL_MAX + 1):
        out[f"sketch.l{ell}_s"] = span(f"sketch.l{ell}")
    # Sketch time outside the level actions: driver-side plan analysis and
    # cache bookkeeping, which no Spark job accounts for.
    levels = sum(out[f"sketch.l{ell}_s"][0] for ell in range(1, ELL_MAX + 1))
    out["sketch.plan_s"] = (sketch_s[0] - levels, "s", sketch_s[2])
    out.update(spark(f"{sketch_phase}:sketch.", sketch_s[2], sketch_s[0], "sketch"))
    out["sketch.persistent_rdds_delta"] = cache_delta("sketch")
    for name in ("spmm", "add", "scale_rows", "xtn", "matmul_small"):
        out[f"linops.{name}"] = per_trial(f"linops.{name}")

    opt = [t.estimate_s - (0.0 if wl.sweep else t.sketch_s) for t in traced]
    restarts = sum(t.counts.get("opt.restarts", 0) for t in traced)
    converged = sum(t.counts.get("opt.converged", 0) for t in traced)
    out["opt.s"] = (median(opt), "s", nt)
    out["opt.restart_s"] = span("opt.restart")
    out["opt.nit"] = per_trial("opt.nit")
    out["opt.converged_frac"] = (converged / restarts if restarts else 0.0, "ratio", restarts)
    out["opt.energy_calls"] = per_trial("opt.energy_calls")
    out["opt.grad_calls"] = per_trial("opt.grad_calls")
    energy_s = span("opt.energy")
    out["opt.energy_us"] = (energy_s[0] * 1e6, "us", energy_s[2])

    linbp_s = span("linbp")
    out["linbp.s"] = linbp_s
    out["linbp.iter_s"] = span("linbp.iter")
    out.update(spark("trial:linbp.", linbp_s[2], linbp_s[0], "linbp"))
    out["linbp.persistent_rdds_delta"] = cache_delta("linbp")
    acc_s = span("accuracy")
    out["accuracy.s"] = acc_s
    out["accuracy.stages"] = spark("trial:accuracy", acc_s[2], acc_s[0], "accuracy")["accuracy.stages"]

    out.update(spark("trial:", nt, None, "spark"))
    for name in ("floor.sketch_s", "floor.linbp_s", "floor.rho_s"):
        out[name] = (run.floors.get(name, 0.0), "s", int(name in run.floors))
    out["sketch.floor_ratio"] = ratio(sketch_s[0], run.floors.get("floor.sketch_s"))
    out["linbp.floor_ratio"] = ratio(linbp_s[0], run.floors.get("floor.linbp_s"))

    traced_s = median([t.trial_s for t in traced])
    base = run.untraced_trial_s or [t.trial_s for t in plain]
    out["trace.trial_s"] = (traced_s, "s", nt)
    out["trace.overhead_s"] = (traced_s - median(base), "s", len(base))
    out["quality.accuracy"] = (median([t.accuracy for t in traced]), "ratio",
                               0 if wl.sweep else nt)
    # A layer this workload does not run has no samples: report 0, not NaN.
    return {k: ((0.0 if v != v else v), u, n) for k, (v, u, n) in out.items()}


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------
def bench(workload: str, seed: int, seconds: float, trace: bool) -> int:
    t_launch = time.perf_counter()
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "jobs" / "_common.py").is_file():
        print(f"pipebench: the program (src/repro, jobs/_common.py) is not under {ROOT}",
              file=sys.stderr)
        return 2
    tag = f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    events = pin_env(trace, tag)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    run = Run(WORKLOADS[workload], seed, seconds, trace, t_launch)
    try:
        run.start(load_get_spark())
        run.measure()
        run.finish()
    finally:
        stop_spark()  # also flushes the event log
    env = run.env

    if not any(t.trial_s == t.trial_s for t in run.trials):
        print("pipebench: no trial completed", file=sys.stderr)
        return 1
    spark_totals = {}
    if trace:
        from tracing import read_event_log
        spark_totals = read_event_log(events)
        metrics = per_layer(run, spark_totals)
    else:
        metrics = end_to_end(run)
    attempted = len(run.trials)
    failed = sum(not t.ok for t in run.trials)
    record = {
        "workload": workload, "env": env, "setup": run.setup, "floors": run.floors,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "error_rate": failed / attempted,
        "trials": [vars(t) for t in run.trials],
        "cache_log": run.hooks.cache_log,
        "end_persistent_rdds": run.end_persistent_rdds,
        "spark_by_description": {d: dict(c) for d, c in spark_totals.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    result_file = OUT / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    result_file.write_text(json.dumps(record, indent=1, default=str))
    shutil.rmtree(OUT / "tmp" / tag, ignore_errors=True)

    print(json.dumps({"env": env}))
    print(f"{workload} seed={seed} trace={int(trace)}: {attempted} trials, {failed} failed, "
          f"error_rate={failed / attempted:.3f}; record in {result_file.relative_to(ROOT)}")
    if trace:
        print("floor ratios: Spark layer time / numpy reference time for the same op, "
              "same graph and seeds, numpy on one driver thread")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit:7s} n={n}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-test: metrics emitted with units, gate rejects bad outputs")
    args = ap.parse_args(argv)
    if args.smoke:
        import smoke
        return smoke.main()
    if args.workload is None:
        ap.error("--workload is required")
    return bench(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
