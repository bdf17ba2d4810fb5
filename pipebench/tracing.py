"""Hooks around the program's layers, and the Spark event-log reader.

Every hook replaces a function where its consumer looks it up at call time
(``repro.core.estimators.build_sketches``, ``repro.core.sketch.xtn``, ...),
so the program runs unchanged and the spans come from this directory only.
An untraced run installs one hook, which keeps the sketches ``dcer`` builds
for the correctness gate and times nothing. A traced run installs them all:

* spans for the sketch (and each of its levels, timed at the ``xtn`` action
  that materialises the level), every optimizer restart, every LinBP
  iteration (bounded by the ``add`` call that starts the next one), the
  gold standard and rho(W) inside ``prepare``;
* ``sparkContext.setJobDescription("<phase>:<layer>")`` before each of them,
  so the Spark event log attributes jobs, stages, tasks, shuffle bytes and
  executor run time to that layer (:func:`read_event_log`);
* call counts of the linops and of the DCE energy and gradient.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import repro.core.estimators as estimators
import repro.core.sketch as sketch
import repro.experiments.harness as harness
import repro.propagation.linbp as linbp
from repro import reference

__all__ = ["Hooks", "read_event_log", "MB"]

MB = float(1 << 20)


class Hooks:
    """Installs the wrappers, and holds what they record until the run ends.

    ``times`` maps a span name to its samples in seconds, ``counts`` holds the
    counters of the current trial (reset by :meth:`start_trial`)."""

    def __init__(self, spark_context, *, trace: bool):
        self.sc = spark_context
        self.trace = trace
        self.phase = "setup"
        self.last_sketches = None
        self.times: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.cache_log: list[dict] = []
        self._stack: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._level = 0
        self._iter = 0
        self._iter_mark: float | None = None

    # -- Spark state -------------------------------------------------------
    def persistent_rdds(self) -> int:
        return int(self.sc._jsc.getPersistentRDDs().size())

    def cached_mb(self) -> float:
        infos = self.sc._jsc.sc().getRDDStorageInfo()
        return sum(i.memSize() + i.diskSize() for i in infos) / MB

    def cache_state(self) -> tuple[int, float]:
        return self.persistent_rdds(), self.cached_mb()

    def log_cache(self, layer: str, before: tuple[int, float]) -> None:
        """Record persistent RDDs and cached MB around one layer call."""
        after = self.cache_state()
        self.cache_log.append(dict(layer=layer, phase=self.phase,
                                   rdds_before=before[0], rdds_after=after[0],
                                   mb_before=before[1], mb_after=after[1]))

    # -- spans -------------------------------------------------------------
    def describe(self, layer: str) -> None:
        self.sc.setJobDescription(f"{self.phase}:{layer}")

    def span(self, name: str):
        """Time a block as span ``name`` (a no-op when untraced)."""
        return self._span(name) if self.trace else nullcontext()

    @contextmanager
    def _span(self, name: str):
        self._stack.append(name)
        self.describe(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[name].append(time.perf_counter() - t0)
            self._stack.pop()
            self.describe(self._stack[-1] if self._stack else "other")

    def linbp_span(self):
        """The LinBP span: its iterations are the intervals between the
        ``add`` calls that build each new iterate (see :meth:`_linbp_add`)."""
        return self._linbp_span() if self.trace else nullcontext()

    @contextmanager
    def _linbp_span(self):
        self._iter, self._iter_mark = 0, None
        with self._span("linbp"):
            self.describe("linbp.init")
            yield
            if self._iter_mark is not None:
                self.times["linbp.iter"].append(time.perf_counter() - self._iter_mark)

    def start_trial(self) -> None:
        self.phase = "trial"
        self.counts = Counter()
        if self.trace:
            self.describe("other")

    # -- installation ------------------------------------------------------
    def _patch(self, module, name: str, wrapper) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper(getattr(module, name)))

    def install(self) -> None:
        self._patch(estimators, "build_sketches", self._build_sketches)
        if not self.trace:
            return
        self._patch(sketch, "xtn", self._xtn)
        for module, names in ((sketch, ("spmm", "add", "scale_rows")),
                              (linbp, ("spmm", "matmul_small"))):
            for name in names:
                self._patch(module, name, self._counted(f"linops.{name}"))
        self._patch(linbp, "add", self._linbp_add)
        self._patch(estimators, "gradient_descent", self._gradient_descent)
        self._patch(estimators, "dce_energy", self._timed_calls("opt.energy"))
        self._patch(estimators, "dce_gradient", self._counted("opt.grad_calls"))
        self._patch(harness, "gold_standard", self._spanned("prepare.gs"))
        self._patch(reference, "power_iteration_rho", self._spanned("prepare.rho"))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    # -- wrappers ----------------------------------------------------------
    def _build_sketches(self, original):
        def wrapper(*args, **kwargs):
            if not self.trace or self._stack:  # untraced, or inside prepare.gs
                self.last_sketches = original(*args, **kwargs)
                return self.last_sketches
            self._level = 0
            before = self.cache_state()
            with self._span("sketch"):
                self.last_sketches = original(*args, **kwargs)
            self.log_cache("sketch", before)
            return self.last_sketches
        return wrapper

    def _xtn(self, original):
        def wrapper(*args, **kwargs):
            self.counts["linops.xtn"] += 1
            if not self._stack or self._stack[-1] != "sketch":
                return original(*args, **kwargs)
            self._level += 1
            name = f"sketch.l{self._level}"
            self.describe(name)
            t0 = time.perf_counter()
            out = original(*args, **kwargs)
            self.times[name].append(time.perf_counter() - t0)
            return out
        return wrapper

    def _linbp_add(self, original):
        def wrapper(*args, **kwargs):
            self.counts["linops.add"] += 1
            now = time.perf_counter()
            if self._iter_mark is not None:
                self.times["linbp.iter"].append(now - self._iter_mark)
            self._iter += 1
            self._iter_mark = now
            self.describe(f"linbp.iter{self._iter}")
            return original(*args, **kwargs)
        return wrapper

    def _gradient_descent(self, original):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            res = original(*args, **kwargs)
            self.times["opt.restart"].append(time.perf_counter() - t0)
            self.counts["opt.restarts"] += 1
            self.counts["opt.nit"] += res.nit
            self.counts["opt.converged"] += bool(res.converged)
            return res
        return wrapper

    def _counted(self, key: str):
        def wrap(original):
            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                return original(*args, **kwargs)
            return wrapper
        return wrap

    def _timed_calls(self, key: str):
        samples = self.times[key]

        def wrap(original):
            def wrapper(*args, **kwargs):
                self.counts[f"{key}_calls"] += 1
                t0 = time.perf_counter()
                out = original(*args, **kwargs)
                samples.append(time.perf_counter() - t0)
                return out
            return wrapper
        return wrap

    def _spanned(self, name: str):
        def wrap(original):
            def wrapper(*args, **kwargs):
                with self._span(name):
                    return original(*args, **kwargs)
            return wrapper
        return wrap


def read_event_log(directory: Path) -> dict[str, Counter]:
    """Sum the Spark event log in ``directory`` by job description.

    Returns ``{description: Counter(jobs, stages, tasks, busy_ms, read_bytes,
    write_bytes, job_wall_ms)}``. Stages and tasks are attributed through the
    description their stage was submitted under; skipped stages (shuffle
    output reused from an earlier job) are not counted."""
    files = [p for p in directory.iterdir() if p.is_file()]
    if len(files) != 1:
        raise RuntimeError(f"expected one event log in {directory}, found {len(files)}")
    totals: dict[str, Counter] = defaultdict(Counter)
    stage_desc: dict[int, str] = {}
    job_desc: dict[int, str] = {}
    job_start: dict[int, int] = {}
    with files[0].open() as fh:
        for line in fh:
            if line.startswith('{"Event":"SparkListenerTaskEnd"'):
                ev = json.loads(line)
                metrics = ev.get("Task Metrics") or {}
                c = totals[stage_desc.get(ev["Stage ID"], "")]
                c["tasks"] += 1
                c["busy_ms"] += metrics.get("Executor Run Time", 0)
                read = metrics.get("Shuffle Read Metrics") or {}
                c["read_bytes"] += read.get("Remote Bytes Read", 0) + read.get("Local Bytes Read", 0)
                write = metrics.get("Shuffle Write Metrics") or {}
                c["write_bytes"] += write.get("Shuffle Bytes Written", 0)
            elif line.startswith('{"Event":"SparkListenerStageSubmitted"'):
                ev = json.loads(line)
                desc = (ev.get("Properties") or {}).get("spark.job.description", "")
                stage_desc[ev["Stage Info"]["Stage ID"]] = desc
                totals[desc]["stages"] += 1
            elif line.startswith('{"Event":"SparkListenerJobStart"'):
                ev = json.loads(line)
                desc = (ev.get("Properties") or {}).get("spark.job.description", "")
                job_desc[ev["Job ID"]] = desc
                job_start[ev["Job ID"]] = ev["Submission Time"]
                totals[desc]["jobs"] += 1
            elif line.startswith('{"Event":"SparkListenerJobEnd"'):
                ev = json.loads(line)
                jid = ev["Job ID"]
                totals[job_desc[jid]]["job_wall_ms"] += ev["Completion Time"] - job_start[jid]
    return totals
