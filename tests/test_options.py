"""The public option count: every defaulted parameter, by
``inspect.signature``, of every function in ``__all__`` of the library's
modules. Each one doubles the configurations tests and benchmarks must
cover, so a change that adds or removes one updates ``OPTIONS`` and says
why."""
from __future__ import annotations

import importlib
import inspect

MODULES = (
    "repro.linops.ops", "repro.core.sketch", "repro.core.estimators", "repro.core.optimize",
    "repro.core.gradient", "repro.core.compat", "repro.reference", "repro.graphs.edges",
    "repro.graphs.generator", "repro.propagation.linbp", "repro.propagation.rwalk",
    "repro.experiments.harness", "repro.datasets", "repro.session",
)
OPTIONS = 51


def test_public_option_count():
    counts = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn):
                counts[f"{name}.{attr}"] = sum(
                    p.default is not p.empty for p in inspect.signature(fn).parameters.values())
    assert sum(counts.values()) == OPTIONS, {f: n for f, n in counts.items() if n}
