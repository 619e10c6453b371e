"""Gaussian-process-learned dynamics inside a fast adaptive rate controller.

A deterministic simulation toolkit: per-channel GP regression with
computable uniform error bounds, a sampled-data adaptive controller with a
learning filter, the quadrotor angular-rate plant, and a closed-loop
engine with time-delay margin search.

``gp`` and ``learner`` are imported on first use: a run without a
learner never loads them. No module uses scipy: the GP factors, solves
and reads with numpy alone.

The package and the loop's modules load on the standard library alone.
numpy is imported where arrays are read: by the GP and the learner, by
``scenario.metrics`` and ``SimulationTrace.data``, and by the CLI's
``bound-check`` and ``read_trace_csv``. So a run with no learner never
loads numpy until its trace is read as an array.
"""

import importlib

from . import controller, numerics, plant, scenario

__version__ = "0.1.0"

__all__ = [
    "controller",
    "gp",
    "learner",
    "numerics",
    "plant",
    "scenario",
    "__version__",
]

def __getattr__(name):
    if name in ("gp", "learner"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
