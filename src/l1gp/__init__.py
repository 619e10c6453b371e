"""Gaussian-process-learned dynamics inside a fast adaptive rate controller.

A deterministic simulation toolkit: per-channel GP regression with
computable uniform error bounds, a sampled-data adaptive controller with a
learning filter, the quadrotor angular-rate plant, and a closed-loop
engine with time-delay margin search.

``gp`` and ``learner``, and with them scipy, are imported on first use:
a run without a learner never loads them. A learner run loads only
``scipy`` and its two compiled BLAS and LAPACK wrappers, never the
``scipy.linalg`` package (see :func:`numerics._scipy_wrapper`).
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
