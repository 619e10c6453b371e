"""Small numerical utilities shared by the toolkit.

The linear parts of the loop are diagonal, so their setup is per axis:
:func:`float3` checks a per-axis model value (a diagonal, a state) as three
finite Python floats, :func:`whole` a count or a seed as a Python int, and
:func:`zoh_map` gives the predictor's exact one-step map on Python floats,
with no linear solve. These three use the standard library alone. The rest
operates on plain float64 numpy arrays: the Cholesky routines, RK4 and the
5-point centred derivative; each imports numpy when called, so a run with
no learner never loads it. :func:`log_covering_number_box` works on
floats. All public functions are pure.

The module loads without numpy, and nothing in it uses scipy.
:func:`cholesky_factor`, which ``gp.fit`` factors each diagonal block of
its Gram matrix with, and :func:`solve_with_factor` are numpy's LAPACK
routines.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # each array routine imports numpy when called
    import numpy as np

__all__ = [
    "DimensionError",
    "DecompositionError",
    "DivergenceError",
    "zoh_map",
    "float3",
    "whole",
    "cholesky_factor",
    "solve_with_factor",
    "rk4_step",
    "estimate_derivative",
    "log_covering_number_box",
]


class DimensionError(ValueError):
    """Input array shapes are incompatible with the operation."""


class DecompositionError(ValueError):
    """Cholesky factorization failed; ``pivot`` is the offending index (0-based)."""

    def __init__(self, message: str, pivot: int):
        super().__init__(message)
        self.pivot = pivot


class DivergenceError(RuntimeError):
    """A vector field or integrator produced non-finite values; carries ``t``."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


def _as_square(A: np.ndarray, name: str = "A") -> np.ndarray:
    import numpy as np

    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def zoh_map(a: Sequence[float], h: float) -> tuple[tuple, tuple]:
    """Exact map of ``x' = a x + v`` over a step h, per axis, v held.

    Returns ``(e, phi)``, tuples of Python floats with one entry per entry
    of the diagonal a, so that ``x(t + h) = e x(t) + phi v``: ``e = exp(a h)``
    and ``phi = (e - 1) / a``, or h where ``a = 0``. ``e`` is
    ``math.exp(a h)``: within an ulp of the diagonal of
    ``scipy.linalg.expm(diag(a) h)``, no farther from the exact value than
    numpy's exp in the worst case, and equal to it at every stock ``a h``.
    ``phi`` is bitwise the diagonal of
    ``np.linalg.solve(diag(a), diag(e) - I)``: it multiplies by ``1 / a`` as
    LAPACK's solve does from order 2 on (its 1x1 solve divides).
    """
    e = [math.exp(ai * h) for ai in a]
    return tuple(e), tuple(
        (ei - 1.0) * (1.0 / ai) if ai else h for ei, ai in zip(e, a)
    )


def float3(value: Sequence[float], name: str) -> tuple[float, float, float]:
    """``value`` as a 3-tuple of Python floats: the one form of a per-axis
    model value, such as the diagonal of ``A_m`` or an initial state.

    Raises ValueError naming ``name`` unless value is 3 finite numbers. A
    diagonal matrix acts per axis: ``0.0 + d_i v_i`` is bitwise entry i of
    numpy's ``diag(d) @ v`` for finite v, the sign of zero included.
    """
    try:
        out = tuple(float(v) for v in value)
    except (TypeError, ValueError):
        out = ()
    if len(out) != 3 or not all(map(math.isfinite, out)):
        raise ValueError(f"{name} must be 3 finite values, got {value!r}")
    return out


def whole(value, name: str) -> int:
    """``value`` as a Python int: the one form of a count or a seed.

    An int, a numpy integer or a float with no fraction passes. Raises
    ValueError naming ``name`` for anything else: ``int(1.5)`` and
    ``int(True)`` are both 1, yet neither a fraction nor a flag is a count.
    A numpy integer exists only once numpy is loaded, so only then is it
    looked for.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    np = sys.modules.get("numpy")
    integer = int if np is None else (int, np.integer)
    if isinstance(value, integer) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def cholesky_factor(M: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    Only the lower triangle of M is read, and M itself is never written:
    numpy's Cholesky routine makes the factor in a new array, here in
    Fortran order, with its strict upper triangle zero. Raises
    DecompositionError carrying the failing pivot index when M is not
    positive definite: the index of the first leading minor whose factor
    fails, found by bisection once the whole factor has failed.
    ``gp.fit`` factors each diagonal block of its Gram matrix with it.
    """
    import numpy as np

    A = _as_square(M, "M")
    if A.shape[0] == 0:
        return A.copy(order="F")
    try:
        return _lower_factor(A)
    except np.linalg.LinAlgError:
        pass
    lo, hi = 1, A.shape[0]
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            _lower_factor(A[:mid, :mid])
        except np.linalg.LinAlgError:
            hi = mid
        else:
            lo = mid + 1
    raise DecompositionError(f"matrix not positive definite at pivot {lo - 1}",
                             pivot=lo - 1)


def _lower_factor(A: np.ndarray) -> np.ndarray:
    """L from the lower triangle of A, in Fortran order: the upper factor
    of ``A^T``, which reads the same triangle, transposed."""
    import numpy as np

    return np.linalg.cholesky(A.T, upper=True).T


def solve_with_factor(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``(L @ L.T) X = B`` given a lower Cholesky factor L.

    No run calls it: the GP reads through its inverse factor. It stays,
    with its tests, only because the benchmark's per-layer tracer
    (``perfbench/layers.py``) hooks this name in its ``--trace`` runs; it
    goes when that tracer retires (ROADMAP item 1).
    """
    import numpy as np

    return np.linalg.solve(L.T, np.linalg.solve(L, np.asarray(B, dtype=float)))


def rk4_step(
    f: Callable[[float, np.ndarray], np.ndarray],
    t: float,
    x: np.ndarray,
    h: float,
) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of ``xdot = f(t, x)``.

    Raises DivergenceError (with the step's start time) if the field or the
    update produces non-finite values.
    """
    import numpy as np

    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    if type(x) is not np.ndarray:
        x = np.asarray(x, dtype=float)
    k1 = f(t, x)
    k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = f(t + h, x + h * k3)
    out = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # a single reduction; any NaN/Inf entry poisons the sum
    if not math.isfinite(float(np.sum(out))):
        raise DivergenceError(f"non-finite state after step at t={t}", t=t)
    return out


def estimate_derivative(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """First derivative at the centre of 5 uniformly spaced samples.

    ``values`` is (5,) or (5, d), one row per entry of ``times``; the result
    has shape ``values.shape[1:]``. It is the slope at the centre of the
    least-squares quadratic through the window (Savitzky & Golay 1964,
    window 5, order 2), in closed form:
    ``(2 (y4 - y0) + (y3 - y1)) / (10 dt)`` with ``dt = times[1] - times[0]``.
    So a constant window reads exactly 0, and a linear window of integers
    at ``dt = 1`` its exact slope. Raises DimensionError for any other
    sample count and ValueError for non-uniform spacing.

    No run calls it: the learner's targets are the adaptive law's own
    estimate. It stays, with its tests, only because the benchmark's
    per-layer tracer (``perfbench/layers.py``) hooks this name in its
    ``--trace`` runs; it goes when that tracer retires.
    """
    import numpy as np

    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != (5,) or values.shape[:1] != (5,):
        raise DimensionError(
            f"need 5 samples, got times {times.shape} and values {values.shape}"
        )
    dts = np.diff(times)
    dt = dts[0]
    # not <= rejects nan
    if not (np.abs(dts - dt) <= 1e-9 * max(1.0, abs(dt))).all():
        raise ValueError("sampling period is not uniform")
    y0, y1, _, y3, y4 = values
    return (2.0 * (y4 - y0) + (y3 - y1)) / (10.0 * dt)


def log_covering_number_box(kappa: float, n: int, xi: float) -> float:
    """Natural log of ``ceil(kappa*sqrt(n)/xi) ** n``, overflow-safe: the
    bound on the 2-norm xi-covering number of the box ``|x|_inf <= kappa``
    in R^n that a uniform grid of spacing ``2*xi/sqrt(n)`` gives."""
    if kappa <= 0 or xi <= 0:
        raise ValueError("kappa and xi must be positive")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    per_axis = math.ceil(kappa * math.sqrt(n) / xi)
    return n * math.log(per_axis)
