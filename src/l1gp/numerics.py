"""Small numerical utilities shared by the toolkit.

The linear parts of the loop are diagonal, so their setup is per axis:
:func:`float3` checks a per-axis model value (a diagonal, a state) as three
finite Python floats, and :func:`zoh_map` and :func:`phi1` give the exact
one-step maps, on Python floats, with no linear solve. The rest operates
on plain float64 numpy arrays: the Cholesky routines the GP factors with,
RK4, the Savitzky-Golay derivative and a covering-number bound. All public
functions are pure.

The module loads without scipy. Only the factor routines
:func:`cholesky_factor` and :func:`solve_with_factor`, which only the GP
calls, import it when called. ``gp.fit`` factors its Gram matrix in place
with the private routine that :func:`cholesky_factor` runs on a copy.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DimensionError",
    "DecompositionError",
    "DivergenceError",
    "InsufficientDataError",
    "zoh_map",
    "phi1",
    "float3",
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


class InsufficientDataError(ValueError):
    """Fewer samples than the requested smoothing window."""


def _as_square(A: np.ndarray, name: str = "A") -> np.ndarray:
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
    and ``phi = (e - 1) / a``, or h where ``a = 0``. Each entry is bitwise
    the diagonal of the matrix forms ``scipy.linalg.expm(diag(a) h)`` and
    ``np.linalg.solve(diag(a), expm - I)``: ``e`` is numpy's exp of the
    array (``math.exp`` is an ulp off on some inputs), and ``phi``
    multiplies by ``1 / a`` as LAPACK's solve does from order 2 on (its
    1x1 solve divides).
    """
    e = np.exp(np.multiply(a, h)).tolist()
    return tuple(e), tuple(
        (ei - 1.0) * (1.0 / ai) if ai else h for ei, ai in zip(e, a)
    )


def phi1(z: complex) -> complex:
    """``(e^z - 1) / z`` for a complex scalar z, with ``phi1(0) = 1``.

    Below ``|z| = 1`` the Taylor sum ``sum_{k<20} z^k/(k+1)!`` in nested
    form (the first dropped term is below 1e-19 of the result) keeps the
    imaginary part accurate: ``expm1(z) / z`` cancels in the complex
    division there (9.6e-12 relative at ``z = 1e-5 + 3e-6j``). Elsewhere
    ``expm1(z) / z``. Each part is accurate to a few ulps while
    ``|Im z| <= 1``.
    """
    if abs(z) < 1.0:
        s = 1.0 + 0j
        for k in range(20, 1, -1):
            s = 1.0 + z * s / k
        return s
    return complex(np.expm1(z)) / z


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


def cholesky_factor(M: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    Only the lower triangle of M is read, and M itself is never written:
    the factor is made in a Fortran-order copy, the layout LAPACK and BLAS
    take without a further copy, and returned with its strict upper
    triangle zero. Raises DecompositionError carrying the failing pivot
    index when M is not positive definite (LAPACK potrf info).
    """
    return _cholesky_in_place(np.array(M, dtype=float, order="F"))


def _cholesky_in_place(A: np.ndarray) -> np.ndarray:
    """:func:`cholesky_factor` of a Fortran-order float array, made in A's
    own buffer, which then holds the factor (or, on failure, is spoiled)."""
    import scipy.linalg.lapack

    A = _as_square(A, "M")
    if A.shape[0] == 0:
        return A
    c, info = scipy.linalg.lapack.dpotrf(A, lower=1, overwrite_a=1)
    if info > 0:
        raise DecompositionError(
            f"matrix not positive definite at pivot {info - 1}", pivot=info - 1
        )
    if info < 0:
        raise ValueError(f"invalid argument {-info} to dpotrf")
    # potrf leaves the strict upper triangle as it found it; each column's
    # part is contiguous in Fortran order
    for j in range(1, c.shape[0]):
        c[:j, j] = 0.0
    return c


def solve_with_factor(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``(L @ L.T) X = B`` given a lower Cholesky factor L."""
    import scipy.linalg.lapack

    B = np.asarray(B, dtype=float)
    x, info = scipy.linalg.lapack.dpotrs(L, B, lower=1)
    if info != 0:
        raise ValueError(f"dpotrs failed with info={info}")
    return x


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


def estimate_derivative(
    times: np.ndarray,
    values: np.ndarray,
    window: int = 5,
    poly_order: int = 2,
) -> np.ndarray:
    """Savitzky-Golay first-derivative estimates, componentwise.

    ``times`` must be uniformly spaced; ``values`` is (N,) or (N, d).
    Interior points use the centered window; the first and last
    ``window // 2`` points differentiate the polynomial fitted to the first
    or last full window (scipy's ``savgol_filter`` mode 'interp').
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if window % 2 == 0:
        raise ValueError(f"window must be odd, got {window}")
    if window < poly_order + 1:
        raise ValueError(f"window {window} < poly_order + 1 = {poly_order + 1}")
    n = times.shape[0]
    if n < window:
        raise InsufficientDataError(f"{n} samples < window {window}")
    dts = np.diff(times)
    dt = dts[0]
    # the learner calls this once per sample, so it skips the argument
    # checks of np.allclose and sliding_window_view; not <= rejects nan
    if not (np.abs(dts - dt) <= 1e-9 * max(1.0, abs(dt))).all():
        raise ValueError("sampling period is not uniform")
    W = _savgol_derivative_weights(window, poly_order) / dt
    half = window // 2
    out = np.empty_like(values)
    # sliding_window_view(values, window, axis=0): (N - window + 1, [d,] window)
    shape = (n - window + 1,) + values.shape[1:] + (window,)
    windows = np.lib.stride_tricks.as_strided(
        values, shape, values.strides + values.strides[:1], writeable=False
    )
    out[half : n - half] = windows @ W[half]
    out[:half] = W[:half] @ values[:window]
    out[n - half :] = W[half + 1 :] @ values[n - window :]
    return out


@functools.lru_cache(maxsize=None)
def _savgol_derivative_weights(window: int, poly_order: int) -> np.ndarray:
    """(window, window) matrix D with ``(D @ y)[i]`` the first derivative, per
    sample, at window position i of the least-squares polynomial through y.

    The fit's coefficients are ``pinv(V) @ y`` with V the Vandermonde matrix
    of the centred offsets; D differentiates that polynomial at each offset.
    """
    z = np.arange(window, dtype=float) - window // 2
    V = np.vander(z, poly_order + 1, increasing=True)
    dV = np.zeros_like(V)
    dV[:, 1:] = V[:, :-1] * np.arange(1, poly_order + 1)
    D = dV @ np.linalg.pinv(V)
    D.setflags(write=False)
    return D


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
