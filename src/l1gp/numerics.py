"""Small dense linear-algebra and numerical utilities shared by the toolkit.

Everything here operates on plain float64 numpy arrays. Matrices are tiny
(controller state dimensions, n <= 6) so the routines favor accuracy and
clear failure modes over throughput. All functions are pure and safe to
call concurrently.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

__all__ = [
    "DimensionError",
    "DecompositionError",
    "DivergenceError",
    "InsufficientDataError",
    "UnstableTransferFunctionError",
    "matrix_exponential",
    "phi_matrix",
    "pseudo_inverse",
    "cholesky_factor",
    "cholesky_solve",
    "solve_with_factor",
    "rk4_step",
    "estimate_derivative",
    "l1_norm_impulse",
    "covering_number_box",
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


class UnstableTransferFunctionError(ValueError):
    """A transfer function with a pole in the closed right half-plane."""


def _as_square(A: np.ndarray, name: str = "A") -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def matrix_exponential(A: np.ndarray, t: float) -> np.ndarray:
    """Return ``exp(A*t)`` for a square matrix A.

    Backed by scipy's scaling-and-squaring Pade implementation; matrices in
    this toolkit are small and the result is precomputed once per sampling
    period, never inside the control loop.
    """
    A = _as_square(A)
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return np.eye(A.shape[0])
    return scipy.linalg.expm(A * t)


def phi_matrix(A: np.ndarray, Ts: float) -> np.ndarray:
    """Return ``inv(A) @ (exp(A*Ts) - I)``.

    For Hurwitz A and Ts > 0 the result is invertible. Raises
    ``numpy.linalg.LinAlgError`` when A is singular.
    """
    A = _as_square(A)
    if Ts <= 0:
        raise ValueError(f"Ts must be positive, got {Ts}")
    expm_at = matrix_exponential(A, Ts)
    rhs = expm_at - np.eye(A.shape[0])
    return np.linalg.solve(A, rhs)


def pseudo_inverse(B: np.ndarray) -> np.ndarray:
    """Left inverse ``(B^T B)^{-1} B^T`` of a full-column-rank B; ``inv(B)``
    when B is square."""
    B = np.asarray(B, dtype=float)
    if B.shape[0] == B.shape[1]:
        return np.linalg.inv(B)
    return np.linalg.solve(B.T @ B, B.T)


def cholesky_factor(M: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    The factor is returned in Fortran (column-major) order, the layout
    LAPACK and BLAS take without a copy. Raises DecompositionError carrying
    the failing pivot index when M is not positive definite (LAPACK potrf
    info).
    """
    M = _as_square(M, "M")
    if M.shape[0] == 0:
        return M.copy()
    c, info = scipy.linalg.lapack.dpotrf(M, lower=1)
    if info > 0:
        raise DecompositionError(
            f"matrix not positive definite at pivot {info - 1}", pivot=info - 1
        )
    if info < 0:
        raise ValueError(f"invalid argument {-info} to dpotrf")
    return np.asfortranarray(np.tril(c))


def solve_with_factor(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``(L @ L.T) X = B`` given a lower Cholesky factor L."""
    B = np.asarray(B, dtype=float)
    x, info = scipy.linalg.lapack.dpotrs(L, B, lower=1)
    if info != 0:
        raise ValueError(f"dpotrs failed with info={info}")
    return x


def cholesky_solve(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``M X = B`` with M symmetric positive definite.

    Residual satisfies ``norm(M X - B, inf) <= 1e-8 * (1 + norm(B, inf))``
    for well-conditioned systems of the sizes used here.
    """
    M = _as_square(M, "M")
    B = np.asarray(B, dtype=float)
    if B.shape[0] != M.shape[0]:
        raise DimensionError(
            f"B has {B.shape[0]} rows, expected {M.shape[0]}"
        )
    L = cholesky_factor(M)
    return solve_with_factor(L, B)


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
    if not np.allclose(dts, dt, rtol=0.0, atol=1e-9 * max(1.0, abs(dt))):
        raise ValueError("sampling period is not uniform")
    W = _savgol_derivative_weights(window, poly_order) / dt
    half = window // 2
    out = np.empty_like(values)
    # sliding_window_view puts the window axis last: (N - window + 1, [d,] window)
    windows = np.lib.stride_tricks.sliding_window_view(values, window, axis=0)
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


def l1_norm_impulse(
    poles: Sequence[float],
    residues: Sequence[float],
    horizon: float | None = None,
    step: float | None = None,
    feedthrough: float = 0.0,
) -> float:
    """L1 norm of ``h(t) = sum_i residues[i] * exp(poles[i] * t)``.

    Trapezoidal quadrature of |h| on [0, horizon]; an optional impulsive
    feedthrough term contributes |feedthrough| directly. All poles must be
    strictly negative (distinct real poles from a partial-fraction
    expansion). Defaults: horizon = 10 / |slowest pole|, step chosen so the
    relative truncation error stays below 1e-3.
    """
    poles = np.asarray(poles, dtype=float)
    residues = np.asarray(residues, dtype=float)
    if poles.shape != residues.shape:
        raise DimensionError("poles and residues must have equal length")
    if poles.size == 0 or np.all(residues == 0.0):
        return abs(feedthrough)
    if np.any(poles >= 0.0):
        raise UnstableTransferFunctionError(
            f"nonnegative pole in {poles.tolist()}"
        )
    slowest = np.min(np.abs(poles))
    fastest = np.max(np.abs(poles))
    if horizon is None:
        horizon = 10.0 / slowest
    if step is None:
        step = 0.01 / fastest
    n = max(2, int(math.ceil(horizon / step)) + 1)
    t = np.linspace(0.0, horizon, n)
    h = residues @ np.exp(np.outer(poles, t))
    return abs(feedthrough) + float(np.trapezoid(np.abs(h), t))


def covering_number_box(kappa: float, n: int, xi: float) -> int:
    """Upper bound on the 2-norm xi-covering number of the inf-norm box.

    A uniform grid with spacing ``2*xi/sqrt(n)`` covers the box
    ``|x|_inf <= kappa`` with balls of 2-norm radius xi, giving the bound
    ``ceil(kappa*sqrt(n)/xi) ** n``.
    """
    if kappa <= 0 or xi <= 0:
        raise ValueError("kappa and xi must be positive")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    per_axis = math.ceil(kappa * math.sqrt(n) / xi)
    return int(per_axis) ** int(n)


def log_covering_number_box(kappa: float, n: int, xi: float) -> float:
    """Natural log of :func:`covering_number_box`, overflow-safe."""
    if kappa <= 0 or xi <= 0:
        raise ValueError("kappa and xi must be positive")
    per_axis = math.ceil(kappa * math.sqrt(n) / xi)
    return n * math.log(per_axis)
