"""Per-channel Gaussian-process regression with squared-exponential kernels.

All output channels share one kernel configuration and one set of training
inputs, so one factor serves every channel; the channels differ only
through their target columns. The high-probability uniform error envelope
is ``sqrt(beta) * std(x)``: :func:`beta_value` gives the scale factor from
the covering number of the box.

The kernel has one formula, its expanded form, precomputed once per
posterior: ``k(X_i, x) = exp(Xa_i . (x, 1, |x|^2))`` with the read matrix
``Xa = [X / l^2, log sigma_f^2 - |X_i|^2 / (2 l^2), -1 / (2 l^2)]``. A
read is then one matrix product and one ``exp``. The batch read
(:meth:`GpPosterior.predict_batch`, for ``bound-check``) takes whole
blocks of query rows ``(x, 1, |x|^2)`` at once, and :func:`fit` builds
the Gram matrix's rows the same way from the training rows, with its
diagonal set to the exact ``sigma_f^2 + sigma_n^2``. The expanded form
rounds differently from direct differences: its error in the exponent
is about ``eps (|X_i|^2 + |x|^2) / (2 l^2)``, at most about 1.5e-13 on
the box ``|x|_inf <= 15`` at unit length scale.

A posterior holds the inverse factor ``W = L^{-1}`` of ``K + sigma_n^2
I``, the factor Rasmussen & Williams (2006, Alg. 2.1) read through, made
and read with numpy alone. W is kept as C-order row panels of at most h
= ``_PANEL_ROWS`` rows: panel j holds rows ``jh .. jh + r - 1`` of W over
columns ``0 .. jh + r - 1``, where the rest of those rows is zero. Row i
of W depends on the first i + 1 data only, so :func:`fit`, given the
previous posterior whose inputs are the first rows of the new ones,
computes the new rows alone and shares the full panels; other data (a
FIFO eviction) regrows W. Each block of new rows, within one panel,
takes a gemm with each panel before it, ``np.linalg.cholesky`` of the
block's Schur complement and the inverse of that factor. The weights are
``alpha = W^T (W Y)``.

A run reads the posterior only at the loop's state: its mean and std at
every 1 kHz tick and at each publish (:meth:`GpPosterior.point_eval`),
and the mean alone at a recorded row with no tick in its step
(:meth:`GpPosterior.mean_at`). With ``w = W k`` the variance is
``sigma_f^2 - w.w``. A posterior of 1 <= N <= h points has one panel and
holds ``R = [alpha^T; W]``, (m + N) x N, so the tick's read is one
product ``z = R k``: the mean ``z[:m]`` and ``w = z[m:]``. A larger one
reads the mean as ``k . alpha`` and sums ``w.w`` over each panel's ``P @
k[:e]``, ``e`` its width. In either form the tick's read and the row's
share one expression for the mean, so their means are the same bits. A
query of the wrong length raises :class:`numerics.DimensionError`.

h is where the one product stops paying: its N^2 multiply-adds against
the panels' N (N + h) / 2, and a panel's few library calls. The tick's
read, ``point_eval`` at one point, in microseconds on a 2-core x86_64
host (numpy 2.4.6, one BLAS thread; each figure the median over 8 fits
of the minimum of 30 x 200 calls), against the read before the panels,
one product up to N = 128 and above it ``k . alpha`` and a BLAS
``dtrsv`` solve against L:

    N          8     56    128    129    256    300    384    512
    solve   3.17   3.89   5.47   6.60  11.50  14.84  20.85  35.96
    panels  3.18   3.86   5.28   6.69  10.12  13.62  17.33  27.29

Every panel and ``R`` starts on a 64-byte boundary (numpy's own is 16
bytes): OpenBLAS's gemv reads a matrix that starts on a 32-byte one
about 30% faster at N = 128 to 256, to the same bits. A panel is one
contiguous array: ``ndarray.dot`` copies a strided view before its
gemv.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import numerics

__all__ = [
    "SeKernel",
    "GpPosterior",
    "UniformBoundConfig",
    "IllConditionedKernelError",
    "fit",
    "beta_value",
    "uniform_bound_grid_max",
]

# grid rows per predict_batch call in uniform_bound_grid_max: bounds the
# (N, rows) cross-kernel
_GRID_BLOCK = 512

# rows per panel of the inverse factor; a posterior of at most this many
# points reads through one product (the read table is in the module
# docstring)
_PANEL_ROWS = 128


class IllConditionedKernelError(RuntimeError):
    """Gram matrix factorization failed; try a larger noise variance."""


@dataclass(frozen=True)
class SeKernel:
    """Squared-exponential kernel ``sigma_f**2 * exp(-|x-x'|**2 / (2 l**2))``,
    evaluated through the read matrix of the module docstring."""

    sigma_f: float = 1.0
    length_scale: float = 1.0

    def __post_init__(self):
        # written so that NaN fails too
        if not (0.0 < self.sigma_f < math.inf and 0.0 < self.length_scale < math.inf):
            raise ValueError("sigma_f and length_scale must be positive and finite")
        # the prior variance sigma_f**2 must be a normal float: above this
        # range sigma_f**2 raises OverflowError, below it it drops bits
        if not sys.float_info.min <= self.sigma_f * self.sigma_f < math.inf:
            raise ValueError("sigma_f**2 must be a normal, finite float")


def _read_matrix(X: np.ndarray, kernel: SeKernel) -> np.ndarray:
    """The (N, n + 2) read matrix ``Xa`` of inputs X (N, n)."""
    l2 = kernel.length_scale**2
    sq = np.einsum("ij,ij->i", X, X)
    Xa = np.empty((X.shape[0], X.shape[1] + 2))
    Xa[:, :-2] = X / l2
    Xa[:, -2] = 2.0 * math.log(kernel.sigma_f) - 0.5 * sq / l2
    Xa[:, -1] = -0.5 / l2
    return Xa


def _aligned_zeros(rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) C-order array of zeros whose data starts on a 64-byte
    boundary. numpy aligns to 16 bytes; OpenBLAS's gemv reads a matrix
    that starts on a 32-byte one about 30% faster at N = 128 to 256, to
    the same bits."""
    buf = np.zeros(rows * cols + 8)
    start = -buf.ctypes.data % 64 // 8
    return buf[start:start + rows * cols].reshape(rows, cols)


def _kernel_block(Xa: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """``k(X_i, Z_j)`` (N, P) in Fortran order from the read matrix and the
    query rows ``(Z_j, 1, |Z_j|^2)``: one product, exponentiated in place."""
    Q = np.empty((Z.shape[0], Z.shape[1] + 2))
    Q[:, :-2] = Z
    Q[:, -2] = 1.0
    Q[:, -1] = np.einsum("ij,ij->i", Z, Z)
    K = (Q @ Xa.T).T
    return np.exp(K, out=K)


@dataclass(frozen=True, eq=False)
class GpPosterior:
    """Fitted posterior: the inverse factor of K + noise I in row panels,
    the weights and the kernel.

    Frozen, so what is derived from the fields when the posterior is built
    (the dimensions ``n_inputs``, ``n_outputs`` and ``n_samples``, the read
    matrix ``Xa`` of the module docstring, ``signal_var = sigma_f**2``, the
    small model's read matrix ``R`` and the prior's mean) cannot go stale
    against them. A posterior compares and hashes by identity: its arrays
    have no truth value, so two fits on the same data are two models. With
    zero training points the posterior reduces to the prior: mean 0, std
    sigma_f.
    """

    kernel: SeKernel
    noise_var: float       # sigma_n**2, on the Gram matrix's diagonal
    X: np.ndarray          # (N, n) training inputs
    alpha: np.ndarray      # (N, m) weights (K + noise I)^{-1} Y
    # W = L^{-1} as C-order row panels: panel j is (r, jh + r), rows jh ..
    # jh + r - 1 of W up to its diagonal, with h = _PANEL_ROWS
    panels: tuple
    n_outputs: int = field(init=False, compare=False)  # m, from alpha
    n_inputs: int = field(init=False, compare=False)  # n, from X
    Xa: np.ndarray = field(init=False, repr=False, compare=False)  # (N, n + 2) read matrix
    signal_var: float = field(init=False, repr=False, compare=False)  # sigma_f**2
    n_samples: int = field(init=False, repr=False, compare=False)  # N
    # (m + N, N) [alpha^T; W], C order, for 1 <= N <= _PANEL_ROWS; else None
    R: np.ndarray | None = field(init=False, repr=False, compare=False)
    zero_mean: np.ndarray = field(init=False, repr=False, compare=False)  # (m,) read-only

    def __post_init__(self):
        object.__setattr__(self, "n_samples", self.X.shape[0])
        object.__setattr__(self, "n_inputs", self.X.shape[1])
        object.__setattr__(self, "n_outputs", self.alpha.shape[1])
        object.__setattr__(self, "Xa", _read_matrix(self.X, self.kernel))
        object.__setattr__(self, "signal_var", self.kernel.sigma_f**2)
        R = None
        if 1 <= self.n_samples <= _PANEL_ROWS:
            R = _aligned_zeros(self.n_outputs + self.n_samples, self.n_samples)
            R[:self.n_outputs] = self.alpha.T
            R[self.n_outputs:] = self.panels[0]
        object.__setattr__(self, "R", R)
        zero_mean = np.zeros(self.n_outputs)
        zero_mean.flags.writeable = False
        object.__setattr__(self, "zero_mean", zero_mean)

    def predict_batch(self, Xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean (P, m) and per-channel std (P, m) at query rows Xq.

        The channels share the kernel and inputs so the std column is
        identical across channels; it is broadcast to (P, m) to keep the
        per-channel contract explicit.
        """
        Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
        P = Xq.shape[0]
        if Xq.shape[1] != self.n_inputs:
            raise self._dimension_error(Xq.shape[1])
        if self.n_samples == 0:
            mean = np.zeros((P, self.n_outputs))
            std = np.full((P, self.n_outputs), self.kernel.sigma_f)
            return mean, std
        kstar = _kernel_block(self.Xa, Xq)         # (N, P)
        mean = kstar.T @ self.alpha                # (P, m)
        # kstar^T K^{-1} kstar = |W kstar|^2 per column, a panel at a time
        ww = np.zeros(P)
        for panel in self.panels:
            w = panel @ kstar[:panel.shape[1]]
            ww += np.einsum("ij,ij->j", w, w)
            del w  # one (r, P) product alive at a time
        var = self.signal_var - ww
        # round-off can push the variance a hair negative; clamp before sqrt
        np.maximum(var, 0.0, out=var)
        std = np.sqrt(var)
        return mean, np.repeat(std[:, None], self.n_outputs, axis=1)

    def _kernel_vector(self, x) -> np.ndarray:
        """k(X_i, x), shape (N,), from the read matrix: one gemv, one exp."""
        sq = 0.0
        for v in x:
            sq += v * v
        return np.exp(self.Xa.dot([*x, 1.0, sq]))

    def _dimension_error(self, dim: int) -> numerics.DimensionError:
        return numerics.DimensionError(f"query dim {dim} != training dim {self.n_inputs}")

    def mean_at(self, x) -> np.ndarray:
        """Posterior mean alone at a single point, shape (m,)."""
        if len(x) != self.n_inputs:
            raise self._dimension_error(len(x))
        if self.n_samples == 0:
            return self.zero_mean
        k = self._kernel_vector(x)
        if self.R is None:
            return k.dot(self.alpha)
        return self.R.dot(k)[:self.n_outputs]

    def point_eval(self, x) -> tuple[np.ndarray, float]:
        """Mean (m,) and the shared per-channel std at one point. Hot-loop variant.

        ``x`` is any length-n sequence of floats (a tuple or an array). The
        mean is the expression :meth:`mean_at` evaluates, so the two read
        the same bits. The prior's mean is the read-only ``zero_mean``.
        """
        if len(x) != self.n_inputs:
            raise self._dimension_error(len(x))
        if self.n_samples == 0:
            return self.zero_mean, self.kernel.sigma_f
        k = self._kernel_vector(x)
        if self.R is None:
            mean = k.dot(self.alpha)
            ww = 0.0
            for panel in self.panels:
                w = panel.dot(k[:panel.shape[1]])
                ww += w.dot(w)
        else:
            z = self.R.dot(k)
            mean, w = z[:self.n_outputs], z[self.n_outputs:]
            ww = w.dot(w)
        var = self.signal_var - ww
        # round-off can push the variance a hair negative: read 0 there
        return mean, 0.0 if var < 0.0 else math.sqrt(var)


@dataclass(frozen=True)
class UniformBoundConfig:
    """Parameters of the uniform error envelope over the box |x|_inf <= kappa.

    ``xi`` is the radius of the grid that covers the box, ``delta`` the
    failure probability. The envelope is ``sqrt(beta) * std(x)`` with
    ``beta`` from :func:`beta_value`: Lederer, Umlauft & Hirche (NeurIPS
    2019) prove it with probability 1 - delta at the grid points. Between
    them the theorem adds a slack term gamma(xi), left out here: at the
    decks' ``xi = 1e-3`` it is 70 to 700, against 8.5 for the prior's
    envelope, and it shrinks below that only for a far finer grid.
    """

    kappa: float = 15.0
    xi: float = 0.001
    delta: float = 0.01

    def __post_init__(self):
        if not (0.0 < self.kappa < math.inf and 0.0 < self.xi < math.inf):
            raise ValueError("kappa and xi must be positive and finite")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")


def fit(
    X: np.ndarray,
    Y: np.ndarray,
    noise_var: float,
    kernel: SeKernel,
    prev: GpPosterior | None = None,
) -> GpPosterior:
    """Condition independent per-channel GPs on inputs X (N,n) and targets Y (N,m).

    mean_i(x) = kstar(x)^T (K + noise I)^{-1} Y_i and
    var_i(x) = k(x,x) - kstar(x)^T (K + noise I)^{-1} kstar(x).

    ``prev`` is a posterior the caller fitted before, such as the model a
    learner published last. When it has the same kernel and noise and its
    inputs are the first rows of X, its rows of the inverse factor are
    kept and only the new ones are computed; its full panels are shared,
    not copied. Any other ``prev`` is ignored, and the factor is grown
    from its first row.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[0] != Y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
    if not 0.0 < noise_var < math.inf:
        raise ValueError("noise_var must be positive and finite")
    panels: list[np.ndarray] = []
    if (prev is not None and prev.kernel == kernel and prev.noise_var == noise_var
            and np.array_equal(prev.X, X[:prev.n_samples])):
        panels += prev.panels
    Xa = _read_matrix(X, kernel)
    s = sum(panel.shape[0] for panel in panels)
    while s < X.shape[0]:
        e = min(X.shape[0], (s // _PANEL_ROWS + 1) * _PANEL_ROWS)
        _append_rows(panels, Xa, X, s, e, kernel.sigma_f**2 + noise_var)
        s = e
    # alpha = W^T (W Y), a panel at a time
    alpha = np.zeros(Y.shape)
    for panel in panels:
        e = panel.shape[1]
        alpha[:e] += panel.T @ (panel @ Y[:e])
    return GpPosterior(
        kernel=kernel,
        noise_var=noise_var,
        X=X.copy(),
        alpha=alpha,
        panels=tuple(panels),
    )


def _append_rows(panels: list, Xa: np.ndarray, X: np.ndarray, s: int, e: int,
                 diag: float) -> None:
    """Append rows s .. e - 1 of ``W = L^{-1}``, all in one panel, to the
    ``panels`` that hold its first s rows, for inputs X with read matrix
    Xa and the Gram diagonal ``diag = sigma_f^2 + noise``.

    With ``W_1`` the rows held and ``K_21``, ``K_22`` the new rows of the
    Gram matrix, ``C = W_1 K_21^T`` is the transpose of the new rows of L
    left of the diagonal; the new diagonal block of L is the Cholesky
    factor ``L_2`` of the Schur complement ``K_22 - C^T C``, and the new
    rows of W are ``[-W_2 C^T W_1, W_2]`` with ``W_2 = L_2^{-1}``. Rows
    that continue the last panel replace it with a longer copy.
    """
    # the new rows of K + noise I, up to the diagonal, in the orientation
    # of the lower triangle of the whole Gram matrix
    Kb = _kernel_block(Xa[s:e], X[:e])  # (b, e)
    Kb[np.arange(e - s), np.arange(s, e)] = diag
    C = np.empty((s, e - s))
    for panel in panels:
        r, w = panel.shape  # rows w - r .. w - 1 of W
        C[w - r:w] = panel @ Kb[:, :w].T
    try:
        L2 = numerics.cholesky_factor(Kb[:, s:] - C.T @ C)
    except numerics.DecompositionError as exc:
        raise IllConditionedKernelError(
            f"Gram matrix not positive definite (pivot {s + exc.pivot}); "
            "increase the noise variance"
        ) from exc
    del Kb  # fit's peak holds about one N x N array at the cap
    # L2 is triangular: zero the strict upper triangle of its inverse,
    # where a pivoted LU can leave rounding
    W2 = np.tril(np.linalg.inv(L2))
    CW = np.zeros((e - s, s))  # C^T W_1
    for panel in panels:
        r, w = panel.shape
        CW[:, :w] += C[w - r:w].T @ panel
    del C
    held = s % _PANEL_ROWS  # rows of the last panel these rows continue
    block = _aligned_zeros(held + e - s, e)
    if held:
        block[:held, :s] = panels.pop()
    np.matmul(W2, CW, out=block[held:, :s])
    np.negative(block[held:, :s], out=block[held:, :s])
    block[held:, s:] = W2
    panels.append(block)


def beta_value(cfg: UniformBoundConfig, n_outputs: int, n_inputs: int) -> float:
    """Scale factor 2 log(m M / delta) with M the grid covering bound."""
    log_m_cover = numerics.log_covering_number_box(cfg.kappa, n_inputs, cfg.xi)
    return 2.0 * (math.log(n_outputs) + log_m_cover - math.log(cfg.delta))


def uniform_bound_grid_max(
    posterior: GpPosterior,
    sqrt_beta: float,
    kappa_op: float = 5.0,
    grid_points: int = 21,
) -> float:
    """Max of the envelope ``sqrt_beta * std`` over a uniform grid on the
    operational box.

    No run calls it: a publish reports the envelope at the loop's state.
    It stays, with ``_GRID_BLOCK`` and its tests, only because the
    benchmark's per-layer tracer (``perfbench/layers.py``) hooks this name
    in its ``--trace`` runs; it goes when that tracer retires.

    The posterior std never exceeds ``cap = sqrt(sigma_f**2)``:
    :meth:`GpPosterior.predict_batch` subtracts a sum of squares from
    ``sigma_f**2`` and clamps at 0. So the 2^n box corners (``+-kappa_op``
    on each axis, which are grid points) are read first, and when one of
    them reaches the cap, ``sqrt_beta * cap`` is the grid max exactly; the
    prior always takes this exit. Otherwise the whole grid is read in
    blocks of ``_GRID_BLOCK`` rows, in the row order of the ``ij``
    meshgrid, each block made from its flat indices alone, so memory does
    not grow with the grid's size.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    cap = math.sqrt(posterior.signal_var)
    corners = np.array(list(itertools.product((-kappa_op, kappa_op),
                                              repeat=posterior.n_inputs)))
    if np.max(posterior.predict_batch(corners)[1]) == cap:
        return sqrt_beta * cap
    axis = np.linspace(-kappa_op, kappa_op, grid_points)
    shape = (grid_points,) * posterior.n_inputs
    size = grid_points**posterior.n_inputs

    def block(i: int) -> np.ndarray:
        rows = np.unravel_index(np.arange(i, min(i + _GRID_BLOCK, size)), shape)
        return axis[np.stack(rows, axis=1)]

    std_max = max(
        float(np.max(posterior.predict_batch(block(i))[1]))
        for i in range(0, size, _GRID_BLOCK)
    )
    return sqrt_beta * std_max
