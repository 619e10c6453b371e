"""Per-channel Gaussian-process regression with squared-exponential kernels.

All output channels share one kernel configuration and one set of training
inputs, so a single Cholesky factorization serves every channel; the
channels differ only through their target columns. The high-probability
uniform error envelope is ``sqrt(beta) * std(x)``: :func:`beta_value`
gives the scale factor from the covering number of the box.

The kernel has one formula, its expanded form, precomputed once per
posterior: ``k(X_i, x) = exp(Xa_i . (x, 1, |x|^2))`` with the read matrix
``Xa = [X / l^2, log sigma_f^2 - |X_i|^2 / (2 l^2), -1 / (2 l^2)]``. A
read is then one matrix product and one ``exp``. A run reads the
posterior only at the loop's state: its mean and std at every 1 kHz tick
and at each publish (:meth:`GpPosterior.point_eval`), and the mean alone
at a recorded row with no tick in its step (:meth:`GpPosterior.mean_at`).
A small posterior, 1 <= N <= ``_INVERSE_READ_MAX`` (128), is read through
its inverse factor: it holds the read matrix ``R = [alpha^T; L^{-1}]``,
(m + N) x N, with ``L^{-1}`` from LAPACK ``dtrtri``, and one product
``z = R k`` gives the mean ``z[:m]`` and ``w = L^{-1} k = z[m:]``, so the
variance is ``sigma_f^2 - w.w``. A larger one reads the mean as
``k . alpha`` and solves ``L w = k`` with BLAS ``dtrsv`` in ``k``'s own
buffer. At small N a read's time goes to library calls, and the single
product makes one gemv of a dot product and a ``dtrsv``; its N^2
multiply-adds against the solve's N^2 / 2 make it the slower form above
about N = 200 on one BLAS thread. In either form the tick's read and the
row's share one expression for the mean, so their means are the same
bits. A query of the wrong length raises :class:`numerics.DimensionError`. The batch read
(:meth:`GpPosterior.predict_batch`, for ``bound-check``) takes whole
blocks of query rows ``(x, 1, |x|^2)`` at once, and :func:`fit` builds
the Gram matrix the same way from the training rows, with its diagonal
set to the exact ``sigma_f^2 + sigma_n^2``. The
expanded form rounds differently from direct differences: its error in
the exponent is about ``eps (|X_i|^2 + |x|^2) / (2 l^2)``, at most about
1.5e-13 on the box ``|x|_inf <= 15`` at unit length scale. Each product
is written to a Fortran-order buffer, the layout LAPACK works in place
on: a refit holds one N x N array, which becomes the posterior's factor,
and a batch read solves against its block in that block's own buffer.
The solves and the inverse call BLAS ``dtrsv`` (a tick above the
constant), LAPACK ``dtrtrs`` (a batch) and ``dtrtri`` (a small
posterior, once when it is built) straight from scipy's compiled wrapper
modules, which :func:`numerics._scipy_wrapper` loads without the
``scipy.linalg`` package; they are the function objects
``scipy.linalg.blas`` and ``scipy.linalg.lapack`` export, so the bits
are theirs.
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

# largest N read through the inverse factor R = [alpha^T; L^{-1}]: one
# gemv there beats a dot product and a dtrsv up to about N = 200
_INVERSE_READ_MAX = 128

# scipy's compiled BLAS and LAPACK wrappers, without the scipy.linalg package
_fblas = numerics._scipy_wrapper("_fblas")
_flapack = numerics._scipy_wrapper("_flapack")


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
    """Fitted posterior: Cholesky factor of (K + noise*I), weights, kernel.

    Frozen, so what is derived from the fields when the posterior is built
    (the read matrix ``Xa`` of the module docstring, ``signal_var =
    sigma_f**2``, ``n_samples``, the inverse-factor read matrix ``R`` and
    the prior's mean) cannot go stale against them. A posterior compares
    and hashes by identity: its arrays have no truth value, so two fits on
    the same data are two models. With zero training points the posterior
    reduces to the prior: mean 0, std sigma_f.
    """

    kernel: SeKernel
    X: np.ndarray          # (N, n) training inputs
    alpha: np.ndarray      # (N, m) weights (K + noise I)^{-1} Y
    chol: np.ndarray       # (N, N) lower Cholesky factor of K + noise I, zero above, Fortran order
    n_outputs: int
    n_inputs: int
    Xa: np.ndarray = field(init=False, repr=False, compare=False)  # (N, n + 2) read matrix
    signal_var: float = field(init=False, repr=False, compare=False)  # sigma_f**2
    n_samples: int = field(init=False, repr=False, compare=False)  # N
    # (m + N, N) [alpha^T; L^{-1}], C order, for 1 <= N <= _INVERSE_READ_MAX; else None
    R: np.ndarray | None = field(init=False, repr=False, compare=False)
    zero_mean: np.ndarray = field(init=False, repr=False, compare=False)  # (m,) read-only

    def __post_init__(self):
        object.__setattr__(self, "Xa", _read_matrix(self.X, self.kernel))
        object.__setattr__(self, "signal_var", self.kernel.sigma_f**2)
        object.__setattr__(self, "n_samples", self.X.shape[0])
        object.__setattr__(self, "R", _inverse_read_matrix(self.alpha, self.chol))
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
        # kstar^T K^{-1} kstar = |L^{-1} kstar|^2 per column, solved in
        # kstar's own (Fortran-order) buffer once the mean has read it
        w, info = _flapack.dtrtrs(self.chol, kstar, lower=1, overwrite_b=1)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"singular factor: zero on its diagonal at {info - 1}")
        if info < 0:
            raise ValueError(f"invalid argument {-info} to dtrtrs")
        var = self.signal_var - np.einsum("ij,ij->j", w, w)
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
            # L^{-1} k, solved in k's buffer once the mean has read it
            w = _fblas.dtrsv(self.chol, k, lower=1, overwrite_x=1)
        else:
            z = self.R.dot(k)
            mean, w = z[:self.n_outputs], z[self.n_outputs:]
        var = self.signal_var - w.dot(w)
        # round-off can push the variance a hair negative: read 0 there
        return mean, 0.0 if var < 0.0 else math.sqrt(var)


def _inverse_read_matrix(alpha: np.ndarray, chol: np.ndarray) -> np.ndarray | None:
    """``[alpha^T; L^{-1}]`` (m + N, N) in C order, so that one gemv reads a
    row of each; None above ``_INVERSE_READ_MAX``, for the prior, and for a
    singular factor (only a hand-made one: fit's has a positive diagonal),
    which keep the solve's read."""
    N, m = alpha.shape
    if not 1 <= N <= _INVERSE_READ_MAX:
        return None
    # dtrtri reads the lower triangle and keeps the zero upper one
    inv, info = _flapack.dtrtri(chol, lower=1)
    if info != 0:
        return None
    R = np.empty((m + N, N))
    R[:m] = alpha.T
    R[m:] = inv
    return R


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


def fit(X: np.ndarray, Y: np.ndarray, noise_var: float, kernel: SeKernel) -> GpPosterior:
    """Condition independent per-channel GPs on inputs X (N,n) and targets Y (N,m).

    mean_i(x) = kstar(x)^T (K + noise I)^{-1} Y_i and
    var_i(x) = k(x,x) - kstar(x)^T (K + noise I)^{-1} kstar(x).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[0] != Y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
    if not 0.0 < noise_var < math.inf:
        raise ValueError("noise_var must be positive and finite")
    N, n = X.shape
    m = Y.shape[1]
    if N == 0:
        return GpPosterior(
            kernel=kernel,
            X=X.copy(),
            alpha=np.zeros((0, m)),
            chol=np.zeros((0, 0)),
            n_outputs=m,
            n_inputs=n,
        )
    # one N x N buffer: the Gram matrix, in Fortran order, becomes the
    # factor; its diagonal is the kernel's exact value at zero distance
    K = _kernel_block(_read_matrix(X, kernel), X)
    K[np.diag_indices_from(K)] = kernel.sigma_f**2 + noise_var
    try:
        chol = numerics._cholesky_in_place(K)
    except numerics.DecompositionError as exc:
        raise IllConditionedKernelError(
            f"Gram matrix not positive definite (pivot {exc.pivot}); "
            "increase the noise variance"
        ) from exc
    alpha = numerics.solve_with_factor(chol, Y)
    return GpPosterior(
        kernel=kernel,
        X=X.copy(),
        alpha=alpha,
        chol=chol,
        n_outputs=m,
        n_inputs=n,
    )


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
