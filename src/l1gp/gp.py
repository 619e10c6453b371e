"""Per-channel Gaussian-process regression with squared-exponential kernels.

All output channels share one kernel configuration and one set of training
inputs, so a single Cholesky factorization serves every channel; the
channels differ only through their target columns. The high-probability
uniform error envelope is ``sqrt(beta) * std(x)``: :func:`beta_value`
gives the scale factor from the covering number of the box, and
:func:`uniform_bound_grid_max` reads the envelope's maximum over a grid.

The kernel has one formula, its expanded form, precomputed once per
posterior: ``k(X_i, x) = exp(Xa_i . (x, 1, |x|^2))`` with the read matrix
``Xa = [X / l^2, log sigma_f^2 - |X_i|^2 / (2 l^2), -1 / (2 l^2)]``. A
read is then one matrix product and one ``exp``. The controller reads the
posterior's mean and std at every 1 kHz tick
(:meth:`GpPosterior.point_eval`); a recorded row that no tick follows
reads the mean alone (:meth:`GpPosterior.mean_at`), and the two share one
kernel-vector expression, so their means are the same bits. A query of
the wrong length raises :class:`numerics.DimensionError`. The
publish-rate reads (:meth:`GpPosterior.predict_batch`, the envelope's
grid max) take whole blocks of query rows ``(x, 1, |x|^2)`` at once, and
:func:`fit` builds the Gram matrix the same way from the training rows,
with its diagonal set to the exact ``sigma_f^2 + sigma_n^2``. The
expanded form rounds differently from direct differences: its error in
the exponent is about ``eps (|X_i|^2 + |x|^2) / (2 l^2)``, at most about
1.5e-13 on the box ``|x|_inf <= 15`` at unit length scale. Each product
is written to a Fortran-order buffer, the layout LAPACK works in place
on: a refit holds one N x N array, which becomes the posterior's factor,
and a batch read solves against its block in that block's own buffer.
The solves call BLAS ``dtrsv`` (a tick) and LAPACK ``dtrtrs`` (a batch)
straight from scipy's compiled wrapper modules, which
:func:`numerics._scipy_wrapper` loads without the ``scipy.linalg``
package; they are the function objects ``scipy.linalg.blas`` and
``scipy.linalg.lapack`` export, so the bits are theirs.
"""

from __future__ import annotations

import itertools
import math
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

# publish-grid rows per predict_batch call: bounds the (N, rows) cross-kernel
_GRID_BLOCK = 512

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


@dataclass(frozen=True)
class GpPosterior:
    """Fitted posterior: Cholesky factor of (K + noise*I), weights, kernel.

    Frozen, so what is derived from ``kernel`` and ``X`` when the posterior
    is built (the read matrix ``Xa`` of the module docstring,
    ``signal_var = sigma_f**2`` and ``n_samples``) cannot go stale against
    them. With zero training points the posterior reduces to the prior:
    mean 0, std sigma_f.
    """

    kernel: SeKernel
    X: np.ndarray          # (N, n) training inputs
    alpha: np.ndarray      # (N, m) weights (K + noise I)^{-1} Y
    chol: np.ndarray       # (N, N) lower Cholesky factor of K + noise I, Fortran order
    n_outputs: int
    n_inputs: int
    Xa: np.ndarray = field(init=False, repr=False)  # (N, n + 2) read matrix
    signal_var: float = field(init=False, repr=False)  # sigma_f**2, the prior variance
    n_samples: int = field(init=False, repr=False)  # N

    def __post_init__(self):
        object.__setattr__(self, "Xa", _read_matrix(self.X, self.kernel))
        object.__setattr__(self, "signal_var", self.kernel.sigma_f**2)
        object.__setattr__(self, "n_samples", self.X.shape[0])

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
            return np.zeros(self.n_outputs)
        return self._kernel_vector(x).dot(self.alpha)

    def point_eval(self, x) -> tuple[np.ndarray, float]:
        """Mean (m,) and the shared per-channel std at one point. Hot-loop variant.

        ``x`` is any length-n sequence of floats (a tuple or an array). The
        mean is the expression :meth:`mean_at` evaluates, so the two read
        the same bits.
        """
        if len(x) != self.n_inputs:
            raise self._dimension_error(len(x))
        if self.n_samples == 0:
            return np.zeros(self.n_outputs), self.kernel.sigma_f
        k = self._kernel_vector(x)
        w = _fblas.dtrsv(self.chol, k, lower=1)    # L^{-1} k
        var = self.signal_var - w.dot(w)
        # round-off can push the variance a hair negative: read 0 there
        return k.dot(self.alpha), 0.0 if var < 0.0 else math.sqrt(var)


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

    The model's ``e_f_hat``: it sets the bandwidth at t = 0 and is reported
    in the publish event; the bandwidth law reads the pointwise envelope
    instead.

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
