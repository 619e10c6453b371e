"""Per-channel Gaussian-process regression with squared-exponential kernels.

All output channels share one kernel configuration and one set of training
inputs, so a single Cholesky factorization serves every channel; the
channels differ only through their target columns. Alongside the posterior
mean/std, this module computes the ingredients of the high-probability
uniform error envelope: the posterior-mean Lipschitz constant, the
standard-deviation modulus of continuity, and the log-covering-number
scale factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dtrsv

from . import numerics

__all__ = [
    "SeKernel",
    "GpDataset",
    "GpPosterior",
    "UniformBoundConfig",
    "IllConditionedKernelError",
    "fit",
    "kernel_lipschitz",
    "mean_lipschitz",
    "std_modulus",
    "beta_value",
    "gamma_value",
    "uniform_bound",
]


class IllConditionedKernelError(RuntimeError):
    """Gram matrix factorization failed; try a larger noise variance."""


@dataclass(frozen=True)
class SeKernel:
    """Squared-exponential kernel ``sigma_f**2 * exp(-|x-x'|**2 / (2 l**2))``."""

    sigma_f: float = 1.0
    length_scale: float = 1.0

    def __post_init__(self):
        if self.sigma_f <= 0 or self.length_scale <= 0:
            raise ValueError("sigma_f and length_scale must be positive")

    def __call__(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Gram matrix between row-stacked inputs X (N,n) and Z (P,n)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        sq = (
            np.sum(X * X, axis=1)[:, None]
            - 2.0 * (X @ Z.T)
            + np.sum(Z * Z, axis=1)[None, :]
        )
        np.maximum(sq, 0.0, out=sq)
        return self.sigma_f**2 * np.exp(-0.5 * sq / self.length_scale**2)


@dataclass
class GpDataset:
    """Training inputs X (N,n), targets Y (N,m), and the noise variance."""

    X: np.ndarray
    Y: np.ndarray
    noise_var: float

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        if self.X.shape[0] != self.Y.shape[0]:
            raise ValueError(
                f"X has {self.X.shape[0]} rows but Y has {self.Y.shape[0]}"
            )
        if self.noise_var <= 0:
            raise ValueError("noise_var must be positive")

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]


@dataclass
class GpPosterior:
    """Fitted posterior: Cholesky factor of (K + noise*I), weights, kernel.

    Immutable after :func:`fit`; safe to share across threads. With zero
    training points the posterior reduces to the prior: mean 0, std sigma_f.
    """

    kernel: SeKernel
    X: np.ndarray          # (N, n) training inputs
    alpha: np.ndarray      # (N, m) weights (K + noise I)^{-1} Y
    chol: np.ndarray       # (N, N) lower Cholesky factor of K + noise I, Fortran order
    noise_var: float
    n_outputs: int
    n_inputs: int

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and std at a single point x, each shape (m,)."""
        mean, std = self.predict_batch(np.atleast_2d(np.asarray(x, dtype=float)))
        return mean[0], std[0]

    def predict_batch(self, Xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean (P, m) and per-channel std (P, m) at query rows Xq.

        The channels share the kernel and inputs so the std column is
        identical across channels; it is broadcast to (P, m) to keep the
        per-channel contract explicit.
        """
        Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
        P = Xq.shape[0]
        if self.n_samples == 0:
            mean = np.zeros((P, self.n_outputs))
            std = np.full((P, self.n_outputs), self.kernel.sigma_f)
            return mean, std
        if Xq.shape[1] != self.n_inputs:
            raise numerics.DimensionError(
                f"query dim {Xq.shape[1]} != training dim {self.n_inputs}"
            )
        kstar = self.kernel(self.X, Xq)            # (N, P)
        mean = kstar.T @ self.alpha                # (P, m)
        # kstar^T K^{-1} kstar = |L^{-1} kstar|^2 per column
        w = solve_triangular(self.chol, kstar, lower=True, check_finite=False)
        var = self.kernel.sigma_f**2 - np.einsum("ij,ij->j", w, w)
        # round-off can push the variance a hair negative; clamp before sqrt
        np.maximum(var, 0.0, out=var)
        std = np.sqrt(var)
        return mean, np.repeat(std[:, None], self.n_outputs, axis=1)

    def mean_at(self, x: np.ndarray) -> np.ndarray:
        """Posterior mean at a single point, shape (m,). Hot-loop variant."""
        if self.n_samples == 0:
            return np.zeros(self.n_outputs)
        d = self.X - x
        sq = np.einsum("ij,ij->i", d, d)
        k = self.kernel.sigma_f**2 * np.exp(
            -0.5 * sq / self.kernel.length_scale**2
        )
        return k @ self.alpha

    def point_eval(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """Mean (m,) and the shared per-channel std at one point. Hot-loop variant."""
        if self.n_samples == 0:
            return np.zeros(self.n_outputs), self.kernel.sigma_f
        d = self.X - x
        sq = np.einsum("ij,ij->i", d, d)
        k = self.kernel.sigma_f**2 * np.exp(
            -0.5 * sq / self.kernel.length_scale**2
        )
        w = dtrsv(self.chol, k, lower=1)           # L^{-1} k
        var = self.kernel.sigma_f**2 - float(w @ w)
        return k @ self.alpha, math.sqrt(max(var, 0.0))

    def inv_spectral_norm(self, iterations: int = 20, tol: float = 1e-10) -> float:
        """Spectral norm of (K + noise I)^{-1} via inverse power iteration.

        Iterates on the stored Cholesky factor; equals 1/lambda_min of the
        regularized Gram matrix.
        """
        N = self.n_samples
        if N == 0:
            return 0.0
        v = np.ones(N) + 1e-3 * np.arange(N)
        v /= np.linalg.norm(v)
        mu = 0.0
        for _ in range(iterations):
            w = numerics.solve_with_factor(self.chol, v)
            mu_new = float(np.linalg.norm(w))
            v = w / mu_new
            if abs(mu_new - mu) <= tol * mu_new:
                mu = mu_new
                break
            mu = mu_new
        return mu


@dataclass(frozen=True)
class UniformBoundConfig:
    """Parameters of the uniform error envelope over the box |x|_inf <= kappa.

    ``xi`` is the discretization radius, ``delta`` the failure probability,
    ``lip_f`` a prior bound on the inf-norm of the uncertainty Jacobian.
    ``include_gamma`` switches on the discretization-slack term, off by
    default (it can be made arbitrarily small and is ignored in the
    reproduction scenarios).
    """

    kappa: float = 15.0
    xi: float = 0.001
    delta: float = 0.01
    lip_f: float = 0.0
    include_gamma: bool = False

    def __post_init__(self):
        if self.kappa <= 0 or self.xi <= 0:
            raise ValueError("kappa and xi must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.lip_f < 0:
            raise ValueError("lip_f must be nonnegative")


def fit(dataset: GpDataset, kernel: SeKernel) -> GpPosterior:
    """Condition independent per-channel GPs on the dataset.

    mean_i(x) = kstar(x)^T (K + noise I)^{-1} Y_i and
    var_i(x) = k(x,x) - kstar(x)^T (K + noise I)^{-1} kstar(x).
    """
    N = dataset.n_samples
    m = dataset.Y.shape[1]
    n = dataset.X.shape[1]
    if N == 0:
        return GpPosterior(
            kernel=kernel,
            X=dataset.X.copy(),
            alpha=np.zeros((0, m)),
            chol=np.zeros((0, 0)),
            noise_var=dataset.noise_var,
            n_outputs=m,
            n_inputs=n,
        )
    K = kernel(dataset.X, dataset.X)
    K[np.diag_indices_from(K)] += dataset.noise_var
    try:
        chol = numerics.cholesky_factor(K)
    except numerics.DecompositionError as exc:
        raise IllConditionedKernelError(
            f"Gram matrix not positive definite (pivot {exc.pivot}); "
            "increase the noise variance"
        ) from exc
    alpha = numerics.solve_with_factor(chol, dataset.Y)
    return GpPosterior(
        kernel=kernel,
        X=dataset.X.copy(),
        alpha=alpha,
        chol=chol,
        noise_var=dataset.noise_var,
        n_outputs=m,
        n_inputs=n,
    )


def kernel_lipschitz(kernel: SeKernel, kappa: float, n: int) -> float:
    """Max of |grad_x k(x, x')| over the box |x|_inf <= kappa in R^n.

    The gradient norm (r/l^2) sigma_f^2 exp(-r^2/2l^2) peaks at r = l with
    value sigma_f^2/(l sqrt(e)); if the box diameter 2 kappa sqrt(n) is
    smaller than l the boundary value applies.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    l = kernel.length_scale
    diameter = 2.0 * kappa * math.sqrt(n)
    r = min(l, diameter)
    return (r / l**2) * kernel.sigma_f**2 * math.exp(-0.5 * r**2 / l**2)


def mean_lipschitz(posterior: GpPosterior, lip_k: float) -> tuple[np.ndarray, float]:
    """Per-channel mean Lipschitz constants ``lip_k * sqrt(N) * |alpha_i|``.

    Returns (per_channel, max). Zero for the prior (N = 0) or zero targets.
    """
    N = posterior.n_samples
    if N == 0:
        per = np.zeros(posterior.n_outputs)
        return per, 0.0
    per = lip_k * math.sqrt(N) * np.linalg.norm(posterior.alpha, axis=0)
    return per, float(np.max(per))


def std_modulus(posterior: GpPosterior, lip_k: float, xi: float) -> tuple[np.ndarray, float]:
    """Modulus of continuity of the posterior std over distance xi.

    omega_i(xi) = sqrt(2 xi lip_k (1 + N |(K + noise I)^{-1}| max_k k)),
    with max_k k = sigma_f^2 and the spectral norm from inverse power
    iteration on the Cholesky factor. Identical across channels here since
    the kernel and inputs are shared.
    """
    if xi < 0:
        raise ValueError("xi must be nonnegative")
    N = posterior.n_samples
    if N == 0:
        val = math.sqrt(2.0 * xi * lip_k)
        per = np.full(posterior.n_outputs, val)
        return per, val
    inv_norm = posterior.inv_spectral_norm()
    val = math.sqrt(
        2.0 * xi * lip_k * (1.0 + N * inv_norm * posterior.kernel.sigma_f**2)
    )
    per = np.full(posterior.n_outputs, val)
    return per, val


def beta_value(cfg: UniformBoundConfig, n_outputs: int, n_inputs: int) -> float:
    """Scale factor 2 log(m M / delta) with M the grid covering bound."""
    log_m_cover = numerics.log_covering_number_box(cfg.kappa, n_inputs, cfg.xi)
    return 2.0 * (math.log(n_outputs) + log_m_cover - math.log(cfg.delta))


def gamma_value(posterior: GpPosterior, cfg: UniformBoundConfig) -> float:
    """Discretization slack (lip_f/n + lip_mean) xi + sqrt(beta) omega(xi)."""
    lip_k = kernel_lipschitz(posterior.kernel, cfg.kappa, posterior.n_inputs)
    _, lip_mu = mean_lipschitz(posterior, lip_k)
    _, omega = std_modulus(posterior, lip_k, cfg.xi)
    beta = beta_value(cfg, posterior.n_outputs, posterior.n_inputs)
    return (cfg.lip_f / posterior.n_inputs + lip_mu) * cfg.xi + math.sqrt(beta) * omega


def uniform_bound(
    posterior: GpPosterior, cfg: UniformBoundConfig, x: np.ndarray
) -> float:
    """Pointwise error envelope ``sqrt(beta) |std(x)|_inf + gamma``.

    The envelope holds uniformly over the box with probability 1 - delta,
    so pointwise evaluation is sound. gamma is included only when
    ``cfg.include_gamma`` is set.
    """
    beta = beta_value(cfg, posterior.n_outputs, posterior.n_inputs)
    _, std = posterior.predict(x)
    e = math.sqrt(beta) * float(np.max(std))
    if cfg.include_gamma:
        e += gamma_value(posterior, cfg)
    return e


def uniform_bound_grid_max(
    posterior: GpPosterior,
    cfg: UniformBoundConfig,
    kappa_op: float = 5.0,
    grid_points: int = 21,
) -> float:
    """Max of the envelope over a uniform grid on the operational box.

    Serves the adaptive-bandwidth law, which consumes one conservative
    scalar that stays constant between model updates.
    """
    beta = beta_value(cfg, posterior.n_outputs, posterior.n_inputs)
    if posterior.n_samples == 0:
        e = math.sqrt(beta) * posterior.kernel.sigma_f
    else:
        axis = np.linspace(-kappa_op, kappa_op, grid_points)
        grids = np.meshgrid(*([axis] * posterior.n_inputs), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        _, std = posterior.predict_batch(pts)
        e = math.sqrt(beta) * float(np.max(std))
    if cfg.include_gamma:
        e += gamma_value(posterior, cfg)
    return e
