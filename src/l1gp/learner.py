"""Slow-rate Bayesian learner feeding the controller piecewise-static models.

The learner buffers (t, x, u) samples at its own rate, reconstructs
uncertainty targets from the sampled trajectory by Savitzky-Golay
differentiation, refits the GP once enough new samples have arrived, and
publishes an immutable model ``{f_hat, e_f_hat}``. The published model is
constant between publishes; the controller may read it without
synchronization (swap-on-publish).

Target reconstruction uses a centered 5-sample derivative window at the
learner rate, so a sample's target becomes available two samples after it
is collected; samples whose window never completes (the first two) are
simply never used. Derivative-estimation error is folded into the
measurement noise, together with an explicit Gaussian noise injection
drawn from the engine's seeded generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import gp, numerics

__all__ = [
    "LearnerConfig",
    "LearnerModel",
    "MeasurementBuffer",
    "reconstruct_target",
    "BayesianLearner",
]

GATINGS = ("always", "improvement")
_WINDOW = 5
_HALF = _WINDOW // 2
_POLY_ORDER = 2


@dataclass
class LearnerConfig:
    """Sampling period, refit cadence, gating mode, and bound parameters."""

    T_data: float = 1.0
    N_update: int = 10
    gating: str = "always"
    gamma_tol: float = 0.9
    max_points: int = 512
    sigma_n: float = 0.01
    kernel: gp.SeKernel = field(default_factory=gp.SeKernel)
    bound: gp.UniformBoundConfig = field(default_factory=gp.UniformBoundConfig)
    kappa_op: float = 5.0
    grid_points: int = 21

    def __post_init__(self):
        if self.T_data <= 0:
            raise ValueError("T_data must be positive")
        if self.N_update < 1:
            raise ValueError("N_update must be at least 1")
        if self.gating not in GATINGS:
            raise ValueError(f"gating must be one of {GATINGS}")
        if self.gating == "improvement" and not 0.0 < self.gamma_tol < 1.0:
            raise ValueError("gamma_tol must be in (0, 1) for improvement gating")
        if self.sigma_n <= 0:
            raise ValueError("sigma_n must be positive")


@dataclass(frozen=True)
class LearnerModel:
    """Published model: mean function and error envelope, constant until replaced.

    Both ``f_hat`` and the envelope are piecewise static: the *functions*
    change only at publish instants. ``evaluate(x)`` returns the pair
    (mean, pointwise envelope) the controller consumes; ``e_f_hat`` is the
    conservative domain-wide (grid-max) scalar used for gating and
    reporting.
    """

    update_index: int
    posterior: gp.GpPosterior
    sqrt_beta: float
    gamma: float
    e_f_hat: float
    published_at: float
    n_data: int = 0

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """Learned mean (m,) and the pointwise error envelope at x."""
        mean, sigma = self.posterior.point_eval(x)
        return mean, self.sqrt_beta * sigma + self.gamma

    def f_hat(self, x: np.ndarray) -> np.ndarray:
        return self.posterior.mean_at(x)

    @classmethod
    def from_posterior(
        cls,
        posterior: gp.GpPosterior,
        cfg: LearnerConfig,
        update_index: int,
        published_at: float,
    ) -> "LearnerModel":
        beta = gp.beta_value(cfg.bound, posterior.n_outputs, posterior.n_inputs)
        gamma = (
            gp.gamma_value(posterior, cfg.bound) if cfg.bound.include_gamma else 0.0
        )
        e_max = gp.uniform_bound_grid_max(
            posterior, cfg.bound, cfg.kappa_op, cfg.grid_points
        )
        return cls(
            update_index=update_index,
            posterior=posterior,
            sqrt_beta=math.sqrt(beta),
            gamma=gamma,
            e_f_hat=e_max,
            published_at=published_at,
            n_data=posterior.n_samples,
        )

    @classmethod
    def prior(cls, cfg: LearnerConfig, n_outputs: int, n_inputs: int) -> "LearnerModel":
        """Initial model: zero mean, bound from the GP prior alone."""
        empty = gp.fit(
            gp.GpDataset(
                np.zeros((0, n_inputs)), np.zeros((0, n_outputs)), cfg.sigma_n**2
            ),
            cfg.kernel,
        )
        return cls.from_posterior(empty, cfg, update_index=0, published_at=0.0)


class MeasurementBuffer:
    """Raw (t, x, u) records at the learner rate plus reconstructed targets.

    Timestamps must arrive strictly increasing and spaced by T_data.
    Reconstruction is attempted lazily: a sample's target is computed once
    its centered derivative window is complete, then frozen.
    """

    def __init__(self, T_data: float, capacity: int):
        self.T_data = T_data
        self.capacity = capacity
        self.times: list[float] = []
        self.X: list[np.ndarray] = []
        self.U: list[np.ndarray] = []
        self.target_X: list[np.ndarray] = []
        self.target_Y: list[np.ndarray] = []
        self._next_reconstruct = _HALF  # first index with a full left half-window

    def push(self, t: float, x: np.ndarray, u: np.ndarray) -> None:
        if self.times:
            dt = t - self.times[-1]
            if abs(dt - self.T_data) > 1e-9:
                raise ValueError(
                    f"sample at t={t} violates the T_data={self.T_data} spacing"
                )
        self.times.append(t)
        self.X.append(np.asarray(x, dtype=float).copy())
        self.U.append(np.asarray(u, dtype=float).copy())

    def reconstruct_ready(
        self,
        A_m: np.ndarray,
        B_m_pinv: np.ndarray,
        rng: np.random.Generator,
        sigma_n: float,
    ) -> int:
        """Compute targets for every sample whose window is now complete."""
        made = 0
        while self._next_reconstruct + _HALF < len(self.times):
            j = self._next_reconstruct
            sl = slice(j - _HALF, j + _HALF + 1)
            y = reconstruct_target(
                np.asarray(self.times[sl]),
                np.asarray(self.X[sl]),
                self.X[j],
                self.U[j],
                A_m,
                B_m_pinv,
            )
            y = y + rng.normal(0.0, sigma_n, size=y.shape)
            self.target_X.append(self.X[j])
            self.target_Y.append(y)
            if len(self.target_X) > self.capacity:
                self.target_X.pop(0)
                self.target_Y.pop(0)
            self._next_reconstruct += 1
            made += 1
        return made

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def n_targets(self) -> int:
        return len(self.target_X)


def reconstruct_target(
    window_times: np.ndarray,
    window_states: np.ndarray,
    x_j: np.ndarray,
    u_j: np.ndarray,
    A_m: np.ndarray,
    B_m_pinv: np.ndarray,
) -> np.ndarray:
    """Uncertainty target ``pinv(B_m) (xdot_j - A_m x_j) - u_j``.

    ``xdot_j`` is the Savitzky-Golay derivative at the center of the
    supplied window. The window must be centered on sample j.
    """
    derivs = numerics.estimate_derivative(
        window_times, window_states, window=_WINDOW, poly_order=_POLY_ORDER
    )
    xdot_j = derivs[len(window_times) // 2]
    return B_m_pinv @ (xdot_j - A_m @ x_j) - u_j


class BayesianLearner:
    """Owns the buffer, refit schedule, and the currently published model."""

    def __init__(
        self,
        cfg: LearnerConfig,
        A_m: np.ndarray,
        B_m: np.ndarray,
        rng: np.random.Generator,
    ):
        self.cfg = cfg
        self.A_m = np.asarray(A_m, dtype=float)
        B_m = np.asarray(B_m, dtype=float)
        self.B_m_pinv = numerics.pseudo_inverse(B_m)
        self.rng = rng
        n = self.A_m.shape[0]
        m = B_m.shape[1]
        self.buffer = MeasurementBuffer(cfg.T_data, cfg.max_points)
        self.model = LearnerModel.prior(cfg, m, n)
        self._new_since_fit = 0

    def push(self, t: float, x: np.ndarray, u: np.ndarray) -> None:
        self.buffer.push(t, x, u)
        self._new_since_fit += 1

    def maybe_update(self, t: float) -> Optional[dict]:
        """Refit and possibly publish; returns an event dict on any outcome.

        Returns None while fewer than N_update new samples have arrived.
        On a successful fit the new model is published unconditionally
        under 'always' gating; under 'improvement' gating only when the
        candidate bound beats ``gamma_tol`` times the current one. A fit
        failure retains the current model and reports a warning event.
        """
        if self._new_since_fit < self.cfg.N_update:
            return None
        self._new_since_fit = 0
        self.buffer.reconstruct_ready(
            self.A_m, self.B_m_pinv, self.rng, self.cfg.sigma_n
        )
        if self.buffer.n_targets == 0:
            return {"t": t, "kind": "learner_skipped", "reason": "no targets yet"}
        dataset = gp.GpDataset(
            np.asarray(self.buffer.target_X),
            np.asarray(self.buffer.target_Y),
            self.cfg.sigma_n**2,
        )
        try:
            posterior = gp.fit(dataset, self.cfg.kernel)
        except gp.IllConditionedKernelError as exc:
            return {"t": t, "kind": "learner_fit_failed", "reason": str(exc)}
        candidate = LearnerModel.from_posterior(
            posterior, self.cfg, self.model.update_index + 1, t
        )
        if self.cfg.gating == "improvement":
            if candidate.e_f_hat >= self.cfg.gamma_tol * self.model.e_f_hat:
                return {
                    "t": t,
                    "kind": "learner_rejected",
                    "candidate_e_f_hat": candidate.e_f_hat,
                    "e_f_hat": self.model.e_f_hat,
                    "n_data": dataset.n_samples,
                }
        self.model = candidate
        return {
            "t": t,
            "kind": "learner_published",
            "update_index": self.model.update_index,
            "e_f_hat": candidate.e_f_hat,
            "n_data": dataset.n_samples,
        }
