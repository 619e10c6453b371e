"""Slow-rate Bayesian learner feeding the controller piecewise-static models.

The learner takes (t, x, u) samples at its own rate and turns each into an
uncertainty target as soon as it can: a target's derivative is the slope
at the centre of a 5-sample window, the closed form of the Savitzky-Golay
window-5, order-2 filter, so it is made when the sample two steps later
arrives, and the first two samples, whose window never completes, are
never used. Derivative-estimation error is folded into the measurement
noise, together with an explicit Gaussian noise injection drawn, in sample
order, from the engine's seeded generator. Once N_update new samples have
arrived the GP is refit on the targets made so far, and every successful
refit publishes the immutable model it gives: the posterior, whose mean is
the learned ``f_hat``. The publish event reports the new model's envelope
at the sample just pushed, the state the loop's next tick reads it at. The
published model is constant between publishes: a publish replaces it
whole, between two engine steps.
"""

from __future__ import annotations

import math
import sys
from collections import deque
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

_WINDOW = 5
_HALF = _WINDOW // 2


@dataclass(frozen=True)
class LearnerConfig:
    """Sampling period, refit cadence, data cap, noise, and bound parameters."""

    T_data: float = 1.0
    N_update: int = 10
    max_points: int = 512
    sigma_n: float = 0.01
    kernel: gp.SeKernel = field(default_factory=gp.SeKernel)
    bound: gp.UniformBoundConfig = field(default_factory=gp.UniformBoundConfig)
    kappa_op: float = 5.0

    def __post_init__(self):
        for name in ("N_update", "max_points"):
            object.__setattr__(self, name, numerics.whole(getattr(self, name), name))
        if not 0.0 < self.T_data < math.inf:
            raise ValueError("T_data must be positive and finite")
        if self.N_update < 1:
            raise ValueError("N_update must be at least 1")
        if not 0.0 < self.sigma_n < math.inf:
            raise ValueError("sigma_n must be positive and finite")
        if self.max_points < 1:
            raise ValueError("max_points must be at least 1")
        # the data FIFO's maxlen is a C ssize_t
        if self.max_points > sys.maxsize:
            raise ValueError(f"max_points must be at most {sys.maxsize}")
        # the envelope holds only on the box |x|_inf <= bound.kappa
        if not 0.0 < self.kappa_op <= self.bound.kappa:
            raise ValueError("kappa_op must be in (0, bound.kappa]")


@dataclass(frozen=True)
class LearnerModel:
    """Published model: mean function and error envelope, constant until replaced.

    The posterior mean and the envelope are piecewise static: the
    *functions* change only at publish instants. ``evaluate(x)`` returns
    the pair (mean, pointwise envelope ``sqrt_beta * std(x)``) the
    controller consumes. ``sqrt_beta`` depends only on the bound config and
    the dimensions, so every model of one learner shares it.
    """

    update_index: int
    posterior: gp.GpPosterior
    sqrt_beta: float

    def evaluate(self, x) -> tuple[list, float]:
        """Learned mean (m Python floats) and the pointwise error envelope at x."""
        mean, sigma = self.posterior.point_eval(x)
        return mean.tolist(), self.sqrt_beta * sigma

    @classmethod
    def prior(cls, cfg: LearnerConfig, n_outputs: int, n_inputs: int) -> "LearnerModel":
        """Initial model: zero mean, bound from the GP prior alone."""
        empty = gp.fit(
            np.zeros((0, n_inputs)), np.zeros((0, n_outputs)), cfg.sigma_n**2, cfg.kernel
        )
        sqrt_beta = math.sqrt(gp.beta_value(cfg.bound, n_outputs, n_inputs))
        return cls(update_index=0, posterior=empty, sqrt_beta=sqrt_beta)


class MeasurementBuffer:
    """The learner's last derivative window and the targets made from it.

    Timestamps must arrive strictly increasing and spaced by T_data. The
    buffer keeps only the newest 5 raw (t, x, u) records: each push that
    completes a centered window makes the target of its center sample at
    once, noise included, so targets exist on arrival and in sample order.
    The targets are a FIFO of at most ``capacity`` entries. ``a_m`` and
    ``b_inv`` are the diagonals of ``A_m`` and ``B_m^{-1}``.
    """

    def __init__(
        self,
        T_data: float,
        capacity: int,
        a_m: tuple,
        b_inv: tuple,
        rng: np.random.Generator,
        sigma_n: float,
    ):
        self.T_data = T_data
        self.a_m = a_m
        self.b_inv = b_inv
        self.rng = rng
        self.sigma_n = sigma_n
        self.window: deque[tuple] = deque(maxlen=_WINDOW)  # (t, x, u) records
        self.target_X: deque[np.ndarray] = deque(maxlen=capacity)
        self.target_Y: deque[np.ndarray] = deque(maxlen=capacity)

    def push(self, t: float, x: np.ndarray, u: np.ndarray) -> None:
        if self.window and abs(t - self.window[-1][0] - self.T_data) > 1e-9:
            raise ValueError(
                f"sample at t={t} violates the T_data={self.T_data} spacing"
            )
        self.window.append(
            (t, np.asarray(x, dtype=float).copy(), np.asarray(u, dtype=float).copy())
        )
        if len(self.window) == _WINDOW:
            self.reconstruct_ready()

    def reconstruct_ready(self) -> None:
        """Make the noisy target of the full window's center sample."""
        times, states, inputs = zip(*self.window)
        y = reconstruct_target(
            np.asarray(times),
            np.asarray(states),
            states[_HALF],
            inputs[_HALF],
            self.a_m,
            self.b_inv,
        )
        y = y + self.rng.normal(0.0, self.sigma_n, size=y.shape)
        self.target_X.append(states[_HALF])
        self.target_Y.append(y)

    @property
    def n_targets(self) -> int:
        return len(self.target_X)


def reconstruct_target(
    window_times: np.ndarray,
    window_states: np.ndarray,
    x_j: np.ndarray,
    u_j: np.ndarray,
    a_m: tuple,
    b_inv: tuple,
) -> np.ndarray:
    """Uncertainty target ``B_m^{-1} (xdot_j - A_m x_j) - u_j``.

    ``xdot_j`` is :func:`numerics.estimate_derivative` of the 5-sample
    window, which must be centered on sample j. ``A_m`` and
    ``B_m^{-1}`` are diagonal, given as their diagonals ``a_m`` and
    ``b_inv``; each product is ``0.0 + d_i v_i``, bitwise the matrix form.
    """
    xdot_j = numerics.estimate_derivative(window_times, window_states)
    return (0.0 + np.multiply(b_inv, xdot_j - (0.0 + np.multiply(a_m, x_j)))) - u_j


class BayesianLearner:
    """Owns the buffer, refit schedule, and the currently published model.

    ``a_m`` and ``b_inv`` are the diagonals of ``A_m`` and ``B_m^{-1}``,
    the float 3-tuples :class:`controller.ControllerConfig` holds.
    """

    def __init__(
        self,
        cfg: LearnerConfig,
        a_m: tuple,
        b_inv: tuple,
        rng: np.random.Generator,
    ):
        self.cfg = cfg
        self.buffer = MeasurementBuffer(
            cfg.T_data, cfg.max_points, a_m, b_inv, rng, cfg.sigma_n
        )
        self.model = LearnerModel.prior(cfg, len(b_inv), len(a_m))
        self._new_since_fit = 0

    def push(self, t: float, x: np.ndarray, u: np.ndarray) -> None:
        self.buffer.push(t, x, u)
        self._new_since_fit += 1

    def maybe_update(self, t: float) -> Optional[dict]:
        """Refit and publish; returns an event dict on any outcome.

        Returns None while fewer than N_update new samples have arrived.
        A successful fit publishes its model. A fit failure retains the
        current model and reports a warning event.
        """
        if self._new_since_fit < self.cfg.N_update:
            return None
        self._new_since_fit = 0
        if self.buffer.n_targets == 0:
            return {"t": t, "kind": "learner_skipped", "reason": "no targets yet"}
        try:
            posterior = gp.fit(
                np.asarray(self.buffer.target_X),
                np.asarray(self.buffer.target_Y),
                self.cfg.sigma_n**2,
                self.cfg.kernel,
            )
        except gp.IllConditionedKernelError as exc:
            return {"t": t, "kind": "learner_fit_failed", "reason": str(exc)}
        self.model = LearnerModel(
            self.model.update_index + 1, posterior, self.model.sqrt_beta
        )
        return {
            "t": t,
            "kind": "learner_published",
            "update_index": self.model.update_index,
            # the envelope the next tick reads: at the sample just pushed
            "e_f_hat": self.model.evaluate(self.buffer.window[-1][1])[1],
            "n_data": posterior.n_samples,
        }
