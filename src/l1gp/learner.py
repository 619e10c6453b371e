"""Slow-rate Bayesian learner feeding the controller piecewise-static models.

The learner's target is the adaptive law's own estimate of the
uncertainty, ``f_L + sigma_hat``: the piecewise-constant law picks
``sigma_hat`` so that the predictor meets the plant at the next tick, so
the sum tracks f over the last tick, with an error of order ``T_s``
(Hovakimyan & Cao, *L1 Adaptive Control Theory*, SIAM 2010, ch. 3). At
each of its samples the engine passes the state at the start of the step
that ends on the sample time and the controller's ``f_L`` and
``sigma_hat`` after the last tick; each sample becomes its target at once,
with no window, derivative or plant model. The estimate's own error is
folded into the measurement noise, together with an explicit Gaussian
noise injection drawn, in sample order, from the run's seeded generator,
which the learner alone holds: it is the loop's only random draw. Once
N_update new samples have arrived the GP is refit on the targets made so
far, and every successful refit publishes the immutable model it gives:
the posterior, whose mean is the learned ``f_hat``, held by the learner
as :attr:`BayesianLearner.posterior`. The loop reads the mean and the
envelope through :meth:`BayesianLearner.evaluate`. The publish event
reports the new model's envelope at the state the loop's next tick reads
it at, which the engine passes in. The published model is constant
between publishes: a publish replaces it whole, between two engine steps.
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
    "MeasurementBuffer",
    "BayesianLearner",
]


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


class MeasurementBuffer:
    """The learner's targets, made on arrival, in sample order.

    Each sample is a state and the adaptive law's estimate there;
    :meth:`reconstruct_ready` makes its target at once, noise included.
    The states and targets are FIFOs of at most ``capacity`` entries.
    """

    def __init__(self, capacity: int, rng: np.random.Generator, sigma_n: float):
        self.rng = rng
        self.sigma_n = sigma_n
        self.target_X: deque = deque(maxlen=capacity)  # states, as given
        self.target_Y: deque[np.ndarray] = deque(maxlen=capacity)

    def reconstruct_ready(self, x, f_L, sigma_hat) -> None:
        """Append the target of state ``x``: ``f_L + sigma_hat`` plus one
        noise draw per axis."""
        y = np.add(f_L, sigma_hat)
        self.target_X.append(x)
        self.target_Y.append(y + self.rng.normal(0.0, self.sigma_n, size=y.shape))


class BayesianLearner:
    """Owns the buffer, the refit schedule and the published model.

    The published model is ``posterior``, a read-only
    :class:`~l1gp.gp.GpPosterior`, and ``update_index`` counts the
    publishes that made it: 0 for the prior, whose mean is zero and whose
    envelope is the GP prior's alone. Mean and envelope are piecewise
    static: the *functions* change only at publish instants.
    ``sqrt_beta`` depends only on the bound config and the dimensions, so
    it is computed once, for every model of the learner.
    """

    def __init__(self, cfg: LearnerConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.buffer = MeasurementBuffer(cfg.max_points, rng, cfg.sigma_n)
        # f and x have three axes
        self.posterior = gp.fit(np.zeros((0, 3)), np.zeros((0, 3)), cfg.sigma_n**2,
                                cfg.kernel)
        self.sqrt_beta = math.sqrt(gp.beta_value(cfg.bound, 3, 3))
        self.update_index = 0
        self._new_since_fit = 0

    def evaluate(self, x) -> tuple[list, float]:
        """The published mean (three Python floats) and the pointwise error
        envelope ``sqrt_beta * std`` at x: what the loop's tick reads."""
        mean, sigma = self.posterior.point_eval(x)
        return mean.tolist(), self.sqrt_beta * sigma

    def push(self, x, f_L, sigma_hat) -> None:
        """Take one sample: the state and the adaptive law's ``f_L`` and
        ``sigma_hat`` there."""
        self.buffer.reconstruct_ready(x, f_L, sigma_hat)
        self._new_since_fit += 1

    def maybe_update(self, t: float, x) -> Optional[dict]:
        """Refit and publish; returns an event dict on any outcome.

        Returns None while fewer than N_update new samples have arrived.
        A successful fit publishes its model, and its event reports the
        new envelope at ``x``, the state the loop's next tick reads. A fit
        failure retains the current model and reports a warning event.
        """
        if self._new_since_fit < self.cfg.N_update:
            return None
        self._new_since_fit = 0
        try:
            posterior = gp.fit(
                np.asarray(self.buffer.target_X),
                np.asarray(self.buffer.target_Y),
                self.cfg.sigma_n**2,
                self.cfg.kernel,
                prev=self.posterior,
            )
        except gp.IllConditionedKernelError as exc:
            return {"t": t, "kind": "learner_fit_failed", "reason": str(exc)}
        self.posterior = posterior
        self.update_index += 1
        return {
            "t": t,
            "kind": "learner_published",
            "update_index": self.update_index,
            "e_f_hat": self.evaluate(x)[1],
            "n_data": posterior.n_samples,
        }
