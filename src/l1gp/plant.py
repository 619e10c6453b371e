"""Quadrotor angular-rate plant with baseline feedback and scheduled uncertainties.

The physical plant is the body-frame rate equation
``J xdot = -(x cross J x) + f(x) + u_total`` with a baseline input
``u_bl = J A_m x + (x cross J x)`` that injects the desired linear
dynamics, so the partially closed loop equals ``A_m x + B_m (u + f(x))``
with ``B_m = J^{-1}``. The engine integrates the physical form; the
cancellation identity is exercised by tests rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "UncertaintySchedule",
    "PlantConfig",
    "DelayLine",
    "baseline_control",
    "plant_derivative",
    "poly_quadratic_uncertainty",
    "switched_sinusoid_uncertainty",
]

UNCERTAINTY_KINDS = ("zero", "quadratic", "sine_switch")


def poly_quadratic_uncertainty(x: np.ndarray) -> np.ndarray:
    """Quadratic model uncertainty used by the nominal scenarios."""
    return np.array(
        [
            0.01 * (x[0] * x[0] + x[2] * x[2]),
            0.01 * (x[2] * x[1] + x[0] * x[0]),
            0.01 * (x[2] * x[2]),
        ]
    )


def switched_sinusoid_uncertainty(x: np.ndarray) -> np.ndarray:
    """Sinusoidal uncertainty activated after the scheduled switch."""
    return np.array(
        [
            0.5 * np.sin(x[0]),
            0.01 * np.cos(x[2]),
            0.5 * (np.sin(x[0]) + np.cos(x[1])),
        ]
    )


_KIND_FUNCS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "zero": lambda x: np.zeros(3),
    "quadratic": poly_quadratic_uncertainty,
    "sine_switch": switched_sinusoid_uncertainty,
}


@dataclass
class UncertaintySchedule:
    """Ordered (start_time, kind) segments; ``kind`` may also be a callable.

    The first segment must start at t = 0 and start times must strictly
    increase. Evaluation is stateless: the active segment is the last one
    whose start time is <= t.
    """

    segments: Sequence[tuple[float, object]] = ((0.0, "zero"),)

    def __post_init__(self):
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        starts = [s[0] for s in self.segments]
        if starts[0] != 0.0:
            raise ValueError("first segment must start at t = 0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment start times must strictly increase")
        funcs = []
        for _, kind in self.segments:
            if callable(kind):
                funcs.append(kind)
            elif kind in _KIND_FUNCS:
                funcs.append(_KIND_FUNCS[kind])
            else:
                raise ValueError(f"unknown uncertainty kind {kind!r}")
        self._starts = np.array(starts)
        self._funcs = funcs

    def eval(self, t: float, x: np.ndarray) -> np.ndarray:
        idx = int(np.searchsorted(self._starts, t, side="right")) - 1
        return self._funcs[idx](x)

    @property
    def switch_times(self) -> list[float]:
        return [s for s, _ in self.segments[1:]]


@dataclass
class PlantConfig:
    """Inertia, initial state, uncertainty schedule, and input-delay setting.

    ``input_delay`` must be a nonnegative multiple of the engine step; by
    default only the adaptive input is delayed (the baseline is assumed
    onboard), ``delay_total`` switches the delay to the full input path.
    """

    J: np.ndarray = field(default_factory=lambda: np.diag([0.011, 0.011, 0.021]))
    x0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    uncertainty: UncertaintySchedule = field(
        default_factory=lambda: UncertaintySchedule(((0.0, "quadratic"),))
    )
    input_delay: float = 0.0
    delay_total: bool = False
    A_m: np.ndarray = field(default_factory=lambda: -3.0 * np.eye(3))

    def __post_init__(self):
        self.J = np.asarray(self.J, dtype=float)
        if self.J.ndim == 1:
            self.J = np.diag(self.J)
        if self.J.shape != (3, 3):
            raise ValueError("J must be 3x3")
        diag = np.diag(self.J)
        if np.any(diag <= 0) or np.any(self.J != np.diag(diag)):
            raise ValueError("J must be diagonal with positive entries")
        self.x0 = np.asarray(self.x0, dtype=float)
        self.A_m = np.asarray(self.A_m, dtype=float)
        if self.input_delay < 0:
            raise ValueError("input_delay must be nonnegative")
        # hot-loop caches; J is validated diagonal above
        self._J_diag = np.diag(self.J).copy()
        self._Jinv_diag = 1.0 / self._J_diag
        self._JA = self.J @ self.A_m


class DelayLine:
    """Fixed-length ring buffer delaying an input stream by a whole number of steps.

    Outputs the sample pushed ``n_steps`` calls ago; zero-padded until the
    line fills, so the delayed signal is 0 before t = delay. Zero delay is
    the identity.
    """

    def __init__(self, delay: float, step: float, dim: int = 3):
        if delay < 0:
            raise ValueError("delay must be nonnegative")
        n_steps = round(delay / step)
        if abs(n_steps * step - delay) > 1e-12:
            raise ValueError(
                f"delay {delay} is not a multiple of the step {step}"
            )
        self.n_steps = n_steps
        self._buf = np.zeros((max(n_steps, 1), dim))
        self._idx = 0

    def push(self, u: np.ndarray) -> np.ndarray:
        """Push the newest sample, return the delayed one."""
        if self.n_steps == 0:
            return u
        out = self._buf[self._idx].copy()
        self._buf[self._idx] = u
        self._idx = (self._idx + 1) % self.n_steps
        return out


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def baseline_control(x: np.ndarray, J: np.ndarray, A_m: np.ndarray) -> np.ndarray:
    """Baseline moments ``J A_m x + x cross (J x)`` injecting desired dynamics."""
    Jx = J @ x
    return J @ (A_m @ x) + _cross(x, Jx)


def plant_derivative(
    x: np.ndarray,
    u_ext: np.ndarray,
    t: float,
    cfg: PlantConfig,
    include_baseline: bool = True,
) -> np.ndarray:
    """Rate dynamics ``J^{-1}(-(x cross J x) + f(x) + u_total)``.

    ``u_ext`` is the externally supplied (adaptive) input, held constant
    over an integrator step; the baseline feedback is state-dependent and
    evaluated per call so integrator stages see it continuously. The
    gyroscopic term is computed, not cancelled analytically, so the
    baseline-cancellation identity stays a testable property.
    """
    Jx = cfg._J_diag * x
    gyro = _cross(x, Jx)
    f = cfg.uncertainty.eval(t, x)
    if include_baseline:
        u_total = u_ext + cfg._JA @ x + gyro
    else:
        u_total = u_ext
    return cfg._Jinv_diag * (f + u_total - gyro)
