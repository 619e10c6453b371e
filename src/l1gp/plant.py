"""Quadrotor angular-rate plant with baseline feedback and scheduled uncertainties.

The physical plant is the body-frame rate equation
``J xdot = -(x cross J x) + f(x) + u_total`` with a baseline input
``u_bl = J A_m x + (x cross J x)`` that injects the desired linear
dynamics, so the partially closed loop equals ``A_m x + B_m (u + f(x))``
with ``B_m = J^{-1}``. The engine integrates the physical form; the
cancellation identity is exercised by tests rather than assumed.

The field is written once, on Python floats: the rate equation and the
scalar form ``(x0, x1, x2) -> (f0, f1, f2)`` of each uncertainty kind.
:func:`rk4_plant_step` integrates it with one fused RK4 step per engine
step, with no numpy call inside; :func:`plant_derivative` and the
uncertainty functions are its array forms.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numerics import DivergenceError

__all__ = [
    "UncertaintySchedule",
    "PlantConfig",
    "DelayLine",
    "baseline_control",
    "plant_derivative",
    "rk4_plant_step",
    "poly_quadratic_uncertainty",
    "switched_sinusoid_uncertainty",
]

def _quadratic(x0: float, x1: float, x2: float) -> tuple[float, float, float]:
    return (
        0.01 * (x0 * x0 + x2 * x2),
        0.01 * (x2 * x1 + x0 * x0),
        0.01 * (x2 * x2),
    )


def _sine_switch(x0: float, x1: float, x2: float) -> tuple[float, float, float]:
    try:
        s0, c1, c2 = math.sin(x0), math.cos(x1), math.cos(x2)
    except ValueError:
        # math rejects an infinite argument; a diverged state gets nan, as
        # from numpy, and the integrator reports the divergence
        s0, c1, c2 = float(np.sin(x0)), float(np.cos(x1)), float(np.cos(x2))
    return 0.5 * s0, 0.01 * c2, 0.5 * (s0 + c1)


def _zero(x0: float, x1: float, x2: float) -> tuple[float, float, float]:
    return (0.0, 0.0, 0.0)


def poly_quadratic_uncertainty(x: np.ndarray) -> np.ndarray:
    """Quadratic model uncertainty used by the nominal scenarios."""
    return np.array(_quadratic(*x))


def switched_sinusoid_uncertainty(x: np.ndarray) -> np.ndarray:
    """Sinusoidal uncertainty activated after the scheduled switch."""
    return np.array(_sine_switch(*x))


# scalar forms (x0, x1, x2) -> (f0, f1, f2) of the built-in kinds
_KIND_FIELDS: dict[str, Callable[[float, float, float], tuple]] = {
    "zero": _zero,
    "quadratic": _quadratic,
    "sine_switch": _sine_switch,
}


def _scalar_field(kind: Callable[[np.ndarray], np.ndarray]):
    """Wrap an array uncertainty ``f(x) -> (3,)`` into the scalar signature."""

    def scalar(x0: float, x1: float, x2: float) -> tuple[float, float, float]:
        f = kind(np.array((x0, x1, x2)))
        return float(f[0]), float(f[1]), float(f[2])

    return scalar


@dataclass
class UncertaintySchedule:
    """Ordered (start_time, kind) segments; ``kind`` may also be a callable.

    The first segment must start at t = 0 and start times must strictly
    increase. Evaluation is stateless: the active segment is the last one
    whose start time is <= t. Every segment is held in scalar form
    ``(x0, x1, x2) -> (f0, f1, f2)``; a callable kind maps an array to an
    array and is wrapped into that form once, here.
    """

    segments: Sequence[tuple[float, object]] = ((0.0, "zero"),)

    def __post_init__(self):
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        starts = [float(s[0]) for s in self.segments]
        if starts[0] != 0.0:
            raise ValueError("first segment must start at t = 0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment start times must strictly increase")
        fields = []
        for _, kind in self.segments:
            if callable(kind):
                fields.append(_scalar_field(kind))
            elif kind in _KIND_FIELDS:
                fields.append(_KIND_FIELDS[kind])
            else:
                raise ValueError(f"unknown uncertainty kind {kind!r}")
        self._starts = starts
        self._fields = fields

    def field_at(self, t: float) -> Callable[[float, float, float], tuple]:
        """Scalar form of the segment active at t."""
        return self._fields[bisect.bisect_right(self._starts, t) - 1]

    def eval(self, t: float, x: np.ndarray) -> np.ndarray:
        return np.array(self.field_at(t)(x[0], x[1], x[2]))

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
        # hot-loop caches as Python floats; J is validated diagonal above
        self._j = tuple(float(v) for v in diag)
        self._jinv = tuple(1.0 / v for v in self._j)
        self._ja = tuple(tuple(float(v) for v in row) for row in self.J @ self.A_m)


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


def _rates(
    f: Callable[[float, float, float], tuple],
    x0: float, x1: float, x2: float,
    u0: float, u1: float, u2: float,
    cfg: PlantConfig,
    include_baseline: bool,
) -> tuple[float, float, float]:
    """Scalar form of ``J^{-1}(-(x cross J x) + f(x) + u_total)``."""
    j0, j1, j2 = cfg._j
    jx0, jx1, jx2 = j0 * x0, j1 * x1, j2 * x2
    g0 = x1 * jx2 - x2 * jx1
    g1 = x2 * jx0 - x0 * jx2
    g2 = x0 * jx1 - x1 * jx0
    f0, f1, f2 = f(x0, x1, x2)
    if include_baseline:
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = cfg._ja
        u0 = u0 + (a00 * x0 + a01 * x1 + a02 * x2) + g0
        u1 = u1 + (a10 * x0 + a11 * x1 + a12 * x2) + g1
        u2 = u2 + (a20 * x0 + a21 * x1 + a22 * x2) + g2
    i0, i1, i2 = cfg._jinv
    return i0 * (f0 + u0 - g0), i1 * (f1 + u1 - g1), i2 * (f2 + u2 - g2)


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
    baseline-cancellation identity stays a testable property. This is the
    array form of the field :func:`rk4_plant_step` integrates.
    """
    return np.array(
        _rates(
            cfg.uncertainty.field_at(t),
            x[0], x[1], x[2],
            u_ext[0], u_ext[1], u_ext[2],
            cfg,
            include_baseline,
        )
    )


def rk4_plant_step(
    x: Sequence[float],
    u_ext: Sequence[float],
    t: float,
    h: float,
    cfg: PlantConfig,
    include_baseline: bool = True,
) -> tuple[float, float, float]:
    """One classical RK4 step of :func:`plant_derivative`, on Python floats.

    Stages and arithmetic are those of :func:`numerics.rk4_step` over the
    array field, so the result is bitwise the same; each stage looks up the
    uncertainty segment at its own time, so the last stage of the step that
    ends on a switch sees the new kind. ``u_ext`` is held over the step.
    Returns the new state as three floats; raises DivergenceError (with the
    step's start time) on a non-finite result.
    """
    # Python floats: arithmetic on numpy scalars costs several times more
    x0, x1, x2 = float(x[0]), float(x[1]), float(x[2])
    u0, u1, u2 = float(u_ext[0]), float(u_ext[1]), float(u_ext[2])
    hh = 0.5 * h
    field_at = cfg.uncertainty.field_at
    f_mid = field_at(t + hh)
    a0, a1, a2 = _rates(field_at(t), x0, x1, x2, u0, u1, u2, cfg, include_baseline)
    b0, b1, b2 = _rates(
        f_mid, x0 + hh * a0, x1 + hh * a1, x2 + hh * a2,
        u0, u1, u2, cfg, include_baseline,
    )
    c0, c1, c2 = _rates(
        f_mid, x0 + hh * b0, x1 + hh * b1, x2 + hh * b2,
        u0, u1, u2, cfg, include_baseline,
    )
    d0, d1, d2 = _rates(
        field_at(t + h), x0 + h * c0, x1 + h * c1, x2 + h * c2,
        u0, u1, u2, cfg, include_baseline,
    )
    w = h / 6.0
    y0 = x0 + w * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
    y1 = x1 + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
    y2 = x2 + w * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
    if not math.isfinite(y0 + y1 + y2):
        raise DivergenceError(f"non-finite state after step at t={t}", t=t)
    return y0, y1, y2
