"""Quadrotor angular-rate plant with baseline feedback and scheduled uncertainties.

The physical plant is the body-frame rate equation
``J xdot = -(x cross J x) + f(x) + u_total`` with a baseline input
``u_bl = J A_m x + (x cross J x)`` that injects the desired linear
dynamics, so the partially closed loop equals ``A_m x + B_m (u + f(x))``
with ``B_m = J^{-1}``. The engine integrates the physical form; the
cancellation identity is exercised by tests rather than assumed.

The field is written on Python floats: the rate equation and the scalar
form ``(x0, x1, x2) -> (f0, f1, f2)`` of each uncertainty kind.
:func:`rk4_plant_step` integrates it with one fused RK4 step per engine
step, its four stages written out in one frame with no call but the
uncertainty's and no numpy call inside. ``_rates`` holds the same rate
equation once more, for the array form :func:`plant_derivative` only,
which tests and the benchmark read. ``J`` and ``A_m`` are diagonal, given
as the float 3-tuples ``j`` and ``a_m`` of their diagonals, so every linear
term, in the field and in :func:`baseline_control`, is a product per axis.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numerics import DivergenceError, float3

__all__ = [
    "UncertaintySchedule",
    "PlantConfig",
    "DelayLine",
    "baseline_control",
    "plant_derivative",
    "rk4_plant_step",
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


# scalar forms (x0, x1, x2) -> (f0, f1, f2) of the built-in kinds
_KIND_FIELDS: dict[str, Callable[[float, float, float], tuple]] = {
    "zero": _zero,
    "quadratic": _quadratic,
    "sine_switch": _sine_switch,
}


@dataclass(frozen=True)
class UncertaintySchedule:
    """Ordered (start_time, kind) segments; ``kind`` may also be a callable.

    The first segment must start at t = 0 and start times must strictly
    increase. Evaluation is stateless: the active segment is the last one
    whose start time is <= t. Every segment is held in scalar form
    ``(x0, x1, x2) -> (f0, f1, f2)``, in order, in ``scalar_fields``: a
    callable kind must already be in that form, the one the engine calls.
    The engine picks the segment by step index instead, from the switch
    times its ScenarioConfig fixed on the step grid.
    """

    segments: Sequence[tuple[float, object]] = ((0.0, "zero"),)
    switch_times: tuple = field(init=False, repr=False)
    scalar_fields: tuple = field(init=False, repr=False, compare=False)

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
            if not (callable(kind) or kind in _KIND_FIELDS):
                raise ValueError(f"unknown uncertainty kind {kind!r}")
            fields.append(kind if callable(kind) else _KIND_FIELDS[kind])
        object.__setattr__(self, "segments", tuple(map(tuple, self.segments)))
        object.__setattr__(self, "switch_times", tuple(starts[1:]))
        object.__setattr__(self, "scalar_fields", tuple(fields))

    def field_at(self, t: float) -> Callable[[float, float, float], tuple]:
        """Scalar form of the segment active at t."""
        return self.scalar_fields[bisect.bisect_right(self.switch_times, t)]

    def eval(self, t: float, x: np.ndarray) -> np.ndarray:
        return np.array(self.field_at(t)(x[0], x[1], x[2]))


@dataclass(frozen=True)
class PlantConfig:
    """Inertia, initial state, uncertainty schedule, and input-delay setting.

    ``input_delay`` must be a whole number of engine steps; by
    default only the adaptive input is delayed (the baseline is assumed
    onboard), ``delay_total`` switches the delay to the full input path.
    ``j`` and ``a_m`` are the diagonals of ``J`` and ``A_m``, and ``x0``
    the initial rates, each 3 finite values, held as a float 3-tuple;
    ``j`` must be positive. The config is frozen: construction derives the
    float caches :func:`rk4_plant_step` reads, and an edit goes through
    ``dataclasses.replace``, which derives them anew.
    """

    j: tuple = (0.011, 0.011, 0.021)
    x0: tuple = (0.0, 0.0, 0.0)
    uncertainty: UncertaintySchedule = field(
        default_factory=lambda: UncertaintySchedule(((0.0, "quadratic"),))
    )
    input_delay: float = 0.0
    delay_total: bool = False
    a_m: tuple = (-3.0, -3.0, -3.0)

    def __post_init__(self):
        j, x0, a = (float3(getattr(self, name), name) for name in ("j", "x0", "a_m"))
        # a chained comparison is false for nan as well
        if not 0.0 <= self.input_delay < math.inf:
            raise ValueError("input_delay must be nonnegative and finite")
        if not min(j) > 0:
            raise ValueError(f"J must be positive definite, got diagonal j = {j}")
        # hot-loop caches: the diagonals of J^{-1} and J A_m
        for name, value in (("j", j), ("x0", x0), ("a_m", a),
                            ("_jinv", tuple(1.0 / v for v in j)),
                            ("_ja", tuple(ji * ai for ji, ai in zip(j, a)))):
            object.__setattr__(self, name, value)


class DelayLine:
    """Fixed-length ring buffer delaying an input stream by ``n_steps`` steps.

    Outputs the sample pushed ``n_steps`` calls ago; zero-padded until the
    line fills, so the delayed signal is 0 before t = delay. Zero delay is
    the identity. Samples are held as 3-tuples, so a pushed array cannot
    change in the line.
    """

    def __init__(self, n_steps: int):
        if n_steps < 0:
            raise ValueError("n_steps must be nonnegative")
        self.n_steps = n_steps
        self._buf = [(0.0, 0.0, 0.0)] * max(n_steps, 1)
        self._idx = 0

    def push(self, u: Sequence[float]) -> Sequence[float]:
        """Push the newest sample, return the delayed one."""
        if self.n_steps == 0:
            return u
        out = self._buf[self._idx]
        self._buf[self._idx] = tuple(u)
        self._idx = (self._idx + 1) % self.n_steps
        return out


def baseline_control(x: Sequence[float], cfg: PlantConfig) -> tuple[float, float, float]:
    """Baseline moments ``J A_m x + x cross (J x)`` injecting desired dynamics,
    per axis on Python floats and bitwise the array form
    ``J @ (A_m @ x) + x cross (J @ x)`` (each product ``0.0 + d_i v_i``)."""
    x0, x1, x2 = x
    j0, j1, j2 = cfg.j
    a0, a1, a2 = cfg.a_m
    jx0, jx1, jx2 = 0.0 + j0 * x0, 0.0 + j1 * x1, 0.0 + j2 * x2
    return (
        (0.0 + j0 * (0.0 + a0 * x0)) + (x1 * jx2 - x2 * jx1),
        (0.0 + j1 * (0.0 + a1 * x1)) + (x2 * jx0 - x0 * jx2),
        (0.0 + j2 * (0.0 + a2 * x2)) + (x0 * jx1 - x1 * jx0),
    )


def _rates(
    f: Callable[[float, float, float], tuple],
    x0: float, x1: float, x2: float,
    u0: float, u1: float, u2: float,
    cfg: PlantConfig,
    include_baseline: bool,
) -> tuple[float, float, float]:
    """Scalar form of ``J^{-1}(-(x cross J x) + f(x) + u_total)``, for
    :func:`plant_derivative`; :func:`rk4_plant_step` inlines the same
    arithmetic in each of its stages."""
    j0, j1, j2 = cfg.j
    jx0, jx1, jx2 = j0 * x0, j1 * x1, j2 * x2
    g0 = x1 * jx2 - x2 * jx1
    g1 = x2 * jx0 - x0 * jx2
    g2 = x0 * jx1 - x1 * jx0
    f0, f1, f2 = f(x0, x1, x2)
    if include_baseline:
        a0, a1, a2 = cfg._ja
        u0 = u0 + a0 * x0 + g0
        u1 = u1 + a1 * x1 + g1
        u2 = u2 + a2 * x2 + g2
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
    f: Callable[[float, float, float], tuple],
    f_end: Callable[[float, float, float], tuple],
    include_baseline: bool = True,
) -> tuple[float, float, float]:
    """One classical RK4 step of :func:`plant_derivative`, on Python floats.

    ``f`` is the scalar uncertainty field in force over the step and
    ``f_end`` the one of its last stage: the new segment on the step that
    ends on a switch, else ``f`` again. The step makes no schedule lookup.
    The four stages are written out in this one frame, each the arithmetic
    of ``_rates`` in its order, and the stages and their sum are those of
    :func:`numerics.rk4_step` over the array field, so the result is
    bitwise the same. ``u_ext`` is held over the step. Returns the new
    state as three floats; raises DivergenceError (with the step's start
    time ``t``) on a non-finite result.
    """
    # Python floats: arithmetic on numpy scalars costs several times more
    x0, x1, x2 = float(x[0]), float(x[1]), float(x[2])
    u0, u1, u2 = float(u_ext[0]), float(u_ext[1]), float(u_ext[2])
    j0, j1, j2 = cfg.j
    i0, i1, i2 = cfg._jinv
    k0, k1, k2 = cfg._ja
    hh = 0.5 * h
    # each stage: g = x cross J x, then J^{-1}(f + u_total - g), where
    # u_total = u + J A_m x + g with the baseline and u without
    p0, p1, p2 = j0 * x0, j1 * x1, j2 * x2
    g0, g1, g2 = x1 * p2 - x2 * p1, x2 * p0 - x0 * p2, x0 * p1 - x1 * p0
    f0, f1, f2 = f(x0, x1, x2)
    if include_baseline:
        a0 = i0 * (f0 + (u0 + k0 * x0 + g0) - g0)
        a1 = i1 * (f1 + (u1 + k1 * x1 + g1) - g1)
        a2 = i2 * (f2 + (u2 + k2 * x2 + g2) - g2)
    else:
        a0, a1, a2 = i0 * (f0 + u0 - g0), i1 * (f1 + u1 - g1), i2 * (f2 + u2 - g2)

    s0, s1, s2 = x0 + hh * a0, x1 + hh * a1, x2 + hh * a2
    p0, p1, p2 = j0 * s0, j1 * s1, j2 * s2
    g0, g1, g2 = s1 * p2 - s2 * p1, s2 * p0 - s0 * p2, s0 * p1 - s1 * p0
    f0, f1, f2 = f(s0, s1, s2)
    if include_baseline:
        b0 = i0 * (f0 + (u0 + k0 * s0 + g0) - g0)
        b1 = i1 * (f1 + (u1 + k1 * s1 + g1) - g1)
        b2 = i2 * (f2 + (u2 + k2 * s2 + g2) - g2)
    else:
        b0, b1, b2 = i0 * (f0 + u0 - g0), i1 * (f1 + u1 - g1), i2 * (f2 + u2 - g2)

    s0, s1, s2 = x0 + hh * b0, x1 + hh * b1, x2 + hh * b2
    p0, p1, p2 = j0 * s0, j1 * s1, j2 * s2
    g0, g1, g2 = s1 * p2 - s2 * p1, s2 * p0 - s0 * p2, s0 * p1 - s1 * p0
    f0, f1, f2 = f(s0, s1, s2)
    if include_baseline:
        c0 = i0 * (f0 + (u0 + k0 * s0 + g0) - g0)
        c1 = i1 * (f1 + (u1 + k1 * s1 + g1) - g1)
        c2 = i2 * (f2 + (u2 + k2 * s2 + g2) - g2)
    else:
        c0, c1, c2 = i0 * (f0 + u0 - g0), i1 * (f1 + u1 - g1), i2 * (f2 + u2 - g2)

    s0, s1, s2 = x0 + h * c0, x1 + h * c1, x2 + h * c2
    p0, p1, p2 = j0 * s0, j1 * s1, j2 * s2
    g0, g1, g2 = s1 * p2 - s2 * p1, s2 * p0 - s0 * p2, s0 * p1 - s1 * p0
    f0, f1, f2 = f_end(s0, s1, s2)
    if include_baseline:
        d0 = i0 * (f0 + (u0 + k0 * s0 + g0) - g0)
        d1 = i1 * (f1 + (u1 + k1 * s1 + g1) - g1)
        d2 = i2 * (f2 + (u2 + k2 * s2 + g2) - g2)
    else:
        d0, d1, d2 = i0 * (f0 + u0 - g0), i1 * (f1 + u1 - g1), i2 * (f2 + u2 - g2)

    w = h / 6.0
    y0 = x0 + w * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
    y1 = x1 + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
    y2 = x2 + w * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
    if not math.isfinite(y0 + y1 + y2):
        raise DivergenceError(f"non-finite state after step at t={t}", t=t)
    return y0, y1, y2
