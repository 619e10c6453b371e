"""Quadrotor angular-rate plant with scheduled uncertainties.

The plant is the paper's partially closed loop
``xdot = A_m x + B_m (u + f(x))`` with ``omega = 1``: the adaptive input
``u`` is its one external input and the one an input delay acts on.
``A_m`` and ``B_m`` are the loop's known model, held once, by
:class:`controller.ControllerConfig`; :class:`PlantConfig` holds what is
the plant's own, its initial state, uncertainty schedule and input delay.

The field is written on Python floats: per axis
``a[i] x_i + b[i] (u_i + f_i(x))``, with ``a`` and ``b`` the float
3-tuples of the diagonals of ``A_m`` and ``B_m``, so every linear term is
a product per axis, and each uncertainty kind in scalar form
``(x0, x1, x2) -> (f0, f1, f2)``. :func:`rk4_plant_step` integrates it
with one fused RK4 step per engine step, its four stages written out in
one frame with no call but the uncertainty's and no numpy call inside.
:func:`plant_derivative` holds the same field once more, in array form,
which tests and the benchmark read; it imports numpy when called, so the
module loads on the standard library alone.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from .numerics import float3

if TYPE_CHECKING:  # the array forms import numpy when called
    import numpy as np

__all__ = [
    "UncertaintySchedule",
    "PlantConfig",
    "DelayLine",
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
        # math rejects an infinite argument; a diverged axis gets nan, as
        # numpy's would, a finite one keeps its value, and the engine's
        # bound on the state flags the run
        s0, c1, c2 = (fn(v) if math.isfinite(v) else math.nan
                      for fn, v in ((math.sin, x0), (math.cos, x1), (math.cos, x2)))
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
        import numpy as np

        return np.array(self.field_at(t)(x[0], x[1], x[2]))


@dataclass(frozen=True)
class PlantConfig:
    """Initial state, uncertainty schedule, and input-delay setting.

    ``x0`` is the initial rates, 3 finite values, held as a float 3-tuple.
    ``input_delay`` must be a whole number of engine steps; it delays the
    adaptive input ``u``. The config is frozen: an edit goes through
    ``dataclasses.replace``, which reruns every check.
    """

    x0: tuple = (0.0, 0.0, 0.0)
    uncertainty: UncertaintySchedule = field(
        default_factory=lambda: UncertaintySchedule(((0.0, "quadratic"),))
    )
    input_delay: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x0", float3(self.x0, "x0"))
        # a chained comparison is false for nan as well
        if not 0.0 <= self.input_delay < math.inf:
            raise ValueError("input_delay must be nonnegative and finite")


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


def plant_derivative(
    x: np.ndarray,
    u_ext: np.ndarray,
    t: float,
    a: Sequence[float],
    b: Sequence[float],
    uncertainty: UncertaintySchedule,
) -> np.ndarray:
    """Rate dynamics ``A_m x + B_m (u + f(x))``.

    ``a`` and ``b`` are the diagonals of ``A_m`` and ``B_m``, and
    ``uncertainty`` the schedule whose segment at ``t`` gives ``f``.
    ``u_ext`` is the externally supplied (adaptive) input, held constant
    over an integrator step. This is the array form of the field
    :func:`rk4_plant_step` integrates, in its order of operations.
    """
    import numpy as np

    x0, x1, x2 = x[0], x[1], x[2]
    m0, m1, m2 = a
    i0, i1, i2 = b
    f0, f1, f2 = uncertainty.field_at(t)(x0, x1, x2)
    return np.array((
        m0 * x0 + i0 * (u_ext[0] + f0),
        m1 * x1 + i1 * (u_ext[1] + f1),
        m2 * x2 + i2 * (u_ext[2] + f2),
    ))


def rk4_plant_step(
    x: Sequence[float],
    u_ext: Sequence[float],
    h: float,
    a: Sequence[float],
    b: Sequence[float],
    f: Callable[[float, float, float], tuple],
    f_end: Callable[[float, float, float], tuple],
) -> tuple[float, float, float]:
    """One classical RK4 step of :func:`plant_derivative`, on Python floats.

    ``a`` and ``b`` are the float diagonals of ``A_m`` and ``B_m``. ``f``
    is the scalar uncertainty field in force over the step and ``f_end``
    the one of its last stage: the new segment on the step that ends on a
    switch, else ``f`` again. The step makes no schedule lookup. The four
    stages are written out in this one frame, each the arithmetic of
    :func:`plant_derivative` in its order, and the stages and their sum
    are those of :func:`numerics.rk4_step` over the array field, so the
    result is bitwise the same. ``u_ext`` is held over the step. Returns
    the new state as three floats, finite or not: the caller's bound on
    the state is the one divergence test, and a NaN fails it.
    """
    # Python floats: arithmetic on numpy scalars costs several times more
    x0, x1, x2 = float(x[0]), float(x[1]), float(x[2])
    u0, u1, u2 = float(u_ext[0]), float(u_ext[1]), float(u_ext[2])
    m0, m1, m2 = a
    i0, i1, i2 = b
    hh = 0.5 * h
    # each stage: A_m s + B_m (u + f(s)), per axis
    f0, f1, f2 = f(x0, x1, x2)
    a0 = m0 * x0 + i0 * (u0 + f0)
    a1 = m1 * x1 + i1 * (u1 + f1)
    a2 = m2 * x2 + i2 * (u2 + f2)

    s0, s1, s2 = x0 + hh * a0, x1 + hh * a1, x2 + hh * a2
    f0, f1, f2 = f(s0, s1, s2)
    b0 = m0 * s0 + i0 * (u0 + f0)
    b1 = m1 * s1 + i1 * (u1 + f1)
    b2 = m2 * s2 + i2 * (u2 + f2)

    s0, s1, s2 = x0 + hh * b0, x1 + hh * b1, x2 + hh * b2
    f0, f1, f2 = f(s0, s1, s2)
    c0 = m0 * s0 + i0 * (u0 + f0)
    c1 = m1 * s1 + i1 * (u1 + f1)
    c2 = m2 * s2 + i2 * (u2 + f2)

    s0, s1, s2 = x0 + h * c0, x1 + h * c1, x2 + h * c2
    f0, f1, f2 = f_end(s0, s1, s2)
    d0 = m0 * s0 + i0 * (u0 + f0)
    d1 = m1 * s1 + i1 * (u1 + f1)
    d2 = m2 * s2 + i2 * (u2 + f2)

    w = h / 6.0
    y0 = x0 + w * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
    y1 = x1 + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
    y2 = x2 + w * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
    return y0, y1, y2
