"""Closed-loop engine coupling plant, controller, and learner at their rates.

One engine step advances the loop by the plant step ``h``: sample the
reference, run the controller tick (adaptation, learning filter, control,
predictor) on sampling-period boundaries, integrate the plant with the
delayed input, feed the learner on its own boundaries, and record. Tick
order within one step is fixed: adaptation -> learning filter -> control
-> plant -> learner. A step that ends on a learner sample time passes the
learner the state at the step's start and the controller's ``f_L`` and
``sigma_hat``, whose sum is the sample's target, and then the state at its
end, the one the next tick reads, for a publish's envelope.

Step clock: :class:`ScenarioConfig` reads every instant a run uses (the
sampling and learner periods, the input delay, the duration, each
uncertainty switch) as a whole number of steps, through the one helper
:meth:`ScenarioConfig.steps`. The engine counts global step indices: the
ticks, learner boundaries, recorded rows (multiples of
``record_decimation``) and the uncertainty segment in force all follow
from them, and the commands still in the input delay line are part of the
run's state, so a resumed run repeats an uninterrupted one.

Integration rule: the linear parts are exact. The predictor advances by
its discrete-time map in :func:`controller.control_step`; the ideal loop
is not stepped at all but read at each recorded row's time from its
closed-form solution (:meth:`ReferenceConfig.ideal_loop`). Only the
nonlinear plant uses RK4, one fused step on Python floats per engine step
(:func:`plant.rk4_plant_step`). The whole step runs on float 3-tuples,
each matrix product per axis on a diagonal, and a recorded row is packed
as C doubles into the run's row buffer; numpy is left to the GP reads, the
learner's buffer and the reads of a finished trace
(:attr:`SimulationTrace.data`, :func:`metrics`). So the module loads on
the standard library alone, and a run with no learner never imports
numpy. The engine knows the schedule and the plant step: its state is
``x``, kept in a local and written back to the live :class:`Snapshot` at
the end of the run. The L1 law and the rest of the loop state (``u``,
``eta``, the envelope read) are the controller's, in
:class:`controller.ControllerState`.

Model reads: a loop learns iff its config holds a learner. A step records
its row, when one is due, at its start, before its tick, so the row holds
the state the tick reads. A learning loop's tick reads the published
model's mean and envelope at the state
(:meth:`learner.BayesianLearner.evaluate`), once, and its row records that
mean, which is bitwise ``GpPosterior.mean_at``'s. Only a row with no tick
in its step (a row between two ticks, the run's last row, an abort row)
reads the mean alone. A run is single-threaded and deterministic given
the seed.

The engine's state is one :class:`Snapshot`, the input delay line
included, and the engine keeps no loop state outside it: a fresh run
starts from :meth:`Snapshot.initial`, a resumed run from a deepcopy of the
snapshot it is given, and :meth:`Engine.snapshot` returns a deepcopy of
the live state, which shares the learner's published model. A second run
of one engine and a run resumed from its snapshot go on from the same
state by the same path. The only random draw
is the learner's measurement noise: the seeded generator is made with the
learner and held only by it, so a copy of the record copies it and draws
the same stream as the run it was taken from, and a run with no learner
never loads ``numpy.random``.
"""

from __future__ import annotations

import array
import bisect
import copy
import math
import struct
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Callable, ClassVar, Optional

from . import controller as ctrl
from . import numerics, plant as plant_mod

if TYPE_CHECKING:  # each imported where used: numpy where arrays are read,
    # the learner in Snapshot.initial, only when a learner runs
    import numpy as np

    from . import learner as learner_mod

__all__ = [
    "ReferenceConfig",
    "ConditionParams",
    "ScenarioConfig",
    "SimulationTrace",
    "Snapshot",
    "MarginResult",
    "UnstableAtZeroDelayError",
    "RowBufferError",
    "Engine",
    "run",
    "delay_margin_search",
    "window_mean",
    "metrics",
]

TRACE_COLUMNS = ("t",) + tuple(
    f"{name}{i}"
    for name in ("x", "xhat", "xtilde", "u", "fl", "eta", "sigmahat", "ftrue",
                 "fhat", "r", "xid")
    for i in (1, 2, 3)
) + ("e_f_hat", "omega_filtered")

# one trace row packed as C doubles, 8 bytes a value, as in a float64 array.
# A run's row buffer is max_rows zero rows, allocated once from the heap, as
# np.empty's is (an anonymous mapping per run, untouched until written, cost
# 0.2-0.5 MB more peak RSS over repeated runs in one process); unlike
# np.empty's, its pages are all written when it is made
_ROW = struct.Struct(f"{len(TRACE_COLUMNS)}d")
_ZERO_ROW = array.array("d", [0.0]) * len(TRACE_COLUMNS)

REFERENCE_KINDS = ("zero", "step", "sinusoid")


class RowBufferError(MemoryError):
    """A run's row buffer is more than the host can address or allocate."""


@dataclass(frozen=True)
class ReferenceConfig:
    """Reference command: per-axis step amplitudes or sinusoids.

    ``amplitude`` and ``frequency`` must be 3 finite values each (checked
    at construction), whatever the kind, and are held as float 3-tuples.
    """

    kind: str = "step"
    amplitude: tuple = (1.0, 1.0, 1.0)
    frequency: tuple = (0.5, 0.5, 0.5)

    def __post_init__(self):
        if self.kind not in REFERENCE_KINDS:
            raise ValueError(f"reference kind must be one of {REFERENCE_KINDS}")
        for name in ("amplitude", "frequency"):
            object.__setattr__(
                self, name, numerics.float3(getattr(self, name), f"reference {name}")
            )

    def make(self) -> Callable[[float], tuple]:
        """The reference ``r(t)`` as a function returning three floats."""
        a0, a1, a2 = self.amplitude
        if self.kind == "zero":
            return lambda t: (0.0, 0.0, 0.0)
        if self.kind == "step":
            return lambda t: (a0, a1, a2)
        w0, w1, w2 = self.frequency
        return lambda t: (a0 * math.sin(w0 * t), a1 * math.sin(w1 * t),
                          a2 * math.sin(w2 * t))

    def ideal_loop(self, a: tuple, b: tuple, x0: tuple) -> Callable[[float], tuple]:
        """The solution of ``x' = A x + B r(t)``, ``x(0) = x0``, as a
        function of the absolute time t returning three floats.

        A and B are diagonal, given as the 3-tuples ``a`` and ``b`` of their
        diagonals, each ``a`` negative. Per axis
        ``x(t) = e^{a t} (x0 - p(0)) + p(t)`` with ``p`` the particular
        solution: ``p = -b r / a`` for a zero or step reference, and for the
        sinusoid ``p(t) = Re(C) sin(w t) + Im(C) cos(w t)`` with
        ``C = b amp / (i w - a)``. Nothing depends on where a run started,
        so a resumed run reads the values of an uninterrupted one.
        """
        if self.kind == "sinusoid":
            w0, w1, w2 = self.frequency
            C = [bi * amp / complex(-ai, w)
                 for ai, bi, amp, w in zip(a, b, self.amplitude, self.frequency)]
        else:
            # a constant r is the sinusoid's form at w = 0 with p = Im(C)
            w0 = w1 = w2 = 0.0
            C = [complex(0.0, -(bi * ri) / ai)
                 for ai, bi, ri in zip(a, b, self.make()(0.0))]
        (s0, k0), (s1, k1), (s2, k2) = ((z.real, z.imag) for z in C)
        c0, c1, c2 = (xi - z.imag for xi, z in zip(x0, C))
        a0, a1, a2 = a
        exp, sin, cos = math.exp, math.sin, math.cos
        return lambda t: (
            exp(a0 * t) * c0 + (s0 * sin(w0 * t) + k0 * cos(w0 * t)),
            exp(a1 * t) * c1 + (s1 * sin(w1 * t) + k1 * cos(w1 * t)),
            exp(a2 * t) * c2 + (s2 * sin(w2 * t) + k2 * cos(w2 * t)),
        )

    @property
    def r_inf(self) -> float:
        return 0.0 if self.kind == "zero" else max(map(abs, self.amplitude))


@dataclass(frozen=True)
class ConditionParams:
    """Inputs of the filter-design inequality checker (diagnostic only)."""

    lip_f: float = 0.2
    b0: float = 0.0
    rho_0: Optional[float] = None
    rho_r: Optional[float] = None

    def __post_init__(self):
        # a norm, a Lipschitz constant and a bound are never negative; a
        # chained comparison is false for nan as well
        for key, value in (("l_f", self.lip_f), ("b0", self.b0), ("rho_0", self.rho_0)):
            if value is not None and not 0.0 <= value < math.inf:
                raise ValueError(f"condition.{key} must be nonnegative and finite")
        if self.rho_r is not None and not 0.0 < self.rho_r < math.inf:
            raise ValueError("condition.rho_r must be positive and finite")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one deterministic closed-loop run.

    Every time of the run is read as a whole number of steps (``ts_every``,
    ``data_every``, ``delay_steps``, ``n_steps``, ``switch_steps``), each
    derived where it is read; construction checks that every time is on the
    step grid. ``learner`` is the one statement that the loop learns: with
    a learner it is the L1-GP loop, with None the plain L1 loop, so
    ``replace(cfg, learner=None)`` turns learning off. The config and every
    config it holds are frozen: an edit goes through
    ``dataclasses.replace``, which reruns every check.
    """

    controller: ctrl.ControllerConfig
    plant: plant_mod.PlantConfig
    learner: Optional[learner_mod.LearnerConfig] = None
    reference: ReferenceConfig = field(default_factory=ReferenceConfig)
    duration: float = 10.0
    step: float = 0.001
    seed: int = 12345
    record_decimation: int = 10
    blowup: float = 100.0
    condition: ConditionParams = field(default_factory=ConditionParams)

    def __post_init__(self):
        # a chained comparison is false for nan as well; an infinite blowup
        # would turn the divergence guard off
        for name in ("step", "blowup"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("seed", "record_decimation"):
            object.__setattr__(self, name, numerics.whole(getattr(self, name), name))
        if self.record_decimation < 1:
            raise ValueError("record_decimation must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        # each step count checks its time against the step grid when read
        for name in ("ts_every", "data_every", "delay_steps", "n_steps", "switch_steps"):
            getattr(self, name)

    @property
    def ts_every(self) -> int:
        return self.steps(self.controller.T_s, "T_s")

    @property
    def data_every(self) -> int:
        """Steps per learner sample; 0 without a learner."""
        return self.steps(self.learner.T_data, "T_data") if self.learner is not None else 0

    @property
    def delay_steps(self) -> int:
        return self.steps(self.plant.input_delay, "input_delay", least=0)

    @property
    def n_steps(self) -> int:
        return self.steps(self.duration, "duration")

    @property
    def max_rows(self) -> int:
        """Rows a run records at most: one per ``record_decimation`` steps,
        the first row, one more when the run starts off the recording grid
        and an abort row."""
        return self.n_steps // self.record_decimation + 3

    @property
    def switch_steps(self) -> list:
        return [self.steps(s, "switch_time") for s in self.plant.uncertainty.switch_times]

    def steps(self, time: float, name: str, least: int = 1) -> int:
        """``time`` as a whole number of steps, at least ``least``: the one
        place a time is matched to the step grid."""
        k = time / self.step
        n = round(k) if math.isfinite(k) else least - 1
        # a time within a millionth of a step of the grid counts as on it
        if n < least or abs(k - n) > 1e-6:
            sign = "positive" if least else "nonnegative"
            raise ValueError(
                f"{name} {time} is not a {sign} whole number of steps {self.step}"
            )
        return n


@dataclass
class SimulationTrace:
    """Time-indexed record of every loop signal plus the event log.

    ``values`` holds the rows packed one after another, ``len(columns)``
    C doubles a row, in a flat buffer of format ``"d"``: for a run, a
    memoryview of its row buffer. ``data`` is the ``(rows, columns)``
    float64 array over the same memory, made when first read; only it, and
    the reads through it, import numpy. A memoryview does not pickle, so a
    pickled or deep-copied trace holds its values in an ``array("d")``.
    """

    values: memoryview
    events: list
    unstable: bool = False
    columns: ClassVar[tuple] = TRACE_COLUMNS

    def __reduce__(self):
        return (type(self), (array.array("d", self.values), self.events, self.unstable))

    @cached_property
    def data(self) -> np.ndarray:
        import numpy as np

        return np.frombuffer(self.values, dtype=float).reshape(-1, len(self.columns))

    def col(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    def block(self, prefix: str) -> np.ndarray:
        """The (rows, 3) block of a per-axis signal, e.g. 'x' or 'eta'."""
        i = self.columns.index(prefix + "1")
        return self.data[:, i : i + 3]

    @property
    def t(self) -> np.ndarray:
        return self.data[:, 0]


@dataclass
class Snapshot:
    """Engine state at a step boundary: the live state of a run, and the
    record a run resumes from.

    ``t0`` is the time the state stands at, ``x`` the plant state,
    ``ctrl_state`` the rest of the loop's and ``delay`` the input delay
    line, holding the commands the plant has yet to receive. The learner
    holds the run's seeded generator, so a deepcopy of the record copies
    it, and the delay line, with the rest. The published model is not
    copied: its :class:`~l1gp.gp.GpPosterior` is a read-only value, so the
    record shares it with the live state, and a resumed run reads the same
    arrays. A run resumes only a record of its own learner config (None
    for none) and of its own delay, a line ``cfg.delay_steps`` long: any
    other record raises ``ValueError``, so a resume can neither turn
    learning on or off nor change the delay.
    """

    t0: float
    x: tuple
    ctrl_state: ctrl.ControllerState
    delay: plant_mod.DelayLine
    learner: Optional[learner_mod.BayesianLearner]

    @classmethod
    def initial(cls, cfg: "ScenarioConfig") -> "Snapshot":
        """The state at t = 0 of a fresh run of ``cfg``."""
        learner = None
        if cfg.learner is not None:
            import numpy as np

            from . import learner as learner_mod

            learner = learner_mod.BayesianLearner(cfg.learner,
                                                  np.random.default_rng(cfg.seed))
        # the prior's envelope, sqrt(beta) sigma_f, at every state
        e0 = learner.evaluate(cfg.plant.x0)[1] if learner is not None else None
        return cls(t0=0.0, x=cfg.plant.x0,
                   ctrl_state=ctrl.ControllerState.initial(cfg.controller, e0),
                   delay=plant_mod.DelayLine(cfg.delay_steps), learner=learner)


class Engine:
    """Single-owner stepping loop; each run goes on from the live state."""

    def __init__(self, cfg: ScenarioConfig, resume: Optional[Snapshot] = None):
        self.cfg = cfg
        self.ref = cfg.reference.make()
        c = cfg.controller
        b = tuple(0.0 + bm * k for bm, k in zip(c.b_m, c.k_g))  # B_m k_g
        self.x_id = cfg.reference.ideal_loop(c.a_m, b, cfg.plant.x0)
        # a snapshot with no learner holds no learner config
        if resume is not None and (getattr(resume.learner, "cfg", None),
                                   resume.delay.n_steps) != (cfg.learner, cfg.delay_steps):
            raise ValueError("the snapshot's learner config is not the run's, or its "
                             "delay line not the run's length: a resume keeps both")
        self.live = Snapshot.initial(cfg) if resume is None else copy.deepcopy(resume)
        # start and end of the latest run; a run goes on from live.t0
        self.t0 = self.t_final = self.live.t0
        cfg.steps(self.t0, "resume time", least=0)

    def snapshot(self) -> Snapshot:
        """A copy of the live state, standing at the end of the last run."""
        return copy.deepcopy(self.live)

    def run(self) -> SimulationTrace:
        """Run ``cfg.duration`` on from the live state; return its trace.

        A run from step 0 first logs the norm-condition report. One rule
        stops a run, flagged unstable: a step that leaves some
        ``|x_i| > blowup`` or a non-finite state, which its abort row holds.
        """
        cfg = self.cfg
        c = cfg.controller
        p = cfg.plant
        h = cfg.step
        dec = cfg.record_decimation
        ts_every = cfg.ts_every
        data_every = cfg.data_every
        learning = cfg.learner is not None
        live = self.live
        self.t0 = live.t0
        self.events: list = []  # this run's log
        # global step index of t0: the loop counts global steps k, which keeps
        # resumed time stamps, tick alignment, learner boundaries and
        # uncertainty switches identical to an uninterrupted run
        k0 = cfg.steps(self.t0, "resume time", least=0)
        ref = self.ref
        sinusoid = cfg.reference.kind == "sinusoid"
        r = ref(0.0)  # constant unless the reference is a sinusoid
        # segment `seg` of the uncertainty is in force from global step
        # switch_steps[seg - 1] on; -1 marks that no switch is left
        switch_steps = cfg.switch_steps + [-1]
        fields = p.uncertainty.scalar_fields
        seg = bisect.bisect_right(cfg.switch_steps, k0)
        f = fields[seg]

        # the trace is a view of this buffer, not a copy. A row count past
        # the index range raises OverflowError, a buffer the host refuses
        # MemoryError
        max_rows = cfg.max_rows
        try:
            rows = _ZERO_ROW * max_rows
        except (OverflowError, MemoryError) as exc:
            count = f"{max_rows:.3g}" if max_rows > 10**12 else max_rows
            raise RowBufferError(
                f"duration {cfg.duration} at step {cfg.step} needs {count} "
                "trace rows, more than the host can hold") from exc
        pack_row, row_bytes = _ROW.pack_into, _ROW.size
        unstable = False

        # the report belongs to step 0, as its row does
        if k0 == 0:
            self._report_condition()

        state = live.ctrl_state
        learner = live.learner
        row_i = 0
        # the loop's calls and constants as locals, bound here on each run,
        # so a function patched after the engine was built is the one called
        adaptation_step = ctrl.adaptation_step
        learning_filter_step = ctrl.learning_filter_step
        control_step = ctrl.control_step
        push = live.delay.push
        rk4_plant_step = plant_mod.rk4_plant_step
        a_m, b_m = c.a_m, c.b_m
        blowup = cfg.blowup
        # the plant state as a local, written back to live at the end of the
        # run; u, the last command, is pushed into the delay line every step
        x, u = live.x, state.u
        for k in range(k0, k0 + cfg.n_steps):
            t = k * h
            if sinusoid:
                r = ref(t)
            tick = k % ts_every == 0
            f_hat_x = None
            if tick and learning:
                # the learning filter reads the mean and the envelope at
                # the current state; the row below records the same mean
                f_hat_x, e_f_x = learner.evaluate(x)
            # a row is due at the run's first step and on the global
            # recording grid, which a resumed run keeps; it records the
            # state before this step's tick
            if k == k0 or k % dec == 0:
                pack_row(rows, row_i * row_bytes, *self._row(t, f, x, f_hat_x))
                row_i += 1
            if tick:
                adaptation_step(state, x, c)
                if learning:
                    learning_filter_step(state, f_hat_x, e_f_x, c)
                u = control_step(state, r, c)
            u_applied = push(u)
            # the step that ends on a switch sees the new segment at its
            # last RK4 stage only
            switching = k + 1 == switch_steps[seg]
            f_end = fields[seg + 1] if switching else f
            x_start = x
            x0, x1, x2 = x = rk4_plant_step(x_start, u_applied, h, a_m, b_m, f, f_end)
            # the one stop rule, |x|_inf > blowup or non-finite: NaN fails every <=
            unstable = not (abs(x0) <= blowup and abs(x1) <= blowup and abs(x2) <= blowup)
            if switching:
                self.events.append({"t": p.uncertainty.switch_times[seg],
                                    "kind": "uncertainty_switch"})
                seg += 1
                f = f_end
            if unstable:
                self.events.append({"t": (k + 1) * h, "kind": "unstable_abort"})
                break
            if data_every and (k + 1) % data_every == 0:
                # the sample pairs the step's start state with the last
                # tick's estimate; a publish reads its envelope at the state
                # the next tick reads
                learner.push(x_start, state.f_L, state.sigma_hat)
                ev = learner.maybe_update((k + 1) * h, x)
                if ev is not None:
                    self.events.append(ev)
        # the end of the run, after step k: a row on the recording grid, or
        # the abort row
        t = (k + 1) * h
        if unstable or (k + 1) % dec == 0:
            pack_row(rows, row_i * row_bytes, *self._row(t, f, x, None))
            row_i += 1
        live.x = x
        live.t0 = self.t_final = t
        return SimulationTrace(
            values=memoryview(rows)[:row_i * len(TRACE_COLUMNS)],
            events=self.events,
            unstable=unstable,
        )

    def _row(self, t: float, f: Callable, x: tuple, f_hat: Optional[list]) -> tuple:
        """The trace row at t, as a tuple of floats, of the plant state
        ``x`` and the live controller state; ``f`` is the uncertainty
        segment in force, and ``f_hat`` the model's mean at x, or None to
        read it here."""
        state = self.live.ctrl_state
        learner = self.live.learner
        x0, x1, x2 = x
        h0, h1, h2 = state.x_hat
        if f_hat is None:
            f_hat = ((0.0, 0.0, 0.0) if learner is None
                     else learner.posterior.mean_at(x))
        return (
            t,
            *x,
            *state.x_hat,
            h0 - x0, h1 - x1, h2 - x2,
            *state.u,
            *state.f_L,
            *state.eta,
            *state.sigma_hat,
            *f(x0, x1, x2),
            *f_hat,
            *self.ref(t),
            *self.x_id(t),
            state.e_f_hat,
            state.omega_filtered,
        )

    def _report_condition(self):
        report = _condition_event(self.cfg)
        self.events.append(report)
        if not report["satisfied"]:
            warnings.warn(
                f"filter norm condition unsatisfied: lhs={report['lhs']:.4g} "
                f">= rhs={report['rhs']:.4g}; proceeding anyway"
            )


def _condition_event(cfg: ScenarioConfig) -> dict:
    """The ``l1_condition`` event a run of ``cfg`` from step 0 logs first:
    the norm-condition report of its filter, at t = 0. No input delay,
    duration or recording setting enters it."""
    cp = cfg.condition
    rho_0 = cp.rho_0 if cp.rho_0 is not None else max(map(abs, cfg.plant.x0))
    report = ctrl.l1_norm_condition(cfg.controller, cp.lip_f, cp.b0, rho_r=cp.rho_r,
                                    r_inf=cfg.reference.r_inf, rho_0=rho_0)
    return {"t": 0.0, "kind": "l1_condition", **report}


def run(cfg: ScenarioConfig, resume: Optional[Snapshot] = None) -> SimulationTrace:
    """Execute one scenario and return its trace."""
    return Engine(cfg, resume=resume).run()


@dataclass
class MarginResult:
    """Outcome of the input-delay search; ``predicted`` is the LTI margin
    the search started from, and ``condition`` the base scenario's
    ``l1_condition`` event, as a run of it from step 0 logs it."""

    margin: float
    bracket: tuple
    criterion: str
    candidates: list
    predicted: float
    condition: dict
    open_bracket: bool = False

    @property
    def iterations(self) -> int:
        """The number of candidate runs the search made."""
        return len(self.candidates)

    def as_dict(self) -> dict:
        return {
            "margin_s": self.margin,
            "predicted_margin_s": self.predicted,
            "bracket": list(self.bracket),
            "iterations": self.iterations,
            "criterion": self.criterion,
            "candidates": [
                {"delay_s": d, "stable": bool(s)} for d, s in self.candidates
            ],
            "open_bracket": self.open_bracket,
        }


class UnstableAtZeroDelayError(RuntimeError):
    """The base scenario diverges even without input delay."""


def delay_margin_search(
    base: ScenarioConfig,
    resolution: float = 0.001,
    horizon: float = 20.0,
    max_delay: float = 0.2,
    snapshot_time: Optional[float] = None,
) -> MarginResult:
    """The largest stable input delay, within resolution, up to ``max_delay``.

    The search starts at the margin the LTI limit of the loop predicts,
    ``pi / (2 omega_c) - T_s / 2``: with ``C(s) = omega_c / (s + omega_c)``
    the loop transfer is ``C / (1 - C) = omega_c / s``, so 90 degrees of
    phase margin at ``omega_c``, less half a sample for the hold (Cao &
    Hovakimyan, *Stability margins of L1 adaptive control architecture*,
    IEEE TAC 2010). The first candidate is that delay in whole steps,
    rounded down to the resolution and clamped to [resolution, max_delay].
    From a stable start the search walks up, from an unstable one down,
    doubling its step each time, until the verdict changes; it then bisects
    that bracket. As with a bisection over [0, max_delay], the verdict is
    assumed monotone in the delay, stable below the margin and unstable
    above it, so a poor prediction costs walk steps, not accuracy. The
    zero-delay candidate runs only when the walk down reaches it, and raises
    :class:`UnstableAtZeroDelayError` if unstable; a stable ``max_delay``
    gives an open bracket. No candidate runs twice.

    A candidate counts as unstable when its state exceeds the blowup bound
    or turns non-finite within the horizon. A candidate records only its end
    rows, with ``record_decimation`` set to the horizon in steps: its first
    row, at most one grid row and any abort row, as the verdict needs no
    more. When ``snapshot_time`` is set, the base scenario first runs that
    long at zero delay, whatever its own ``input_delay``, and every
    candidate resumes from the captured state with its own delay line,
    empty at the snapshot: the plant receives no command for the
    candidate's first delay, as in a fresh run (used to measure the margin
    of the running, post-learning loop). Every time argument must be a
    positive whole number of engine steps; the search runs on integer step
    counts, and each delay it reports is ``k * base.step`` rounded to 12
    decimals, so that 18 steps of 0.001 s read 0.018, not
    0.018000000000000002.
    """
    res = base.steps(resolution, "resolution")
    k_max = base.steps(max_delay, "max_delay")
    n_horizon = base.steps(horizon, "horizon")
    c = base.controller
    predicted = math.pi / (2.0 * c.omega_c) - c.T_s / 2.0
    snap = None
    if snapshot_time is not None:
        base.steps(snapshot_time, "snapshot_time")
        warm = Engine(replace(base, duration=snapshot_time,
                              plant=replace(base.plant, input_delay=0.0)))
        if warm.run().unstable:
            raise UnstableAtZeroDelayError("unstable during the warm-up run")
        snap = warm.snapshot()

    candidates = []

    def delay(k: int) -> float:
        return round(k * base.step, 12)

    def candidate(k: int) -> bool:
        # only the verdict is read: record every horizon, so the trace
        # keeps its first row, at most one grid row and any abort row
        cfg = replace(
            base,
            duration=horizon,
            record_decimation=n_horizon,
            plant=replace(base.plant, input_delay=delay(k)),
        )
        resume = None if snap is None else replace(snap, delay=plant_mod.DelayLine(k))
        stable = not Engine(cfg, resume=resume).run().unstable
        candidates.append((delay(k), stable))
        return stable

    k0 = min(max(math.floor(predicted / base.step / res) * res, res), k_max)
    up = candidate(k0)
    lo, hi = (k0, None) if up else (None, k0)
    walk = res
    # walk away from k0 until the verdict changes or max_delay is stable
    while lo is None or (hi is None and lo < k_max):
        k = min(lo + walk, k_max) if up else max(hi - walk, 0)
        if candidate(k):
            lo = k
        elif k == 0:
            raise UnstableAtZeroDelayError("base scenario unstable at zero delay")
        else:
            hi = k
        walk *= 2
    open_bracket = hi is None
    if open_bracket:
        hi = math.inf
    while not open_bracket and hi - lo > res:
        mid = max(lo + (hi - lo) // (2 * res) * res, lo + res)
        if candidate(mid):
            lo = mid
        else:
            hi = mid
    return MarginResult(
        margin=delay(lo),
        bracket=(delay(lo), delay(hi)),
        criterion=(
            f"unstable iff |x|_inf > {base.blowup} or non-finite within {horizon}s"
        ),
        candidates=candidates,
        predicted=predicted,
        condition=_condition_event(base),
        open_bracket=open_bracket,
    )


def window_mean(t: np.ndarray, series: np.ndarray, t0: float, t1: float) -> float:
    """Mean of a series (of all its columns) over rows with t0 <= t <= t1."""
    import numpy as np

    mask = (t >= t0 - 1e-12) & (t <= t1 + 1e-12)
    if not np.any(mask):
        raise ValueError(f"no rows in window [{t0}, {t1}]")
    return float(np.mean(series[mask]))


def metrics(trace: SimulationTrace, windows: Optional[list] = None) -> dict:
    """Aggregate tracking, learning, and adaptation metrics of a trace:
    the run's ``summary.json``.

    Emits whether the run stayed stable, its row count, final time and
    event count, the final-1s per-axis tracking error, the peak state, and,
    over each requested [t0, t1] interval, the window means of the rowwise
    2-norms of the ideal-tracking error, learning input and adaptive input.
    A window with no row, as one a run aborted before, has means of None.
    """
    import numpy as np

    t = trace.t
    x = trace.block("x")
    err_id = np.linalg.norm(x - trace.block("xid"), axis=1)
    fl_norm = np.linalg.norm(trace.block("fl"), axis=1)
    eta_norm = np.linalg.norm(trace.block("eta"), axis=1)
    track_abs = np.abs(x - trace.block("r"))

    t_end = t[-1]
    final_mask = t >= t_end - 1.0 - 1e-12
    final_err_axes = np.mean(track_abs[final_mask], axis=0)

    out = {
        "stable": not trace.unstable,
        "rows": len(t),
        "t_final": float(t_end),
        "final_tracking_error_axes": final_err_axes.tolist(),
        "final_tracking_error_inf": float(np.max(final_err_axes)),
        "max_state_inf": float(np.max(np.abs(x))),
        "windows": {},
        "n_events": len(trace.events),
    }
    series = {"err_ideal_norm": err_id, "fl_norm": fl_norm,
              "eta_norm": eta_norm, "tracking_abs_mean": track_abs}
    for t0, t1 in windows or ():
        try:
            means = {name: window_mean(t, s, t0, t1) for name, s in series.items()}
        except ValueError:  # no row in the window
            means = dict.fromkeys(series)
        out["windows"][f"{t0:g}-{t1:g}"] = means
    return out
