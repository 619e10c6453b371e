"""Closed-loop engine coupling plant, controller, and learner at their rates.

One engine step advances the loop by the plant step ``h``: sample the
reference, run the controller tick (adaptation, learning filter, control,
predictor) on sampling-period boundaries, integrate the plant with the
delayed input, advance the ideal system, feed the learner on its own
boundaries, and record.

Integration rule: the linear parts advance by exact discrete-time maps
precomputed once per run (the predictor in :func:`controller.control_step`,
the ideal loop through :meth:`ReferenceConfig.exact_step`); only the
nonlinear plant, and the nonlinear reference loop of
:func:`run_reference_system`, use RK4. The plant takes one fused RK4 step on
Python floats per engine step (:func:`plant.rk4_plant_step`), bitwise equal
to :func:`numerics.rk4_step` over :func:`plant.plant_derivative`; the
reference loop uses the generic :func:`numerics.rk4_step`. A run is
single-threaded and deterministic given the seed.

Tick order within one step is fixed: adaptation -> learning filter ->
control (filter update, output, predictor advance) -> plant -> learner.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import controller as ctrl
from . import learner as learner_mod
from . import numerics, plant as plant_mod

__all__ = [
    "ReferenceConfig",
    "ConditionParams",
    "ScenarioConfig",
    "SimulationTrace",
    "Snapshot",
    "MarginResult",
    "UnstableAtZeroDelayError",
    "Engine",
    "run",
    "run_reference_system",
    "delay_margin_search",
    "window_mean",
    "metrics",
    "quadrotor_nominal",
]

TRACE_COLUMNS = (
    ("t",)
    + tuple(f"x{i}" for i in (1, 2, 3))
    + tuple(f"xhat{i}" for i in (1, 2, 3))
    + tuple(f"xtilde{i}" for i in (1, 2, 3))
    + tuple(f"u{i}" for i in (1, 2, 3))
    + tuple(f"fl{i}" for i in (1, 2, 3))
    + tuple(f"eta{i}" for i in (1, 2, 3))
    + tuple(f"sigmahat{i}" for i in (1, 2, 3))
    + tuple(f"ftrue{i}" for i in (1, 2, 3))
    + tuple(f"fhat{i}" for i in (1, 2, 3))
    + tuple(f"r{i}" for i in (1, 2, 3))
    + tuple(f"xid{i}" for i in (1, 2, 3))
    + ("e_f_hat", "omega_filtered")
)

REFERENCE_KINDS = ("zero", "step", "sinusoid")


@dataclass
class ReferenceConfig:
    """Reference command: per-axis step amplitudes or sinusoids."""

    kind: str = "step"
    amplitude: np.ndarray = field(default_factory=lambda: np.ones(3))
    frequency: np.ndarray = field(default_factory=lambda: 0.5 * np.ones(3))

    def __post_init__(self):
        if self.kind not in REFERENCE_KINDS:
            raise ValueError(f"reference kind must be one of {REFERENCE_KINDS}")
        self.amplitude = np.atleast_1d(np.asarray(self.amplitude, dtype=float))
        self.frequency = np.atleast_1d(np.asarray(self.frequency, dtype=float))

    def make(self) -> Callable[[float], np.ndarray]:
        amp = self.amplitude
        if self.kind == "zero":
            z = np.zeros_like(amp)
            return lambda t: z
        if self.kind == "step":
            return lambda t: amp
        freq = self.frequency
        return lambda t: amp * np.sin(freq * t)

    def exact_step(
        self, A: np.ndarray, B: np.ndarray, h: float
    ) -> tuple[np.ndarray, Callable[[float], np.ndarray]]:
        """Exact map of ``x' = A x + B r(t)`` over one step of length h.

        Returns ``(E, forcing)`` with ``x(t + h) = E @ x(t) + forcing(t)``.
        Zero and step references are constant, so the forcing is
        ``Phi(h) B r``. For the sinusoid, A is augmented with the per-axis
        oscillator ``(sin(w t), cos(w t))``; one matrix exponential of the
        augmented matrix gives E and the gains ``M_s``, ``M_c`` of
        ``forcing(t) = M_s sin(w t) + M_c cos(w t)``. The forcing takes the
        absolute time, so a resumed run repeats an uninterrupted one.
        """
        E = numerics.matrix_exponential(A, h)
        if self.kind != "sinusoid":
            g = numerics.phi_matrix(A, h) @ (B @ self.make()(0.0))
            return E, lambda t: g
        n, m = B.shape
        w = self.frequency
        aug = np.zeros((n + 2 * m, n + 2 * m))
        aug[:n, :n] = A
        aug[:n, n : n + m] = B * self.amplitude
        aug[n : n + m, n + m :] = np.diag(w)
        aug[n + m :, n : n + m] = -np.diag(w)
        F = numerics.matrix_exponential(aug, h)
        M_s = F[:n, n : n + m]
        M_c = F[:n, n + m :]
        return E, lambda t: M_s @ np.sin(w * t) + M_c @ np.cos(w * t)

    @property
    def r_inf(self) -> float:
        return 0.0 if self.kind == "zero" else float(np.max(np.abs(self.amplitude)))


@dataclass
class ConditionParams:
    """Inputs of the filter-design inequality checker (diagnostic only)."""

    check: bool = True
    lip_f: float = 0.2
    b0: float = 0.0
    rho_0: Optional[float] = None
    rho_r: Optional[float] = None


@dataclass
class ScenarioConfig:
    """Full description of one deterministic closed-loop run."""

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
        if self.duration <= 0 or self.step <= 0:
            raise ValueError("duration and step must be positive")
        if self.record_decimation < 1:
            raise ValueError("record_decimation must be >= 1")
        self.ts_every = _exact_multiple(self.controller.T_s, self.step, "T_s")
        if self.learner is not None:
            self.data_every = _exact_multiple(
                self.learner.T_data, self.step, "T_data"
            )
        else:
            self.data_every = 0
        self.n_steps = int(round(self.duration / self.step))
        if abs(self.n_steps * self.step - self.duration) > 1e-9:
            raise ValueError("duration must be a multiple of the step")


def _exact_multiple(period: float, step: float, name: str) -> int:
    k = int(round(period / step))
    if k < 1 or abs(k * step - period) > 1e-12:
        raise ValueError(f"step {step} does not divide {name} {period} evenly")
    return k


@dataclass
class SimulationTrace:
    """Time-indexed record of every loop signal plus the event log."""

    data: np.ndarray
    events: list
    unstable: bool = False
    meta: dict = field(default_factory=dict)
    columns: tuple = TRACE_COLUMNS

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
    """Resumable engine state captured at a step boundary."""

    t0: float
    x: np.ndarray
    x_id: np.ndarray
    ctrl_state: ctrl.ControllerState
    u_held: np.ndarray
    eta_state: np.ndarray
    learner_state: Optional[learner_mod.BayesianLearner]
    rng_state: dict
    e_f_last: float = 0.0

    def clone(self) -> "Snapshot":
        return copy.deepcopy(self)


class Engine:
    """Single-owner stepping loop for one scenario run."""

    def __init__(self, cfg: ScenarioConfig, resume: Optional[Snapshot] = None,
                 sigma_oracle: Optional[Callable[[float, np.ndarray], np.ndarray]] = None):
        self.cfg = cfg
        self.pre = ctrl.PrecomputedAdaptation.from_config(cfg.controller)
        self.ref = cfg.reference.make()
        self._sigma_oracle = sigma_oracle
        m = cfg.controller.m
        if resume is None:
            self.rng = np.random.default_rng(cfg.seed)
            if cfg.learner is not None:
                self.learner = learner_mod.BayesianLearner(
                    cfg.learner, cfg.controller.A_m, cfg.controller.B_m, self.rng
                )
            else:
                self.learner = None
            e0 = self.learner.model.e_f_hat if self.learner else 0.0
            self.state = ctrl.ControllerState.initial(cfg.controller, e0)
            self.t0 = 0.0
            self.x = cfg.plant.x0.astype(float).copy()
            self.x_id = cfg.plant.x0.astype(float).copy()
            self.u = np.zeros(m)
            self.eta_state = np.zeros(m)
            self.e_f_last = e0
        else:
            resume = resume.clone()
            self.rng = np.random.Generator(np.random.PCG64())
            self.rng.bit_generator.state = resume.rng_state
            self.learner = resume.learner_state
            if self.learner is not None:
                self.learner.rng = self.rng
            self.state = resume.ctrl_state
            self.t0 = resume.t0
            self.x = resume.x
            self.x_id = resume.x_id
            self.u = resume.u_held
            self.eta_state = resume.eta_state
            self.e_f_last = resume.e_f_last
        self.delay = plant_mod.DelayLine(
            cfg.plant.input_delay, cfg.step, dim=m
        )
        self.events: list = []
        # global step index of t0: keeps resumed time stamps, tick alignment,
        # and learner boundaries identical to an uninterrupted run
        self._i0 = int(round(self.t0 / cfg.step))
        if abs(self._i0 * cfg.step - self.t0) > 1e-9:
            raise ValueError("resume time must lie on the step grid")
        self.t_final = self.t0

    def snapshot(self) -> Snapshot:
        return Snapshot(
            t0=self.t_final,
            x=self.x.copy(),
            x_id=self.x_id.copy(),
            ctrl_state=copy.deepcopy(self.state),
            u_held=self.u.copy(),
            eta_state=self.eta_state.copy(),
            learner_state=copy.deepcopy(self.learner),
            rng_state=copy.deepcopy(self.rng.bit_generator.state),
            e_f_last=self.e_f_last,
        )

    def run(self) -> SimulationTrace:
        cfg = self.cfg
        c = cfg.controller
        p = cfg.plant
        h = cfg.step
        n_steps = cfg.n_steps
        dec = cfg.record_decimation
        ts_every = cfg.ts_every
        data_every = cfg.data_every
        alpha_c = c._alpha_c
        mode_l1gp = c.mode == "l1gp"
        delay_total = p.delay_total
        J, A_m = p.J, p.A_m
        E_id, forcing_id = cfg.reference.exact_step(A_m, c.B_m @ c.k_g, h)
        ref = self.ref
        schedule = p.uncertainty
        switch_times = [s for s in schedule.switch_times if s > self.t0 + 1e-12]

        # +2: the initial row plus a possible abort row between decimation points
        rows = np.empty((n_steps // dec + 2, len(TRACE_COLUMNS)))
        row_i = 0
        unstable = False
        steps_done = 0

        if cfg.condition.check:
            self._check_condition()

        rows[0] = self._row(self.t0)
        row_i = 1
        state = self.state
        i0 = self._i0
        for i in range(n_steps):
            t = (i0 + i) * h
            r = ref(t)
            if (i0 + i) % ts_every == 0:
                ctrl.adaptation_step(state, self.x, self.pre)
                if self._sigma_oracle is not None:
                    state.sigma_hat = self._sigma_oracle(t, self.x)
                if mode_l1gp:
                    model = self.learner.model if self.learner else None
                    if model is not None:
                        # the bandwidth law consumes the pointwise envelope
                        # at the current state, not the domain-wide scalar
                        f_hat_x, e_f = model.evaluate(self.x)
                    else:
                        f_hat_x, e_f = np.zeros(c.m), 0.0
                    self.e_f_last = e_f
                    omega_hat = ctrl.bandwidth_command(e_f, c.omega_0, c.omega_c)
                    ctrl.learning_filter_step(state, f_hat_x, omega_hat, c)
                self.eta_state = state.sigma_hat + (
                    self.eta_state - state.sigma_hat
                ) * alpha_c
                self.u = ctrl.control_step(state, self.x, r, c, self.pre, t)
            if delay_total:
                pushed = plant_mod.baseline_control(self.x, J, A_m) + self.u
                u_applied = self.delay.push(pushed)
            else:
                u_applied = self.delay.push(self.u)
            try:
                x0, x1, x2 = plant_mod.rk4_plant_step(
                    self.x, u_applied, t, h, p, include_baseline=not delay_total
                )
            except numerics.DivergenceError:
                unstable = True
            else:
                self.x = np.array((x0, x1, x2))
                self.x_id = E_id @ self.x_id + forcing_id(t)
                a0, a1, a2 = abs(x0), abs(x1), abs(x2)
                if not math.isfinite(a0 + a1 + a2) or max(a0, a1, a2) > cfg.blowup:
                    unstable = True
            t_next = (i0 + i + 1) * h
            while switch_times and t_next >= switch_times[0] - 1e-12:
                self.events.append(
                    {"t": switch_times.pop(0), "kind": "uncertainty_switch"}
                )
            steps_done = i + 1
            if unstable:
                self.events.append({"t": t_next, "kind": "unstable_abort"})
                rows[row_i] = self._row(t_next)
                row_i += 1
                break
            if (
                self.learner is not None
                and data_every
                and (i0 + i + 1) % data_every == 0
            ):
                self.learner.push(t_next, self.x, u_applied)
                ev = self.learner.maybe_update(t_next)
                if ev is not None:
                    self.events.append(ev)
            if (i + 1) % dec == 0:
                rows[row_i] = self._row(t_next)
                row_i += 1
        self.t_final = (self._i0 + steps_done) * h
        trace = SimulationTrace(
            data=rows[:row_i].copy(),
            events=list(self.events),
            unstable=unstable,
            meta={"t0": self.t0, "seed": cfg.seed},
        )
        return trace

    def _row(self, t: float) -> np.ndarray:
        c = self.cfg.controller
        state = self.state
        x = self.x
        f_true = self.cfg.plant.uncertainty.eval(t, x)
        if self.learner is not None:
            f_hat = self.learner.model.f_hat(x)
        else:
            f_hat = np.zeros(c.m)
        e_f = self.e_f_last
        r = self.ref(t)
        return np.concatenate(
            [
                [t],
                x,
                state.x_hat,
                state.x_hat - x,
                self.u,
                state.f_L,
                self.eta_state,
                state.sigma_hat,
                f_true,
                f_hat,
                r,
                self.x_id,
                [e_f, state.omega_filtered],
            ]
        )

    def _check_condition(self):
        cp = self.cfg.condition
        rho_0 = (
            cp.rho_0
            if cp.rho_0 is not None
            else float(np.max(np.abs(self.cfg.plant.x0)))
        )
        try:
            report = ctrl.l1_norm_condition(
                self.cfg.controller,
                lip_f=cp.lip_f,
                b0=cp.b0,
                rho_r=cp.rho_r,
                r_inf=self.cfg.reference.r_inf,
                rho_0=rho_0,
            )
        except ctrl.ConfigurationError as exc:
            warnings.warn(f"norm-condition check skipped: {exc}")
            return
        self.events.append({"t": self.t0, "kind": "l1_condition", **report.as_dict()})
        if not report.satisfied:
            warnings.warn(
                f"filter norm condition unsatisfied: lhs={report.lhs:.4g} "
                f">= rhs={report.rhs:.4g}; proceeding anyway"
            )


def run(cfg: ScenarioConfig, resume: Optional[Snapshot] = None) -> SimulationTrace:
    """Execute one scenario and return its trace."""
    return Engine(cfg, resume=resume).run()


def run_reference_system(
    cfg: ScenarioConfig,
    f_oracle: Optional[Callable[[float, np.ndarray], np.ndarray]] = None,
) -> dict:
    """Integrate the non-adaptive reference loop with the uncertainty known.

    The true uncertainty (by default the plant's schedule) is cancelled
    within the control filter's bandwidth:
    ``u_ref = C(s)(k_g r - f(x_ref))``, same exact pole-mapped filter
    discretization as the live controller. Returns arrays t, x_ref, u_ref
    at the scenario's recording rate.
    """
    c = cfg.controller
    if f_oracle is None:
        sched = cfg.plant.uncertainty
        f_oracle = lambda t, x: sched.eval(t, x)
    ref = cfg.reference.make()
    h = cfg.step
    ts_every = cfg.ts_every
    alpha_c = math.exp(-c.omega_c * c.T_s)
    A_m, B_m, k_g = c.A_m, c.B_m, c.k_g
    x_ref = cfg.plant.x0.astype(float).copy()
    filt = np.zeros(c.m)
    u_ref = np.zeros(c.m)
    n_steps = cfg.n_steps
    dec = cfg.record_decimation
    n_rows = n_steps // dec + 1
    ts = np.empty(n_rows)
    xs = np.empty((n_rows, c.n))
    us = np.empty((n_rows, c.m))
    ts[0], xs[0], us[0] = 0.0, x_ref, u_ref
    row = 1
    diverged = False
    for i in range(n_steps):
        t = i * h
        if i % ts_every == 0:
            v = k_g @ ref(t) - f_oracle(t, x_ref)
            filt = v + (filt - v) * alpha_c
            u_ref = filt
        try:
            x_ref = numerics.rk4_step(
                lambda tt, xr: A_m @ xr + B_m @ (u_ref + f_oracle(tt, xr)),
                t,
                x_ref,
                h,
            )
        except numerics.DivergenceError:
            diverged = True
        if diverged or not np.all(np.isfinite(x_ref)):
            break
        if (i + 1) % dec == 0:
            ts[row], xs[row], us[row] = (i + 1) * h, x_ref, u_ref
            row += 1
    return {"t": ts[:row], "x_ref": xs[:row], "u_ref": us[:row], "diverged": diverged}


@dataclass
class MarginResult:
    """Outcome of the input-delay bisection."""

    margin: float
    bracket: tuple
    iterations: int
    criterion: str
    candidates: list
    open_bracket: bool = False

    def as_dict(self) -> dict:
        return {
            "margin_s": self.margin,
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
    """Bisect the input delay to the largest stable value within resolution.

    A candidate counts as unstable when its state exceeds the blowup bound
    or turns non-finite within the horizon. When ``snapshot_time`` is set,
    the base scenario first runs that long without delay and every
    candidate resumes from the captured state (used to measure the margin
    of the running, post-learning loop).
    """
    if abs(round(resolution / base.step) * base.step - resolution) > 1e-12:
        raise ValueError("resolution must be a multiple of the engine step")
    snap = None
    if snapshot_time is not None:
        warm_cfg = replace(base, duration=snapshot_time)
        warm = Engine(warm_cfg)
        warm_trace = warm.run()
        if warm_trace.unstable:
            raise UnstableAtZeroDelayError("unstable during the warm-up run")
        snap = warm.snapshot()

    def candidate(delay: float) -> bool:
        cfg = replace(
            base,
            duration=horizon,
            plant=replace(base.plant, input_delay=delay),
            condition=replace(base.condition, check=False),
        )
        trace = Engine(cfg, resume=snap).run()
        return not trace.unstable

    candidates = []
    iterations = 0

    stable0 = candidate(0.0)
    candidates.append((0.0, stable0))
    iterations += 1
    if not stable0:
        raise UnstableAtZeroDelayError("base scenario unstable at zero delay")

    hi_stable = candidate(max_delay)
    candidates.append((max_delay, hi_stable))
    iterations += 1
    criterion = (
        f"unstable iff |x|_inf > {base.blowup} or non-finite within {horizon}s"
    )
    if hi_stable:
        return MarginResult(
            margin=max_delay,
            bracket=(max_delay, math.inf),
            iterations=iterations,
            criterion=criterion,
            candidates=candidates,
            open_bracket=True,
        )

    lo, hi = 0.0, max_delay
    while hi - lo > resolution + 1e-12:
        mid = lo + math.floor((hi - lo) / 2.0 / resolution) * resolution
        if mid <= lo:
            mid = lo + resolution
        stable = candidate(mid)
        candidates.append((mid, stable))
        iterations += 1
        if stable:
            lo = mid
        else:
            hi = mid
    return MarginResult(
        margin=lo,
        bracket=(lo, hi),
        iterations=iterations,
        criterion=criterion,
        candidates=candidates,
    )


def window_mean(t: np.ndarray, series: np.ndarray, t0: float, t1: float) -> float:
    """Mean of a series over rows with t0 <= t <= t1 (closed window)."""
    mask = (t >= t0 - 1e-12) & (t <= t1 + 1e-12)
    if not np.any(mask):
        raise ValueError(f"no rows in window [{t0}, {t1}]")
    return float(np.mean(series[mask]))


def metrics(trace: SimulationTrace, windows: Optional[list] = None) -> dict:
    """Aggregate tracking, learning, and adaptation metrics of a trace.

    Emits rowwise series (2-norms of the ideal-tracking error, learning
    input, and adaptive input; inf-norm of the prediction error) plus
    window means over the requested [t0, t1] intervals and the final-1s
    per-axis tracking error.
    """
    t = trace.t
    x = trace.block("x")
    err_id = np.linalg.norm(x - trace.block("xid"), axis=1)
    fl_norm = np.linalg.norm(trace.block("fl"), axis=1)
    eta_norm = np.linalg.norm(trace.block("eta"), axis=1)
    xtilde_inf = np.max(np.abs(trace.block("xtilde")), axis=1)
    track_abs = np.abs(x - trace.block("r"))

    t_end = t[-1]
    final_mask = t >= t_end - 1.0 - 1e-12
    final_err_axes = np.mean(track_abs[final_mask], axis=0)

    out = {
        "series": {
            "t": t,
            "err_ideal_norm": err_id,
            "fl_norm": fl_norm,
            "eta_norm": eta_norm,
            "xtilde_inf": xtilde_inf,
        },
        "final_tracking_error_axes": final_err_axes.tolist(),
        "final_tracking_error_inf": float(np.max(final_err_axes)),
        "max_state_inf": float(np.max(np.abs(x))),
        "unstable": trace.unstable,
        "windows": {},
    }
    if windows:
        for t0, t1 in windows:
            key = f"{t0:g}-{t1:g}"
            out["windows"][key] = {
                "err_ideal_norm": window_mean(t, err_id, t0, t1),
                "fl_norm": window_mean(t, fl_norm, t0, t1),
                "eta_norm": window_mean(t, eta_norm, t0, t1),
                "tracking_abs_mean": float(
                    np.mean(track_abs[(t >= t0 - 1e-12) & (t <= t1 + 1e-12)])
                ),
            }
    return out


def quadrotor_nominal(
    mode: str = "l1gp",
    reference_kind: str = "step",
    uncertainty: str = "quadratic",
    duration: float = 60.0,
    switch_time: Optional[float] = None,
    with_learner: bool = True,
    seed: int = 12345,
    record_decimation: int = 10,
    input_delay: float = 0.0,
) -> ScenarioConfig:
    """Stock quadrotor rate-loop scenario with the nominal constants.

    Inertia diag(0.011, 0.011, 0.021), desired dynamics -3 I, control
    filter bandwidth 80 rad/s, bandwidth-law lag 0.01 rad/s, sampling
    period 1 ms, predictor offset initialization (0.5, 0.5, 0.5), learner
    at 1 Hz refitting every 10 samples, unoptimized unit kernel.
    """
    J = np.diag([0.011, 0.011, 0.021])
    A_m = -3.0 * np.eye(3)
    B_m = np.diag(1.0 / np.diag(J))
    C_m = np.eye(3)
    controller = ctrl.ControllerConfig(
        A_m=A_m,
        B_m=B_m,
        C_m=C_m,
        T_s=0.001,
        omega_c=80.0,
        omega_L=0.01,
        omega_0=1.0,
        mode=mode,
        x_hat0=np.array([0.5, 0.5, 0.5]),
    )
    if switch_time is not None:
        segments = ((0.0, uncertainty), (switch_time, "sine_switch"))
    else:
        segments = ((0.0, uncertainty),)
    plant_cfg = plant_mod.PlantConfig(
        J=J,
        x0=np.zeros(3),
        uncertainty=plant_mod.UncertaintySchedule(segments),
        input_delay=input_delay,
        A_m=A_m,
    )
    lrn = learner_mod.LearnerConfig() if with_learner else None
    return ScenarioConfig(
        controller=controller,
        plant=plant_cfg,
        learner=lrn,
        reference=ReferenceConfig(kind=reference_kind),
        duration=duration,
        seed=seed,
        record_decimation=record_decimation,
    )
