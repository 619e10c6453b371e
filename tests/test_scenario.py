"""Closed-loop engine tests: contracts, degeneracies, oracles, margin search."""

import contextlib
import copy
import dataclasses
import glob
import math
import os
import pickle
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from l1gp import controller as ctrl
from l1gp import config, gp, numerics, plant, scenario
from l1gp.learner import LearnerConfig


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def nominal(duration=5.0, reference_kind="step", **kw):
    return config.quadrotor_nominal(
        duration=duration, reference_kind=reference_kind, **kw
    )


def edit(cfg, part, **changes):
    """``cfg`` with its ``part`` config (``plant``, ``controller``, ...)
    replaced by one with ``changes``."""
    return replace(cfg, **{part: replace(getattr(cfg, part), **changes)})


class TestEquilibriumAndBookkeeping:
    def test_all_zero_run(self):
        cfg = nominal(duration=2.0, reference_kind="zero", uncertainty="zero", mode="l1")
        cfg = edit(cfg, "controller", x_hat0=(0.0, 0.0, 0.0))
        trace = scenario.run(cfg)
        assert not trace.unstable
        numeric = trace.data[:, 1:]
        assert np.max(np.abs(numeric)) == 0.0

    def test_row_count_and_uniform_time(self):
        cfg = nominal(duration=2.0, mode="l1")
        trace = scenario.run(cfg)
        assert trace.data.shape[0] == 2.0 / 0.001 / 10 + 1
        dt = np.diff(trace.t)
        assert np.allclose(dt, 0.01, atol=1e-12)

    def test_xtilde_is_xhat_minus_x(self):
        cfg = nominal(duration=1.0)
        trace = scenario.run(cfg)
        assert np.max(np.abs(
            trace.block("xtilde") - (trace.block("xhat") - trace.block("x"))
        )) < 1e-12

    def test_determinism_bit_identical(self):
        cfg = nominal(duration=3.0, reference_kind="sinusoid")
        a = scenario.run(cfg)
        b = scenario.run(nominal(duration=3.0, reference_kind="sinusoid"))
        assert np.array_equal(a.data, b.data)

    def test_seed_changes_trace(self):
        a = scenario.run(nominal(duration=12.0, seed=1))
        b = scenario.run(nominal(duration=12.0, seed=2))
        # learner noise differs once the first model is published
        assert not np.array_equal(a.data, b.data)


class TestRateContracts:
    def test_publish_times_multiples(self):
        cfg = nominal(duration=25.0, reference_kind="sinusoid")
        trace = scenario.run(cfg)
        pubs = [e for e in trace.events if e["kind"] == "learner_published"]
        assert [e["t"] for e in pubs] == [10.0, 20.0]

    def test_sigma_piecewise_constant_at_ts(self):
        cfg = nominal(duration=0.2, record_decimation=1)
        cfg = edit(cfg, "controller", T_s=0.002)
        trace = scenario.run(cfg)
        sg = trace.block("sigmahat")
        t = trace.t
        changes = np.where(np.any(np.diff(sg, axis=0) != 0.0, axis=1))[0]
        # value at row k+1 was set by the tick at t[k+1] - h departure...
        # breakpoints must land on multiples of T_s
        for k in changes:
            tick_time = t[k + 1] - 0.001
            assert abs(tick_time / 0.002 - round(tick_time / 0.002)) < 1e-9

    def test_fl_continuity(self):
        cfg = nominal(duration=15.0, reference_kind="sinusoid", record_decimation=1)
        trace = scenario.run(cfg)
        fl = trace.block("fl")
        fhat = trace.block("fhat")
        jumps = np.max(np.abs(np.diff(fl, axis=0)), axis=1)
        gap = np.max(np.abs(fhat - fl), axis=1)
        bound = 80.0 * 0.001 * np.maximum.accumulate(gap)[:-1] + 1e-15
        assert np.all(jumps <= bound)

    def test_omega_bounds_and_monotonicity(self):
        cfg = nominal(duration=30.0, reference_kind="sinusoid")
        trace = scenario.run(cfg)
        w = trace.col("omega_filtered")
        assert np.all(w >= 0.0) and np.all(w <= 80.0 + 1e-12)
        ef = trace.col("e_f_hat")
        if np.all(np.diff(ef) <= 1e-12):
            assert np.all(np.diff(w) >= -1e-12)

    def test_ideal_trace_independent_of_uncertainty_and_mode(self):
        base = scenario.run(nominal(duration=3.0))
        other = scenario.run(nominal(duration=3.0, uncertainty="sine_switch", mode="l1"))
        assert np.array_equal(base.block("xid"), other.block("xid"))


class TestDegeneracies:
    def test_l1_equals_l1gp_with_zero_learning(self):
        # omega_0 = 0 pins the learning filter's bandwidth at zero, so f_L
        # stays zero whatever the learner publishes: the l1gp loop is the
        # l1 loop bit for bit, and only the model's recorded reads differ
        a = nominal(duration=25.0, reference_kind="sinusoid", mode="l1")
        b = nominal(duration=25.0, reference_kind="sinusoid")
        ta = scenario.run(a)
        tb = scenario.run(edit(b, "controller", omega_0=0.0))
        assert any(ev["kind"] == "learner_published" for ev in tb.events)
        reads = [name.startswith(("fhat", "e_f_hat")) for name in scenario.TRACE_COLUMNS]
        loop = np.logical_not(reads)
        assert np.any(tb.data[:, reads] != ta.data[:, reads])
        assert ta.data[:, loop].tobytes() == tb.data[:, loop].tobytes()

    def test_prediction_offset_transient_decays(self):
        cfg = nominal(duration=5.0, reference_kind="zero")
        trace = scenario.run(cfg)
        xt = np.max(np.abs(trace.block("xtilde")), axis=1)
        after_3s = xt[trace.t >= 3.0]
        assert np.all(after_3s < 0.01)
        assert xt[0] == pytest.approx(0.5)


class TestInstability:
    def test_early_termination_flagged_and_well_formed(self):
        cfg = nominal(duration=10.0, mode="l1", input_delay=0.15)
        trace = scenario.run(cfg)
        assert trace.unstable
        kinds = [e["kind"] for e in trace.events]
        assert "unstable_abort" in kinds
        assert np.all(np.isfinite(trace.data))
        assert trace.t[-1] < 10.0

    def test_a_non_finite_state_stops_the_run_on_the_one_rule(self):
        # no step raises: a NaN fails |x_i| <= blowup like a blow-up does,
        # and the abort row holds the state that failed the rule
        def nan_field(x0, x1, x2):
            return 0.0, math.nan, 0.0

        cfg = nominal(duration=1.0, mode="l1")
        cfg = edit(cfg, "plant", uncertainty=plant.UncertaintySchedule(((0.0, nan_field),)))
        trace = scenario.run(cfg)
        assert trace.unstable
        assert trace.t[-1] == cfg.step
        assert trace.events[-1] == {"t": cfg.step, "kind": "unstable_abort"}
        assert not np.all(np.isfinite(trace.block("x")[-1]))


def reference_system(cfg):
    """The state after each step of the L1 reference system of ``cfg``, an
    oracle apart from the engine: ``x' = A_m x + B_m (u + f(x))`` with
    ``u = C(s)(k_g r - f(x))``, where ``f(x)`` and ``r`` are sampled at each
    tick and held over it, ``C(s)`` is the controller's filter map and the
    plant steps by numpy RK4."""
    c = cfg.controller
    A, B = np.diag(c.a_m), np.diag(c.b_m)
    alpha = math.exp(-c.omega_c * c.T_s)
    r = cfg.reference.make()
    sched = cfg.plant.uncertainty
    h = cfg.step
    z = np.array(cfg.plant.x0)
    filt = np.zeros(3)
    out = [z.copy()]
    for i in range(cfg.n_steps):
        if i % cfg.ts_every == 0:
            v = np.multiply(c.k_g, r(i * h)) - sched.eval(i * h, z)
            filt = v + (filt - v) * alpha
        z = numerics.rk4_step(lambda tt, zz: A @ zz + B @ (filt + sched.eval(tt, zz)),
                              i * h, z, h)
        out.append(z.copy())
    return np.asarray(out)


class TestReferenceSystem:
    def test_gap_to_the_reference_system_is_linear_in_t_s(self):
        # with x_hat(0) = x(0), as L1's bounds assume, the l1 loop sits off
        # its reference system by the sampled-data offset, T_s b sigma_hat
        # to first order
        deck, _ = config.resolve_scenario(
            config.parse_flat_file(os.path.join(ROOT, "configs", "l1_plain.cfg")))
        gaps = []
        for ts in (0.001, 0.002, 0.005):
            cfg = replace(deck, duration=5.0, record_decimation=1)
            cfg = edit(cfg, "controller", T_s=ts, x_hat0=cfg.plant.x0)
            x = scenario.run(cfg).block("x")
            gaps.append(np.max(np.abs(x - reference_system(cfg))))
        assert gaps[0] == pytest.approx(1.82e-3, rel=0.01)
        assert gaps[1] / gaps[0] == pytest.approx(2.0, rel=0.02)
        assert gaps[2] / gaps[0] == pytest.approx(5.0, rel=0.02)


class TestIdealLoop:
    # x_id' = -3 x_id + b r(t) per axis with b = (B_m k_g)_ii = 3, x_id(0) = 0
    @pytest.mark.parametrize("kind", ["step", "sinusoid"])
    def test_matches_closed_form(self, kind):
        cfg = nominal(duration=4.0, reference_kind=kind, mode="l1")
        trace = scenario.run(cfg)
        t = trace.t[:, None]
        a = np.array(cfg.reference.amplitude)
        b = np.multiply(cfg.controller.b_m, cfg.controller.k_g)
        assert np.allclose(b, 3.0, rtol=1e-12)
        if kind == "step":
            exact = b * a * (1.0 - np.exp(-3.0 * t)) / 3.0
        else:
            w = np.array(cfg.reference.frequency)
            exact = b * a * (
                3.0 * np.sin(w * t) - w * np.cos(w * t) + w * np.exp(-3.0 * t)
            ) / (9.0 + w**2)
        assert np.max(np.abs(trace.block("xid") - exact)) <= 1e-15

    @pytest.mark.parametrize("deck", [
        {"reference.kind": "zero"},
        {"reference.kind": "step"},
        {"reference.kind": "sinusoid"},
        {"reference.kind": "sinusoid", "controller.a_m": [-2.0, -3.0, -4.5],
         "plant.j": [0.011, 0.013, 0.021], "reference.amplitude": [1.0, 0.6, 0.3],
         "reference.frequency": [0.5, 0.7, 1.1]},
    ], ids=["zero", "step", "sinusoid", "anisotropic"])
    def test_matches_mpmath(self, deck):
        # every row of a 20 s run against the solution from x0 at t = 0,
        # e^{a t} x0 plus e^{a t} convolved with b r, at the row's own t
        mp = pytest.importorskip("mpmath")
        cfg, _ = config.resolve_scenario({
            "duration": 20.0, "controller.mode": "l1", "plant.j": [0.011, 0.011, 0.021],
            "plant.x0": [0.3, -0.2, 0.1], **deck})
        trace = scenario.run(cfg)
        b = np.multiply(cfg.controller.b_m, cfg.controller.k_g).tolist()
        axes = zip(cfg.controller.a_m, b, cfg.plant.x0, cfg.reference.amplitude,
                   cfg.reference.frequency)
        kind = cfg.reference.kind
        with mp.workdps(40):
            for i, (a, b, x0, amp, w) in enumerate(axes):
                a, b, x0, amp, w = (mp.mpf(v) for v in (a, b, x0, amp, w))
                for t, got in zip(trace.t.tolist(), trace.block("xid")[:, i].tolist()):
                    e = mp.exp(a * t)
                    if kind == "zero":
                        want = e * x0
                    elif kind == "step":
                        want = e * x0 + b * amp * (e - 1) / a
                    else:
                        s, c = mp.sin(w * t), mp.cos(w * t)
                        want = e * x0 + b * amp * (w * e - a * s - w * c) / (a**2 + w**2)
                    assert abs(got - want) <= 1e-15, (i, t)

    @pytest.mark.parametrize("kind", ["step", "sinusoid"])
    @pytest.mark.parametrize("key, value", [
        ("amplitude", [1.0, 1.0]),
        ("amplitude", [1.0, math.inf, 1.0]),
        ("frequency", [0.5, math.nan, 0.5]),
        ("frequency", [0.5, 0.5, 0.5, 0.5]),
        ("frequency", 0.5),
    ])
    def test_reference_vectors_are_three_finite_values(self, kind, key, value):
        with pytest.raises(ValueError, match=f"reference {key} must be 3 finite"):
            scenario.ReferenceConfig(kind=kind, **{key: value})


class TestConfigEdits:
    def test_edits_after_construction_take_effect(self):
        # an edit is a new config from dataclasses.replace: it equals, and
        # runs as, a config built with the edited values
        cfg = config.quadrotor_nominal(duration=1.0, mode="l1")
        cfg = edit(replace(cfg, duration=2.0), "plant", input_delay=0.01)
        assert (cfg.n_steps, cfg.delay_steps) == (2000, 10)
        fresh = config.quadrotor_nominal(duration=2.0, mode="l1",
                                         input_delay=0.01)
        assert cfg == fresh
        trace = scenario.run(cfg)
        assert trace.t[-1] == 2.0
        assert np.array_equal(trace.data, scenario.run(fresh).data)

    # omega_c = 40 fails the norm condition, which the runs report
    @pytest.mark.filterwarnings("ignore:filter norm condition unsatisfied")
    @pytest.mark.parametrize("part, name, value", [
        ("controller", "b_m", (1 / 0.022, 1 / 0.022, 1 / 0.042)),
        ("controller", "omega_c", 40.0),
    ])
    def test_edits_to_cached_fields_take_effect(self, part, name, value):
        # replace derives the controller's tick constants and filter
        # factors as construction does: every attribute, the private ones
        # included, equals that of the part built with the value
        cfg = nominal(duration=1.0, mode="l1")
        before = scenario.run(cfg).data
        old = getattr(cfg, part)
        args = {f.name: getattr(old, f.name) for f in dataclasses.fields(old) if f.init}
        built = replace(cfg, **{part: type(old)(**{**args, name: value})})
        edited = edit(cfg, part, **{name: value})
        assert vars(getattr(edited, part)) == vars(getattr(built, part))
        assert vars(getattr(edited, part)) != vars(old)
        after = scenario.run(edited).data
        assert np.array_equal(after, scenario.run(built).data)
        assert not np.array_equal(after, before)

    def test_a_learner_runs_in_mode_l1gp_and_only_there(self):
        l1, l1gp = nominal(duration=1.0, mode="l1"), nominal(duration=1.0)
        with pytest.raises(ValueError, match="^mode l1 runs no learner$"):
            replace(l1, learner=l1gp.learner)
        with pytest.raises(ValueError, match="^mode l1gp needs a learner$"):
            replace(l1gp, learner=None)
        with pytest.raises(ValueError, match="^mode l1gp needs a learner$"):
            edit(l1, "controller", mode="l1gp")

    def test_edit_off_the_step_grid_fails_when_read(self):
        cfg = config.quadrotor_nominal(duration=1.0, mode="l1")
        with pytest.raises(ValueError, match="duration"):
            replace(cfg, duration=1.0005)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_step_must_be_positive_and_finite(self, value):
        # a nan step would otherwise be reported as T_s off the step grid
        cfg = nominal(duration=1.0, mode="l1")
        with pytest.raises(ValueError, match="^step must be positive and finite$"):
            replace(cfg, step=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_blowup_must_be_positive_and_finite(self, value):
        # an infinite blowup would turn the divergence guard off
        cfg = nominal(duration=1.0, mode="l1")
        with pytest.raises(ValueError, match="^blowup must be positive and finite$"):
            replace(cfg, blowup=value)


class TestPlantReplay:
    def test_engine_steps_are_generic_rk4_steps(self):
        # every recorded state is one numerics.rk4_step over plant_derivative
        # from the previous row, with the input the row records, on the
        # controller's A_m and B_m: the stock ones and an edited pair
        stock = nominal(duration=1.0, mode="l1", switch_time=0.5, record_decimation=1)
        b = stock.controller.b_m
        model = edit(stock, "controller", a_m=(-4.0, -3.0, -2.0),
                     b_m=(b[0], 0.5 * b[1], b[2]))
        for cfg in (stock, model):
            trace = scenario.run(cfg)
            assert not trace.unstable
            assert [e["t"] for e in trace.events
                    if e["kind"] == "uncertainty_switch"] == [0.5]
            t, x, u = trace.t, trace.block("x"), trace.block("u")
            assert len(t) == cfg.n_steps + 1
            c, h = cfg.controller, cfg.step
            for k in range(1, len(t)):
                want = numerics.rk4_step(
                    lambda tt, z: plant.plant_derivative(
                        z, u[k], tt, c.a_m, c.b_m, cfg.plant.uncertainty),
                    t[k - 1], x[k - 1], h,
                )
                assert np.array_equal(x[k], want), k


class TestSwitchStep:
    @pytest.mark.parametrize("switch", [0.5, 1.1])
    def test_step_ending_on_the_switch_uses_the_new_kind_at_its_last_stage(
        self, switch
    ):
        # 1099 * 0.001 + 0.001 < 1.1 in floats, so a stage clock would keep
        # the old kind; the engine picks the segment by step index
        cfg = nominal(duration=switch + 0.1, mode="l1", switch_time=switch,
                      record_decimation=1)
        trace = scenario.run(cfg)
        assert [e["t"] for e in trace.events
                if e["kind"] == "uncertainty_switch"] == [switch]
        h = cfg.step
        k = round(switch / h)
        assert cfg.switch_steps == [k]
        old, new = (replace(cfg.plant, uncertainty=plant.UncertaintySchedule(
            ((0.0, kind),))) for kind in ("quadratic", "sine_switch"))
        t, x, u = trace.t, trace.block("x"), trace.block("u")

        c = cfg.controller

        def oracle(row, stage_plants):
            # numerics.rk4_step whose i-th stage evaluates stage_plants[i]
            stages = iter(stage_plants)
            return numerics.rk4_step(
                lambda tt, z: plant.plant_derivative(
                    z, u[row + 1], tt, c.a_m, c.b_m, next(stages).uncertainty),
                t[row], x[row], h,
            )

        assert np.array_equal(x[k - 1], oracle(k - 2, [old] * 4))
        assert np.array_equal(x[k], oracle(k - 1, [old] * 3 + [new]))
        assert not np.array_equal(x[k], oracle(k - 1, [old] * 4))
        assert np.array_equal(x[k + 1], oracle(k, [new] * 4))
        f_true = trace.block("ftrue")
        assert np.array_equal(f_true[k - 1], old.uncertainty.eval(0.0, x[k - 1]))
        assert np.array_equal(f_true[k], new.uncertainty.eval(0.0, x[k]))


class TestControllerReplay:
    # every recorded controller signal is one tick of the array formulas
    # (numpy matrix products) applied to the previous row, each matrix
    # built by its dense formula: expm, LU solves and inverses
    @pytest.mark.parametrize(
        "mode, kind, duration",
        [("l1", "sinusoid", 2.0), ("l1gp", "step", 11.0)],
    )
    def test_rows_follow_the_array_formulas(self, mode, kind, duration):
        cfg = nominal(duration=duration, mode=mode, reference_kind=kind,
                      record_decimation=1)
        trace = scenario.run(cfg)
        assert not trace.unstable
        if mode == "l1gp":
            # a model is published at 10 s, so f_hat is not zero at the end
            assert np.max(np.abs(trace.block("fhat")[-1])) > 0.0
        import scipy.linalg

        c = cfg.controller
        I = np.eye(3)
        # the dense matrices of the model, with the output matrix C = I
        A, B, C = np.diag(c.a_m), np.diag(c.b_m), I
        expAT = scipy.linalg.expm(A * c.T_s)
        phi = np.linalg.solve(A, expAT - I)
        gain = -np.linalg.inv(B) @ np.linalg.solve(phi, expAT)
        k_g = -np.linalg.inv(C @ np.linalg.solve(A, B))
        amp, w = np.array(cfg.reference.amplitude), np.array(cfg.reference.frequency)
        t, x, xhat = trace.t, trace.block("x"), trace.block("xhat")
        sg, fl, eta = trace.block("sigmahat"), trace.block("fl"), trace.block("eta")
        u, xid, fhat = trace.block("u"), trace.block("xid"), trace.block("fhat")
        r_rec = trace.block("r")
        ef, om = trace.col("e_f_hat"), trace.col("omega_filtered")
        alpha_c = math.exp(-c.omega_c * c.T_s)
        alpha_L = math.exp(-c.omega_L * c.T_s)
        c_state = np.zeros(3)
        for k in range(1, len(t)):
            p = k - 1
            r = amp * np.sin(w * t[p]) if kind == "sinusoid" else amp
            assert np.array_equal(r_rec[p], r), k
            sigma = gain @ (xhat[p] - x[p])
            assert np.array_equal(sg[k], sigma), k
            if mode == "l1gp":
                w_hat = ctrl.bandwidth_command(ef[k], c.omega_0, c.omega_c)
                omega = w_hat + (om[p] - w_hat) * alpha_L
                f_L = fhat[p] + (fl[p] - fhat[p]) * math.exp(-omega * c.T_s)
            else:
                omega, f_L = 0.0, np.zeros(3)
            assert om[k] == omega, k
            assert np.array_equal(fl[k], f_L), k
            assert np.array_equal(eta[k], sigma + (eta[p] - sigma) * alpha_c), k
            v = sigma - k_g @ r
            c_state = v + (c_state - v) * alpha_c
            u_k = -f_L - c_state
            assert np.array_equal(u[k], u_k), k
            drive = B @ (f_L + sigma + u_k)
            assert np.array_equal(xhat[k], expAT @ xhat[p] + phi @ drive), k
        # the ideal loop x' = A_m x + B_m k_g r(t) from x0 at t = 0 in
        # closed form, per axis: e^{a t} x0 plus e^{a t} convolved with b r
        a, b = np.array(cfg.controller.a_m), np.diag(B @ k_g)
        tt, decay = t[:, None], np.exp(np.multiply.outer(t, a))
        if kind == "sinusoid":
            wave = w * decay - a * np.sin(w * tt) - w * np.cos(w * tt)
            forced = b * amp * wave / (a**2 + w**2)
        else:
            forced = b * amp * (decay - 1.0) / a
        exact = decay * np.array(cfg.plant.x0) + forced
        assert np.max(np.abs(xid - exact)) <= 1e-15


class TestEngineCalls:
    # the benchmark samples host speed at DelayLine.push and times the
    # controller tick through the three controller functions, so the
    # engine calls each through its class or module attribute, once per
    # step or tick
    TICK = ("adaptation_step", "learning_filter_step", "control_step")

    @staticmethod
    def count_calls(monkeypatch, counts, owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    @pytest.mark.parametrize("delay", [0.0, 0.005])
    def test_one_push_and_one_tick_per_step(self, monkeypatch, delay):
        counts = {}
        self.count_calls(monkeypatch, counts, plant.DelayLine, "push")
        for name in self.TICK:
            self.count_calls(monkeypatch, counts, ctrl, name)
        cfg = nominal(duration=0.5, input_delay=delay)
        trace = scenario.run(cfg)
        assert not trace.unstable
        assert counts == {"push": cfg.n_steps, **{name: cfg.n_steps for name in self.TICK}}

    def test_patches_made_after_build_are_seen(self, monkeypatch):
        # the loop binds its calls when it runs, not when the engine is
        # built: the benchmark wraps them around an engine it already has
        counts = {}
        cfg = nominal(duration=0.5, input_delay=0.005)
        engine = scenario.Engine(cfg)
        self.count_calls(monkeypatch, counts, plant, "rk4_plant_step")
        self.count_calls(monkeypatch, counts, plant.DelayLine, "push")
        for name in self.TICK:
            self.count_calls(monkeypatch, counts, ctrl, name)
        assert not engine.run().unstable
        assert counts == {"rk4_plant_step": cfg.n_steps, "push": cfg.n_steps,
                          **{name: cfg.n_steps for name in self.TICK}}


class TestSnapshotResume:
    def test_resume_matches_uninterrupted(self):
        full = scenario.run(nominal(duration=14.0, reference_kind="sinusoid"))
        eng = scenario.Engine(nominal(duration=7.0, reference_kind="sinusoid"))
        first = eng.run()
        snap = eng.snapshot()
        cfg2 = nominal(duration=7.0, reference_kind="sinusoid")
        second = scenario.Engine(cfg2, resume=snap).run()
        stitched = np.vstack([first.data, second.data[1:]])
        assert np.array_equal(stitched, full.data)

    def test_runs_of_one_engine_share_no_memory(self):
        # each run returns a view of its own row buffer, uncopied, which
        # holds at most 3 rows more than the trace
        eng = scenario.Engine(nominal(duration=0.5))
        a = eng.run()
        b = eng.run()
        assert b.t[0] == a.t[-1] == 0.5
        assert a.values.obj is not b.values.obj
        assert not np.shares_memory(a.data, b.data)
        for trace in (a, b):
            assert len(trace.data) == 51
            buffer = np.frombuffer(trace.values.obj).reshape(-1, len(trace.columns))
            assert np.shares_memory(trace.data, buffer)
            assert np.array_equal(buffer[:51], trace.data)
            assert buffer.shape[0] - len(trace.data) <= 3

    def test_a_trace_pickles_and_deep_copies(self):
        # a memoryview does not pickle: the copy holds its own packed rows
        trace = scenario.run(nominal(duration=0.2, mode="l1"))
        for copied in (copy.deepcopy(trace), pickle.loads(pickle.dumps(trace))):
            assert copied.data.tobytes() == trace.data.tobytes()
            assert not np.shares_memory(copied.data, trace.data)
            assert (copied.events, copied.unstable) == (trace.events, trace.unstable)

    def test_resume_off_the_recording_grid_keeps_the_grid(self):
        # resumed at 13 ms, the run still records at multiples of 10 ms
        full = scenario.run(nominal(duration=1.0, reference_kind="sinusoid"))
        eng = scenario.Engine(nominal(duration=0.013, reference_kind="sinusoid"))
        eng.run()
        second = scenario.Engine(
            nominal(duration=0.987, reference_kind="sinusoid"),
            resume=eng.snapshot(),
        ).run()
        assert second.t[0] == 13 * 0.001
        rows = second.data[1:]
        assert len(rows) == 99
        k = np.rint(rows[:, 0] / 0.01).astype(int)
        assert np.array_equal(rows, full.data[k])

    def test_one_snapshot_resumes_the_same_way_twice(self):
        # a 20 Hz learner refits every 0.5 s, so the resumed second draws
        # from the random generator the snapshot's learner carries
        cfg = nominal(duration=1.0, reference_kind="sinusoid")
        cfg = replace(cfg, learner=LearnerConfig(T_data=0.05, N_update=10))
        eng = scenario.Engine(cfg)
        eng.run()
        snap = eng.snapshot()
        assert snap.t0 == 1.0
        first = scenario.Engine(cfg, resume=snap)
        assert first.live.learner.buffer.rng is not snap.learner.buffer.rng
        a = first.run()
        # the original engine goes on from where the snapshot was taken, and
        # neither run changes the snapshot
        c = eng.run()
        b = scenario.Engine(cfg, resume=snap).run()
        assert a.t[0] == 1.0 and a.t[-1] == 2.0
        assert any(ev["kind"] == "learner_published" and ev["t"] > 1.0
                   for ev in a.events)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.data, c.data)
        assert a.events == b.events == c.events

    def test_the_condition_is_reported_at_step_0_only(self):
        # two runs of one engine log the events of one uninterrupted run,
        # one report at t = 0 among them; a resumed run reports nothing
        cfg = nominal(duration=1.0, mode="l1", switch_time=0.7)
        full = scenario.run(cfg)
        half = replace(cfg, duration=0.5)
        eng = scenario.Engine(half)
        first = eng.run()
        snap = eng.snapshot()
        second = eng.run()
        assert first.events + second.events == full.events
        assert [e["t"] for e in full.events if e["kind"] == "l1_condition"] == [0.0]
        resumed = scenario.Engine(half, resume=snap).run()
        assert resumed.events == second.events
        assert [e["kind"] for e in resumed.events] == ["uncertainty_switch"]

    def test_a_run_with_no_learner_holds_no_generator(self):
        # the seeded generator is the learner's, made only with it
        snap = scenario.Snapshot.initial(nominal(mode="l1"))
        assert snap.learner is None
        assert [f.name for f in dataclasses.fields(scenario.Snapshot)] == [
            "t0", "x", "ctrl_state", "learner"]


class TestRecording:
    """Recording a row does not change the run. A row recorded in a step
    with an l1gp tick records the mean that tick reads through
    ``evaluate``; any other row reads the mean alone."""

    DURATION = 1.2  # 1200 steps: a multiple of every decimation below

    @staticmethod
    def deck(ts, dec, duration=DURATION):
        # a 20 Hz learner refitting every 0.5 s publishes twice in the run
        cfg = nominal(duration=duration, reference_kind="sinusoid",
                      record_decimation=dec)
        cfg = edit(cfg, "controller", T_s=ts)
        return replace(cfg, learner=LearnerConfig(T_data=0.05, N_update=10))

    @pytest.mark.parametrize("ts", [0.001, 0.002])
    def test_every_decimation_records_the_same_rows(self, ts):
        every = scenario.run(self.deck(ts, 1))
        assert sum(ev["kind"] == "learner_published" for ev in every.events) == 2
        assert np.max(np.abs(every.block("fhat")[-1])) > 0.0
        for dec in (3, 10):
            trace = scenario.run(self.deck(ts, dec))
            assert np.array_equal(trace.data, every.data[::dec]), dec
            assert trace.events == every.events

    @pytest.mark.parametrize("dec", [1, 3, 10])
    @pytest.mark.parametrize("ts", [0.001, 0.002])
    def test_two_runs_repeat_one(self, ts, dec):
        full = scenario.run(self.deck(ts, dec))
        eng = scenario.Engine(self.deck(ts, dec, duration=self.DURATION / 2))
        a, b = eng.run(), eng.run()
        assert np.array_equal(np.vstack([a.data, b.data[1:]]), full.data)
        assert a.events + b.events == full.events

    @pytest.mark.parametrize("ts", [0.001, 0.002])
    def test_each_target_is_the_last_ticks_estimate(self, ts):
        # a row at every step. The step that ends on a sample starts one
        # row before it: that row holds the state the target pairs with. At
        # T_s = 2 ms the step starts between two ticks. The sample's own
        # row holds f_L and sigma_hat as the last tick left them, since it
        # is recorded before its step's tick
        cfg = self.deck(ts, 1)
        eng = scenario.Engine(cfg)
        trace = eng.run()
        buf = eng.live.learner.buffer
        samples = np.arange(cfg.data_every, cfg.n_steps + 1, cfg.data_every)
        if ts == 0.002:
            assert set((samples - 1) % cfg.ts_every) == {1}
        assert buf.n_targets == len(samples) == 24
        assert buf.target_X == deque(map(tuple, trace.block("x")[samples - 1].tolist()))
        estimate = trace.block("fl")[samples] + trace.block("sigmahat")[samples]
        rng = np.random.default_rng(cfg.seed)
        for got, want in zip(buf.target_Y, estimate):
            assert np.array_equal(got, want + rng.normal(0.0, cfg.learner.sigma_n, size=3))

    @pytest.mark.parametrize("dec", [1, 3, 10])
    @pytest.mark.parametrize("ts", [0.001, 0.002])
    def test_one_model_read_per_tick(self, monkeypatch, ts, dec):
        counts = {}
        for name in ("point_eval", "mean_at"):
            TestEngineCalls.count_calls(monkeypatch, counts, gp.GpPosterior, name)
        cfg = self.deck(ts, dec)
        trace = scenario.run(cfg)
        n, every = cfg.n_steps, cfg.ts_every
        row_steps = range(0, n + 1, dec)
        assert len(trace.data) == len(row_steps)
        published = sum(ev["kind"] == "learner_published" for ev in trace.events)
        assert published == 2
        # one read per tick, one for the initial bandwidth and one per
        # publish; the last row has no tick in its step, nor has a row off
        # the tick grid
        assert counts == {
            "point_eval": len(range(0, n, every)) + 1 + published,
            "mean_at": sum(k == n or k % every != 0 for k in row_steps),
        }


def l1_step_deck(omega_c):
    """The nominal step deck in mode l1 with the given control bandwidth."""
    cfg = nominal(duration=20.0, mode="l1")
    return replace(cfg, controller=replace(cfg.controller, omega_c=omega_c))


def predicted_margin(omega_c, T_s=0.001):
    # the LTI limit's loop C/(1-C) = omega_c/s: 90 degrees at omega_c, less
    # half a sample for the hold
    return math.pi / (2.0 * omega_c) - T_s / 2.0


def condition_report(omega_c):
    """The warning a run from step 0 gives at this control bandwidth: below
    80 rad/s the filter fails the norm condition (lhs 3.68 at 40, 6.50 at 20,
    against rhs 3.33)."""
    if omega_c < 80.0:
        return pytest.warns(UserWarning, match="unsatisfied")
    return contextlib.nullcontext()


def no_repeats(res):
    delays = [d for d, _ in res.candidates]
    return len(set(delays)) == len(delays) == res.iterations


class TestMarginSearch:
    @pytest.mark.parametrize("omega_c, margin_steps",
                             [(20.0, 77), (40.0, 39), (80.0, 19), (160.0, 10)])
    def test_margin_across_omega_c(self, omega_c, margin_steps):
        with condition_report(omega_c):
            res = scenario.delay_margin_search(l1_step_deck(omega_c), horizon=20.0)
        assert res.margin == margin_steps * 0.001
        assert res.bracket == (margin_steps * 0.001, (margin_steps + 1) * 0.001)
        assert not res.open_bracket
        # the claim check: theory and simulation agree within 2 ms
        assert res.predicted == predicted_margin(omega_c)
        assert abs(res.margin - predicted_margin(omega_c)) <= 0.002
        # seeded at the prediction, the search needs few candidates
        assert res.iterations <= 4
        assert no_repeats(res)

    @pytest.mark.parametrize("omega_c, margin_steps",
                             [(20.0, 77), (40.0, 39), (80.0, 19), (160.0, 10)])
    def test_l1gp_margin_across_omega_c(self, omega_c, margin_steps, monkeypatch):
        # the learning loop, each candidate resumed from a 30 s snapshot and
        # recording only its end rows, keeps mode l1's margins
        base = nominal(duration=20.0, mode="l1gp")
        base = replace(base, controller=replace(base.controller, omega_c=omega_c))
        rows = []
        run = scenario.Engine.run

        def counting(engine):
            trace = run(engine)
            rows.append(len(trace.data))
            return trace

        monkeypatch.setattr(scenario.Engine, "run", counting)
        with condition_report(omega_c):
            res = scenario.delay_margin_search(base, horizon=20.0, snapshot_time=30.0)
        assert res.margin == margin_steps * 0.001
        assert res.bracket == (margin_steps * 0.001, (margin_steps + 1) * 0.001)
        assert not res.open_bracket
        assert res.predicted == predicted_margin(omega_c)
        assert abs(res.margin - predicted_margin(omega_c)) <= 0.002
        assert res.iterations <= 4
        assert no_repeats(res)
        # the warm-up records at the deck's 100 Hz, each candidate at most
        # its first row, one grid row and an abort row
        assert rows[0] == 3001
        assert len(rows) == res.iterations + 1 and max(rows[1:]) <= 4

    @pytest.mark.parametrize("snapshot_time", [None, 3.0], ids=["fresh", "resumed"])
    def test_candidates_record_only_their_end_rows(self, snapshot_time):
        # the 20 ms candidate of l1_plain diverges; recorded once per
        # horizon, it reaches the same verdict at the same step. Resumed at
        # 3 s, its first step is off the 20 s recording grid
        base, _ = config.resolve_scenario(config.parse_flat_file(
            os.path.join(ROOT, "configs", "l1_plain.cfg")))
        snap = None
        if snapshot_time is not None:
            warm = scenario.Engine(replace(base, duration=snapshot_time))
            assert not warm.run().unstable
            snap = warm.snapshot()
        cfg = replace(base, duration=20.0,
                      plant=replace(base.plant, input_delay=0.02))
        sparse = replace(cfg, record_decimation=cfg.n_steps)
        traces = [scenario.Engine(c, resume=snap).run() for c in (cfg, sparse)]

        def aborts(trace):
            return [ev["t"] for ev in trace.events if ev["kind"] == "unstable_abort"]

        assert traces[0].unstable and traces[1].unstable
        assert len(aborts(traces[0])) == 1
        assert aborts(traces[0]) == aborts(traces[1])
        assert len(traces[1].data) <= 4
        # the rows it keeps are rows of the full record
        assert np.array_equal(traces[1].data[0], traces[0].data[0])
        assert np.array_equal(traces[1].data[-1], traces[0].data[-1])

    def test_open_bracket_when_stable_everywhere(self):
        # the 19 ms prediction lies above max_delay
        cfg = nominal(duration=1.0, mode="l1")
        res = scenario.delay_margin_search(
            cfg, resolution=0.001, horizon=1.0, max_delay=0.002
        )
        assert res.predicted > 0.002
        assert res.open_bracket
        assert res.margin == 0.002
        assert res.bracket == (0.002, math.inf)
        assert res.candidates == [(0.002, True)]

    def test_bisection_contract(self):
        cfg = nominal(duration=1.0, mode="l1")
        res = scenario.delay_margin_search(
            cfg, resolution=0.004, horizon=6.0, max_delay=0.128
        )
        assert not res.open_bracket
        lo, hi = res.bracket
        assert hi - lo <= 0.004 + 1e-12
        stable_delays = [d for d, s in res.candidates if s]
        unstable_delays = [d for d, s in res.candidates if not s]
        assert res.margin == max(stable_delays)
        assert all(res.margin < d for d in unstable_delays)
        assert no_repeats(res)

    def test_unstable_at_zero_raises(self):
        cfg = nominal(duration=1.0, mode="l1")
        cfg = replace(cfg, blowup=1e-6)
        with pytest.raises(scenario.UnstableAtZeroDelayError):
            scenario.delay_margin_search(cfg, horizon=1.0, max_delay=0.002)


class TestConditionChecker:
    def test_event_recorded_and_satisfied(self):
        cfg = nominal(duration=0.2, mode="l1")
        trace = scenario.run(cfg)
        ev = [e for e in trace.events if e["kind"] == "l1_condition"]
        assert len(ev) == 1
        assert ev[0]["satisfied"] is True
        assert ev[0]["lhs"] == pytest.approx(2.0, abs=0.02)

    def test_warns_when_unsatisfied(self):
        cfg = nominal(duration=0.2, mode="l1")
        cfg = edit(cfg, "condition", lip_f=50.0)  # impossible uncertainty scale
        with pytest.warns(UserWarning, match="unsatisfied"):
            trace = scenario.run(cfg)
        ev = [e for e in trace.events if e["kind"] == "l1_condition"]
        assert ev[0]["satisfied"] is False


    @pytest.mark.parametrize("name", ["lip_f", "b0", "rho_0", "rho_r"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_params_reject_non_finite(self, name, value):
        # a nan or infinite input would read as an unsatisfied condition
        with pytest.raises(ValueError, match="finite"):
            scenario.ConditionParams(**{name: value})


DECKS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))


@pytest.mark.parametrize("deck", DECKS, ids=os.path.basename)
def test_setup_makes_no_dense_solve(deck, monkeypatch):
    # every setup constant is derived per axis: a stock deck resolves, and
    # its engine builds and runs its first ticks, with no linear solve
    def refuse(*args, **kwargs):
        raise AssertionError("dense linear algebra in the setup")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    cfg, _ = config.resolve_scenario(config.parse_flat_file(deck))
    trace = scenario.Engine(replace(cfg, duration=0.01)).run()
    assert not trace.unstable


class TestMetrics:
    def test_zero_trace_metrics(self):
        cfg = nominal(duration=2.0, reference_kind="zero", uncertainty="zero", mode="l1")
        cfg = edit(cfg, "controller", x_hat0=(0.0, 0.0, 0.0))
        trace = scenario.run(cfg)
        m = scenario.metrics(trace, windows=[(0.0, 2.0)])
        assert m["final_tracking_error_inf"] == 0.0
        assert m["windows"]["0-2"]["eta_norm"] == 0.0

    def test_a_window_with_no_row_has_null_means(self):
        # the run aborts at 0.37 s, before the late window opens
        cfg = nominal(duration=10.0, mode="l1", input_delay=0.15)
        trace = scenario.run(cfg)
        assert trace.unstable and trace.t[-1] < 5.0
        m = scenario.metrics(trace, windows=[(0.0, 5.0), (5.0, 10.0)])
        early = m["windows"]["0-5"]
        assert all(math.isfinite(v) for v in early.values())
        assert m["windows"]["5-10"] == dict.fromkeys(early)

    def test_window_mean_validation(self):
        with pytest.raises(ValueError):
            scenario.window_mean(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 5.0, 6.0)
