"""Closed-loop engine tests: contracts, degeneracies, oracles, margin search."""

import math

import numpy as np
import pytest

from l1gp import controller as ctrl
from l1gp import numerics, plant, scenario


def nominal(duration=5.0, reference_kind="step", **kw):
    return scenario.quadrotor_nominal(
        duration=duration, reference_kind=reference_kind, **kw
    )


def no_condition(cfg):
    cfg.condition.check = False
    return cfg


class TestEquilibriumAndBookkeeping:
    def test_all_zero_run(self):
        cfg = nominal(duration=2.0, reference_kind="zero", uncertainty="zero",
                      with_learner=False, mode="l1")
        cfg.controller.x_hat0 = np.zeros(3)
        trace = scenario.run(no_condition(cfg))
        assert not trace.unstable
        numeric = trace.data[:, 1:]
        assert np.max(np.abs(numeric)) == 0.0

    def test_row_count_and_uniform_time(self):
        cfg = no_condition(nominal(duration=2.0, with_learner=False))
        trace = scenario.run(cfg)
        assert trace.data.shape[0] == 2.0 / 0.001 / 10 + 1
        dt = np.diff(trace.t)
        assert np.allclose(dt, 0.01, atol=1e-12)

    def test_xtilde_is_xhat_minus_x(self):
        cfg = no_condition(nominal(duration=1.0))
        trace = scenario.run(cfg)
        assert np.max(np.abs(
            trace.block("xtilde") - (trace.block("xhat") - trace.block("x"))
        )) < 1e-12

    def test_determinism_bit_identical(self):
        cfg = no_condition(nominal(duration=3.0, reference_kind="sinusoid"))
        a = scenario.run(cfg)
        b = scenario.run(no_condition(nominal(duration=3.0, reference_kind="sinusoid")))
        assert np.array_equal(a.data, b.data)

    def test_seed_changes_trace(self):
        a = scenario.run(no_condition(nominal(duration=12.0, seed=1)))
        b = scenario.run(no_condition(nominal(duration=12.0, seed=2)))
        # learner noise differs once the first model is published
        assert not np.array_equal(a.data, b.data)


class TestRateContracts:
    def test_publish_times_multiples(self):
        cfg = no_condition(nominal(duration=25.0, reference_kind="sinusoid"))
        trace = scenario.run(cfg)
        pubs = [e for e in trace.events if e["kind"] == "learner_published"]
        assert [e["t"] for e in pubs] == [10.0, 20.0]

    def test_sigma_piecewise_constant_at_ts(self):
        cfg = no_condition(nominal(duration=0.2, record_decimation=1))
        cfg.controller = ctrl.ControllerConfig(
            A_m=cfg.controller.A_m, B_m=cfg.controller.B_m, C_m=cfg.controller.C_m,
            T_s=0.002, mode="l1gp", x_hat0=cfg.controller.x_hat0,
        )
        cfg.__post_init__()
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
        cfg = no_condition(nominal(duration=15.0, reference_kind="sinusoid",
                                   record_decimation=1))
        trace = scenario.run(cfg)
        fl = trace.block("fl")
        fhat = trace.block("fhat")
        jumps = np.max(np.abs(np.diff(fl, axis=0)), axis=1)
        gap = np.max(np.abs(fhat - fl), axis=1)
        bound = 80.0 * 0.001 * np.maximum.accumulate(gap)[:-1] + 1e-15
        assert np.all(jumps <= bound)

    def test_omega_bounds_and_monotonicity(self):
        cfg = no_condition(nominal(duration=30.0, reference_kind="sinusoid"))
        trace = scenario.run(cfg)
        w = trace.col("omega_filtered")
        assert np.all(w >= 0.0) and np.all(w <= 80.0 + 1e-12)
        ef = trace.col("e_f_hat")
        if np.all(np.diff(ef) <= 1e-12):
            assert np.all(np.diff(w) >= -1e-12)

    def test_ideal_trace_independent_of_uncertainty_and_mode(self):
        base = scenario.run(no_condition(nominal(duration=3.0)))
        other = scenario.run(no_condition(
            nominal(duration=3.0, uncertainty="sine_switch", mode="l1",
                    with_learner=False)))
        assert np.array_equal(base.block("xid"), other.block("xid"))


class TestDegeneracies:
    def test_l1_equals_l1gp_with_zero_learning(self):
        a = nominal(duration=2.0, mode="l1", with_learner=False)
        b = nominal(duration=2.0, mode="l1gp", with_learner=False)
        b.controller.omega_0 = 0.0
        b.controller.__post_init__()
        ta = scenario.run(no_condition(a))
        tb = scenario.run(no_condition(b))
        assert np.array_equal(ta.data, tb.data)

    def test_prediction_offset_transient_decays(self):
        cfg = no_condition(nominal(duration=5.0, reference_kind="zero"))
        trace = scenario.run(cfg)
        xt = np.max(np.abs(trace.block("xtilde")), axis=1)
        after_3s = xt[trace.t >= 3.0]
        assert np.all(after_3s < 0.01)
        assert xt[0] == pytest.approx(0.5)


class TestInstability:
    def test_early_termination_flagged_and_well_formed(self):
        cfg = nominal(duration=10.0, with_learner=False, mode="l1",
                      input_delay=0.15)
        trace = scenario.run(no_condition(cfg))
        assert trace.unstable
        kinds = [e["kind"] for e in trace.events]
        assert "unstable_abort" in kinds
        assert np.all(np.isfinite(trace.data))
        assert trace.t[-1] < 10.0


class TestReferenceSystem:
    def test_zero_uncertainty_matches_filtered_ideal(self):
        cfg = no_condition(nominal(duration=4.0, uncertainty="zero",
                                   with_learner=False))
        out = scenario.run_reference_system(cfg)
        # independent filtered-ideal oracle: xdot = A x + B k_g r_f with the
        # reference passed through the same discretized first-order lag
        c = cfg.controller
        alpha = math.exp(-c.omega_c * c.T_s)
        r = cfg.reference.make()
        x = np.zeros(3)
        rf = np.zeros(3)
        oracle = [x.copy()]
        for i in range(cfg.n_steps):
            v = r(i * 0.001)
            rf = v + (rf - v) * alpha
            drive = c.B_m @ (c.k_g @ rf)
            x = numerics.rk4_step(lambda t, z: c.A_m @ z + drive, i * 0.001, x, 0.001)
            if (i + 1) % cfg.record_decimation == 0:
                oracle.append(x.copy())
        oracle = np.asarray(oracle)
        assert np.max(np.abs(out["x_ref"] - oracle)) < 1e-9

    def test_constant_uncertainty_dc_matches_ideal(self):
        cfg = no_condition(nominal(duration=20.0, with_learner=False))
        c_vec = np.array([0.2, -0.1, 0.15])
        out = scenario.run_reference_system(cfg, f_oracle=lambda t, x: c_vec)
        cc = cfg.controller
        x_id_ss = np.linalg.solve(-cc.A_m, cc.B_m @ (cc.k_g @ np.ones(3)))
        assert np.max(np.abs(out["x_ref"][-1] - x_id_ss)) < 1e-4

    def test_oracle_sigma_substitution_recovers_reference_system(self):
        # forcing the adaptive estimate to the true uncertainty must drive
        # the closed loop to the reference system's trajectory
        cfg = nominal(duration=10.0, mode="l1", with_learner=False)
        cfg.controller.x_hat0 = np.zeros(3)
        cfg = no_condition(cfg)
        sched = cfg.plant.uncertainty
        eng = scenario.Engine(cfg, sigma_oracle=lambda t, x: sched.eval(t, x))
        trace = eng.run()
        ref_out = scenario.run_reference_system(cfg)
        diff = np.max(np.abs(trace.block("x") - ref_out["x_ref"]))
        assert diff <= 0.05


class TestIdealLoop:
    # x_id' = -3 x_id + b r(t) per axis with b = (B_m k_g)_ii = 3, x_id(0) = 0
    @pytest.mark.parametrize("kind", ["step", "sinusoid"])
    def test_matches_closed_form(self, kind):
        cfg = no_condition(nominal(duration=4.0, reference_kind=kind,
                                   with_learner=False, mode="l1"))
        trace = scenario.run(cfg)
        t = trace.t[:, None]
        a = cfg.reference.amplitude
        b = np.diag(cfg.controller.B_m @ cfg.controller.k_g)
        assert np.allclose(b, 3.0, rtol=1e-12)
        if kind == "step":
            exact = b * a * (1.0 - np.exp(-3.0 * t)) / 3.0
        else:
            w = cfg.reference.frequency
            exact = b * a * (
                3.0 * np.sin(w * t) - w * np.cos(w * t) + w * np.exp(-3.0 * t)
            ) / (9.0 + w**2)
        assert np.max(np.abs(trace.block("xid") - exact)) <= 1e-10


class TestPlantReplay:
    def test_engine_steps_are_generic_rk4_steps(self):
        # every recorded state is one numerics.rk4_step over plant_derivative
        # from the previous row, with the input the row records
        cfg = no_condition(nominal(duration=1.0, mode="l1", with_learner=False,
                                   switch_time=0.5, record_decimation=1))
        trace = scenario.run(cfg)
        assert not trace.unstable
        assert [e["t"] for e in trace.events if e["kind"] == "uncertainty_switch"] == [0.5]
        t, x, u = trace.t, trace.block("x"), trace.block("u")
        assert len(t) == cfg.n_steps + 1
        h = cfg.step
        for k in range(1, len(t)):
            want = numerics.rk4_step(
                lambda tt, z: plant.plant_derivative(z, u[k], tt, cfg.plant),
                t[k - 1], x[k - 1], h,
            )
            assert np.array_equal(x[k], want), k


class TestSnapshotResume:
    def test_resume_matches_uninterrupted(self):
        full = scenario.run(no_condition(
            nominal(duration=14.0, reference_kind="sinusoid")))
        eng = scenario.Engine(no_condition(
            nominal(duration=7.0, reference_kind="sinusoid")))
        first = eng.run()
        snap = eng.snapshot()
        cfg2 = no_condition(nominal(duration=7.0, reference_kind="sinusoid"))
        second = scenario.Engine(cfg2, resume=snap).run()
        stitched = np.vstack([first.data, second.data[1:]])
        assert np.array_equal(stitched, full.data)


class TestMarginSearch:
    def test_open_bracket_when_stable_everywhere(self):
        cfg = no_condition(nominal(duration=1.0, with_learner=False, mode="l1"))
        res = scenario.delay_margin_search(
            cfg, resolution=0.001, horizon=1.0, max_delay=0.002
        )
        assert res.open_bracket
        assert res.margin == 0.002

    def test_bisection_contract(self):
        cfg = no_condition(nominal(duration=1.0, with_learner=False, mode="l1"))
        res = scenario.delay_margin_search(
            cfg, resolution=0.004, horizon=6.0, max_delay=0.128
        )
        if not res.open_bracket:
            lo, hi = res.bracket
            assert hi - lo <= 0.004 + 1e-12
            stable_delays = [d for d, s in res.candidates if s]
            unstable_delays = [d for d, s in res.candidates if not s]
            assert res.margin == max(stable_delays)
            assert all(res.margin < d for d in unstable_delays)

    def test_unstable_at_zero_raises(self):
        cfg = no_condition(nominal(duration=1.0, with_learner=False, mode="l1"))
        cfg.blowup = 1e-6
        with pytest.raises(scenario.UnstableAtZeroDelayError):
            scenario.delay_margin_search(cfg, horizon=1.0, max_delay=0.002)


class TestDelayPaths:
    def test_total_path_delay_differs_from_adaptive_only(self):
        base = nominal(duration=3.0, with_learner=False, mode="l1",
                       reference_kind="step", input_delay=0.01)
        base.plant.delay_total = False
        a = scenario.run(no_condition(base))
        total = nominal(duration=3.0, with_learner=False, mode="l1",
                        reference_kind="step", input_delay=0.01)
        total.plant.delay_total = True
        b = scenario.run(no_condition(total))
        assert not np.array_equal(a.block("x"), b.block("x"))

    def test_total_path_zero_delay_agrees_closely(self):
        # both paths discretize the same continuous loop at zero delay; the
        # total path holds the baseline over each step, so agreement is to
        # the ZOH discretization error, not bit-exact
        a = nominal(duration=2.0, with_learner=False, mode="l1")
        a.plant.delay_total = False
        b = nominal(duration=2.0, with_learner=False, mode="l1")
        b.plant.delay_total = True
        ta = scenario.run(no_condition(a))
        tb = scenario.run(no_condition(b))
        assert not ta.unstable and not tb.unstable
        assert np.max(np.abs(ta.block("x") - tb.block("x"))) < 5e-3


class TestConditionChecker:
    def test_event_recorded_and_satisfied(self):
        cfg = nominal(duration=0.2, with_learner=False, mode="l1")
        trace = scenario.run(cfg)
        ev = [e for e in trace.events if e["kind"] == "l1_condition"]
        assert len(ev) == 1
        assert ev[0]["satisfied"] is True
        assert ev[0]["lhs"] == pytest.approx(2.0, abs=0.02)

    def test_warns_when_unsatisfied(self):
        cfg = nominal(duration=0.2, with_learner=False, mode="l1")
        cfg.condition.lip_f = 50.0  # impossible uncertainty scale
        with pytest.warns(UserWarning, match="unsatisfied"):
            trace = scenario.run(cfg)
        ev = [e for e in trace.events if e["kind"] == "l1_condition"]
        assert ev[0]["satisfied"] is False


class TestMetrics:
    def test_zero_trace_metrics(self):
        cfg = nominal(duration=2.0, reference_kind="zero", uncertainty="zero",
                      with_learner=False, mode="l1")
        cfg.controller.x_hat0 = np.zeros(3)
        trace = scenario.run(no_condition(cfg))
        m = scenario.metrics(trace, windows=[(0.0, 2.0)])
        assert m["final_tracking_error_inf"] == 0.0
        assert m["windows"]["0-2"]["eta_norm"] == 0.0

    def test_window_mean_validation(self):
        with pytest.raises(ValueError):
            scenario.window_mean(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 5.0, 6.0)
