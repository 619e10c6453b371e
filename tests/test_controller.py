"""Controller unit tests: gain algebra, adaptation, filters, norm condition."""

import math

import numpy as np
import pytest

from l1gp import controller as ctrl
from l1gp import numerics


J = np.diag([0.011, 0.011, 0.021])
A_M = -3.0 * np.eye(3)
B_M = np.diag(1.0 / np.diag(J))
C_M = np.eye(3)


def nominal_cfg(mode="l1gp", **kw):
    return ctrl.ControllerConfig(A_m=A_M, B_m=B_M, C_m=C_M, mode=mode, **kw)


class TestFeedforwardGain:
    def test_nominal_constants(self):
        kg = ctrl.feedforward_gain(A_M, B_M, C_M)
        assert np.allclose(kg, 3.0 * J, atol=1e-15)
        assert np.allclose(np.diag(kg), [0.033, 0.033, 0.063], atol=1e-15)

    def test_identity_case(self):
        kg = ctrl.feedforward_gain(-np.eye(2), np.eye(2), np.eye(2))
        assert np.allclose(kg, np.eye(2), atol=1e-15)

    def test_dc_identity(self):
        kg = ctrl.feedforward_gain(A_M, B_M, C_M)
        dc = C_M @ np.linalg.solve(-A_M, B_M) @ kg
        assert np.allclose(dc, np.eye(3), atol=1e-12)

    def test_singular_product_rejected(self):
        B = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        C = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ctrl.ConfigurationError):
            ctrl.feedforward_gain(-np.eye(3), B, C)


class TestConfigInvariants:
    def test_non_hurwitz_rejected(self):
        with pytest.raises(ctrl.ConfigurationError, match="Hurwitz"):
            ctrl.ControllerConfig(A_m=np.eye(3), B_m=B_M, C_m=C_M)

    def test_bad_mode(self):
        with pytest.raises(ctrl.ConfigurationError):
            nominal_cfg(mode="pid")

    def test_gain_spot_check(self):
        cfg = nominal_cfg()
        pre = ctrl.PrecomputedAdaptation.from_config(cfg)
        assert pre.expAT[0, 0] == pytest.approx(math.exp(-0.003), abs=1e-15)


class TestAdaptation:
    def test_zero_error(self):
        cfg = nominal_cfg()
        pre = ctrl.PrecomputedAdaptation.from_config(cfg)
        state = ctrl.ControllerState.initial(cfg, e_f_hat0=8.5)
        state.x_hat = np.zeros(3)
        sigma = ctrl.adaptation_step(state, np.zeros(3), pre)
        assert np.array_equal(sigma, np.zeros(3))

    def test_scalar_chain_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        cfg = nominal_cfg()
        pre = ctrl.PrecomputedAdaptation.from_config(cfg)
        state = ctrl.ControllerState.initial(cfg, 8.5)
        state.x_hat = np.array([0.1, 0.0, 0.0])
        sigma = ctrl.adaptation_step(state, np.zeros(3), pre)
        e = mp.e ** (mp.mpf(-3) * mp.mpf("0.001"))
        phi = (1 - e) / 3
        oracle = -mp.mpf("0.011") * (mp.mpf("0.1") * e / phi)
        assert sigma[0] == pytest.approx(float(oracle), rel=1e-12)
        assert sigma[0] == pytest.approx(-1.0983, abs=1e-4)
        assert sigma[1] == sigma[2] == 0.0

    def test_constant_disturbance_collapse(self):
        # two-tick hand simulation with exact ZOH error propagation:
        # xtilde' = A_m xtilde + B_m (sigma - c)
        cfg = nominal_cfg()
        pre = ctrl.PrecomputedAdaptation.from_config(cfg)
        phi = np.linalg.solve(A_M, pre.expAT - np.eye(3))
        c = np.array([0.3, -0.2, 0.1])
        xt = np.array([1.0, 1.0, 1.0])
        norms = [np.linalg.norm(xt)]
        for _ in range(3):
            sigma = pre.gain @ xt
            xt = pre.expAT @ xt + phi @ (B_M @ (sigma - c))
            norms.append(np.linalg.norm(xt))
        assert norms[1] < norms[0]
        assert norms[2] < norms[0]
        # settles at the one-sample residue Phi B c
        assert norms[2] == pytest.approx(np.linalg.norm(phi @ (B_M @ c)), rel=1e-9)


class TestBandwidthCommand:
    def test_nominal(self):
        assert ctrl.bandwidth_command(8.509, 1.0, 80.0) == pytest.approx(
            1.0 / 8.509, rel=1e-12
        )
        assert ctrl.bandwidth_command(8.509, 1.0, 80.0) == pytest.approx(
            0.11752, abs=1e-5
        )

    def test_zero_bound_clamps(self):
        assert ctrl.bandwidth_command(0.0, 1.0, 80.0) == 80.0

    def test_boundary(self):
        assert ctrl.bandwidth_command(1.0 / 80.0, 1.0, 80.0) == pytest.approx(80.0)

    def test_disabled(self):
        assert ctrl.bandwidth_command(5.0, 0.0, 80.0) == 0.0


class TestLearningFilter:
    def test_equilibrium(self):
        cfg = nominal_cfg()
        state = ctrl.ControllerState.initial(cfg, 8.5)
        state.f_L = np.array([0.5, 0.5, 0.5])
        state.omega_filtered = 2.0
        # omega_hat equal to the current filtered value keeps it fixed
        ctrl.learning_filter_step(state, np.array([0.5, 0.5, 0.5]), 2.0, cfg)
        assert np.allclose(state.f_L, 0.5, atol=1e-15)

    def test_step_response(self):
        # constant target c and constant bandwidth w: f_L(t) = c(1 - e^{-wt})
        cfg = nominal_cfg(omega_L=1e-9)  # hold the bandwidth essentially frozen
        state = ctrl.ControllerState.initial(cfg, 8.5)
        w = 2.0
        state.omega_filtered = w
        c = np.array([1.0, -2.0, 0.5])
        n = int(round(3.0 / w / cfg.T_s))
        for _ in range(n):
            ctrl.learning_filter_step(state, c, w, cfg)
        frac = state.f_L / c
        assert np.allclose(frac, 1.0 - math.exp(-3.0), atol=1e-6)
        assert np.allclose(frac, 0.95021, atol=1e-5)

    def test_zero_bandwidth_freezes(self):
        cfg = nominal_cfg()
        state = ctrl.ControllerState.initial(cfg, 8.5)
        state.omega_filtered = 0.0
        ctrl.learning_filter_step(state, np.array([1.0, 1.0, 1.0]), 0.0, cfg)
        assert np.array_equal(state.f_L, np.zeros(3))


class TestControlStep:
    def test_all_zero(self):
        cfg = nominal_cfg()
        pre = ctrl.PrecomputedAdaptation.from_config(cfg)
        state = ctrl.ControllerState.initial(cfg, 8.5)
        state.x_hat = np.zeros(3)
        u = ctrl.control_step(state, np.zeros(3), np.zeros(3), cfg, pre, 0.0)
        assert np.array_equal(u, np.zeros(3))

    def test_dc_gain_to_reference(self):
        # sigma held at zero: u(t) -> k_g r through the control filter
        cfg = nominal_cfg()
        pre = ctrl.PrecomputedAdaptation.from_config(cfg)
        state = ctrl.ControllerState.initial(cfg, 8.5)
        r = np.array([1.0, 1.0, 1.0])
        n = int(round(5.0 / cfg.omega_c / cfg.T_s))
        for k in range(n):
            state.sigma_hat = np.zeros(3)
            u = ctrl.control_step(state, np.zeros(3), r, cfg, pre, k * cfg.T_s)
        target = cfg.k_g @ r
        assert np.max(np.abs(u - target) / np.abs(target)) < 0.01


    def test_predictor_matches_fine_rk4(self):
        # the exact map against RK4 at T_s/100 on the same held drive, over
        # 1000 ticks with a drive that changes every tick
        cfg = nominal_cfg()
        pre = ctrl.PrecomputedAdaptation.from_config(cfg)
        state = ctrl.ControllerState.initial(cfg, 8.5)
        rng = np.random.default_rng(3)
        x_fine = state.x_hat.copy()
        h = cfg.T_s / 100
        for k in range(1000):
            state.sigma_hat = 0.01 * rng.normal(size=3)
            state.f_L = 0.01 * rng.normal(size=3)
            r = np.sin(k * cfg.T_s) * np.ones(3)
            u = ctrl.control_step(state, np.zeros(3), r, cfg, pre, k * cfg.T_s)
            drive = cfg.B_m @ (state.f_L + state.sigma_hat + u)
            for j in range(100):
                x_fine = numerics.rk4_step(
                    lambda _t, z: cfg.A_m @ z + drive, j * h, x_fine, h
                )
        assert np.max(np.abs(state.x_hat - x_fine)) <= 1e-12
        assert np.max(np.abs(x_fine)) > 0.1


class TestNormCondition:
    def test_axis1_value(self):
        cfg = nominal_cfg()
        report = ctrl.l1_norm_condition(cfg, lip_f=0.2, b0=0.0, r_inf=1.0, rho_0=0.0)
        assert report.lhs == pytest.approx((1.0 / 0.011) * 0.0220, abs=0.02)
        assert report.lhs == pytest.approx(2.00, abs=0.02)

    def test_filter_norm_is_one(self):
        cfg = nominal_cfg()
        report = ctrl.l1_norm_condition(cfg, lip_f=0.2, b0=0.0, r_inf=1.0, rho_0=0.0)
        # |H C k_g| has unit DC gain and positive impulse response per axis
        assert report.hc_kg_norm == pytest.approx(1.0, abs=1e-3)

    def test_rho_in_biproper_norm(self):
        # s(sI - A_m)^{-1} per axis is 1 - 3/(s+3): L1 norm 2
        cfg = nominal_cfg()
        report = ctrl.l1_norm_condition(cfg, lip_f=0.0, b0=0.0, r_inf=0.0, rho_0=1.0)
        assert report.rho_in == pytest.approx(2.0, abs=5e-3)

    def test_degenerate_denominator(self):
        cfg = nominal_cfg()
        report = ctrl.l1_norm_condition(cfg, lip_f=0.0, b0=0.0, r_inf=0.0, rho_0=0.0)
        assert report.rhs == math.inf
        assert report.satisfied
