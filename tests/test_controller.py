"""Controller unit tests: gain algebra, adaptation, filters, norm condition."""

import math

import mpmath as mp
import numpy as np
import pytest

from l1gp import controller as ctrl


J = np.diag([0.011, 0.011, 0.021])
A_M = -3.0 * np.eye(3)
B_M = np.diag(1.0 / np.diag(J))
C_M = np.eye(3)
# the config's form of A_M and B_M: their diagonals
a_m, b_m = tuple(np.diag(A_M).tolist()), tuple(np.diag(B_M).tolist())


def nominal_cfg(**kw):
    return ctrl.ControllerConfig(a_m=a_m, b_m=b_m, **kw)


def array_constants(cfg):
    """k_g, exp(A T_s), Phi(T_s) and the adaptation gain by their
    dense matrix formulas, with ``A = diag(a_m)``, ``B = diag(b_m)`` and the
    output matrix ``C = I``: the oracle of the per-axis constants.
    exp(A T_s) is ``diag(math.exp(a T_s))``, within an ulp of scipy's expm
    (checked here and in test_numerics)."""
    import scipy.linalg

    A, B, C = np.diag(cfg.a_m), np.diag(cfg.b_m), C_M
    expAT = np.diag([math.exp(a * cfg.T_s) for a in cfg.a_m])
    expm = scipy.linalg.expm(A * cfg.T_s)
    assert np.array_equal(np.diag(np.diag(expm)), expm)
    assert np.all(np.abs(expAT - expm) <= np.spacing(np.abs(expm)))
    phi = np.linalg.solve(A, expAT - np.eye(3))
    return {
        "k_g": -np.linalg.inv(C @ np.linalg.solve(A, B)),
        "_expAT": expAT,
        "_phi": phi,
        "_gain": -np.linalg.inv(B) @ np.linalg.solve(phi, expAT),
    }


def random_diagonal_cfgs(n, seed=0):
    """n configs with random diagonal A_m, B_m and T_s, signs of B_m mixed,
    with the stock one first."""
    rng = np.random.default_rng(seed)
    yield nominal_cfg()
    for _ in range(n - 1):
        a = -(10.0 ** rng.uniform(-3.0, 3.0, size=3))
        b = 10.0 ** rng.uniform(-2.0, 3.0, size=3) * rng.choice([-1.0, 1.0], size=3)
        T_s = float(10.0 ** rng.uniform(-5.0, -1.0))
        yield ctrl.ControllerConfig(a_m=a, b_m=b, T_s=T_s)


class TestFeedforwardGain:
    def test_nominal_constants(self):
        kg = nominal_cfg().k_g
        assert all(type(k) is float for k in kg)
        assert np.allclose(kg, 3.0 * np.diag(J), atol=1e-15)
        assert np.allclose(kg, [0.033, 0.033, 0.063], atol=1e-15)

    def test_identity_case(self):
        one = (1.0, 1.0, 1.0)
        assert ctrl.ControllerConfig(a_m=(-1.0, -1.0, -1.0), b_m=one).k_g == one

    def test_dc_identity(self):
        # (-A_m)^{-1} B_m k_g = I, on every random diagonal config
        for cfg in random_diagonal_cfgs(100):
            dc = np.linalg.solve(-np.diag(cfg.a_m), np.diag(cfg.b_m)) @ np.diag(cfg.k_g)
            assert np.allclose(dc, np.eye(3), rtol=0.0, atol=1e-14)

    def test_singular_product_rejected(self):
        # a zero b_i makes A_m^{-1} B_m singular
        with pytest.raises(ctrl.ConfigurationError, match="singular"):
            ctrl.ControllerConfig(a_m=a_m, b_m=(b_m[0], 0.0, b_m[2]))

    @pytest.mark.parametrize("a, b", [(-1.0, 1e-310), (-1e-10, 1e300)],
                             ids=["k_g-overflows", "k_g-underflows"])
    def test_non_finite_or_zero_k_g_rejected(self, a, b):
        # b / a = -1e-310 (k_g = inf) or -inf (k_g = 0.0): the DC identity
        # cannot hold
        with pytest.raises(ctrl.ConfigurationError, match="k_g must be finite"):
            ctrl.ControllerConfig(a_m=(-1.0, a, -1.0), b_m=(1.0, b, 1.0))


class TestTickConstants:
    def test_bitwise_the_array_formulas(self):
        # every per-axis constant is the diagonal of its dense formula, bit
        # for bit, and the dense formula's off-diagonal entries are zero
        for cfg in random_diagonal_cfgs(300):
            want = array_constants(cfg)
            for name, M in want.items():
                got = getattr(cfg, name)
                assert all(type(v) is float for v in got), name
                assert np.array_equal(np.diag(got), M), name
                assert np.array_equal(np.signbit(got), np.signbit(np.diag(M))), name

    def test_singular_phi_rejected(self):
        # |a| T_s below the rounding of exp: exp(a T_s) = 1 and Phi = 0
        with pytest.raises(ctrl.ConfigurationError, match="Phi"):
            ctrl.ControllerConfig(a_m=(-3.0, -1e-14, -3.0), b_m=b_m)


class TestConfigInvariants:
    def test_non_hurwitz_rejected(self):
        with pytest.raises(ctrl.ConfigurationError, match="Hurwitz"):
            ctrl.ControllerConfig(a_m=(1.0, 1.0, 1.0), b_m=b_m)

    def test_non_diagonal_matrices_rejected(self):
        # the tick multiplies per axis, so the model is its diagonals: a
        # matrix, coupled or not, is refused, and so is a wrong length
        coupled = A_M.copy()
        coupled[0, 1] = 0.1
        for name in ("a_m", "b_m", "x_hat0"):
            for value in (coupled, A_M, (1.0, 1.0)):
                with pytest.raises(ctrl.ConfigurationError,
                                   match=f"{name} must be 3 finite values"):
                    ctrl.ControllerConfig(**{"a_m": a_m, "b_m": b_m, name: value})

    @pytest.mark.parametrize("kw", [
        {"T_s": math.nan},
        {"omega_c": math.nan},
        {"omega_c": math.inf},
        {"omega_L": math.nan},
        {"omega_0": math.nan},
        {"omega_0": math.inf},
        {"a_m": (-3.0, -math.inf, -3.0)},
        {"b_m": (math.inf, 1.0, 1.0)},
    ], ids=["T_s=nan", "omega_c=nan", "omega_c=inf", "omega_L=nan", "omega_0=nan",
            "omega_0=inf", "A_m=inf", "B_m=inf"])
    def test_non_finite_rejected(self, kw):
        with pytest.raises(ctrl.ConfigurationError):
            ctrl.ControllerConfig(**{"a_m": a_m, "b_m": b_m, **kw})

    def test_gain_spot_check(self):
        cfg = nominal_cfg()
        assert cfg._expAT[0] == pytest.approx(math.exp(-0.003), abs=1e-15)
        # -b^{-1} e / phi = -0.011 e^{-0.003} 3 / (1 - e^{-0.003})
        e = math.exp(-0.003)
        assert cfg._gain[0] == pytest.approx(-0.011 * 3.0 * e / (1.0 - e), rel=1e-12)


class TestInitialState:
    def test_a_loop_without_a_learner_starts_at_zero_bandwidth(self):
        # a learning loop's bandwidth starts at the command of the prior's
        # envelope; with no learner (None) both start, and stay, at 0
        cfg = nominal_cfg()
        learning = ctrl.ControllerState.initial(cfg, 8.5)
        assert learning.omega_filtered == ctrl.bandwidth_command(8.5, cfg.omega_0,
                                                                 cfg.omega_c) > 0.0
        assert learning.e_f_hat == 8.5
        plain = ctrl.ControllerState.initial(cfg, None)
        assert (plain.omega_filtered, plain.e_f_hat) == (0.0, 0.0)
        assert plain.x_hat == learning.x_hat == cfg.x_hat0


class TestAdaptation:
    def test_zero_error(self):
        cfg = nominal_cfg()
        state = ctrl.ControllerState.initial(cfg, e_f_hat0=8.5)
        state.x_hat = np.zeros(3)
        sigma = ctrl.adaptation_step(state, np.zeros(3), cfg)
        assert np.array_equal(sigma, np.zeros(3))

    def test_scalar_chain_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        cfg = nominal_cfg()
        state = ctrl.ControllerState.initial(cfg, 8.5)
        state.x_hat = np.array([0.1, 0.0, 0.0])
        sigma = ctrl.adaptation_step(state, np.zeros(3), cfg)
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
        expAT, gain = np.diag(cfg._expAT), np.diag(cfg._gain)
        phi = np.linalg.solve(A_M, expAT - np.eye(3))
        c = np.array([0.3, -0.2, 0.1])
        xt = np.array([1.0, 1.0, 1.0])
        norms = [np.linalg.norm(xt)]
        for _ in range(3):
            sigma = gain @ xt
            xt = expAT @ xt + phi @ (B_M @ (sigma - c))
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
    # the step takes the envelope e_f_hat; with omega_0 = 1 and e_f_hat
    # above 1 / omega_c, the commanded bandwidth is w = omega_0 / e_f_hat
    def test_equilibrium(self):
        cfg = nominal_cfg()
        state = ctrl.ControllerState.initial(cfg, 8.5)
        state.f_L = np.array([0.5, 0.5, 0.5])
        state.omega_filtered = 2.0
        # a command equal to the current filtered value keeps it fixed
        ctrl.learning_filter_step(state, np.array([0.5, 0.5, 0.5]), cfg.omega_0 / 2.0, cfg)
        assert state.omega_filtered == 2.0
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
            ctrl.learning_filter_step(state, c, cfg.omega_0 / w, cfg)
        frac = state.f_L / c
        assert np.allclose(frac, 1.0 - math.exp(-3.0), atol=1e-6)
        assert np.allclose(frac, 0.95021, atol=1e-5)

    def test_zero_bandwidth_freezes(self):
        # omega_0 = 0 pins the command at 0 whatever the envelope
        cfg = nominal_cfg(omega_0=0.0)
        state = ctrl.ControllerState.initial(cfg, 8.5)
        assert state.omega_filtered == 0.0
        ctrl.learning_filter_step(state, np.array([1.0, 1.0, 1.0]), 0.0, cfg)
        assert state.omega_filtered == 0.0
        assert np.array_equal(state.f_L, np.zeros(3))

    @pytest.mark.parametrize("e_f_hat", [0.0, 1e-3, 0.37, 8.5])
    def test_stores_the_envelope_and_applies_the_bandwidth_law(self, e_f_hat):
        cfg = nominal_cfg(omega_L=5.0)
        state = ctrl.ControllerState.initial(cfg, 2.0)
        start = state.omega_filtered
        f_hat = (0.3, -0.2, 0.1)
        ctrl.learning_filter_step(state, f_hat, e_f_hat, cfg)
        assert state.e_f_hat == e_f_hat
        w_hat = ctrl.bandwidth_command(e_f_hat, cfg.omega_0, cfg.omega_c)
        assert state.omega_filtered == w_hat + (start - w_hat) * cfg._alpha_L
        decay = math.exp(-state.omega_filtered * cfg.T_s)
        assert state.f_L == tuple(f + (0.0 - f) * decay for f in f_hat)


class TestControlStep:
    def test_all_zero(self):
        cfg = nominal_cfg()
        state = ctrl.ControllerState.initial(cfg, 8.5)
        state.x_hat = np.zeros(3)
        u = ctrl.control_step(state, np.zeros(3), cfg)
        assert np.array_equal(u, np.zeros(3))

    def test_eta_and_the_command_stay_in_the_state(self):
        # eta = C(s) sigma_hat moves one pole-mapped step per tick, and the
        # command returned is the one the state keeps
        cfg = nominal_cfg()
        state = ctrl.ControllerState.initial(cfg, 8.5)
        assert state.eta == state.u == (0.0, 0.0, 0.0)
        state.eta = (0.25, -1.5, 3.0)
        state.sigma_hat = (1.0, 2.0, -0.5)
        eta, sigma, alpha = state.eta, state.sigma_hat, cfg._alpha_c
        u = ctrl.control_step(state, (1.0, 0.5, -1.0), cfg)
        assert state.eta == tuple(s + (e - s) * alpha for s, e in zip(sigma, eta))
        assert state.u is u
        u_prev = u
        u = ctrl.control_step(state, (1.0, 0.5, -1.0), cfg)
        assert state.u is u and u != u_prev

    def test_dc_gain_to_reference(self):
        # sigma held at zero: u(t) -> k_g r through the control filter
        cfg = nominal_cfg()
        state = ctrl.ControllerState.initial(cfg, 8.5)
        r = np.array([1.0, 1.0, 1.0])
        n = int(round(5.0 / cfg.omega_c / cfg.T_s))
        for k in range(n):
            state.sigma_hat = np.zeros(3)
            u = ctrl.control_step(state, r, cfg)
        target = np.multiply(cfg.k_g, r)
        assert np.max(np.abs(u - target) / np.abs(target)) < 0.01


    def test_predictor_matches_fine_rk4(self):
        # the exact map against RK4 at T_s/100 on the same held drive, over
        # 1000 ticks with a drive that changes every tick. A_M is diagonal,
        # so the RK4 runs on Python floats, one axis at a time
        cfg = nominal_cfg()
        state = ctrl.ControllerState.initial(cfg, 8.5)
        rng = np.random.default_rng(3)
        x_fine = list(state.x_hat)
        h = cfg.T_s / 100
        for k in range(1000):
            state.sigma_hat = 0.01 * rng.normal(size=3)
            state.f_L = 0.01 * rng.normal(size=3)
            r = np.sin(k * cfg.T_s) * np.ones(3)
            u = ctrl.control_step(state, r, cfg)
            drive = np.multiply(b_m, state.f_L + state.sigma_hat + u).tolist()
            for i, (a, d) in enumerate(zip(a_m, drive)):
                z = x_fine[i]
                for _ in range(100):
                    k1 = a * z + d
                    k2 = a * (z + 0.5 * h * k1) + d
                    k3 = a * (z + 0.5 * h * k2) + d
                    k4 = a * (z + h * k3) + d
                    z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                x_fine[i] = z
        assert np.max(np.abs(np.subtract(state.x_hat, x_fine))) <= 1e-12
        assert np.max(np.abs(x_fine)) > 0.1


def mp_l1_norm(g, breaks):
    """Impulse-response L1 norm ``integral_0^inf |g|`` by mpmath quadrature,
    split where g changes sign."""
    return mp.quad(lambda t: abs(g(t)), [0, *sorted(breaks), mp.inf])


def mp_hg_norm(a, b, wc):
    """L1 norm of ``b s / ((s - a)(s + wc))``: its impulse response changes
    sign once, where the two exponentials cross."""
    p, w, b = mp.mpf(-a), mp.mpf(wc), mp.mpf(b)
    if p == w:
        return mp_l1_norm(lambda t: b * (1 - w * t) * mp.exp(-w * t), [1 / w])
    return mp_l1_norm(
        lambda t: b * (w * mp.exp(-w * t) - p * mp.exp(-p * t)) / (w - p),
        [mp.log(w / p) / (w - p), 1 / p, 1 / w],
    )


def axis_cfg(a):
    return ctrl.ControllerConfig(a_m=(a, a, a), b_m=b_m)


class TestNormCondition:
    @mp.workdps(30)
    def test_axis1_value(self):
        cfg = nominal_cfg()
        report = ctrl.l1_norm_condition(cfg, lip_f=0.2, b0=0.0, r_inf=1.0, rho_0=0.0)
        # axes 1 and 2 (J = 0.011) have the larger |b|
        want = mp_hg_norm(-3.0, 1.0 / 0.011, 80.0)
        assert abs(report["lhs"] - want) <= 1e-12 * want
        assert report["lhs"] == 1.9998162829383463

    @mp.workdps(30)
    def test_filter_norm_is_one(self):
        cfg = nominal_cfg()
        report = ctrl.l1_norm_condition(cfg, lip_f=0.2, b0=0.0, r_inf=1.0, rho_0=0.0)
        # |H C k_g| has unit DC gain and positive impulse response per axis
        b, kg = B_M[0, 0], cfg.k_g[0]
        want = mp_l1_norm(
            lambda t: b * kg * 80 * (mp.exp(-3 * t) - mp.exp(-80 * t)) / 77, [1 / 3]
        )
        assert abs(report["hc_kg_norm"] - want) <= 1e-12 * want
        assert report["hc_kg_norm"] == pytest.approx(1.0, rel=1e-15)

    @mp.workdps(30)
    def test_rho_in_biproper_norm(self):
        # s(sI - A_m)^{-1} per axis is 1 - 3/(s+3): L1 norm 2
        cfg = nominal_cfg()
        report = ctrl.l1_norm_condition(cfg, lip_f=0.0, b0=0.0, r_inf=0.0, rho_0=1.0)
        want = 1 + mp_l1_norm(lambda t: -3 * mp.exp(-3 * t), [])
        assert abs(report["rho_in"] - want) <= 1e-12 * want

    @mp.workdps(30)
    @pytest.mark.parametrize("a", [-0.01, -3.0, -79.0, -80.0 * (1 - 1e-9), -80.0,
                                   -80.0 * (1 + 1e-9), -1000.0])
    def test_lhs_matches_quadrature(self, a):
        report = ctrl.l1_norm_condition(axis_cfg(a), lip_f=0.2, b0=0.0, r_inf=1.0)
        want = mp_hg_norm(a, 1.0 / 0.011, 80.0)
        assert abs(report["lhs"] - want) <= 1e-12 * want

    def test_double_pole(self):
        # a_m = -omega_c: the impulse response b (1 - w t) e^{-w t}, norm
        # 2|b|/(e w), with no division by zero and continuous on both sides
        with np.errstate(all="raise"):
            lhs = ctrl.l1_norm_condition(axis_cfg(-80.0), lip_f=0.2, b0=0.0)["lhs"]
        assert lhs == pytest.approx(2.0 / 0.011 / (math.e * 80.0), rel=1e-15)
        for a in (-80.0 * (1 - 1e-9), -80.0 * (1 + 1e-9)):
            near = ctrl.l1_norm_condition(axis_cfg(a), lip_f=0.2, b0=0.0)["lhs"]
            assert abs(near - lhs) <= 1e-8 * lhs

    def test_degenerate_denominator(self):
        cfg = nominal_cfg()
        report = ctrl.l1_norm_condition(cfg, lip_f=0.0, b0=0.0, r_inf=0.0, rho_0=0.0)
        assert report["rhs"] == math.inf
        assert report["satisfied"]

    @pytest.mark.parametrize("r_inf, holds", [(0.0, True), (1.0, False)])
    def test_zero_denominator_follows_the_numerator(self, r_inf, holds):
        # l_f = b0 = 0: the inequality lhs * 0 < rho_r - |H C k_g| r_inf
        # holds only for a positive numerator (0.5, or 0.5 - 1 = -0.5 here)
        cfg = nominal_cfg()
        report = ctrl.l1_norm_condition(
            cfg, lip_f=0.0, b0=0.0, rho_r=0.5, r_inf=r_inf, rho_0=0.0
        )
        assert report["satisfied"] is holds
        assert report["rhs"] == (math.inf if holds else -math.inf)
