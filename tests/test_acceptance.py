"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The long closed-loop scenarios are shared module-scoped fixtures.
"""

import math
import time
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from l1gp import cli, config, controller as ctrl, gp, numerics, plant, scenario


def report(num: int, text: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {text}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {text} {detail}"


@pytest.fixture(scope="module")
def sinusoid_run():
    cfg = config.quadrotor_nominal(duration=60.0, reference_kind="sinusoid")
    return scenario.run(cfg)


@pytest.fixture(scope="module")
def switch_run():
    cfg = config.quadrotor_nominal(
        duration=60.0, reference_kind="sinusoid", switch_time=35.0
    )
    return scenario.run(cfg)


def test_criterion_1_gp_oracle_equivalence():
    kernel = gp.SeKernel()
    rng = np.random.default_rng(1234)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        N = int(rng.integers(1, 21))
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        X = rng.uniform(-2, 2, size=(N, n))
        Y = rng.normal(size=(N, m))
        noise = float(rng.uniform(0.005, 0.1))
        post = gp.fit(X, Y, noise, kernel)
        Xq = rng.uniform(-2, 2, size=(5, n))
        mean, std = post.predict_batch(Xq)
        # the kernel from direct differences, not gp's own formula
        d = X[:, None, :] - np.vstack([X, Xq])[None, :, :]
        k_all = kernel.sigma_f**2 * np.exp(
            -0.5 * np.einsum("ijk,ijk->ij", d, d) / kernel.length_scale**2)
        K = k_all[:, :N] + noise * np.eye(N)
        Kinv = np.linalg.inv(K)
        ks = k_all[:, N:]
        mean_o = ks.T @ Kinv @ Y
        var_o = kernel.sigma_f**2 - np.einsum("ij,ik,kj->j", ks, Kinv, ks)
        std_o = np.sqrt(np.maximum(var_o, 0.0))
        scale = np.maximum(np.abs(mean_o), 1e-6)
        worst = max(worst, float(np.max(np.abs(mean - mean_o) / scale)))
        worst = max(worst, float(np.max(np.abs(std[:, 0] - std_o) / np.maximum(std_o, 1e-6))))
    wall = time.perf_counter() - t0
    report(
        1,
        "GP fit/predict matches naive-inverse oracle on 100 datasets at 1e-8",
        worst <= 1e-8 and wall < 5.0,
        f"worst rel err {worst:.2e}, wall {wall:.2f}s",
    )


def test_criterion_2_uniform_bound_coverage():
    t0 = time.perf_counter()
    cfg = gp.UniformBoundConfig(kappa=15.0, xi=0.001, delta=0.01)
    beta = gp.beta_value(cfg, n_outputs=3, n_inputs=3)
    beta_ok = abs(beta - 72.40) <= 0.01
    rng = np.random.default_rng(2024)
    X = rng.uniform(-5, 5, size=(50, 3))
    quadratic = plant.UncertaintySchedule(((0.0, "quadratic"),))
    Y = np.array([quadratic.eval(0.0, x) for x in X])
    Y += rng.normal(0.0, 0.01, size=Y.shape)
    post = gp.fit(X, Y, 1e-4, gp.SeKernel())
    probes = rng.uniform(-5, 5, size=(500, 3))
    F = np.array([quadratic.eval(0.0, x) for x in probes])
    mean, std = post.predict_batch(probes)
    envelope = math.sqrt(beta) * np.max(std, axis=1)
    frac = float(np.mean(np.max(np.abs(F - mean), axis=1) > envelope))
    wall = time.perf_counter() - t0
    report(
        2,
        "beta = 72.40 +- 0.01 and <= 1% envelope violations on 500 probes",
        beta_ok and frac <= 0.01 and wall < 10.0,
        f"beta {beta:.4f}, violations {frac:.3f}, wall {wall:.2f}s",
    )


def test_criterion_3_adaptation_filter_numerics():
    mp.mp.dps = 40
    cfg = ctrl.ControllerConfig(
        a_m=(-3.0, -3.0, -3.0), b_m=(1 / 0.011, 1 / 0.011, 1 / 0.021)
    )
    # the diagonal of the predictor's Phi(T_s)
    phi = np.array(cfg._phi)
    # exact value (1 - e^{-0.003})/3 = 0.000998501..., printed 0.00099850
    phi_exact = float((1 - mp.e ** (mp.mpf(-3) * mp.mpf("0.001"))) / 3)
    phi_ok = np.max(np.abs(phi - phi_exact)) <= 1e-10
    # the control filter 80/(s + 80): impulse response 80 e^{-80 t}
    c_norm = float(mp.quad(lambda t: abs(80 * mp.exp(-80 * t)), [0, mp.inf]))
    c_ok = abs(c_norm - 1.0) <= 1e-3
    rep = ctrl.l1_norm_condition(cfg, lip_f=0.2, b0=0.0, r_inf=1.0, rho_0=0.0)
    axis_ok = abs(rep["lhs"] - 2.00) <= 0.02
    report(
        3,
        "Phi(0.001) = 0.00099850*I +- 1e-10; |C|_L1 = 1 +- 1e-3; "
        "|H(1-C)|_L1 axis-1 = 2.00 +- 0.02",
        phi_ok and c_ok and axis_ok,
        f"phi {phi[0]:.12f}, |C| {c_norm:.5f}, lhs {rep['lhs']:.4f}",
    )


def test_criterion_4_step_tracking():
    cfg = config.quadrotor_nominal(duration=10.0, reference_kind="step")
    trace = scenario.run(cfg)
    m = scenario.metrics(trace)
    err_ok = m["final_tracking_error_inf"] <= 0.02
    kg = cfg.controller.k_g
    # the output matrix is the identity
    dc = (np.linalg.solve(-np.diag(cfg.controller.a_m), np.diag(cfg.controller.b_m))
          @ np.diag(kg))
    dc_ok = np.max(np.abs(dc - np.eye(3))) <= 1e-10
    kg_ok = np.allclose(kg, [0.033, 0.033, 0.063], atol=1e-12)
    report(
        4,
        "step tracking final-1s mean |y - r| <= 0.02 per axis; DC identity "
        "and k_g = diag(0.033, 0.033, 0.063)",
        err_ok and dc_ok and kg_ok,
        f"final err {m['final_tracking_error_inf']:.5f}",
    )


def test_criterion_5_learning_handoff(sinusoid_run):
    trace = sinusoid_run
    pubs = [e for e in trace.events if e["kind"] == "learner_published"]
    six_ok = len(pubs) == 6 and [e["t"] for e in pubs] == [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
    t = trace.t
    eta = np.linalg.norm(trace.block("eta"), axis=1)
    fl = np.linalg.norm(trace.block("fl"), axis=1)
    eta_late = scenario.window_mean(t, eta, 50.0, 60.0)
    fl_late = scenario.window_mean(t, fl, 50.0, 60.0)
    eta_early = scenario.window_mean(t, eta, 0.0, 10.0)
    handoff_ok = eta_late < fl_late
    halved_ok = eta_late < 0.5 * eta_early
    report(
        5,
        "exactly 6 publishes; mean|eta|[50,60] < mean|f_L|[50,60]; "
        "mean|eta|[50,60] < 0.5 mean|eta|[0,10]",
        six_ok and handoff_ok and halved_ok,
        f"eta late {eta_late:.5f}, fl late {fl_late:.5f}, eta early {eta_early:.5f}",
    )


def test_criterion_6_uncertainty_switch(switch_run):
    trace = switch_run
    t = trace.t
    x_ok = float(np.max(np.abs(trace.block("x")))) < 5.0
    eta = np.linalg.norm(trace.block("eta"), axis=1)
    pre = scenario.window_mean(t, eta, 30.0, 35.0)
    post = scenario.window_mean(t, eta, 35.0, 40.0)
    eta_ok = post > 3.0 * pre
    track = np.mean(np.abs(trace.block("x") - trace.block("r")), axis=1)
    pre_track = scenario.window_mean(t, track, 30.0, 35.0)
    recovered = scenario.window_mean(t, track, 50.0, 60.0)
    rec_ok = recovered <= 2.0 * pre_track
    report(
        6,
        "|x|_inf < 5 through the switch; mean|eta|[35,40] > 3x [30,35]; "
        "tracking back within 2x pre-switch by t = 50",
        x_ok and eta_ok and rec_ok,
        f"eta pre {pre:.5f} post {post:.5f}; track pre {pre_track:.5f} "
        f"rec {recovered:.5f}",
    )


def test_criterion_7_time_delay_margin():
    t0 = time.perf_counter()
    l1_cfg = config.quadrotor_nominal(duration=20.0, reference_kind="step", mode="l1")
    res_l1 = scenario.delay_margin_search(l1_cfg, resolution=0.001, horizon=20.0)
    gp_cfg = config.quadrotor_nominal(duration=20.0, reference_kind="step", mode="l1gp")
    res_gp = scenario.delay_margin_search(
        gp_cfg, resolution=0.001, horizon=20.0, snapshot_time=30.0
    )
    wall = time.perf_counter() - t0
    l1_ok = 0.010 <= res_l1.margin <= 0.040 and not res_l1.open_bracket
    close_ok = abs(res_gp.margin - res_l1.margin) <= 0.2 * res_l1.margin
    bracket_ok = (res_l1.bracket[1] - res_l1.bracket[0]) <= 0.001 + 1e-12
    report(
        7,
        "plain margin in [10, 40] ms at 1 ms resolution; learning-mode margin "
        "within 20%",
        l1_ok and close_ok and bracket_ok and wall < 120.0,
        f"l1 {res_l1.margin * 1e3:.0f} ms, l1gp {res_gp.margin * 1e3:.0f} ms, "
        f"wall {wall:.0f}s",
    )


def test_criterion_8_prediction_error_consistency():
    # consistency on a matched-initialization run: x_tilde must follow an
    # independent integration of its own error dynamics, driven only by
    # recorded signals (spline-interpolated uncertainty, held estimates)
    cfg = config.quadrotor_nominal(
        duration=10.0, reference_kind="step", record_decimation=1
    )
    cfg = replace(cfg, controller=replace(cfg.controller, x_hat0=(0.0, 0.0, 0.0)))
    trace = scenario.run(cfg)
    t = trace.t
    xt_rec = trace.block("xtilde")
    sg = trace.block("sigmahat")
    fl = trace.block("fl")
    spline = CubicSpline(t, trace.block("ftrue"), axis=0)
    A = np.diag(cfg.controller.a_m)
    B = np.diag(cfg.controller.b_m)
    xt = xt_rec[0].copy()
    worst = 0.0
    for k in range(1, len(t)):
        s_k, f_k = sg[k], fl[k]
        xt = numerics.rk4_step(
            lambda tau, z: A @ z + B @ (f_k - spline(tau) + s_k),
            t[k - 1],
            xt,
            0.001,
        )
        worst = max(worst, float(np.max(np.abs(xt - xt_rec[k]))))
    consistency_ok = worst <= 1e-6

    off_cfg = config.quadrotor_nominal(duration=5.0, reference_kind="step")
    off_trace = scenario.run(off_cfg)
    xt_inf = np.max(np.abs(off_trace.block("xtilde")), axis=1)
    start_ok = xt_inf[0] == pytest.approx(0.5)
    decay_ok = bool(np.all(xt_inf[off_trace.t >= 3.0] < 0.01))
    report(
        8,
        "recorded x_tilde matches independent error-dynamics integration "
        "within 1e-6; predictor-offset transient below 0.01 by t = 3 s",
        consistency_ok and decay_ok and start_ok,
        f"max deviation {worst:.2e}",
    )


def test_criterion_9_determinism(tmp_path):
    text = """
duration = 2.0
seed = 99

[reference]
kind = "sinusoid"

[plant]
j = [0.011, 0.011, 0.021]
"""
    cfg = tmp_path / "det.cfg"
    cfg.write_text(text)
    outs = []
    for name in ("o1", "o2", "o3"):
        out = tmp_path / name
        assert cli.main(["simulate", str(cfg), "-o", str(out)]) == cli.EXIT_OK
        outs.append((out / "trace.csv").read_bytes())
    identical = outs[0] == outs[1] == outs[2]
    report(
        9,
        "identical config+seed gives byte-identical trace.csv across runs",
        identical,
        f"{len(outs[0])} bytes",
    )
