"""Learner tests: target reconstruction, refit schedule, publishing, progress."""

import csv
import math
import pathlib

import numpy as np
import pytest

from l1gp import cli, config, gp, learner, numerics, plant, scenario
from l1gp import controller as ctrl

ROOT = pathlib.Path(__file__).resolve().parents[1]


J = np.diag([0.011, 0.011, 0.021])
A_M = -3.0 * np.eye(3)
B_M = np.diag(1.0 / np.diag(J))
# the diagonals the learner is given: A_m's and B_m^{-1}'s
A_DIAG = (-3.0, -3.0, -3.0)
B_INV = tuple(np.diag(J).tolist())
QUADRATIC = plant.UncertaintySchedule(((0.0, "quadratic"),))


def make_buffer(capacity=64, sigma_n=1e-9, seed=1):
    return learner.MeasurementBuffer(
        1.0, capacity, A_DIAG, B_INV, np.random.default_rng(seed), sigma_n
    )


def make_learner(rng=None, **kw):
    cfg = learner.LearnerConfig(**kw)
    return learner.BayesianLearner(
        cfg, A_DIAG, B_INV, rng if rng is not None else np.random.default_rng(0)
    )


@pytest.mark.parametrize("field", ["T_data", "sigma_n"])
def test_config_rejects_nonpositive_and_nonfinite(field):
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            learner.LearnerConfig(**{field: bad})


class TestReconstructTarget:
    def test_constant_offset_identity(self):
        # constant x with u chosen so xdot = A x + B(u + c) = 0 exactly:
        # the reconstruction returns c to round-off
        c = np.array([0.3, -0.1, 0.2])
        x = np.array([1.0, 2.0, -1.0])
        u = -J @ (A_M @ x) - c
        times = np.arange(5.0)
        states = np.tile(x, (5, 1))
        y = learner.reconstruct_target(times, states, x, u, A_DIAG, B_INV)
        assert np.allclose(y, c, atol=1e-12)

    def test_zero_uncertainty_linear_trajectory(self):
        # f == 0 and exact linear state history: target is 0 up to filter error
        v = np.array([0.1, -0.2, 0.05])
        x_j = np.array([0.5, 0.5, 0.5])
        times = np.arange(5.0)
        states = x_j + np.outer(times - 2.0, v)
        u = J @ (v - A_M @ x_j)  # makes xdot = A x_j + B u hold at the center
        y = learner.reconstruct_target(times, states, x_j, u, A_DIAG, B_INV)
        assert np.max(np.abs(y)) < 1e-6

    def test_quadratic_trajectory_recovers_uncertainty(self):
        # craft a quadratic window whose center slope equals the
        # partially-closed-loop derivative with the quadratic uncertainty
        x_j = np.array([1.0, 1.0, 1.0])
        u_j = np.zeros(3)
        f_j = QUADRATIC.eval(0.0, x_j)
        xdot_j = A_M @ x_j + B_M @ (u_j + f_j)
        times = np.arange(5.0)
        curv = np.array([0.01, -0.02, 0.005])
        dt = times - 2.0
        states = x_j + np.outer(dt, xdot_j) + 0.5 * np.outer(dt**2, curv)
        y = learner.reconstruct_target(times, states, x_j, u_j, A_DIAG, B_INV)
        assert np.allclose(y, [0.02, 0.02, 0.01], atol=1e-9)


    def test_bitwise_the_matrix_form(self):
        # B_m^{-1} (xdot - A_m x) - u with the dense inverse and products,
        # on random diagonal A_m, B_m, signs of zero included
        rng = np.random.default_rng(4)
        times = np.arange(5.0)
        for k in range(300):
            a = -(10.0 ** rng.uniform(-3.0, 3.0, size=3))
            b = 10.0 ** rng.uniform(-2.0, 3.0, size=3) * rng.choice([-1.0, 1.0], size=3)
            states = rng.normal(size=(5, 3))
            x_j, u_j = states[2].copy(), rng.normal(size=3)
            if k % 3 == 0:
                states[:] = 0.0
                x_j, u_j = (rng.choice([0.0, -0.0], size=3) for _ in range(2))
            A, B_inv = np.diag(a), np.linalg.inv(np.diag(b))
            xdot = numerics.estimate_derivative(times, states)
            want = B_inv @ (xdot - A @ x_j) - u_j
            got = learner.reconstruct_target(
                times, states, x_j, u_j, tuple(a.tolist()), tuple(np.diag(B_inv).tolist())
            )
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_a_learner_run_differentiates_once_per_target(monkeypatch):
    # the benchmark's estimate_derivative self time is a per-target cost:
    # each push that completes a window makes one target with one call
    calls, pushes = [], []
    derivative, push = numerics.estimate_derivative, learner.BayesianLearner.push

    def counting_derivative(times, values):
        calls.append(times[2])
        return derivative(times, values)

    def counting_push(self, t, x, u):
        pushes.append(t)
        push(self, t, x, u)

    monkeypatch.setattr(numerics, "estimate_derivative", counting_derivative)
    monkeypatch.setattr(learner.BayesianLearner, "push", counting_push)
    cfg = config.quadrotor_nominal(reference_kind="sinusoid", duration=15.0)
    eng = scenario.Engine(cfg)
    eng.run()
    buf = eng.live.learner.buffer
    assert len(pushes) >= 10
    assert calls == pushes[2:-2]
    assert buf.n_targets == len(calls)


class TestBufferSchedule:
    def test_spacing_enforced(self):
        buf = make_buffer()
        buf.push(1.0, np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            buf.push(1.5, np.zeros(3), np.zeros(3))

    def test_two_sample_latency(self):
        # a target is made by the push that completes its centered window:
        # the fifth sample makes the third sample's target
        buf = make_buffer()
        for k in range(1, 5):
            buf.push(float(k), np.full(3, float(k)), np.zeros(3))
            assert buf.n_targets == 0
        buf.push(5.0, np.full(3, 5.0), np.zeros(3))
        assert buf.n_targets == 1
        np.testing.assert_allclose(buf.target_X[0], np.full(3, 3.0))

    def test_buffers_stay_bounded(self):
        # raw records are the one derivative window and the targets are
        # capped, however long the run
        lrn = make_learner(N_update=10, max_points=64)
        for k in range(1, 2001):
            lrn.push(float(k), 0.1 * np.sin([k, 2 * k, 3 * k]), np.zeros(3))
            lrn.maybe_update(float(k))
            buf = lrn.buffer
            assert len(buf.window) <= 5
            assert buf.n_targets <= 64
        assert buf.n_targets == 64
        assert lrn.model.posterior.n_samples == 64
        # the newest target is the sample two steps behind the last push
        np.testing.assert_array_equal(
            buf.target_X[-1], 0.1 * np.sin([1998.0, 2 * 1998.0, 3 * 1998.0])
        )

    def test_targets_match_a_batch_reconstruction(self):
        # the oracle reconstructs every complete window of the stream so far
        # at once, drawing the noise from a same-seed generator in sample
        # order; the buffer, making each target on arrival, must agree
        # bitwise after every push, evictions from the FIFO included
        def oracle(stream, capacity, seed, sigma_n):
            rng = np.random.default_rng(seed)
            X, Y = [], []
            for j in range(2, len(stream) - 2):
                window = stream[j - 2 : j + 3]
                y = learner.reconstruct_target(
                    np.array([t for t, _, _ in window]),
                    np.array([x for _, x, _ in window]),
                    stream[j][1], stream[j][2], A_DIAG, B_INV,
                )
                X.append(stream[j][1])
                Y.append(y + rng.normal(0.0, sigma_n, size=y.shape))
            return X[-capacity:], Y[-capacity:]

        buf = make_buffer(capacity=8, sigma_n=0.01, seed=7)
        stream = []
        for k in range(1, 41):
            sample = (float(k), 0.2 * np.sin([k, 2 * k, 3 * k]),
                      0.1 * np.cos([k, 3 * k, 5 * k]))
            stream.append(sample)
            buf.push(*sample)
            X, Y = oracle(stream, 8, 7, 0.01)
            assert len(buf.target_X) == len(X)
            for got, want in zip(buf.target_X, X):
                assert np.array_equal(got, want)
            for got, want in zip(buf.target_Y, Y):
                assert np.array_equal(got, want)
        assert buf.n_targets == 8

    def test_refit_waits_for_the_first_window(self):
        # refitting after every sample, the first four pushes have no target
        # yet; the fifth completes the first window and publishes it
        lrn = make_learner(N_update=1)
        for k in range(1, 5):
            lrn.push(float(k), 0.1 * np.sin([k, 2 * k, 3 * k]), np.zeros(3))
            ev = lrn.maybe_update(float(k))
            assert ev == {"t": float(k), "kind": "learner_skipped",
                          "reason": "no targets yet"}
        lrn.push(5.0, 0.1 * np.sin([5.0, 10.0, 15.0]), np.zeros(3))
        ev = lrn.maybe_update(5.0)
        assert ev["kind"] == "learner_published"
        assert ev["n_data"] == 1

    def test_no_update_before_threshold(self):
        lrn = make_learner()
        for k in range(1, 10):
            lrn.push(float(k), np.zeros(3), np.zeros(3))
            assert lrn.maybe_update(float(k)) is None

    def test_publish_cadence_and_index(self):
        lrn = make_learner()
        events = []
        for k in range(1, 61):
            x = 0.1 * np.sin([k, 2 * k, 3 * k])
            lrn.push(float(k), x, np.zeros(3))
            ev = lrn.maybe_update(float(k))
            if ev is not None:
                events.append(ev)
                # the new model's envelope at the sample just pushed
                assert ev["e_f_hat"] == lrn.model.evaluate(tuple(x))[1]
        published = [e for e in events if e["kind"] == "learner_published"]
        assert [e["t"] for e in published] == [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
        assert [e["update_index"] for e in published] == [1, 2, 3, 4, 5, 6]
        # every refit publishes; next to the data the envelope is far below
        # the prior's 8.51, and it falls as the data grow
        assert len(published) == len(events)
        e_f = [e["e_f_hat"] for e in published]
        assert e_f[0] < 8.5087184483385965 / 50
        assert e_f[-1] < e_f[0] / 4
        # dataset trails the sample count: first two samples never complete
        # a window and the newest two are still pending
        assert published[0]["n_data"] == 6
        assert published[-1]["n_data"] == 56

    def test_model_piecewise_static(self):
        lrn = make_learner()
        for k in range(1, 16):
            lrn.push(float(k), 0.3 * np.cos([k, k, k]), np.zeros(3))
            lrn.maybe_update(float(k))
        model = lrn.model
        x = np.array([0.2, -0.1, 0.4])
        a = model.posterior.mean_at(x)
        b = model.posterior.mean_at(x)
        assert np.array_equal(a, b)
        assert model.update_index == 1

    def test_evaluate_reads_python_floats(self):
        # the 1 kHz loop consumes the mean as floats; it is mean_at's bits
        lrn = make_learner()
        for k in range(1, 16):
            lrn.push(float(k), 0.3 * np.cos([k, k, k]), np.zeros(3))
            lrn.maybe_update(float(k))
        x = (0.2, -0.1, 0.4)
        for model in (lrn.model, learner.LearnerModel.prior(lrn.cfg, 3, 3)):
            mean, e_f = model.evaluate(x)
            assert [type(v) for v in mean] == [float] * 3
            assert mean == model.posterior.mean_at(x).tolist()
            assert type(e_f) is float

    def test_envelope_is_sqrt_beta_times_std(self):
        # the envelope is one multiply of the learner's sqrt(beta), bit for bit
        lrn = make_learner()
        prior = lrn.model
        for k in range(1, 16):
            lrn.push(float(k), 0.3 * np.cos([k, k, k]), np.zeros(3))
            lrn.maybe_update(float(k))
        sqrt_beta = math.sqrt(gp.beta_value(lrn.cfg.bound, 3, 3))
        assert lrn.model.update_index == 1
        assert prior.sqrt_beta == lrn.model.sqrt_beta == sqrt_beta
        for model in (prior, lrn.model):
            for x in [(0.2, -0.1, 0.4), (0.0, 0.0, 0.0), (5.0, -5.0, 5.0)]:
                _, e_f = model.evaluate(x)
                assert e_f == sqrt_beta * model.posterior.point_eval(x)[1]
        # the stock prior: sqrt(beta) * sigma_f at delta = 0.01, xi = 1e-3,
        # at every state
        assert {prior.evaluate(x)[1] for x in [(0.2, -0.1, 0.4), (50.0, 0.0, 0.0)]} == {
            8.5087184483385965}

    def test_prior_model(self):
        lrn = make_learner()
        assert lrn.model.update_index == 0
        assert np.array_equal(lrn.model.posterior.mean_at(np.ones(3)), np.zeros(3))
        assert lrn.model.evaluate(np.ones(3))[1] == pytest.approx(8.509, abs=5e-4)


class TestGating:
    def test_always_gate_publishes(self):
        lrn = make_learner()
        for k in range(1, 11):
            lrn.push(float(k), 0.1 * np.ones(3) * k, np.zeros(3))
        ev = lrn.maybe_update(10.0)
        assert ev["kind"] == "learner_published"

    def test_fit_failure_keeps_model(self, monkeypatch):
        lrn = make_learner()
        def boom(*a, **k):
            raise gp.IllConditionedKernelError("synthetic failure")
        monkeypatch.setattr(gp, "fit", boom)
        for k in range(1, 11):
            lrn.push(float(k), 0.1 * np.ones(3) * k, np.zeros(3))
        ev = lrn.maybe_update(10.0)
        assert ev["kind"] == "learner_fit_failed"
        assert lrn.model.update_index == 0


def test_a_published_model_compares_and_hashes():
    # a posterior is its own identity: two fits on the same data are two
    # models, and a model holding one compares and hashes by its fields
    lrn = make_learner()
    for k in range(1, 11):
        lrn.push(float(k), 0.1 * np.ones(3) * k, np.zeros(3))
    assert lrn.maybe_update(10.0)["kind"] == "learner_published"
    model = lrn.model
    assert model.posterior.n_samples > 0
    X, Y = model.posterior.X, model.posterior.alpha
    a, b = (gp.fit(X, Y, 1e-4, gp.SeKernel()) for _ in range(2))
    assert a == a and a != b and hash(a) == hash(a)
    twin = learner.LearnerModel(model.update_index, model.posterior, model.sqrt_beta)
    assert twin == model and hash(twin) == hash(model)
    assert len({model, twin}) == 1
    assert learner.LearnerModel(1, a, 2.0) != learner.LearnerModel(1, b, 2.0)


class TestLearningProgress:
    def test_error_nonincreasing_with_data(self):
        rng = np.random.default_rng(3)
        grid = rng.uniform(-1, 1, size=(400, 3))
        F = np.array([QUADRATIC.eval(0.0, x) for x in grid])
        kernel = gp.SeKernel()
        errs = []
        X_all = rng.uniform(-1, 1, size=(40, 3))
        Y_all = np.array([QUADRATIC.eval(0.0, x) for x in X_all])
        for N in (10, 20, 40):
            post = gp.fit(X_all[:N], Y_all[:N], 1e-6, kernel)
            mean, _ = post.predict_batch(grid)
            errs.append(np.max(np.abs(F - mean)))
        regressions = sum(
            1 for a, b in zip(errs, errs[1:]) if b > a * 1.05
        )
        assert regressions <= 1
        assert errs[-1] < errs[0]


def stock_deck(name, **keys):
    """``configs/<name>.cfg`` with the given deck keys set."""
    flat = config.parse_flat_file(str(ROOT / "configs" / f"{name}.cfg"))
    return config.resolve_scenario({**flat, **keys})[0]


class TestPublishedEnvelope:
    """A publish reports the new model's envelope at the sample just pushed:
    the envelope the loop's next tick reads, which moves as the model
    learns and as the uncertainty changes."""

    def test_each_publish_is_the_next_ticks_envelope(self):
        # the switch deck cut to 30 s, its switch at 22 s, a publish every 5 s
        cfg = stock_deck("switch", duration=30.0, record_decimation=1,
                         **{"plant.switch_time": 22.0, "learner.n_update": 5})
        trace = scenario.run(cfg)
        published = [ev for ev in trace.events if ev["kind"] == "learner_published"]
        assert [ev["t"] for ev in published] == [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
        # a row at every step: the row one step after a publish holds the
        # envelope its tick read; the last publish ends the run
        e_f = trace.col("e_f_hat")
        for ev in published[:-1]:
            k = round(ev["t"] / cfg.step) + 1
            assert trace.t[k] == k * cfg.step
            assert e_f[k] == ev["e_f_hat"], ev
        # the data stop covering the loop's states at the switch
        before, after = published[3], published[4]
        assert before["t"] < 22.0 < after["t"]
        assert after["e_f_hat"] > before["e_f_hat"]

    def test_first_step_nominal_publish_is_far_below_the_prior(self):
        trace = scenario.run(stock_deck("step_nominal", duration=10.0))
        (ev,) = [ev for ev in trace.events if ev["kind"] == "learner_published"]
        assert ev["t"] == 10.0
        assert 10.0 * ev["e_f_hat"] <= 8.5087184483385965

    def test_a_run_reads_no_grid_and_starts_at_the_prior_bound(
            self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a run read the GP off the loop's state")

        monkeypatch.setattr(gp.GpPosterior, "predict_batch", refuse)
        monkeypatch.setattr(gp, "uniform_bound_grid_max", refuse)
        deck = tmp_path / "switch.cfg"
        deck.write_text((ROOT / "configs" / "switch.cfg").read_text()
                        .replace("duration = 60.0", "duration = 20.0"))
        out = tmp_path / "out"
        assert cli.main(["simulate", str(deck), "-o", str(out)]) == cli.EXIT_OK
        with open(out / "events.csv") as fh:
            kinds = [row["kind"] for row in csv.DictReader(fh)]
        assert kinds.count("learner_published") == 2
        with open(out / "trace.csv") as fh:
            row0 = next(csv.DictReader(fh))
        # the prior's bound sqrt(beta) * sqrt(sigma_f**2), as it was read
        # before a publish reported the envelope at the state, and the
        # initial bandwidth it sets
        cfg = stock_deck("switch")
        sigma_f = cfg.learner.kernel.sigma_f
        e0 = math.sqrt(gp.beta_value(cfg.learner.bound, 3, 3)) * math.sqrt(sigma_f**2)
        assert float(row0["e_f_hat"]) == e0 == 8.5087184483385965
        c = cfg.controller
        assert float(row0["omega_filtered"]) == ctrl.bandwidth_command(
            e0, c.omega_0, c.omega_c)
