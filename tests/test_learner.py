"""Learner tests: target reconstruction, refit schedule, publishing, progress."""

import csv
import math
import pathlib

import numpy as np
import pytest

from l1gp import cli, config, gp, learner, numerics, plant, scenario
from l1gp import controller as ctrl

ROOT = pathlib.Path(__file__).resolve().parents[1]


QUADRATIC = plant.UncertaintySchedule(((0.0, "quadratic"),))
ZERO = (0.0, 0.0, 0.0)


def make_buffer(capacity=64, sigma_n=1e-9, seed=1):
    return learner.MeasurementBuffer(capacity, np.random.default_rng(seed), sigma_n)


def make_learner(rng=None, **kw):
    cfg = learner.LearnerConfig(**kw)
    return learner.BayesianLearner(cfg, rng if rng is not None else np.random.default_rng(0))


def state(k):
    """The k-th sample's state in the unit tests, as the engine passes it."""
    return tuple(0.1 * math.sin(i * k) for i in (1, 2, 3))


@pytest.mark.parametrize("field", ["T_data", "sigma_n"])
def test_config_rejects_nonpositive_and_nonfinite(field):
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            learner.LearnerConfig(**{field: bad})


def test_a_learner_run_makes_one_target_per_sample(monkeypatch):
    # the benchmark's reconstruct_ready self time is a per-target cost:
    # each push makes one target with one call, and no run differentiates
    calls, pushes = [], []
    ready, push = learner.MeasurementBuffer.reconstruct_ready, learner.BayesianLearner.push

    def counting_ready(self, x, f_L, sigma_hat):
        calls.append(x)
        ready(self, x, f_L, sigma_hat)

    def counting_push(self, x, f_L, sigma_hat):
        pushes.append(x)
        push(self, x, f_L, sigma_hat)

    def refuse(*args):
        raise AssertionError("a run differentiated")

    monkeypatch.setattr(learner.MeasurementBuffer, "reconstruct_ready", counting_ready)
    monkeypatch.setattr(learner.BayesianLearner, "push", counting_push)
    monkeypatch.setattr(numerics, "estimate_derivative", refuse)
    cfg = config.quadrotor_nominal(reference_kind="sinusoid", duration=15.0)
    eng = scenario.Engine(cfg)
    eng.run()
    assert len(pushes) == 15
    assert calls == pushes
    assert len(eng.live.learner.buffer.target_X) == 15


class TestBufferSchedule:
    def test_buffers_stay_bounded(self):
        # the targets are capped, however long the run, and the buffer keeps
        # no raw record beside them
        lrn = make_learner(N_update=10, max_points=64)
        for k in range(1, 2001):
            lrn.push(state(k), ZERO, ZERO)
            lrn.maybe_update(float(k), state(k + 1))
            buf = lrn.buffer
            assert len(buf.target_X) == len(buf.target_Y) == min(k, 64)
        assert vars(buf).keys() == {"rng", "sigma_n", "target_X", "target_Y"}
        assert lrn.posterior.n_samples == 64
        # the newest target is the sample just pushed
        assert buf.target_X[-1] == state(2000)

    def test_a_refit_appends_to_the_published_factor(self):
        # each refit hands gp.fit the published posterior: until the FIFO
        # evicts, the new model shares its full panels of the inverse
        # factor; the refit after an eviction is the fit of its data alone
        h = gp._PANEL_ROWS
        lrn = make_learner(N_update=h // 2, max_points=2 * h)
        models = []
        for k in range(1, 5 * h // 2 + 1):
            lrn.push(state(k), ZERO, ZERO)
            if lrn.maybe_update(float(k), ZERO):
                models.append(lrn.posterior)
        assert [p.n_samples for p in models] == [h // 2, h, 3 * h // 2, 2 * h, 2 * h]
        assert models[2].panels[0] is models[1].panels[0] is models[3].panels[0]
        evicted, buf = models[4], lrn.buffer
        fresh = gp.fit(np.asarray(buf.target_X), np.asarray(buf.target_Y),
                       lrn.cfg.sigma_n**2, lrn.cfg.kernel)
        assert evicted.panels[0] is not models[3].panels[0]
        assert all(np.array_equal(a, b) for a, b in zip(evicted.panels, fresh.panels))
        assert np.array_equal(evicted.alpha, fresh.alpha)

    def test_targets_match_a_batch_reconstruction(self):
        # the oracle makes every target of the stream so far at once,
        # drawing the noise from a same-seed generator in sample order; the
        # buffer, making each target on arrival, must agree bitwise after
        # every push, evictions from the FIFO included
        def oracle(stream, capacity, seed, sigma_n):
            rng = np.random.default_rng(seed)
            X = [x for x, _, _ in stream]
            Y = [np.array([a + b for a, b in zip(f_L, sigma_hat)])
                 + rng.normal(0.0, sigma_n, size=3) for _, f_L, sigma_hat in stream]
            return X[-capacity:], Y[-capacity:]

        buf = make_buffer(capacity=8, sigma_n=0.01, seed=7)
        stream = []
        for k in range(1, 41):
            sample = (state(k), tuple(0.1 * math.cos(i * k) for i in (1, 3, 5)),
                      tuple(0.02 * math.sin(i * k) for i in (2, 5, 7)))
            stream.append(sample)
            buf.reconstruct_ready(*sample)
            X, Y = oracle(stream, 8, 7, 0.01)
            assert list(buf.target_X) == X
            assert len(buf.target_Y) == len(Y)
            for got, want in zip(buf.target_Y, Y):
                assert np.array_equal(got, want)
        assert len(buf.target_X) == 8

    def test_the_first_sample_is_a_target(self):
        # refitting after every sample, the first push already publishes
        lrn = make_learner(N_update=1)
        lrn.push(state(1), ZERO, ZERO)
        ev = lrn.maybe_update(1.0, state(2))
        assert ev["kind"] == "learner_published"
        assert ev["n_data"] == 1

    def test_no_update_before_threshold(self):
        lrn = make_learner()
        for k in range(1, 10):
            lrn.push(ZERO, ZERO, ZERO)
            assert lrn.maybe_update(float(k), ZERO) is None

    def test_publish_cadence_and_index(self):
        lrn = make_learner()
        events = []
        for k in range(1, 61):
            lrn.push(state(k), ZERO, ZERO)
            ev = lrn.maybe_update(float(k), state(k + 1))
            if ev is not None:
                events.append(ev)
                # the new model's envelope at the state it is given
                assert ev["e_f_hat"] == lrn.evaluate(state(k + 1))[1]
        published = [e for e in events if e["kind"] == "learner_published"]
        assert [e["t"] for e in published] == [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
        assert [e["update_index"] for e in published] == [1, 2, 3, 4, 5, 6]
        # every refit publishes; at the next sample the envelope is far
        # below the prior's 8.51, and it falls as the data grow
        assert len(published) == len(events)
        e_f = [e["e_f_hat"] for e in published]
        assert e_f[0] < 8.5087184483385965 / 50
        assert e_f[-1] < e_f[0] / 3
        # every sample so far is a target
        assert [e["n_data"] for e in published] == [10, 20, 30, 40, 50, 60]

    def test_model_piecewise_static(self):
        lrn = make_learner()
        for k in range(1, 16):
            lrn.push((0.3 * math.cos(k),) * 3, state(k), ZERO)
            lrn.maybe_update(float(k), ZERO)
        x = np.array([0.2, -0.1, 0.4])
        a = lrn.posterior.mean_at(x)
        b = lrn.posterior.mean_at(x)
        assert np.array_equal(a, b)
        assert lrn.update_index == 1

    def test_evaluate_reads_python_floats(self):
        # the 1 kHz loop consumes the mean as floats; it is mean_at's bits
        lrn = make_learner()
        for k in range(1, 16):
            lrn.push((0.3 * math.cos(k),) * 3, state(k), ZERO)
            lrn.maybe_update(float(k), ZERO)
        x = (0.2, -0.1, 0.4)
        for reader in (lrn, make_learner()):  # a fitted model and the prior
            mean, e_f = reader.evaluate(x)
            assert [type(v) for v in mean] == [float] * 3
            assert mean == reader.posterior.mean_at(x).tolist()
            assert type(e_f) is float

    def test_envelope_is_sqrt_beta_times_std(self):
        # the envelope is one multiply of the learner's sqrt(beta), bit for bit
        lrn = make_learner()
        prior = lrn.posterior
        sqrt_beta = math.sqrt(gp.beta_value(lrn.cfg.bound, 3, 3))
        assert lrn.sqrt_beta == sqrt_beta
        # the stock prior: sqrt(beta) * sigma_f at delta = 0.01, xi = 1e-3,
        # at every state
        assert {lrn.evaluate(x)[1] for x in [(0.2, -0.1, 0.4), (50.0, 0.0, 0.0)]} == {
            8.5087184483385965}
        for k in range(1, 16):
            lrn.push((0.3 * math.cos(k),) * 3, state(k), ZERO)
            lrn.maybe_update(float(k), ZERO)
        assert lrn.update_index == 1 and lrn.posterior is not prior
        assert lrn.sqrt_beta == sqrt_beta
        for x in [(0.2, -0.1, 0.4), (0.0, 0.0, 0.0), (5.0, -5.0, 5.0)]:
            _, e_f = lrn.evaluate(x)
            assert e_f == sqrt_beta * lrn.posterior.point_eval(x)[1]

    def test_prior_model(self):
        lrn = make_learner()
        assert lrn.update_index == 0
        assert lrn.posterior.n_samples == 0
        assert np.array_equal(lrn.posterior.mean_at(np.ones(3)), np.zeros(3))
        assert lrn.evaluate(np.ones(3))[1] == pytest.approx(8.509, abs=5e-4)


class TestGating:
    def test_always_gate_publishes(self):
        lrn = make_learner()
        for k in range(1, 11):
            lrn.push((0.1 * k,) * 3, ZERO, ZERO)
        ev = lrn.maybe_update(10.0, ZERO)
        assert ev["kind"] == "learner_published"

    def test_fit_failure_keeps_model(self, monkeypatch):
        lrn = make_learner()
        def boom(*a, **k):
            raise gp.IllConditionedKernelError("synthetic failure")
        monkeypatch.setattr(gp, "fit", boom)
        for k in range(1, 11):
            lrn.push((0.1 * k,) * 3, ZERO, ZERO)
        prior = lrn.posterior
        ev = lrn.maybe_update(10.0, ZERO)
        assert ev["kind"] == "learner_fit_failed"
        assert lrn.update_index == 0 and lrn.posterior is prior


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


class RecordingGenerator:
    """A generator that keeps each normal draw it makes, in order."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def normal(self, *args, **kwargs):
        draw = self.rng.normal(*args, **kwargs)
        self.draws.append(draw)
        return draw


@pytest.mark.parametrize("name, tol", [
    ("switch", 3e-3), ("step_nominal", 1e-4), ("sinusoid_learning", 1e-4)])
def test_each_target_is_within_tol_of_f_before_noise(name, tol):
    # f_L + sigma_hat tracks f over the last tick, to order T_s: the largest
    # misses are 2.2e-3 one tick after the switch and 6e-5 on the other
    # decks, against sigma_n = 0.01
    cfg = stock_deck(name, record_decimation=1)
    eng = scenario.Engine(cfg)
    buf = eng.live.learner.buffer
    buf.rng = RecordingGenerator(buf.rng)
    trace = eng.run()
    X = np.asarray(buf.target_X, dtype=float)
    assert len(X) >= 56
    targets = np.asarray(buf.target_Y) - np.asarray(buf.rng.draws)[-len(X):]
    # the true f at each target's state: that of the row recording it
    states = trace.block("x")
    rows = [np.flatnonzero((states == x).all(axis=1))[0] for x in X]
    err = np.abs(targets - trace.block("ftrue")[rows]).max(axis=1)
    assert err.max() < tol, (err.argmax(), err.max())


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
