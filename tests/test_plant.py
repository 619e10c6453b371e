"""Plant dynamics, uncertainty schedule, and delay-line tests."""

import math
from fractions import Fraction

import numpy as np
import pytest

from l1gp import config, numerics, plant


J = np.diag([0.011, 0.011, 0.021])
A_M = -3.0 * np.eye(3)
# the diagonals of A_m and B_m = J^{-1}, as the controller's config holds them
a_m, b_m = tuple(np.diag(A_M).tolist()), tuple((1.0 / np.diag(J)).tolist())


def make_cfg(kind="quadratic", switch_time=None, **kw):
    if switch_time is None:
        sched = plant.UncertaintySchedule(((0.0, kind),))
    else:
        sched = plant.UncertaintySchedule(((0.0, kind), (switch_time, "sine_switch")))
    return plant.PlantConfig(uncertainty=sched, **kw)


def derivative(x, u, t, cfg):
    """plant_derivative on the stock model."""
    return plant.plant_derivative(x, u, t, a_m, b_m, cfg.uncertainty)


class TestUncertainty:
    def test_poly_at_origin(self):
        sched = plant.UncertaintySchedule(((0.0, "quadratic"),))
        assert np.array_equal(sched.eval(0.0, np.zeros(3)), np.zeros(3))

    def test_poly_at_ones(self):
        sched = plant.UncertaintySchedule(((0.0, "quadratic"),))
        got = sched.eval(1.0, np.ones(3))
        assert np.allclose(got, [0.02, 0.02, 0.01], atol=1e-15)

    def test_sine_at_origin(self):
        sched = plant.UncertaintySchedule(((0.0, "sine_switch"),))
        got = sched.eval(0.0, np.zeros(3))
        assert np.allclose(got, [0.0, 0.01, 0.5], atol=1e-15)

    def test_switch_timing(self):
        sched = plant.UncertaintySchedule(((0.0, "quadratic"), (35.0, "sine_switch")))
        x = np.zeros(3)
        assert np.allclose(sched.eval(34.999, x), 0.0)
        assert np.allclose(sched.eval(35.0, x), [0.0, 0.01, 0.5])

    def test_deterministic(self):
        sched = plant.UncertaintySchedule(((0.0, "quadratic"),))
        x = np.array([0.3, -0.7, 1.1])
        assert np.array_equal(sched.eval(3.0, x), sched.eval(3.0, x))

    def test_custom_callable(self):
        # a callable segment is used as given, in the engine's scalar form
        def double(x0, x1, x2):
            return 2.0 * x0, 2.0 * x1, 2.0 * x2

        sched = plant.UncertaintySchedule(((0.0, "zero"), (1.0, double)))
        assert sched.scalar_fields[1] is double
        assert sched.eval(1.0, np.array([1.0, -0.5, 0.25])).tolist() == [2.0, -1.0, 0.5]

    def test_bad_schedules(self):
        with pytest.raises(ValueError):
            plant.UncertaintySchedule(((1.0, "zero"),))
        with pytest.raises(ValueError):
            plant.UncertaintySchedule(((0.0, "zero"), (0.0, "quadratic")))
        with pytest.raises(ValueError):
            plant.UncertaintySchedule(((0.0, "nope"),))


class TestPlantDerivative:
    def test_equilibrium(self):
        cfg = make_cfg("zero")
        got = derivative(np.zeros(3), np.zeros(3), 0.0, cfg)
        assert np.array_equal(got, np.zeros(3))

    def test_closed_loop_identity(self):
        # the field is A_m x + B_m (u + f(x)), B_m = J^{-1}, bitwise: per
        # axis a_m[i] x_i + (1 / j_i)(u_i + f_i(x)), in that order
        cfg = make_cfg("quadratic")
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.normal(size=3)
            u = rng.normal(size=3)
            got = derivative(x, u, 0.0, cfg)
            f = ORACLE_KINDS["quadratic"](x)
            want = np.diag(A_M) * x + (1.0 / np.diag(J)) * (u + f)
            assert np.array_equal(got, want)

    def test_nominal_numbers(self):
        cfg = make_cfg("quadratic")
        got = derivative(np.ones(3), np.zeros(3), 0.0, cfg)
        want = np.array(
            [-3 + 0.02 / 0.011, -3 + 0.02 / 0.011, -3 + 0.01 / 0.021]
        )
        assert np.allclose(got, want, atol=1e-12)
        assert np.allclose(want, [-1.1818, -1.1818, -2.5238], atol=1e-4)

    def test_linear_when_uncertainty_zero(self):
        # with f = 0 and u = 0 the field is A_m x: trajectory == exp(A_m t) x0
        cfg = make_cfg("zero")
        x = np.array([1.0, -0.5, 0.8])
        x0 = x.copy()
        h = 0.001
        for i in range(5000):
            x = numerics.rk4_step(
                lambda t, z: derivative(z, np.zeros(3), t, cfg), i * h, x, h
            )
        want = np.exp(np.diag(A_M) * 5.0) * x0
        assert np.max(np.abs(x - want)) < 1e-8


def _custom(x0, x1, x2):
    return 0.2 * math.tanh(x0), 0.2 * math.tanh(x1) + 0.05, 0.2 * math.tanh(x2) - 0.1


# the uncertainty kinds written again with numpy, for the oracle below
ORACLE_KINDS = {
    "zero": lambda x: np.zeros(3),
    "quadratic": lambda x: 0.01 * np.array(
        [x[0] * x[0] + x[2] * x[2], x[2] * x[1] + x[0] * x[0], x[2] * x[2]]
    ),
    "sine_switch": lambda x: np.array(
        [0.5 * np.sin(x[0]), 0.01 * np.cos(x[2]), 0.5 * (np.sin(x[0]) + np.cos(x[1]))]
    ),
    "custom": lambda x: np.array(_custom(*x)),
}


def oracle_step(kinds, x, u, t, h):
    """numerics.rk4_step over A_m x + B_m (u + f(t, x)), B_m = J^{-1}.

    ``kinds`` is a list of (start, oracle kind); A_m and J are diagonal,
    so A_m and B_m act elementwise.
    """
    a, b = np.diag(A_M), 1.0 / np.diag(J)

    def field(tt, z):
        f = [k for start, k in kinds if start <= tt][-1](z)
        return a * z + b * (u + f)

    return numerics.rk4_step(field, t, np.asarray(x, dtype=float), h)


class TestRk4PlantStep:
    H = 0.001

    @pytest.mark.parametrize("kind", ["zero", "quadratic", "sine_switch", "custom"])
    def test_matches_generic_rk4(self, kind):
        sched_kind = _custom if kind == "custom" else kind
        cfg = make_cfg(sched_kind)
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = rng.normal(size=3) * 2.0
            u = rng.normal(size=3) * 0.05
            t = float(rng.uniform(0.0, 10.0))
            f = cfg.uncertainty.scalar_fields[0]
            got = plant.rk4_plant_step(x, u, self.H, a_m, b_m, f, f)
            want = oracle_step([(0.0, ORACLE_KINDS[kind])], x, u, t, self.H)
            assert all(type(v) is float for v in got)
            assert np.array_equal(np.array(got), want)

    def test_last_stage_sees_switch(self):
        # the caller passes the new segment for the last stage of the step
        # that ends on a switch; the step looks nothing up by time
        switch = 1.0
        t = switch - self.H
        assert t + self.H == switch and t + 0.5 * self.H < switch
        cfg = make_cfg("quadratic", switch_time=switch)
        old, new = cfg.uncertainty.scalar_fields
        x = np.array([0.4, -0.3, 0.6])
        u = np.array([0.01, -0.02, 0.03])
        got = np.array(plant.rk4_plant_step(x, u, self.H, a_m, b_m, old, new))
        kinds = [(0.0, ORACLE_KINDS["quadratic"]), (switch, ORACLE_KINDS["sine_switch"])]
        want = oracle_step(kinds, x, u, t, self.H)
        assert np.array_equal(got, want)
        # k4 alone differs from the pre-switch field, so the step does too
        stale = oracle_step(kinds[:1], x, u, t, self.H)
        assert not np.array_equal(got, stale)
        assert np.array_equal(plant.rk4_plant_step(x, u, self.H, a_m, b_m, old, old), stale)

    def test_linear_axis_pins_the_field(self):
        # with f = 0 and u = 0 each axis is x_i' = a_m[i] x_i, so one RK4 step
        # is x_i (1 + z + z^2/2 + z^3/6 + z^4/24), z = a[i] h, to rounding,
        # and B_m does not enter: any other term in the field shows here
        f = plant.UncertaintySchedule(((0.0, "zero"),)).scalar_fields[0]
        rng = np.random.default_rng(23)
        for _ in range(2000):
            a = tuple(rng.uniform(-20.0, -0.5, size=3).tolist())
            x = tuple(rng.normal(size=3) * 2.0)
            h = float(rng.uniform(1e-4, 0.02))
            y, y_other_b = (
                plant.rk4_plant_step(x, (0.0, 0.0, 0.0), h, a, b, f, f)
                for b in [tuple(rng.uniform(20.0, 200.0, size=3).tolist()) for _ in range(2)]
            )
            assert y == y_other_b
            for i in range(3):
                z = Fraction(a[i]) * Fraction(h)
                want = float(Fraction(x[i]) * (1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24))
                assert abs(y[i] - want) <= 4 * math.ulp(want)

    @pytest.mark.parametrize("kw", [
        {"x0": (math.nan, 0.0, 0.0)},
        {"input_delay": math.nan},
        {"input_delay": math.inf},
    ], ids=["x0-nan", "delay-nan", "delay-inf"])
    def test_non_finite_rejected(self, kw):
        with pytest.raises(ValueError, match="finite"):
            plant.PlantConfig(**kw)

    # numpy's nan for sin/cos of an infinite stage state warns
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("kind", ["zero", "quadratic", "sine_switch"])
    def test_non_finite_state_is_returned(self, kind, bad):
        # the step judges nothing: the engine's bound on the state is the
        # one divergence test
        cfg = make_cfg(kind)
        f = cfg.uncertainty.scalar_fields[0]
        y = plant.rk4_plant_step((0.1, bad, -0.2), (0.0, 0.0, 0.0), self.H, a_m, b_m, f, f)
        assert all(type(v) is float for v in y)
        assert not math.isfinite(y[1])


class TestDelayLine:
    def test_zero_delay_identity(self):
        line = plant.DelayLine(0)
        u = np.array([1.0, 2.0, 3.0])
        assert plant.DelayLine(0).push(u) is u
        assert np.array_equal(line.push(u), u)

    def test_shift(self):
        line = plant.DelayLine(3)
        outs = [line.push(np.full(3, float(k))) for k in range(6)]
        # zero-padded for the first three pushes, then the delayed stream
        assert np.array_equal(np.array(outs)[:, 0], [0, 0, 0, 0, 1, 2])

    def test_non_multiple_rejected(self):
        # the scenario turns the delay into a step count, once
        cfg = config.quadrotor_nominal(duration=0.1, input_delay=0.003)
        assert cfg.delay_steps == 3
        with pytest.raises(ValueError, match="input_delay"):
            config.quadrotor_nominal(duration=0.1, input_delay=0.0015)
        with pytest.raises(ValueError):
            plant.DelayLine(-1)
