"""Plant dynamics, uncertainty schedule, baseline, and delay-line tests."""

import itertools
import math

import numpy as np
import pytest

from l1gp import config, numerics, plant


J = np.diag([0.011, 0.011, 0.021])
A_M = -3.0 * np.eye(3)


def make_cfg(kind="quadratic", switch_time=None, **kw):
    if switch_time is None:
        sched = plant.UncertaintySchedule(((0.0, kind),))
    else:
        sched = plant.UncertaintySchedule(((0.0, kind), (switch_time, "sine_switch")))
    return plant.PlantConfig(j=np.diag(J), uncertainty=sched, a_m=np.diag(A_M), **kw)


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


class TestBaseline:
    def test_zero(self):
        assert np.array_equal(plant.baseline_control(np.zeros(3), make_cfg()), np.zeros(3))

    def test_single_axis(self):
        got = plant.baseline_control(np.array([1.0, 0.0, 0.0]), make_cfg())
        assert np.allclose(got, [-0.033, 0.0, 0.0], atol=1e-15)

    def test_symmetric_inertia_cross_cancels(self):
        x = np.array([1.0, 1.0, 0.0])
        got = plant.baseline_control(x, make_cfg())
        assert np.allclose(got, -3.0 * J @ x, atol=1e-15)

    @pytest.mark.parametrize("a_m", [(-3.0, -3.0, -3.0), (-3.0, -0.5, -7.0), (-1e-5, 0.0, -2.0)])
    def test_matches_the_array_form_bitwise(self, a_m):
        # the diagonal products are numpy's, signs of zero and underflow
        # included: J @ (A_m @ x) + x cross (J @ x) with -0.0 off-diagonals
        A = np.diag(a_m)
        A[A == 0.0] = -0.0
        for Jd in (J, np.diag([1e-200, 1.0, 3.0])):
            cfg = plant.PlantConfig(j=np.diag(Jd), a_m=np.diag(A))
            zeros = (0.0, -0.0, 1.5, -2.0, 1e-160, -5e-324)
            xs = list(itertools.product(zeros, repeat=3))
            xs += [tuple(v) for v in np.random.default_rng(3).normal(size=(300, 3))]
            for x in xs:
                want = Jd @ (A @ np.array(x)) + np.cross(x, Jd @ np.array(x))
                got = np.array(plant.baseline_control(x, cfg))
                assert np.array_equal(got, want), x
                assert np.array_equal(np.signbit(got), np.signbit(want)), x

    def test_gyroscopic_orthogonality(self):
        rng = np.random.default_rng(2)
        for _ in range(10000):
            x = rng.normal(size=3)
            Jx = J @ x
            cross = np.cross(x, Jx)
            assert abs(x @ cross) < 1e-12 * max(1.0, np.linalg.norm(x) ** 2)


class TestPlantDerivative:
    def test_equilibrium(self):
        cfg = make_cfg("zero")
        got = plant.plant_derivative(np.zeros(3), np.zeros(3), 0.0, cfg)
        assert np.array_equal(got, np.zeros(3))

    def test_closed_loop_identity(self):
        # with the baseline included the physical form must equal
        # A_m x + B_m (u + f(x)) to round-off, for any state
        cfg = make_cfg("quadratic")
        B_m = np.linalg.inv(np.diag(cfg.j))
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.normal(size=3)
            u = rng.normal(size=3)
            got = plant.plant_derivative(x, u, 0.0, cfg)
            f = ORACLE_KINDS["quadratic"](x)
            want = A_M @ x + B_m @ (u + f)
            assert np.allclose(got, want, atol=1e-12 * max(1, np.max(np.abs(want))))

    def test_nominal_numbers(self):
        cfg = make_cfg("quadratic")
        got = plant.plant_derivative(np.ones(3), np.zeros(3), 0.0, cfg)
        want = np.array(
            [-3 + 0.02 / 0.011, -3 + 0.02 / 0.011, -3 + 0.01 / 0.021]
        )
        assert np.allclose(got, want, atol=1e-12)
        assert np.allclose(want, [-1.1818, -1.1818, -2.5238], atol=1e-4)

    def test_linear_when_uncertainty_zero(self):
        # u_bl exactly cancels the gyroscopic term: trajectory == exp(A_m t) x0
        cfg = make_cfg("zero")
        x = np.array([1.0, -0.5, 0.8])
        x0 = x.copy()
        h = 0.001
        for i in range(5000):
            x = numerics.rk4_step(
                lambda t, z: plant.plant_derivative(z, np.zeros(3), t, cfg), i * h, x, h
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


def oracle_step(cfg, kinds, x, u, t, h, include_baseline):
    """numerics.rk4_step over J^{-1}(-x cross Jx + f(t, x) + u_total).

    ``kinds`` is a list of (start, oracle kind); J is diagonal, so J and
    J^{-1} act elementwise.
    """
    j = np.array(cfg.j)
    JA = np.diag(j) @ np.diag(cfg.a_m)

    def field(tt, z):
        f = [k for start, k in kinds if start <= tt][-1](z)
        gyro = np.cross(z, j * z)
        u_total = u + JA @ z + gyro if include_baseline else u
        return (1.0 / j) * (f + u_total - gyro)

    return numerics.rk4_step(field, t, np.asarray(x, dtype=float), h)


class TestRk4PlantStep:
    H = 0.001

    @pytest.mark.parametrize("include_baseline", [True, False])
    @pytest.mark.parametrize("kind", ["zero", "quadratic", "sine_switch", "custom"])
    def test_matches_generic_rk4(self, kind, include_baseline):
        sched_kind = _custom if kind == "custom" else kind
        cfg = make_cfg(sched_kind)
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = rng.normal(size=3) * 2.0
            u = rng.normal(size=3) * 0.05
            t = float(rng.uniform(0.0, 10.0))
            f = cfg.uncertainty.scalar_fields[0]
            got = plant.rk4_plant_step(x, u, t, self.H, cfg, f, f, include_baseline)
            want = oracle_step(
                cfg, [(0.0, ORACLE_KINDS[kind])], x, u, t, self.H, include_baseline
            )
            assert all(type(v) is float for v in got)
            assert np.array_equal(np.array(got), want)

    @pytest.mark.parametrize("include_baseline", [True, False])
    def test_last_stage_sees_switch(self, include_baseline):
        # the caller passes the new segment for the last stage of the step
        # that ends on a switch; the step looks nothing up by time
        switch = 1.0
        t = switch - self.H
        assert t + self.H == switch and t + 0.5 * self.H < switch
        cfg = make_cfg("quadratic", switch_time=switch)
        old, new = cfg.uncertainty.scalar_fields
        x = np.array([0.4, -0.3, 0.6])
        u = np.array([0.01, -0.02, 0.03])
        got = np.array(
            plant.rk4_plant_step(x, u, t, self.H, cfg, old, new, include_baseline)
        )
        kinds = [(0.0, ORACLE_KINDS["quadratic"]), (switch, ORACLE_KINDS["sine_switch"])]
        want = oracle_step(cfg, kinds, x, u, t, self.H, include_baseline)
        assert np.array_equal(got, want)
        # k4 alone differs from the pre-switch field, so the step does too
        stale = oracle_step(cfg, kinds[:1], x, u, t, self.H, include_baseline)
        assert not np.array_equal(got, stale)
        assert np.array_equal(
            plant.rk4_plant_step(x, u, t, self.H, cfg, old, old, include_baseline),
            stale,
        )

    def test_non_diagonal_a_m(self):
        # the field multiplies per axis, so A_m is its diagonal: a matrix,
        # coupled or not, is refused, and so is a wrong length
        A_m = np.array([[-3.0, 0.5, 0.1], [0.2, -4.0, 0.3], [-0.1, 0.4, -2.5]])
        for value in (A_m, A_M, (-3.0, -3.0)):
            with pytest.raises(ValueError, match="a_m must be 3 finite values"):
                plant.PlantConfig(a_m=value)

    @pytest.mark.parametrize("kw", [
        {"a_m": (-3.0, -math.inf, -3.0)},
        {"j": (math.inf, 0.011, 0.021)},
        {"j": (math.nan, 0.011, 0.021)},
        {"x0": (math.nan, 0.0, 0.0)},
        {"input_delay": math.nan},
        {"input_delay": math.inf},
    ], ids=["A_m-inf", "J-inf", "J-nan", "x0-nan", "delay-nan", "delay-inf"])
    def test_non_finite_rejected(self, kw):
        with pytest.raises(ValueError, match="finite"):
            plant.PlantConfig(**kw)

    # numpy's nan for sin/cos of an infinite stage state warns
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("kind", ["zero", "quadratic", "sine_switch"])
    def test_non_finite_state_raises(self, kind, bad):
        cfg = make_cfg(kind)
        x = np.array([0.1, bad, -0.2])
        f = cfg.uncertainty.scalar_fields[0]
        with pytest.raises(numerics.DivergenceError) as exc:
            plant.rk4_plant_step(x, np.zeros(3), 2.5, self.H, cfg, f, f)
        assert exc.value.t == 2.5


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
