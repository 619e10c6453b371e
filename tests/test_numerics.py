"""Unit tests for the shared numerical utilities, oracle-checked."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1gp import numerics


def taylor_expm(A, t, terms=30):
    """Independent matrix-exponential oracle: truncated Taylor series."""
    n = A.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    At = A * t
    for k in range(1, terms + 1):
        term = term @ At / k
        out = out + term
    return out


def naive_gauss_solve(M, B):
    """Independent linear-solve oracle: textbook Gaussian elimination."""
    M = M.astype(float).copy()
    B = B.astype(float).copy()
    n = M.shape[0]
    for col in range(n):
        piv = col + int(np.argmax(np.abs(M[col:, col])))
        M[[col, piv]] = M[[piv, col]]
        B[[col, piv]] = B[[piv, col]]
        for row in range(col + 1, n):
            factor = M[row, col] / M[col, col]
            M[row, col:] -= factor * M[col, col:]
            B[row] -= factor * B[col]
    X = np.zeros_like(B)
    for row in range(n - 1, -1, -1):
        X[row] = (B[row] - M[row, row + 1 :] @ X[row + 1 :]) / M[row, row]
    return X


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert np.allclose(
            numerics.matrix_exponential(np.zeros((3, 3)), 1.0), np.eye(3)
        )

    def test_scalar_diagonal(self):
        got = numerics.matrix_exponential(-3.0 * np.eye(3), 0.001)
        expected = taylor_expm(-3.0 * np.eye(3), 0.001)
        assert np.allclose(got, expected, atol=1e-14)
        assert got[0, 0] == pytest.approx(math.exp(-0.003), abs=1e-15)
        assert got[0, 0] == pytest.approx(0.9970045, abs=5e-8)

    def test_t_zero_identity(self):
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        assert np.array_equal(numerics.matrix_exponential(A, 0.0), np.eye(2))

    def test_nonsquare_rejected(self):
        with pytest.raises(numerics.DimensionError):
            numerics.matrix_exponential(np.zeros((2, 3)), 1.0)

    def test_semigroup_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            A = rng.normal(size=(4, 4))
            A = A / max(1.0, np.linalg.norm(A, 2) / 5.0)
            s, t = rng.uniform(0.0, 2.0, size=2)
            lhs = numerics.matrix_exponential(A, s + t)
            rhs = numerics.matrix_exponential(A, s) @ numerics.matrix_exponential(A, t)
            assert np.allclose(lhs, rhs, atol=1e-9)

    def test_hurwitz_decay(self):
        A = np.diag([-1.0, -2.0, -5.0])
        assert np.max(np.abs(numerics.matrix_exponential(A, 50.0))) < 1e-20


class TestPhiMatrix:
    def test_closed_form_scalar(self):
        # per-eigenvalue closed form (1 - e^{-3 Ts}) / 3
        got = numerics.phi_matrix(-3.0 * np.eye(3), 0.001)
        expected = (1.0 - math.exp(-0.003)) / 3.0
        assert np.allclose(got, expected * np.eye(3), atol=1e-15)
        assert got[0, 0] == pytest.approx(0.00099850, abs=5e-9)

    def test_small_ts_limit(self):
        Ts = 1e-8
        got = numerics.phi_matrix(-3.0 * np.eye(3), Ts) / Ts
        assert np.allclose(got, np.eye(3), atol=1e-6)

    def test_diagonal_closed_form(self):
        A = np.diag([-1.0, -2.0, -4.0])
        got = numerics.phi_matrix(A, 0.5)
        expected = np.diag(
            [
                (1.0 - math.exp(-0.5)) / 1.0,
                (1.0 - math.exp(-1.0)) / 2.0,
                (1.0 - math.exp(-2.0)) / 4.0,
            ]
        )
        assert np.allclose(got, expected, atol=1e-15)

    def test_defining_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rng.normal(size=(3, 3)) - 4.0 * np.eye(3)
            Ts = 0.01
            phi = numerics.phi_matrix(A, Ts)
            lhs = A @ phi
            rhs = numerics.matrix_exponential(A, Ts) - np.eye(3)
            assert np.allclose(lhs, rhs, atol=1e-10)

    def test_singular_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            numerics.phi_matrix(np.zeros((2, 2)), 0.1)


class TestCholeskySolve:
    def test_identity(self):
        b = np.array([[1.0], [2.0], [3.0]])
        assert np.allclose(numerics.cholesky_solve(np.eye(3), b), b)

    def test_diagonal(self):
        M = np.array([[2.0, 0.0], [0.0, 4.0]])
        B = np.array([[1.0], [1.0]])
        assert np.allclose(numerics.cholesky_solve(M, B), [[0.5], [0.25]])

    def test_random_spd_vs_naive_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = rng.integers(2, 13)
            G = rng.normal(size=(n, n))
            M = G @ G.T + n * np.eye(n)
            B = rng.normal(size=(n, rng.integers(1, 4)))
            got = numerics.cholesky_solve(M, B)
            want = naive_gauss_solve(M, B)
            assert np.allclose(got, want, rtol=1e-8, atol=1e-12)

    def test_residual_contract(self):
        rng = np.random.default_rng(5)
        G = rng.normal(size=(10, 10))
        M = G @ G.T + 10 * np.eye(10)
        B = rng.normal(size=(10, 2))
        X = numerics.cholesky_solve(M, B)
        res = np.max(np.abs(M @ X - B))
        assert res <= 1e-8 * (1.0 + np.max(np.abs(B)))

    def test_non_pd_carries_pivot(self):
        M = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(numerics.DecompositionError) as exc:
            numerics.cholesky_solve(M, np.ones((3, 1)))
        assert exc.value.pivot == 1


class TestRk4:
    def test_zero_field(self):
        x = np.array([1.0, -2.0])
        out = numerics.rk4_step(lambda t, x: np.zeros(2), 0.0, x, 0.1)
        assert np.array_equal(out, x)

    def test_exponential_decay(self):
        out = numerics.rk4_step(lambda t, x: -3.0 * x, 0.0, np.array([1.0]), 0.001)
        assert abs(out[0] - math.exp(-0.003)) < 1e-12

    def test_rotation(self):
        x = np.array([1.0, 0.0])
        field = lambda t, z: np.array([z[1], -z[0]])
        for i in range(1000):
            x = numerics.rk4_step(field, i * 0.001, x, 0.001)
        assert abs(x[0] - math.cos(1.0)) < 1e-9
        assert abs(x[1] - (-math.sin(1.0))) < 1e-9

    def test_observed_order(self):
        lam, T = -2.0, 1.0
        errors = []
        for h in (0.1, 0.05):
            x = np.array([1.0])
            steps = int(round(T / h))
            for i in range(steps):
                x = numerics.rk4_step(lambda t, z: lam * z, i * h, x, h)
            errors.append(abs(x[0] - math.exp(lam * T)))
        order = math.log2(errors[0] / errors[1])
        assert order >= 3.8

    def test_divergence_error(self):
        with pytest.raises(numerics.DivergenceError) as exc:
            numerics.rk4_step(
                lambda t, x: np.array([float("nan")]), 2.5, np.array([1.0]), 0.1
            )
        assert exc.value.t == 2.5


class TestEstimateDerivative:
    def test_linear_exact(self):
        t = np.arange(10.0)
        x = 2.0 * t + 1.0
        d = numerics.estimate_derivative(t, x, window=5, poly_order=2)
        assert np.allclose(d[2:-2], 2.0, atol=1e-12)

    def test_quadratic_exact_interior(self):
        t = np.arange(12.0)
        x = t**2
        d = numerics.estimate_derivative(t, x, window=5, poly_order=2)
        assert np.allclose(d[2:-2], 2.0 * t[2:-2], atol=1e-10)

    def test_sine_against_analytic_oracle(self):
        # At 10 Hz the quadratic 5-point filter's interior response to sin(t)
        # is (4 sin 2h + 2 sin h)/(10 h) cos(t); the analytic worst-case
        # interior error is 1 - that factor ~= 5.66e-3, not lower.
        h = 0.1
        t = np.arange(0.0, 20.0, h)
        d = numerics.estimate_derivative(t, np.sin(t), window=5, poly_order=2)
        err = np.max(np.abs(d[2:-2] - np.cos(t[2:-2])))
        analytic = 1.0 - (4.0 * math.sin(2 * h) + 2.0 * math.sin(h)) / (10.0 * h)
        assert err <= analytic * 1.01
        assert err >= analytic * 0.9

    def test_sine_at_100hz(self):
        h = 0.01
        t = np.arange(0.0, 5.0, h)
        d = numerics.estimate_derivative(t, np.sin(t), window=5, poly_order=2)
        err = np.max(np.abs(d[2:-2] - np.cos(t[2:-2])))
        assert err < 2e-3

    def test_multichannel(self):
        t = np.arange(8.0)
        X = np.stack([2 * t, -t + 3], axis=1)
        d = numerics.estimate_derivative(t, X, window=5, poly_order=2)
        assert np.allclose(d[2:-2, 0], 2.0, atol=1e-12)
        assert np.allclose(d[2:-2, 1], -1.0, atol=1e-12)

    @pytest.mark.parametrize("n", [5, 6, 9, 40])
    def test_matches_scipy_savgol_interp(self, n):
        from scipy.signal import savgol_filter

        rng = np.random.default_rng(n)
        dt = 0.37
        t = 2.0 + dt * np.arange(n)
        for values in (rng.normal(size=n), rng.normal(size=(n, 3))):
            d = numerics.estimate_derivative(t, values, window=5, poly_order=2)
            oracle = savgol_filter(
                values, 5, 2, deriv=1, delta=dt, axis=0, mode="interp"
            )
            assert d.shape == values.shape
            assert np.max(np.abs(d - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    def test_insufficient_data(self):
        with pytest.raises(numerics.InsufficientDataError):
            numerics.estimate_derivative(np.arange(3.0), np.arange(3.0), window=5)

    def test_nonuniform_rejected(self):
        t = np.array([0.0, 1.0, 2.5, 3.0, 4.0])
        with pytest.raises(ValueError):
            numerics.estimate_derivative(t, t, window=5, poly_order=2)


class TestL1NormImpulse:
    def test_first_order_lag_unit_gain(self):
        for w in (0.01, 1.0, 80.0):
            got = numerics.l1_norm_impulse([-w], [w])
            assert got == pytest.approx(1.0, abs=1e-3)

    def test_sign_changing_closed_form(self):
        # g(s) = s/((s+3)(s+80)): residues (-3/77, 80/77); g's impulse
        # response changes sign at t* = ln(80/3)/77 and integrates to zero,
        # so the L1 norm equals 2 * integral up to t*.
        got = numerics.l1_norm_impulse([-3.0, -80.0], [-3.0 / 77.0, 80.0 / 77.0])
        t_star = math.log(80.0 / 3.0) / 77.0
        closed = 2.0 * (math.exp(-3.0 * t_star) - math.exp(-80.0 * t_star)) / 77.0
        assert got == pytest.approx(closed, abs=2e-4)
        assert got == pytest.approx(0.0220, abs=2e-4)

    def test_zero_residues(self):
        assert numerics.l1_norm_impulse([-1.0, -2.0], [0.0, 0.0]) == 0.0

    def test_feedthrough(self):
        # s/(s+3) = 1 - 3/(s+3): |delta| + integral of |3 e^{-3t}| = 2
        got = numerics.l1_norm_impulse([-3.0], [-3.0], feedthrough=1.0)
        assert got == pytest.approx(2.0, abs=2e-3)

    def test_unstable_pole_rejected(self):
        with pytest.raises(numerics.UnstableTransferFunctionError):
            numerics.l1_norm_impulse([1.0], [1.0])


class TestCoveringNumber:
    def test_unit_interval(self):
        assert numerics.covering_number_box(1.0, 1, 1.0) == 1

    def test_nominal_bound_config(self):
        got = numerics.covering_number_box(15.0, 3, 0.001)
        assert got == 25981**3
        assert got == pytest.approx(1.7537e13, rel=1e-4)

    def test_small_grid(self):
        assert numerics.covering_number_box(2.0, 2, 0.5) == 36

    def test_brute_force_cover(self):
        # verify the 6x6 grid of spacing 2 xi / sqrt(n) really covers the box
        kappa, n, xi = 2.0, 2, 0.5
        per_axis = math.ceil(kappa * math.sqrt(n) / xi)
        spacing = 2.0 * kappa / per_axis
        centers = -kappa + spacing * (np.arange(per_axis) + 0.5)
        probe = np.linspace(-kappa, kappa, 101)
        px, py = np.meshgrid(probe, probe)
        pts = np.stack([px.ravel(), py.ravel()], axis=1)
        cx, cy = np.meshgrid(centers, centers)
        ctrs = np.stack([cx.ravel(), cy.ravel()], axis=1)
        d2 = ((pts[:, None, :] - ctrs[None, :, :]) ** 2).sum(axis=2)
        assert np.all(np.min(d2, axis=1) <= xi**2 + 1e-12)

    def test_log_variant_matches(self):
        lg = numerics.log_covering_number_box(15.0, 3, 0.001)
        assert lg == pytest.approx(math.log(25981) * 3, rel=1e-12)

    @given(
        kappa=st.floats(0.1, 20.0),
        n=st.integers(1, 4),
        xi1=st.floats(0.01, 2.0),
        xi2=st.floats(0.01, 2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_xi(self, kappa, n, xi1, xi2):
        lo, hi = sorted((xi1, xi2))
        assert numerics.covering_number_box(kappa, n, lo) >= numerics.covering_number_box(
            kappa, n, hi
        )

    @given(
        k1=st.floats(0.1, 20.0),
        k2=st.floats(0.1, 20.0),
        n=st.integers(1, 4),
        xi=st.floats(0.01, 2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_kappa_and_n(self, k1, k2, n, xi):
        lo, hi = sorted((k1, k2))
        assert numerics.covering_number_box(lo, n, xi) <= numerics.covering_number_box(
            hi, n, xi
        )
        assert numerics.covering_number_box(hi, n, xi) <= numerics.covering_number_box(
            hi, n + 1, xi
        )
