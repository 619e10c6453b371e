"""Unit tests for the shared numerical utilities, oracle-checked."""

import itertools
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


def zoh_e(a, h):
    return numerics.zoh_map(a, h)[0]


def zoh_phi(a, h):
    return numerics.zoh_map(a, h)[1]


class TestMatrixExponential:
    """``exp(A h)`` of a diagonal A, as the diagonal ``zoh_map`` gives."""

    def test_zero_matrix(self):
        assert numerics.zoh_map((0.0, 0.0, 0.0), 1.0) == ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))

    def test_scalar_diagonal(self):
        got = zoh_e((-3.0, -3.0, -3.0), 0.001)
        expected = taylor_expm(-3.0 * np.eye(3), 0.001)
        assert all(type(v) is float for v in got)
        assert np.allclose(np.diag(got), expected, atol=1e-14)
        assert got[0] == pytest.approx(math.exp(-0.003), abs=1e-15)
        assert got[0] == pytest.approx(0.9970045, abs=5e-8)

    def test_t_zero_identity(self):
        e, phi = numerics.zoh_map((0.0, -2.0, -3.0), 0.0)
        assert e == (1.0, 1.0, 1.0) and phi == (0.0, 0.0, 0.0)

    def test_semigroup_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.uniform(-5.0, 5.0, size=4)
            s, t = rng.uniform(0.0, 2.0, size=2)
            lhs = zoh_e(a, s + t)
            rhs = np.multiply(zoh_e(a, s), zoh_e(a, t))
            assert np.allclose(lhs, rhs, atol=1e-9)

    def test_hurwitz_decay(self):
        assert max(zoh_e((-1.0, -2.0, -5.0), 50.0)) < 1e-20

    @pytest.mark.parametrize("n", range(1, 7))
    def test_diagonal_is_bitwise_scipy(self, n):
        # both halves are bitwise the dense forms on diag(a): scipy's expm,
        # and from order 2 on (a 1x1 solve divides) the LU solve for Phi
        import scipy.linalg

        rng = np.random.default_rng(n)
        times = [0.001, 0.01, 0.02, *rng.uniform(0.0, 3.0, size=4)]
        diags = [np.full(n, -3.0)] + [rng.uniform(-60.0, 10.0, size=n) for _ in range(4)]
        for a in diags:
            A = np.diag(a)
            for t in times:
                e, phi = numerics.zoh_map(a.tolist(), t)
                expm = scipy.linalg.expm(A * t)
                assert np.array_equal(np.diag(e), expm)
                if n > 1:
                    want = np.linalg.solve(A, expm - np.eye(n))
                    assert np.array_equal(np.diag(phi), want)

    def test_negative_zero_off_diagonal_is_diagonal(self):
        import scipy.linalg

        A = np.diag([-3.0, -2.0, -0.5])
        A[0, 1] = A[2, 0] = A[1, 2] = -0.0
        for t in (0.001, 0.01, 0.02):
            got = zoh_e(np.diag(A).tolist(), t)
            assert np.array_equal(np.diag(got), scipy.linalg.expm(A * t))


class TestPhiMatrix:
    """``Phi(h) = A^{-1} (exp(A h) - I)`` of a diagonal A, as the diagonal
    ``zoh_map`` gives."""

    def test_closed_form_scalar(self):
        # per-eigenvalue closed form (1 - e^{-3 Ts}) / 3
        got = zoh_phi((-3.0, -3.0, -3.0), 0.001)
        expected = (1.0 - math.exp(-0.003)) / 3.0
        assert np.allclose(got, expected, atol=1e-15)
        assert got[0] == pytest.approx(0.00099850, abs=5e-9)

    def test_small_ts_limit(self):
        Ts = 1e-8
        got = np.divide(zoh_phi((-3.0, -3.0, -3.0), Ts), Ts)
        assert np.allclose(got, 1.0, atol=1e-6)

    def test_diagonal_closed_form(self):
        got = zoh_phi((-1.0, -2.0, -4.0), 0.5)
        expected = [
            (1.0 - math.exp(-0.5)) / 1.0,
            (1.0 - math.exp(-1.0)) / 2.0,
            (1.0 - math.exp(-2.0)) / 4.0,
        ]
        assert np.allclose(got, expected, atol=1e-15)

    def test_defining_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.uniform(-8.0, -0.5, size=3)
            e, phi = numerics.zoh_map(a, 0.01)
            assert np.allclose(a * phi, np.subtract(e, 1.0), atol=1e-10)


def cholesky_solve(M, B):
    """Factor-then-solve, the path gp.fit takes for K alpha = Y."""
    return numerics.solve_with_factor(numerics.cholesky_factor(M), B)


class TestDiagonal3:
    """A diagonal 3x3 matrix held as the float 3-tuple of its diagonal
    (:func:`numerics.float3`), and its per-axis product."""

    def test_product_is_numpys_bitwise(self):
        # the 1 kHz loop's per-axis product 0.0 + d v: every entry, and the
        # sign of every zero, equals numpy's M @ v, through underflow
        values = (0.0, -0.0, -1.5, 2.0, 1e-300, -5e-324)
        vectors = [np.array(v) for v in itertools.product(values, repeat=3)]
        vectors += list(np.random.default_rng(0).normal(size=(100, 3)))
        for diag, off in itertools.product(
            [(-5.0, 0.25, 3.0), (-3.0, 0.0, 1e-200)], [0.0, -0.0]
        ):
            M = np.diag(diag)
            M[~np.eye(3, dtype=bool)] = off
            d = numerics.float3(np.diag(M), "M")
            assert all(type(v) is float for v in d)
            for v in vectors:
                got = np.array([0.0 + di * vi for di, vi in zip(d, v.tolist())])
                want = M @ v
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_shape_checked(self):
        # a matrix, a scalar or a wrong length is not a diagonal's 3 values
        for value in (np.eye(3), np.ones(2), 1.0, (1.0, 2.0, 3.0, 4.0), "abc"):
            with pytest.raises(ValueError, match="B must be 3 finite values"):
                numerics.float3(value, "B")

    @pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
    def test_non_finite_entry_rejected(self, entry):
        with pytest.raises(ValueError, match="A must be 3 finite values"):
            numerics.float3((-1.0, entry, -1.0), "A")


class TestCholeskySolve:
    def test_identity(self):
        b = np.array([[1.0], [2.0], [3.0]])
        assert np.allclose(cholesky_solve(np.eye(3), b), b)

    def test_diagonal(self):
        M = np.array([[2.0, 0.0], [0.0, 4.0]])
        B = np.array([[1.0], [1.0]])
        assert np.allclose(cholesky_solve(M, B), [[0.5], [0.25]])

    def test_random_spd_vs_naive_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = rng.integers(2, 13)
            G = rng.normal(size=(n, n))
            M = G @ G.T + n * np.eye(n)
            B = rng.normal(size=(n, rng.integers(1, 4)))
            got = cholesky_solve(M, B)
            want = naive_gauss_solve(M, B)
            assert np.allclose(got, want, rtol=1e-8, atol=1e-12)

    def test_residual_contract(self):
        rng = np.random.default_rng(5)
        G = rng.normal(size=(10, 10))
        M = G @ G.T + 10 * np.eye(10)
        B = rng.normal(size=(10, 2))
        X = cholesky_solve(M, B)
        res = np.max(np.abs(M @ X - B))
        assert res <= 1e-8 * (1.0 + np.max(np.abs(B)))

    def test_non_pd_carries_pivot(self):
        M = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(numerics.DecompositionError) as exc:
            cholesky_solve(M, np.ones((3, 1)))
        assert exc.value.pivot == 1
        assert np.array_equal(M, np.diag([1.0, -1.0, 2.0]))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_factor_leaves_its_argument_unchanged(self, order):
        # the factor is made in a copy; only the lower triangle is read, so
        # an upper triangle that differs from it changes nothing
        rng = np.random.default_rng(3)
        G = rng.normal(size=(40, 40))
        S = G @ G.T + 40.0 * np.eye(40)
        M = np.array(np.tril(S) + np.triu(rng.normal(size=(40, 40)), 1), order=order)
        before = M.copy()
        L = numerics.cholesky_factor(M)
        assert np.array_equal(M, before)
        assert not np.shares_memory(L, M)
        assert L.flags.f_contiguous
        assert np.array_equal(L, np.tril(L))
        assert np.allclose(L @ L.T, S, rtol=1e-12, atol=1e-10)


def test_missing_scipy_wrapper_is_named():
    with pytest.raises(ModuleNotFoundError, match="'scipy.linalg._nonesuch'"):
        numerics._scipy_wrapper("_nonesuch")


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


def centre_slopes(t, x):
    """The centre slope of every 5-sample sliding window of a series."""
    return np.array([numerics.estimate_derivative(t[i:i + 5], x[i:i + 5])
                     for i in range(len(t) - 4)])


class TestEstimateDerivative:
    def test_linear_exact(self):
        t = np.arange(10.0)
        x = 2.0 * t + 1.0
        assert np.allclose(centre_slopes(t, x), 2.0, atol=1e-12)

    def test_constant_window_reads_zero(self):
        # 2 (y4 - y0) + (y3 - y1) is exactly 0 on a constant window, whatever
        # its level and spacing
        rng = np.random.default_rng(11)
        for _ in range(500):
            t = rng.uniform(-5.0, 5.0) + rng.uniform(1e-3, 2.0) * np.arange(5)
            c = rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 3.0)
            assert numerics.estimate_derivative(t, np.tile(c, (5, 1))).tolist() == [0.0] * 3
            assert numerics.estimate_derivative(t, np.full(5, c[0])) == 0.0

    def test_integer_linear_window_reads_its_exact_slope(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            t = float(rng.integers(-100, 100)) + np.arange(5.0)
            a, b = rng.integers(-10**6, 10**6, size=(2, 3)).astype(float)
            d = numerics.estimate_derivative(t, a + np.outer(np.arange(5.0), b))
            assert d.tolist() == b.tolist()

    def test_quadratic_exact_interior(self):
        t = np.arange(12.0)
        x = t**2
        assert np.allclose(centre_slopes(t, x), 2.0 * t[2:-2], atol=1e-10)

    def test_sine_against_analytic_oracle(self):
        # At 10 Hz the quadratic 5-point filter's response to sin(t) is
        # (4 sin 2h + 2 sin h)/(10 h) cos(t); the analytic worst-case error
        # is 1 - that factor ~= 5.66e-3, not lower.
        h = 0.1
        t = np.arange(0.0, 20.0, h)
        err = np.max(np.abs(centre_slopes(t, np.sin(t)) - np.cos(t[2:-2])))
        analytic = 1.0 - (4.0 * math.sin(2 * h) + 2.0 * math.sin(h)) / (10.0 * h)
        assert err <= analytic * 1.01
        assert err >= analytic * 0.9

    def test_sine_at_100hz(self):
        h = 0.01
        t = np.arange(0.0, 5.0, h)
        err = np.max(np.abs(centre_slopes(t, np.sin(t)) - np.cos(t[2:-2])))
        assert err < 2e-3

    def test_multichannel(self):
        t = np.arange(5.0)
        X = np.stack([2 * t, -t + 3], axis=1)
        d = numerics.estimate_derivative(t, X)
        assert d.shape == (2,)
        assert np.allclose(d, [2.0, -1.0], atol=1e-12)

    @pytest.mark.parametrize("n", [5, 6, 9, 40])
    def test_matches_scipy_savgol_interp(self, n):
        # every sliding window's centre slope against the filter's value at
        # that sample; mode 'interp' fits only the first and last two
        from scipy.signal import savgol_filter

        rng = np.random.default_rng(n)
        dt = 0.37
        t = 2.0 + dt * np.arange(n)
        for values in (rng.normal(size=n), rng.normal(size=(n, 3))):
            d = centre_slopes(t, values)
            oracle = savgol_filter(
                values, 5, 2, deriv=1, delta=dt, axis=0, mode="interp"
            )[2:n - 2]
            assert d.shape == oracle.shape
            assert np.max(np.abs(d - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    def test_insufficient_data(self):
        with pytest.raises(numerics.DimensionError):
            numerics.estimate_derivative(np.arange(3.0), np.arange(3.0))

    @pytest.mark.parametrize("n_times, n_values", [(0, 0), (4, 4), (6, 6), (9, 9),
                                                   (5, 4), (5, 6), (4, 5)])
    def test_sample_count_other_than_five_raises(self, n_times, n_values):
        with pytest.raises(numerics.DimensionError, match="need 5 samples"):
            numerics.estimate_derivative(np.arange(float(n_times)),
                                         np.ones((n_values, 3)))

    def test_nonuniform_rejected(self):
        for t in ([0.0, 1.0, 2.5, 3.0, 4.0], [0.0, 1.0, 2.0, 3.0, 4.5],
                  [0.0, 1.0, float("nan"), 3.0, 4.0]):
            with pytest.raises(ValueError, match="not uniform"):
                numerics.estimate_derivative(np.array(t), np.arange(5.0))


def covering_number(kappa, n, xi):
    return round(math.exp(numerics.log_covering_number_box(kappa, n, xi)))


class TestCoveringNumber:
    def test_unit_interval(self):
        assert covering_number(1.0, 1, 1.0) == 1

    def test_nominal_bound_config(self):
        got = covering_number(15.0, 3, 0.001)
        assert got == 25981**3
        assert got == pytest.approx(1.7537e13, rel=1e-4)

    def test_small_grid(self):
        assert covering_number(2.0, 2, 0.5) == 36

    def test_zero_dimension_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            numerics.log_covering_number_box(1.0, 0, 1.0)

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
        assert covering_number(kappa, n, xi) == per_axis**n

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
        log_cover = numerics.log_covering_number_box
        assert log_cover(kappa, n, lo) >= log_cover(kappa, n, hi)

    @given(
        k1=st.floats(0.1, 20.0),
        k2=st.floats(0.1, 20.0),
        n=st.integers(1, 4),
        xi=st.floats(0.01, 2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_kappa_and_n(self, k1, k2, n, xi):
        lo, hi = sorted((k1, k2))
        log_cover = numerics.log_covering_number_box
        assert log_cover(lo, n, xi) <= log_cover(hi, n, xi)
        assert log_cover(hi, n, xi) <= log_cover(hi, n + 1, xi)
