"""GP regression and uniform-bound tests against independent oracles."""

import math

import numpy as np
import pytest

from l1gp import gp, plant


KERNEL = gp.SeKernel(sigma_f=1.0, length_scale=1.0)


def naive_predict(X, Y, noise_var, kernel, Xq):
    """Full-inverse GP oracle, no Cholesky anywhere."""
    K = kernel(X, X) + noise_var * np.eye(X.shape[0])
    Kinv = np.linalg.inv(K)
    ks = kernel(X, Xq)
    mean = ks.T @ Kinv @ Y
    var = kernel.sigma_f**2 - np.einsum("ij,ik,kj->j", ks, Kinv, ks)
    return mean, np.sqrt(np.maximum(var, 0.0))


def poly_f(x):
    return plant.poly_quadratic_uncertainty(x)


class TestFitPredict:
    def test_prior(self):
        post = gp.fit(gp.GpDataset(np.zeros((0, 3)), np.zeros((0, 3)), 0.01), KERNEL)
        mean, std = post.predict(np.array([0.3, -1.0, 2.0]))
        assert np.array_equal(mean, np.zeros(3))
        assert np.allclose(std, 1.0)

    def test_scalar_closed_form(self):
        data = gp.GpDataset(np.array([[0.0]]), np.array([[1.0]]), 0.01)
        post = gp.fit(data, KERNEL)
        mean, std = post.predict(np.array([0.0]))
        assert mean[0] == pytest.approx(1.0 / 1.01, abs=1e-12)
        assert std[0] ** 2 == pytest.approx(1.0 - 1.0 / 1.01, abs=1e-12)

    def test_against_naive_inverse_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            N = int(rng.integers(1, 21))
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            X = rng.uniform(-2, 2, size=(N, n))
            Y = rng.normal(size=(N, m))
            noise = float(rng.uniform(0.001, 0.1))
            post = gp.fit(gp.GpDataset(X, Y, noise), KERNEL)
            Xq = rng.uniform(-2, 2, size=(7, n))
            mean, std = post.predict_batch(Xq)
            mean_o, std_o = naive_predict(X, Y, noise, KERNEL, Xq)
            assert np.allclose(mean, mean_o, rtol=1e-8, atol=1e-10)
            assert np.allclose(std[:, 0], std_o, rtol=1e-8, atol=1e-8)

    def test_near_interpolation(self):
        X = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, -0.5]])
        Y = np.array([[0.3, -0.1, 0.2], [0.5, 0.0, -0.4]])
        post = gp.fit(gp.GpDataset(X, Y, 1e-12), KERNEL)
        mean, _ = post.predict(X[0])
        assert np.max(np.abs(mean - Y[0])) < 1e-4

    def test_far_field_reverts_to_prior(self):
        X = np.zeros((3, 2))
        Y = np.ones((3, 1))
        post = gp.fit(gp.GpDataset(X, Y, 0.01), KERNEL)
        mean, std = post.predict(np.array([20.0, 0.0]))
        assert abs(mean[0]) < 1e-10
        assert abs(std[0] - KERNEL.sigma_f) < 1e-10

    def test_learning_reduces_rms(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(30, 3))
        Y = np.array([poly_f(x) for x in X])
        post = gp.fit(gp.GpDataset(X, Y, 1e-4), KERNEL)
        probe = rng.uniform(-1, 1, size=(200, 3))
        F = np.array([poly_f(x) for x in probe])
        mean, _ = post.predict_batch(probe)
        rms_post = np.sqrt(np.mean((F - mean) ** 2))
        rms_prior = np.sqrt(np.mean(F**2))
        assert rms_post < rms_prior

    def test_variance_monotone_in_data(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-2, 2, size=(12, 2))
        Y = rng.normal(size=(12, 1))
        probes = rng.uniform(-2, 2, size=(50, 2))
        prev = None
        for N in range(0, 13, 3):
            post = gp.fit(gp.GpDataset(X[:N], Y[:N], 0.01), KERNEL)
            _, std = post.predict_batch(probes)
            var = std[:, 0] ** 2
            if prev is not None:
                assert np.all(var <= prev + 1e-9)
            prev = var

    def test_ill_conditioned_message(self):
        X = np.zeros((3, 1))  # triple-repeated input, zero noise floor
        Y = np.zeros((3, 1))
        with pytest.raises(gp.IllConditionedKernelError, match="noise"):
            gp.fit(gp.GpDataset(X, Y, 1e-300), KERNEL)

    def test_point_eval_at_cap_matches_batch_and_dense_oracle(self):
        # N = 512 is the learner's cap; the factor is stored column-major so
        # the per-tick read takes it without a copy
        rng = np.random.default_rng(5)
        X = rng.uniform(-3.0, 3.0, size=(512, 3))
        Y = np.stack([poly_f(x) for x in X]) + 0.01 * rng.normal(size=(512, 3))
        post = gp.fit(gp.GpDataset(X, Y, 1e-4), KERNEL)
        assert post.chol.flags.f_contiguous
        Xq = np.vstack([rng.uniform(-4.0, 4.0, size=(20, 3)), X[:5]])
        mean_b, std_b = post.predict_batch(Xq)
        mean_o, std_o = naive_predict(X, Y, 1e-4, KERNEL, Xq)
        for i, x in enumerate(Xq):
            mean_p, std_p = post.point_eval(x)
            assert np.max(np.abs(mean_p - mean_b[i])) <= 1e-10
            assert np.max(np.abs(mean_p - mean_o[i])) <= 1e-10
            assert abs(std_p - std_b[i, 0]) <= 1e-10
            # the explicit inverse loses ~cond(K) eps in the variance, which
            # the square root amplifies where std is small: compare variances
            assert abs(std_p**2 - std_o[i] ** 2) <= 1e-10


class TestKernelLipschitz:
    def grid_oracle(self, kernel, kappa, n, samples=200001):
        # 1-D line search over pair distance r in [0, diameter]
        diam = 2.0 * kappa * math.sqrt(n)
        r = np.linspace(0.0, diam, samples)
        vals = (r / kernel.length_scale**2) * kernel.sigma_f**2 * np.exp(
            -0.5 * r**2 / kernel.length_scale**2
        )
        return float(np.max(vals))

    def test_interior_max(self):
        got = gp.kernel_lipschitz(KERNEL, kappa=15.0, n=3)
        assert got == pytest.approx(1.0 / math.sqrt(math.e), abs=1e-12)
        assert got == pytest.approx(self.grid_oracle(KERNEL, 15.0, 3), rel=1e-6)
        assert got == pytest.approx(0.60653, abs=1e-5)

    def test_scales_with_signal_variance(self):
        k2 = gp.SeKernel(sigma_f=2.0, length_scale=1.0)
        assert gp.kernel_lipschitz(k2, 15.0, 3) == pytest.approx(
            4.0 * 0.60653, abs=1e-4
        )

    def test_boundary_case(self):
        kernel = gp.SeKernel(sigma_f=1.0, length_scale=10.0)
        got = gp.kernel_lipschitz(kernel, kappa=1.0, n=3)
        diam = 2.0 * math.sqrt(3.0)
        expected = (diam / 100.0) * math.exp(-0.5 * diam**2 / 100.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(self.grid_oracle(kernel, 1.0, 3), rel=1e-6)


class TestBoundIngredients:
    def test_mean_lipschitz_empty(self):
        post = gp.fit(gp.GpDataset(np.zeros((0, 3)), np.zeros((0, 3)), 0.01), KERNEL)
        per, agg = gp.mean_lipschitz(post, 0.60653)
        assert agg == 0.0

    def test_mean_lipschitz_single_point(self):
        post = gp.fit(gp.GpDataset(np.array([[0.0]]), np.array([[1.0]]), 0.01), KERNEL)
        lk = 1.0 / math.sqrt(math.e)
        per, agg = gp.mean_lipschitz(post, lk)
        assert agg == pytest.approx(lk * 1.0 * (1.0 / 1.01), rel=1e-12)
        assert agg == pytest.approx(0.60052, abs=1e-5)

    def test_mean_lipschitz_zero_targets(self):
        post = gp.fit(gp.GpDataset(np.ones((4, 2)) * [[0], [1], [2], [3]],
                                   np.zeros((4, 2)), 0.01), KERNEL)
        _, agg = gp.mean_lipschitz(post, 0.6)
        assert agg == 0.0

    def test_mean_lipschitz_is_valid_bound(self):
        rng = np.random.default_rng(21)
        X = rng.uniform(-2, 2, size=(15, 3))
        Y = rng.normal(size=(15, 2))
        post = gp.fit(gp.GpDataset(X, Y, 0.01), KERNEL)
        lk = gp.kernel_lipschitz(KERNEL, kappa=2.0, n=3)
        _, L_mu = gp.mean_lipschitz(post, lk)
        A = rng.uniform(-2, 2, size=(10000, 3))
        B = rng.uniform(-2, 2, size=(10000, 3))
        ma, _ = post.predict_batch(A)
        mb, _ = post.predict_batch(B)
        num = np.max(np.abs(ma - mb), axis=1)
        den = np.linalg.norm(A - B, axis=1)
        keep = den > 1e-9
        assert np.max(num[keep] / den[keep]) <= L_mu * (1 + 1e-9)

    def test_std_modulus_empty_and_zero_xi(self):
        post = gp.fit(gp.GpDataset(np.zeros((0, 3)), np.zeros((0, 3)), 0.01), KERNEL)
        _, w = gp.std_modulus(post, 0.60653, 0.001)
        assert w == pytest.approx(math.sqrt(2 * 0.001 * 0.60653), rel=1e-9)
        _, w0 = gp.std_modulus(post, 0.60653, 0.0)
        assert w0 == 0.0

    def test_std_modulus_single_point_closed_form(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        post = gp.fit(gp.GpDataset(np.array([[0.0]]), np.array([[1.0]]), 0.01), KERNEL)
        lk = 1.0 / math.sqrt(math.e)
        _, w = gp.std_modulus(post, lk, 0.001)
        oracle = mp.sqrt(
            2 * mp.mpf("0.001") * (1 / mp.sqrt(mp.e)) * (1 + 1 / mp.mpf("1.01"))
        )
        assert w == pytest.approx(float(oracle), rel=1e-9)
        assert w == pytest.approx(0.04914, abs=1e-5)

    def test_std_modulus_is_valid_modulus(self):
        rng = np.random.default_rng(33)
        X = rng.uniform(-2, 2, size=(12, 2))
        post = gp.fit(gp.GpDataset(X, rng.normal(size=(12, 1)), 0.01), KERNEL)
        lk = gp.kernel_lipschitz(KERNEL, kappa=2.0, n=2)
        for xi in (0.001, 0.01, 0.1):
            _, w = gp.std_modulus(post, lk, xi)
            A = rng.uniform(-2, 2, size=(10000, 2))
            d = rng.normal(size=(10000, 2))
            d *= (xi * rng.uniform(0, 1, size=(10000, 1))) / np.linalg.norm(
                d, axis=1, keepdims=True
            )
            _, sa = post.predict_batch(A)
            _, sb = post.predict_batch(A + d)
            assert np.max(np.abs(sa[:, 0] - sb[:, 0])) <= w * (1 + 1e-9)

    def test_inv_spectral_norm_matches_eigs(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-2, 2, size=(15, 3))
        post = gp.fit(gp.GpDataset(X, rng.normal(size=(15, 2)), 0.01), KERNEL)
        K = KERNEL(X, X) + 0.01 * np.eye(15)
        want = 1.0 / np.min(np.linalg.eigvalsh(K))
        assert post.inv_spectral_norm() == pytest.approx(want, rel=1e-6)


class TestUniformBound:
    CFG = gp.UniformBoundConfig(kappa=15.0, xi=0.001, delta=0.01)

    def test_beta_nominal(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        beta = gp.beta_value(self.CFG, n_outputs=3, n_inputs=3)
        oracle = 2 * mp.log(3 * mp.mpf(25981) ** 3 / mp.mpf("0.01"))
        assert beta == pytest.approx(float(oracle), rel=1e-12)
        assert beta == pytest.approx(72.40, abs=0.01)
        assert math.sqrt(beta) == pytest.approx(8.509, abs=5e-4)

    def test_prior_bound(self):
        post = gp.fit(gp.GpDataset(np.zeros((0, 3)), np.zeros((0, 3)), 1e-4), KERNEL)
        e = gp.uniform_bound(post, self.CFG, np.array([1.0, 2.0, 3.0]))
        assert e == pytest.approx(8.509, abs=5e-4)
        e_grid = gp.uniform_bound_grid_max(post, self.CFG)
        assert e_grid == pytest.approx(e, rel=1e-12)

    def test_delta_near_one_with_single_ball(self):
        cfg = gp.UniformBoundConfig(
            kappa=0.5, xi=1.0, delta=1.0 - 1e-12, lip_f=0.7, include_gamma=True
        )
        post = gp.fit(gp.GpDataset(np.zeros((0, 1)), np.zeros((0, 1)), 1e-4), KERNEL)
        beta = gp.beta_value(cfg, 1, 1)
        assert beta == pytest.approx(0.0, abs=1e-11)
        # sqrt(beta) ~ 1.4e-6 at delta = 1 - 1e-12; the bound degenerates to gamma
        e = gp.uniform_bound(post, cfg, np.array([0.0]))
        assert e == pytest.approx(gp.gamma_value(post, cfg), abs=2e-6)

    def test_gamma_toggle(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, size=(10, 3))
        Y = np.array([poly_f(x) for x in X])
        post = gp.fit(gp.GpDataset(X, Y, 1e-4), KERNEL)
        off = gp.uniform_bound(post, self.CFG, np.zeros(3))
        cfg_on = gp.UniformBoundConfig(15.0, 0.001, 0.01, lip_f=0.2, include_gamma=True)
        on = gp.uniform_bound(post, cfg_on, np.zeros(3))
        assert on > off

    def test_empirical_coverage(self):
        rng = np.random.default_rng(77)
        X = rng.uniform(-5, 5, size=(50, 3))
        Y = np.array([poly_f(x) for x in X]) + rng.normal(0, 0.01, size=(50, 3))
        post = gp.fit(gp.GpDataset(X, Y, 1e-4), KERNEL)
        beta = gp.beta_value(self.CFG, 3, 3)
        probes = rng.uniform(-5, 5, size=(500, 3))
        F = np.array([poly_f(x) for x in probes])
        mean, std = post.predict_batch(probes)
        envelope = math.sqrt(beta) * np.max(std, axis=1)
        err = np.max(np.abs(F - mean), axis=1)
        violations = np.mean(err > envelope)
        assert violations <= 0.01
