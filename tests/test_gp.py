"""GP regression and uniform-bound tests against independent oracles."""

import copy
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from l1gp import gp, numerics, plant


KERNEL = gp.SeKernel(sigma_f=1.0, length_scale=1.0)


def se_kernel(kernel, A, B):
    """``sigma_f^2 exp(-|a - b|^2 / (2 l^2))`` (len(A), len(B)) from direct
    differences, independent of gp's own formula."""
    d = A[:, None, :] - B[None, :, :]
    sq = np.einsum("ijk,ijk->ij", d, d)
    return kernel.sigma_f**2 * np.exp(-0.5 * sq / kernel.length_scale**2)


def naive_predict(X, Y, noise_var, kernel, Xq):
    """Dense GP oracle: numpy's Cholesky factor L of the direct-difference
    Gram matrix and scipy's triangular solves, ``mean = (L^{-1} k)^T
    (L^{-1} Y)`` and ``var = sigma_f^2 - |L^{-1} k|^2``."""
    L = np.linalg.cholesky(se_kernel(kernel, X, X) + noise_var * np.eye(X.shape[0]))
    V = solve_triangular(L, se_kernel(kernel, X, Xq), lower=True)
    Z = solve_triangular(L, Y, lower=True)
    var = kernel.sigma_f**2 - np.einsum("ij,ij->j", V, V)
    return V.T @ Z, np.sqrt(np.maximum(var, 0.0))


QUADRATIC = plant.UncertaintySchedule(((0.0, "quadratic"),))


def poly_f(x):
    return QUADRATIC.eval(0.0, x)


class TestFitPredict:
    def test_prior(self):
        post = gp.fit(np.zeros((0, 3)), np.zeros((0, 3)), 0.01, KERNEL)
        mean, std = post.point_eval(np.array([0.3, -1.0, 2.0]))
        assert np.array_equal(mean, np.zeros(3))
        assert std == pytest.approx(1.0)

    def test_scalar_closed_form(self):
        post = gp.fit(np.array([[0.0]]), np.array([[1.0]]), 0.01, KERNEL)
        mean, std = post.point_eval(np.array([0.0]))
        assert mean[0] == pytest.approx(1.0 / 1.01, abs=1e-12)
        assert std**2 == pytest.approx(1.0 - 1.0 / 1.01, abs=1e-12)

    def test_against_naive_inverse_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            N = int(rng.integers(1, 21))
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            X = rng.uniform(-2, 2, size=(N, n))
            Y = rng.normal(size=(N, m))
            noise = float(rng.uniform(0.001, 0.1))
            post = gp.fit(X, Y, noise, KERNEL)
            Xq = rng.uniform(-2, 2, size=(7, n))
            mean, std = post.predict_batch(Xq)
            mean_o, std_o = naive_predict(X, Y, noise, KERNEL, Xq)
            assert np.allclose(mean, mean_o, rtol=1e-8, atol=1e-10)
            assert np.allclose(std[:, 0], std_o, rtol=1e-8, atol=1e-8)

    def test_near_interpolation(self):
        X = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, -0.5]])
        Y = np.array([[0.3, -0.1, 0.2], [0.5, 0.0, -0.4]])
        post = gp.fit(X, Y, 1e-12, KERNEL)
        mean, _ = post.point_eval(X[0])
        assert np.max(np.abs(mean - Y[0])) < 1e-4

    def test_far_field_reverts_to_prior(self):
        X = np.zeros((3, 2))
        Y = np.ones((3, 1))
        post = gp.fit(X, Y, 0.01, KERNEL)
        mean, std = post.point_eval(np.array([20.0, 0.0]))
        assert abs(mean[0]) < 1e-10
        assert abs(std - KERNEL.sigma_f) < 1e-10

    def test_learning_reduces_rms(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(30, 3))
        Y = np.array([poly_f(x) for x in X])
        post = gp.fit(X, Y, 1e-4, KERNEL)
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
            post = gp.fit(X[:N], Y[:N], 0.01, KERNEL)
            _, std = post.predict_batch(probes)
            var = std[:, 0] ** 2
            if prev is not None:
                assert np.all(var <= prev + 1e-9)
            prev = var

    def test_ill_conditioned_message(self):
        X = np.zeros((3, 1))  # triple-repeated input, zero noise floor
        Y = np.zeros((3, 1))
        with pytest.raises(gp.IllConditionedKernelError, match="noise"):
            gp.fit(X, Y, 1e-300, KERNEL)

    def test_point_eval_at_cap_matches_batch_and_dense_oracle(self):
        # N = 512 is the learner's cap; each panel of the inverse factor is
        # contiguous, so the per-tick read takes it without a copy
        rng = np.random.default_rng(5)
        X = rng.uniform(-3.0, 3.0, size=(512, 3))
        Y = np.stack([poly_f(x) for x in X]) + 0.01 * rng.normal(size=(512, 3))
        post = gp.fit(X, Y, 1e-4, KERNEL)
        assert all(panel.flags.c_contiguous for panel in post.panels)
        Xq = np.vstack([rng.uniform(-4.0, 4.0, size=(20, 3)), X[:5]])
        mean_b, std_b = post.predict_batch(Xq)
        mean_o, std_o = naive_predict(X, Y, 1e-4, KERNEL, Xq)
        for i, x in enumerate(Xq):
            mean_p, std_p = post.point_eval(x)
            assert np.max(np.abs(mean_p - mean_b[i])) <= 1e-10
            assert np.max(np.abs(mean_p - mean_o[i])) <= 1e-10
            assert abs(std_p - std_b[i, 0]) <= 1e-10
            # the square root amplifies a variance's rounding where std is
            # small: compare variances
            assert abs(std_p**2 - std_o[i] ** 2) <= 1e-10


def read_matrix_gram(kernel, X, noise_var):
    """K + noise I as fit builds it, written out: the read matrix ``Xa`` of
    the gp module docstring times the rows ``(x, 1, |x|^2)``, exponentiated,
    with the exact ``sigma_f^2 + noise`` on the diagonal."""
    l2 = kernel.length_scale**2
    sq = np.einsum("ij,ij->i", X, X)
    Xa = np.column_stack([X / l2, 2.0 * math.log(kernel.sigma_f) - 0.5 * sq / l2,
                          np.full(len(X), -0.5 / l2)])
    Q = np.column_stack([X, np.ones(len(X)), sq])
    K = np.exp(Q @ Xa.T).T
    K[np.diag_indices_from(K)] = kernel.sigma_f**2 + noise_var
    return Xa, K


class TestGramInPlace:
    KERNELS = [KERNEL, gp.SeKernel(sigma_f=2.0, length_scale=0.5)]

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("N", [1, 37, 512])
    def test_fit_factor_is_bitwise_potrf_of_the_formula(self, N, kernel):
        # K is not bitwise symmetric, so the factor depends on which triangle
        # potrf reads: it must be the lower one of the read-matrix product.
        # The first panel's diagonal block is the inverse of the factor of
        # K's leading block, with nothing subtracted
        rng = np.random.default_rng(N)
        X = rng.uniform(-3.0, 3.0, size=(N, 3))
        Xa, K = read_matrix_gram(kernel, X, 1e-4)
        h = min(N, gp._PANEL_ROWS)
        want = np.tril(np.linalg.inv(numerics.cholesky_factor(K[:h, :h])))
        post = gp.fit(X, rng.normal(size=(N, 2)), 1e-4, kernel)
        assert np.array_equal(post.Xa, Xa)
        assert np.array_equal(post.panels[0][:, :h], want)
        assert post.panels[0].flags.c_contiguous
        if N > 1:
            # the upper triangle's product differs: the lower one is pinned
            upper = np.tril(np.linalg.inv(numerics.cholesky_factor(K[:h, :h].T)))
            assert not np.array_equal(want, upper)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("noise", [1e-4, 0.01, 0.3])
    def test_one_point_factor_is_the_exact_diagonal(self, kernel, noise):
        X = np.array([[14.0, -15.0, 3.7]])  # far out, where the product rounds most
        post = gp.fit(X, np.ones((1, 2)), noise, kernel)
        assert post.panels[0][0, 0] == 1.0 / math.sqrt(kernel.sigma_f**2 + noise)

    def test_fit_at_cap_holds_one_gram_buffer(self):
        # the inverse factor's panels hold a little over half of an N x N
        # array; with the block being built, fit's peak stays within about
        # one N x N buffer
        N = 512
        rng = np.random.default_rng(5)
        X = rng.uniform(-3.0, 3.0, size=(N, 3))
        Y = rng.normal(size=(N, 3))
        tracemalloc.start()
        try:
            post = gp.fit(X, Y, 1e-4, KERNEL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(panel.shape[0] for panel in post.panels) == N
        assert post.panels[-1].shape[1] == N
        assert peak < 1.25 * 8 * N * N


def dense_factor(post):
    """The posterior's inverse factor W as one (N, N) array."""
    N = post.n_samples
    W = np.zeros((N, N))
    row = 0
    for panel in post.panels:
        r, e = panel.shape
        assert e == row + r
        W[row:e, :e] = panel
        row = e
    return W


def oracle_factor(post):
    """numpy's lower Cholesky factor of the posterior's own Gram matrix, as
    fit builds it (``read_matrix_gram``)."""
    return np.linalg.cholesky(read_matrix_gram(post.kernel, post.X, post.noise_var)[1])


class TestBatchRead:
    """``predict_batch`` reads the inverse factor's panels, as the point
    read does; its mean is the one product ``kstar^T alpha``."""

    @pytest.mark.parametrize("N", [1, 37, 512])
    def test_matches_solve_triangular(self, N):
        rng = np.random.default_rng(N)
        post = gp.fit(rng.uniform(-3.0, 3.0, size=(N, 3)), rng.normal(size=(N, 2)),
                      1e-4, KERNEL)
        L = oracle_factor(post)
        norms = factor_norms(post, L)
        Xq = rng.uniform(-4.0, 4.0, size=(300, 3))
        kstar = gp._kernel_block(post.Xa, Xq)
        w = solve_triangular(L, kstar, lower=True, check_finite=False)
        got_mean, got_std = post.predict_batch(Xq)
        assert np.array_equal(got_mean, kstar.T @ post.alpha)
        assert np.array_equal(got_std[:, 0], got_std[:, 1])
        for j, x in enumerate(Xq):
            # the same kernel vector: only the factors' reads differ
            _, tol_var = read_tolerance(post, norms, x, kstar[:, j], w[:, j], rel=0.0)
            assert abs(got_std[j, 0]**2 - max(post.signal_var - w[:, j] @ w[:, j], 0.0)) <= tol_var


# a fresh interpreter fits and reads a posterior with scipy.linalg loaded
# before the GP, after it, or not at all, and prints the bits it read
LOAD_ORDER_PROBE = """
import sys
if sys.argv[1] == "scipy.linalg-first":
    import scipy.linalg
from l1gp import gp
post = gp.fit([[0.0, 1.0, 0.5], [1.0, 0.0, -0.5], [0.5, 0.5, 0.5]],
              [[1.0], [-1.0], [0.5]], 0.01, gp.SeKernel())
if sys.argv[1] == "gp-first":
    assert not any(name.split(".")[0] == "scipy" for name in sys.modules)
    import scipy.linalg
mean, std = post.point_eval((1.0, 0.5, 0.0))
mean_b, std_b = post.predict_batch([[1.0, 0.5, 0.0]])
print(mean[0].hex(), std.hex(), mean_b[0, 0].hex(), std_b[0, 0].hex())
"""


@pytest.mark.parametrize("order", ["gp-first", "scipy.linalg-first"])
def test_no_scipy_in_either_load_order(order):
    # the GP runs on numpy alone: it loads no scipy module, and a caller
    # that has loaded scipy.linalg, before or after it, reads the same bits
    # (pytest itself has imported scipy.linalg by now, so only a fresh
    # interpreter tells)
    src = os.path.dirname(os.path.dirname(os.path.abspath(gp.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    outs = [subprocess.run([sys.executable, "-c", LOAD_ORDER_PROBE, arg], env=env,
                           capture_output=True, text=True)
            for arg in (order, "none")]
    for out in outs:
        assert out.returncode == 0, out.stderr
    assert outs[0].stdout == outs[1].stdout
    assert len(outs[0].stdout.split()) == 4


class TestParameterChecks:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_kernel_rejects_nonpositive_and_nonfinite(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            gp.SeKernel(sigma_f=bad, length_scale=1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            gp.SeKernel(sigma_f=1.0, length_scale=bad)

    @pytest.mark.parametrize("bad", [
        1e-200, math.nextafter(math.sqrt(sys.float_info.min), 0.0),
        math.nextafter(math.sqrt(sys.float_info.max), math.inf), 1e200])
    def test_kernel_rejects_a_variance_out_of_the_normal_range(self, bad):
        # an overflowing sigma_f**2 raised OverflowError when the run built
        # the prior; an underflowing one dropped bits
        with pytest.raises(ValueError, match=r"sigma_f\*\*2 must be a normal"):
            gp.SeKernel(sigma_f=bad)

    @given(st.floats(math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max)))
    @settings(max_examples=200, deadline=None)
    def test_prior_std_is_the_root_of_the_signal_variance(self, s):
        # over every valid sigma_f, the prior's std sigma_f is bitwise
        # sqrt(sigma_f**2): the prior's envelope reads the same either way
        prior = gp.fit(np.zeros((0, 3)), np.zeros((0, 3)), 1e-4, gp.SeKernel(sigma_f=s))
        assert math.sqrt(s * s) == s
        assert math.sqrt(prior.signal_var) == prior.point_eval((0.0, 0.0, 0.0))[1] == s

    @pytest.mark.parametrize("bad", [0.0, -1e-4, math.nan, math.inf])
    def test_dataset_rejects_nonpositive_and_nonfinite_noise(self, bad):
        # fit checks the noise of the data it is given, before any work
        for N in (0, 1):
            with pytest.raises(ValueError, match="noise_var must be positive and finite"):
                gp.fit(np.zeros((N, 3)), np.zeros((N, 3)), bad, KERNEL)

    @pytest.mark.parametrize("rows", [(2, 3), (0, 1), (3, 0)])
    def test_fit_rejects_mismatched_rows(self, rows):
        n_x, n_y = rows
        with pytest.raises(ValueError, match=f"X has {n_x} rows but Y has {n_y}"):
            gp.fit(np.zeros((n_x, 3)), np.zeros((n_y, 3)), 0.01, KERNEL)

    def test_fit_takes_one_sample_as_a_flat_row(self):
        # atleast_2d: a 1-D X and Y are one training row
        post = gp.fit(np.array([0.0, 0.0]), np.array([1.0]), 0.01, KERNEL)
        assert (post.n_samples, post.n_inputs, post.n_outputs) == (1, 2, 1)
        assert post.mean_at((0.0, 0.0))[0] == pytest.approx(1.0 / 1.01, abs=1e-12)

    @pytest.mark.parametrize("field", ["kappa", "xi"])
    def test_bound_rejects_nonpositive_and_nonfinite(self, field):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                gp.UniformBoundConfig(**{field: bad})


EPS = np.finfo(float).eps
TINY = np.finfo(float).smallest_subnormal
BOX = 15.0  # UniformBoundConfig().kappa: the envelope's box |x|_inf <= 15


def direct_read(post, L, x):
    """The 1 kHz read from direct differences, the form before the read
    matrix, solved against the oracle factor L: kernel vector k,
    w = L^{-1} k, mean and unclamped variance."""
    d = post.X - np.asarray(x, dtype=float)
    sq = np.einsum("ij,ij->i", d, d)
    k = post.kernel.sigma_f**2 * np.exp(-0.5 * sq / post.kernel.length_scale**2)
    w = solve_triangular(L, k, lower=True)
    return k, w, k @ post.alpha, post.kernel.sigma_f**2 - w @ w


def factor_norms(post, L):
    """Spectral norms of the oracle factor L and of its inverse, then those
    of the entrywise absolute values |L| and |W|, W the posterior's own
    inverse factor."""
    return tuple(float(np.linalg.norm(a, 2)) for a in (
        L, np.linalg.inv(L), np.abs(L), np.abs(dense_factor(post))))


def expanded_rel(post, x):
    """Relative error bound on each entry of the kernel vector at x read
    through the expanded form.

    The exponent of ``k(X_i, x)`` is a sum of n + 2 terms no larger than
    ``(|X_i|^2 + |x|^2) / l^2 + |log sigma_f^2|`` in all, so each kernel
    entry is off by at most this much, relative.
    """
    n = post.n_inputs
    l2 = post.kernel.length_scale**2
    sq_x = float(np.dot(x, x))
    sq_X = float(np.max(np.einsum("ij,ij->i", post.X, post.X)))
    return 4 * (n + 2) * EPS * (1 + (sq_X + sq_x) / l2 + abs(2 * math.log(post.kernel.sigma_f)))


def left_residual_bound(post, norms):
    """``2 N eps || |W| || || |L| ||``: the bound on ``||W L - I||`` that
    the posterior's inverse factor W keeps against the oracle factor L of
    the same Gram matrix; ``norms`` is ``factor_norms(post, L)``.

    W is grown a block of rows at a time, each block from the rows before
    it, as LAPACK's ``dtrtri`` builds each block column of ``L^{-1}`` from
    the ones after it; for ``dtrtri`` the left residual ``|W L - I| <=
    2 N eps |W| |L|`` is proven (Du Croz & Higham 1992). Here L is a
    second factorization of the same matrix, so the bound is a measured
    one: ``TestInverseFactor`` checks it at every data count it grows
    through, and it held with at most a sixth of its margin used.
    """
    return 2 * post.n_samples * EPS * norms[3] * norms[2]


def read_tolerance(post, norms, x, k, w, rel=None):
    """Bounds on |mean - mean'| (per channel) and |var - var'| between a
    point read and a solve's read, each of whose kernel vectors carries
    the expanded form's error (``rel``, by default ``expanded_rel``);
    ``norms`` is ``factor_norms(post, L)`` and ``w = L^{-1} k``.

    Each kernel entry is off by at most ``rel`` relative, which reaches
    ``w`` through ``||L^{-1}||``; the dot products add their own ``N eps``
    rounding. Here ``||.||`` is the spectral norm and ``|.|`` the
    entrywise absolute value. Where ``w`` comes from, the two reads
    differ:

    - a triangular solve is backward stable, ``(L + dL) w' = k`` with
      ``|dL| <= N eps |L|``, so ``||w' - w|| <= N eps ||L^{-1}|| ||L||
      ||w||`` per read;
    - the posterior's read ``w' = W k`` differs from ``w`` by ``(W L -
      I) w``, at most ``left_residual_bound`` times ``||w||``, and the
      product's own rounding, ``N eps || |W| || ||k||`` with ``||k|| <=
      ||L|| ||w||``, at most half that again: ``3 N eps || |W| ||
      || |L| || ||w||`` in all.

    Below the normal range rounding is absolute, up to half a subnormal
    unit per operation, which no relative bound covers: a read far from
    the data has a subnormal mean. Each read's dot products take 2N - 1
    such roundings, so both bounds carry an absolute floor of 2N subnormal
    units.
    """
    N = post.n_samples
    if rel is None:
        rel = expanded_rel(post, x)
    floor = 2 * N * TINY
    tol_mean = 2 * (rel + N * EPS) * (k @ np.abs(post.alpha)) + floor
    l_norm, l_inv_norm = norms[:2]
    w_norm, k_norm = float(np.linalg.norm(w)), float(np.linalg.norm(k))
    solve = N * EPS * l_norm * w_norm * l_inv_norm
    point = 1.5 * left_residual_bound(post, norms) * w_norm
    dw = 2 * rel * k_norm * l_inv_norm + solve + point
    tol_var = (2 * w_norm * dw + dw**2 + 2 * N * EPS * w_norm**2
               + 4 * EPS * post.kernel.sigma_f**2 + floor)
    return tol_mean, tol_var


def box_data(N, n_outputs=3):
    """N inputs, up to 8 of them on the box corners, where |X_i| is
    largest and the expanded form cancels most, the rest where
    trajectories stay; and noisy quadratic targets."""
    rng = np.random.default_rng(N)
    corners = np.array(list(itertools.product((-BOX, BOX), repeat=3)))[: min(N, 8)]
    X = np.vstack([corners, rng.uniform(-3.0, 3.0, size=(N - len(corners), 3))])
    Y = np.stack([poly_f(x) for x in X]) + 0.01 * rng.normal(size=(N, 3))
    return X, Y[:, :n_outputs]


class TestExpandedRead:
    """point_eval and mean_at read the kernel vector from the precomputed
    read matrix; they agree with the direct-difference read within the
    expanded form's rounding, and are exact where the kernel underflows."""

    FAR = (100.0, -100.0, 100.0)

    def posterior(self, N, kernel):
        return gp.fit(*box_data(N), 1e-4, kernel)

    @staticmethod
    def queries(post):
        X = post.X[:30]
        inside = np.vstack([X, 0.5 * (X[:-1] + X[1:]), X + 1e-3])
        rng = np.random.default_rng(1)
        # one coordinate of each at +-15, the others anywhere in the box
        on_box = rng.uniform(-BOX, BOX, size=(12, 3))
        on_box[np.arange(12), np.arange(12) % 3] = rng.choice((-BOX, BOX), size=12)
        corners = np.array(list(itertools.product((-BOX, BOX), repeat=3)))
        return np.vstack([inside, on_box, corners])

    @pytest.mark.parametrize("kernel", [KERNEL, gp.SeKernel(sigma_f=2.0, length_scale=0.5)])
    @pytest.mark.parametrize("N", [1, 22, gp._PANEL_ROWS, gp._PANEL_ROWS + 1, 512])
    def test_matches_the_direct_difference_read(self, N, kernel):
        post = self.posterior(N, kernel)
        L = oracle_factor(post)
        norms = factor_norms(post, L)
        for x in self.queries(post):
            k, w, mean_o, var_o = direct_read(post, L, x)
            tol_mean, tol_var = read_tolerance(post, norms, x, k, w)
            mean, std = post.point_eval(tuple(x.tolist()))
            assert np.all(np.abs(mean - mean_o) <= tol_mean)
            assert abs(std**2 - max(var_o, 0.0)) <= tol_var
            # the array form of the same point, and mean_at, read the same bits
            mean_a, std_a = post.point_eval(x)
            assert np.array_equal(mean_a, mean) and std_a == std
            assert np.array_equal(post.mean_at(tuple(x.tolist())), mean)

    @pytest.mark.parametrize("N", [1, 22, 512])
    def test_far_query_is_exactly_the_prior(self, N):
        post = self.posterior(N, KERNEL)
        mean, std = post.point_eval(self.FAR)
        assert std == KERNEL.sigma_f
        assert np.all(mean == 0.0)
        assert np.all(post.mean_at(self.FAR) == 0.0)

    def test_prior_read_is_unchanged(self):
        kernel = gp.SeKernel(sigma_f=0.3, length_scale=2.0)
        post = gp.fit(np.zeros((0, 3)), np.zeros((0, 2)), 0.01, kernel)
        assert post.Xa.shape == (0, 5)
        for x in ((0.1, -0.2, 0.3), self.FAR):
            mean, std = post.point_eval(x)
            assert std == 0.3 and np.array_equal(mean, np.zeros(2))
            assert np.array_equal(post.mean_at(x), np.zeros(2))
            # one read-only mean, made with the posterior: a read allocates none
            assert mean is post.zero_mean is post.mean_at(x)
            assert not mean.flags.writeable

    @pytest.mark.parametrize("N", [0, 22])
    def test_wrong_length_query_raises(self, N):
        # the prior too: it reads no kernel vector, so nothing else would
        if N:
            post = self.posterior(N, KERNEL)
        else:
            post = gp.fit(np.zeros((0, 3)), np.zeros((0, 3)), 0.01, KERNEL)
        for x in ((0.1, 0.2), (0.1, 0.2, 0.3, 0.4), np.zeros(2)):
            for read in (post.point_eval, post.mean_at):
                with pytest.raises(numerics.DimensionError,
                                   match=f"query dim {len(x)} != training dim 3"):
                    read(x)
        with pytest.raises(numerics.DimensionError, match="query dim 2 != training dim 3"):
            post.predict_batch(np.zeros((4, 2)))

    def test_read_matrix_is_frozen_with_its_inputs(self):
        post = self.posterior(22, KERNEL)
        with pytest.raises(dataclasses.FrozenInstanceError):
            post.X = post.X[:3]
        with pytest.raises(dataclasses.FrozenInstanceError):
            post.Xa = np.zeros((22, 5))
        # a deepcopy (Snapshot's) reads the same bits; replace rebuilds Xa
        clone = copy.deepcopy(post)
        x = (0.3, -1.2, 2.0)
        assert clone.Xa is not post.Xa and np.array_equal(clone.Xa, post.Xa)
        assert np.array_equal(clone.point_eval(x)[0], post.point_eval(x)[0])
        wide = dataclasses.replace(post, kernel=gp.SeKernel(3.0, 2.0))
        assert np.array_equal(wide.Xa[:, :3], post.X / 4.0)
        assert (wide.signal_var, wide.n_samples) == (9.0, 22)
        with pytest.raises(dataclasses.FrozenInstanceError):
            post.signal_var = 4.0

    @given(
        N=st.integers(1, 30),
        n=st.integers(1, 3),
        m=st.integers(1, 3),
        sigma_f=st.floats(0.3, 3.0),
        length_scale=st.floats(0.5, 3.0),
        noise=st.floats(1e-4, 0.1),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.5, BOX),
    )
    @settings(max_examples=60, deadline=None)
    # far from the data the means are subnormal (about 1e-320) and differ
    # by one subnormal unit, below any relative bound
    @example(N=1, n=2, m=2, sigma_f=1.5, length_scale=0.5, noise=0.03125,
             seed=1, scale=5.5)
    # a subnormal mean (about -1.4e-318) that the two reads agree on within
    # the 2N-unit floor only because they share one kernel formula
    @example(N=16, n=3, m=1, sigma_f=0.5, length_scale=0.5, noise=0.00390625,
             seed=479001600, scale=0.5)
    def test_point_eval_matches_predict_batch(
        self, N, n, m, sigma_f, length_scale, noise, seed, scale
    ):
        rng = np.random.default_rng(seed)
        kernel = gp.SeKernel(sigma_f=sigma_f, length_scale=length_scale)
        X = rng.uniform(-scale, scale, size=(N, n))
        post = gp.fit(X, rng.normal(size=(N, m)), noise, kernel)
        Xq = np.vstack([X[:3] + 1e-3, rng.uniform(-BOX, BOX, size=(5, n))])
        mean_b, std_b = post.predict_batch(Xq)
        L = oracle_factor(post)
        norms = factor_norms(post, L)
        for i, x in enumerate(Xq):
            k, w, _, _ = direct_read(post, L, x)
            tol_mean, tol_var = read_tolerance(post, norms, x, k, w)
            mean, std = post.point_eval(x)
            assert np.all(np.abs(mean - mean_b[i]) <= tol_mean)
            assert abs(std**2 - std_b[i, 0] ** 2) <= tol_var


def oracle_tolerance(post, norms, x, k, w, Y, L):
    """Bounds on |mean - mean_o| (per channel) and |var - var_o| between a
    point read and ``naive_predict``'s, derived as ``read_tolerance``
    derives its own: its bounds, which cover the point read's error
    against the oracle factor ``L`` of the posterior's Gram matrix K, plus
    the oracle's, to first order, with ``||.||`` the spectral norm, ``|.|``
    the entrywise absolute value, ``z = L^{-1} Y`` per channel and
    ``K^{-1} k = L^{-T} w``.

    - The oracle's Gram matrix K' comes from direct differences, within
      ``expanded_rel`` of the expanded form's entry by entry. K is
      positive entrywise, so ``||K' - K|| <= rel ||K||``.
    - Each Cholesky factor is the exact one of a matrix within
      ``|dK| <= (N + 1) eps |L| |L^T|`` of its own, so ``||dK|| <= (N + 1)
      eps || |L| ||^2``: the oracle's of K', L's of K. With the first
      term, ``L L^T`` and the oracle's factored matrix differ by ``D = rel
      ||K|| + 2 (N + 1) eps || |L| ||^2`` in norm, which moves the mean by
      at most ``||K^{-1} k|| D ||alpha||`` and the variance by ``||K^{-1}
      k||^2 D``.
    - Each triangular solve is backward stable, ``|dL| <= N eps |L|``, so
      it moves its result ``v = L^{-1} b`` by ``N eps || |L| || ||L^{-1}||
      ||v||``. The mean takes the oracle's two, ``L^{-1} k`` and ``L^{-1}
      Y``, each moving it by that times ``||w|| ||z||``. The variance takes
      the oracle's ``L^{-1} k``, twice.
    - The fit's ``alpha = W^T (W Y)`` takes two products with W, each off
      from L^{-1}'s by ``left_residual_bound`` plus its own rounding, ``N
      eps || |W| || || |L| ||``, relative to ``||z||``; each moves the mean
      by that times ``||w|| ||z||``.
    - The oracle's dot products round by ``N eps ||w|| ||z||`` and ``N
      eps ||w||^2``. Its subtraction from ``sigma_f^2`` rounds by at most
      half an ulp of ``sigma_f^2``, within the ``4 eps sigma_f^2`` of
      ``read_tolerance``, which allows for two reads' subtractions.

    ``||K|| = ||L||^2`` and ``||K^{-1} k|| <= ||L^{-1}|| ||w||``.
    """
    tol_mean, tol_var = read_tolerance(post, norms, x, k, w)
    N = post.n_samples
    rel = expanded_rel(post, x)
    l_norm, l_inv_norm, abs_l_norm, abs_w_norm = norms
    D = rel * l_norm**2 + 2 * (N + 1) * EPS * abs_l_norm**2
    w_norm = float(np.linalg.norm(w))
    kinv_k = l_inv_norm * w_norm
    solve = N * EPS * abs_l_norm * l_inv_norm
    product = left_residual_bound(post, norms) + N * EPS * abs_w_norm * abs_l_norm
    z_norm = np.linalg.norm(solve_triangular(L, Y, lower=True), axis=0)
    a_norm = np.linalg.norm(post.alpha, axis=0)
    tol_mean = (tol_mean + kinv_k * D * a_norm
                + (2 * solve + 2 * product + N * EPS) * w_norm * z_norm)
    tol_var = tol_var + kinv_k**2 * D + (2 * solve + N * EPS) * w_norm**2
    return tol_mean, tol_var


@pytest.mark.parametrize("N", [gp._PANEL_ROWS, gp._PANEL_ROWS + 1])
class TestReadForms:
    """Up to ``_PANEL_ROWS`` points a posterior's inverse factor is one
    panel, read with the weights in one product; one point more and it
    takes a second panel, read after the mean's own product. Both forms
    read within their bound of the dense oracle, and in each the tick's
    read and the row's read share one mean."""

    def test_the_form_changes_past_the_constant(self, N):
        X, Y = box_data(N)
        post = gp.fit(X, Y, 1e-4, KERNEL)
        h = gp._PANEL_ROWS
        if N <= h:
            assert [panel.shape for panel in post.panels] == [(N, N)]
            assert post.R.shape == (3 + N, N) and post.R.flags.c_contiguous
            assert np.array_equal(post.R, np.vstack([post.alpha.T, post.panels[0]]))
        else:
            assert [panel.shape for panel in post.panels] == [(h, h), (N - h, N)]
            assert post.R is None

    def test_matches_the_dense_oracle(self, N):
        X, Y = box_data(N)
        post = gp.fit(X, Y, 1e-4, KERNEL)
        L = oracle_factor(post)
        norms = factor_norms(post, L)
        Xq = TestExpandedRead.queries(post)
        mean_o, std_o = naive_predict(X, Y, 1e-4, KERNEL, Xq)
        for i, x in enumerate(Xq):
            k, w, _, _ = direct_read(post, L, x)
            tol_mean, tol_var = oracle_tolerance(post, norms, x, k, w, Y, L)
            mean, std = post.point_eval(x)
            assert np.all(np.abs(mean - mean_o[i]) <= tol_mean)
            assert abs(std**2 - std_o[i] ** 2) <= tol_var

    def test_mean_at_is_the_point_reads_mean_bitwise(self, N):
        post = gp.fit(*box_data(N), 1e-4, KERNEL)
        for x in TestExpandedRead.queries(post):
            mean = post.point_eval(tuple(x.tolist()))[0]
            assert np.array_equal(post.mean_at(x), mean)
            assert np.array_equal(post.mean_at(tuple(x.tolist())), mean)

    def test_a_copy_reads_the_same_bits_and_replace_rebuilds_the_read(self, N):
        X, Y = box_data(N)
        post = gp.fit(X, Y, 1e-4, KERNEL)
        clone = copy.deepcopy(post)
        x = (0.3, -1.2, 2.0)
        mean, std = post.point_eval(x)
        mean_c, std_c = clone.point_eval(x)
        assert np.array_equal(mean_c, mean) and std_c == std
        assert np.array_equal(clone.mean_at(x), post.mean_at(x))
        # new targets, same factor: the read matrix carries the new weights
        doubled = dataclasses.replace(post, alpha=2.0 * post.alpha)
        if post.R is None:
            assert doubled.R is None
        else:
            assert clone.R is not post.R and np.array_equal(clone.R, post.R)
            assert np.array_equal(doubled.R[:3], 2.0 * post.alpha.T)
            assert np.array_equal(doubled.R[3:], post.R[3:])
        assert np.array_equal(doubled.point_eval(x)[0], 2.0 * mean)
        assert doubled.point_eval(x)[1] == std


class TestInverseFactor:
    """Given the posterior fitted on a prefix of its data, fit appends the
    new rows of the inverse factor and shares the full panels; otherwise
    it regrows the factor. Either way the factor keeps its left-residual
    bound against the oracle factor and reads within the read tolerance
    of a triangular solve."""

    H = gp._PANEL_ROWS
    CHECKS = (1, 20, H - 1, H, H + 1, 512)

    @staticmethod
    def data(n):
        rng = np.random.default_rng(41)
        X = rng.uniform(-3.0, 3.0, size=(n, 3))
        Y = np.stack([poly_f(x) for x in X]) + 0.01 * rng.normal(size=(n, 3))
        return X, Y

    @staticmethod
    def check_against_the_oracle(post):
        """Returns the factor W, the oracle factor L and the residual bound."""
        L = oracle_factor(post)
        norms = factor_norms(post, L)
        W = dense_factor(post)
        bound = left_residual_bound(post, norms)
        assert np.linalg.norm(W @ L - np.eye(post.n_samples), 2) <= bound
        for x in TestExpandedRead.queries(post)[::3]:
            k, w, mean_o, var_o = direct_read(post, L, x)
            tol_mean, tol_var = read_tolerance(post, norms, x, k, w)
            mean, std = post.point_eval(x)
            assert np.all(np.abs(mean - mean_o) <= tol_mean)
            assert abs(std**2 - max(var_o, 0.0)) <= tol_var
        return W, L, bound

    @pytest.mark.parametrize("step", [10, 20])
    def test_appends_match_a_regrow_and_the_oracle(self, step):
        X, Y = self.data(512 + step)
        post = gp.fit(X[:0], Y[:0], 1e-4, KERNEL)
        for N in sorted(set(range(step, 513, step)) | set(self.CHECKS)):
            post = gp.fit(X[:N], Y[:N], 1e-4, KERNEL, prev=post)
            if N in self.CHECKS:
                W_a, L, bound_a = self.check_against_the_oracle(post)
                W_r, _, bound_r = self.check_against_the_oracle(
                    gp.fit(X[:N], Y[:N], 1e-4, KERNEL))
                # W_a - W_r = ((W_a L - I) - (W_r L - I)) L^{-1}
                l_inv = np.linalg.norm(np.linalg.inv(L), 2)
                assert np.linalg.norm(W_a - W_r, 2) <= (bound_a + bound_r) * l_inv
        # the first refit after a FIFO eviction regrows the whole factor
        evicted = gp.fit(X[step:], Y[step:], 1e-4, KERNEL, prev=post)
        fresh = gp.fit(X[step:], Y[step:], 1e-4, KERNEL)
        assert len(evicted.panels) == len(fresh.panels)
        assert all(np.array_equal(a, b) for a, b in zip(evicted.panels, fresh.panels))
        assert np.array_equal(evicted.alpha, fresh.alpha)
        assert not any(a is b for a, b in zip(evicted.panels, post.panels))
        self.check_against_the_oracle(evicted)

    def test_a_successor_shares_the_full_panels(self):
        H = self.H
        X, Y = self.data(2 * H + 44)
        first = gp.fit(X[:2 * H + 14], Y[:2 * H + 14], 1e-4, KERNEL)
        succ = gp.fit(X, Y, 1e-4, KERNEL, prev=first)
        assert [p.shape for p in succ.panels] == [(H, H), (H, 2 * H), (44, 2 * H + 44)]
        assert succ.panels[0] is first.panels[0] and succ.panels[1] is first.panels[1]
        # the last panel is continued in a longer copy; its rows are kept
        last = succ.panels[2]
        assert last is not first.panels[2] and last.flags.c_contiguous
        assert np.array_equal(last[:14, :2 * H + 14], first.panels[2])
        assert not last[:14, 2 * H + 14:].any()

    @pytest.mark.parametrize("change", ["kernel", "noise", "inputs", "dimension"])
    def test_a_prev_fitted_otherwise_is_ignored(self, change):
        X, Y = self.data(40)
        prev = gp.fit(X[:20], Y[:20], 1e-4, KERNEL)
        kernel, noise = KERNEL, 1e-4
        if change == "kernel":
            kernel = gp.SeKernel(sigma_f=1.0, length_scale=2.0)
        elif change == "noise":
            noise = 2e-4
        elif change == "inputs":
            X = X.copy()
            X[3, 1] = np.nextafter(X[3, 1], 0.0)
        else:
            prev = gp.fit(X[:20, :2], Y[:20], 1e-4, KERNEL)
        got = gp.fit(X, Y, noise, kernel, prev=prev)
        want = gp.fit(X, Y, noise, kernel)
        assert all(np.array_equal(a, b) for a, b in zip(got.panels, want.panels))
        assert np.array_equal(got.alpha, want.alpha)
        assert got.panels[0] is not prev.panels[0]


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
        post = gp.fit(np.zeros((0, 3)), np.zeros((0, 3)), 1e-4, KERNEL)
        sqrt_beta = math.sqrt(gp.beta_value(self.CFG, 3, 3))
        _, std = post.point_eval(np.array([1.0, 2.0, 3.0]))
        e = sqrt_beta * std
        assert e == pytest.approx(8.509, abs=5e-4)
        assert gp.uniform_bound_grid_max(post, sqrt_beta) == sqrt_beta * KERNEL.sigma_f

    def test_delta_near_one_with_single_ball(self):
        # one xi-ball covers the box and delta -> 1: the scale factor
        # 2 log(m M / delta) tends to 2 log(1) = 0
        cfg = gp.UniformBoundConfig(kappa=0.5, xi=1.0, delta=1.0 - 1e-12)
        assert gp.beta_value(cfg, n_outputs=1, n_inputs=1) == pytest.approx(0.0, abs=1e-11)

    def test_grid_max_memory_bounded_at_cap(self):
        # N = 512 is the learner's cap: the 21^3 publish grid is read in
        # blocks, so the peak stays far below the one-shot (N, 9261) arrays.
        # Per block the read holds one (N, 512) kernel block and one
        # panel's (128, 512) product (2.6 MB traced in all)
        rng = np.random.default_rng(5)
        X = rng.uniform(-3.0, 3.0, size=(512, 3))
        Y = np.stack([poly_f(x) for x in X]) + 0.01 * rng.normal(size=(512, 3))
        post = gp.fit(X, Y, 1e-4, KERNEL)
        sqrt_beta = math.sqrt(gp.beta_value(self.CFG, 3, 3))
        tracemalloc.start()
        try:
            e = gp.uniform_bound_grid_max(post, sqrt_beta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6
        axis = np.linspace(-5.0, 5.0, 21)
        grid = np.stack([g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij")], axis=1)
        _, std = post.predict_batch(grid)
        assert e == sqrt_beta * float(np.max(std))

    def test_empirical_coverage(self):
        rng = np.random.default_rng(77)
        X = rng.uniform(-5, 5, size=(50, 3))
        Y = np.array([poly_f(x) for x in X]) + rng.normal(0, 0.01, size=(50, 3))
        post = gp.fit(X, Y, 1e-4, KERNEL)
        beta = gp.beta_value(self.CFG, 3, 3)
        probes = rng.uniform(-5, 5, size=(500, 3))
        F = np.array([poly_f(x) for x in probes])
        mean, std = post.predict_batch(probes)
        envelope = math.sqrt(beta) * np.max(std, axis=1)
        err = np.max(np.abs(F - mean), axis=1)
        violations = np.mean(err > envelope)
        assert violations <= 0.01


class TestGridMaxBranches:
    """The corner exit and the blocked read, each against an unblocked
    read of the whole 21^3 grid, bit for bit."""

    CFG = gp.UniformBoundConfig(kappa=15.0, xi=0.001, delta=0.01)
    AXIS = np.linspace(-5.0, 5.0, 21)
    GRID = np.stack([g.ravel() for g in np.meshgrid(AXIS, AXIS, AXIS, indexing="ij")],
                    axis=1)

    def fitted(self, X, kernel=KERNEL):
        rng = np.random.default_rng(8)
        Y = np.array([poly_f(x) for x in X]).reshape(X.shape)
        Y += 0.01 * rng.normal(size=X.shape)
        return gp.fit(X, Y, 1e-4, kernel)

    def check(self, post, monkeypatch):
        """The grid max equals the full-grid max; returns it, the cap's
        bound and the row counts of each predict_batch call it made."""
        sqrt_beta = math.sqrt(gp.beta_value(self.CFG, 3, 3))
        want = sqrt_beta * float(np.max(post.predict_batch(self.GRID)[1]))
        rows = []
        predict = gp.GpPosterior.predict_batch

        def counting(self, Xq):
            rows.append(len(Xq))
            return predict(self, Xq)

        monkeypatch.setattr(gp.GpPosterior, "predict_batch", counting)
        got = gp.uniform_bound_grid_max(post, sqrt_beta)
        assert got == want
        return got, sqrt_beta * post.kernel.sigma_f, rows

    def test_clustered_data_exits_at_the_corners(self, monkeypatch):
        # trajectories stay within about 1.5 rad/s: the far corners sit at the cap
        X = np.random.default_rng(6).uniform(-1.5, 1.5, size=(300, 3))
        got, cap_bound, rows = self.check(self.fitted(X), monkeypatch)
        assert got == cap_bound
        assert rows == [8]

    def test_data_filling_the_box_reads_the_whole_grid(self, monkeypatch):
        corners = np.array(list(itertools.product((-5.0, 5.0), repeat=3)))
        X = np.vstack([corners, np.random.default_rng(7).uniform(-5.0, 5.0, size=(504, 3))])
        got, cap_bound, rows = self.check(self.fitted(X), monkeypatch)
        assert got < cap_bound
        assert rows[0] == 8 and sum(rows[1:]) == len(self.GRID)
        assert max(rows[1:]) == gp._GRID_BLOCK

    @pytest.mark.parametrize("sigma_f", [1.0, 0.3])
    def test_prior_exits_at_the_corners(self, monkeypatch, sigma_f):
        kernel = gp.SeKernel(sigma_f=sigma_f, length_scale=1.0)
        got, cap_bound, rows = self.check(self.fitted(np.zeros((0, 3)), kernel), monkeypatch)
        assert got == cap_bound
        assert rows == [8]

    @pytest.mark.parametrize("grid_points", [2, 5, 21])
    def test_blocks_are_the_meshgrid_rows_bitwise(self, monkeypatch, grid_points):
        # each block is built from its flat indices: the rows read, in
        # order, and the max are those of the ravelled ij meshgrid
        corners = np.array(list(itertools.product((-5.0, 5.0), repeat=3)))
        X = np.vstack([corners, np.random.default_rng(7).uniform(-5.0, 5.0, size=(56, 3))])
        post = self.fitted(X)
        sqrt_beta = math.sqrt(gp.beta_value(self.CFG, 3, 3))
        axis = np.linspace(-5.0, 5.0, grid_points)
        grid = np.stack([g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij")],
                        axis=1)
        want = sqrt_beta * float(np.max(post.predict_batch(grid)[1]))
        blocks = []
        predict = gp.GpPosterior.predict_batch

        def recording(self, Xq):
            blocks.append(np.array(Xq))
            return predict(self, Xq)

        monkeypatch.setattr(gp.GpPosterior, "predict_batch", recording)
        got = gp.uniform_bound_grid_max(post, sqrt_beta, 5.0, grid_points)
        assert got == want
        assert len(blocks) == 1 + -(-len(grid) // gp._GRID_BLOCK)
        assert np.array_equal(np.concatenate(blocks[1:]), grid)

    def test_grid_max_memory_flat_in_grid_size(self):
        # a 101^3 grid is 1030301 points: its meshgrid and stack alone would
        # be 49 MB. Built a block at a time, the read holds one (64, 512)
        # kernel block and its panel product
        corners = np.array(list(itertools.product((-5.0, 5.0), repeat=3)))
        X = np.vstack([corners, np.random.default_rng(7).uniform(-5.0, 5.0, size=(56, 3))])
        post = self.fitted(X)
        tracemalloc.start()
        try:
            e = gp.uniform_bound_grid_max(post, 8.5, 5.0, 101)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert e < 8.5
        assert peak < 1.5e6

    def test_grid_needs_both_ends(self):
        post = self.fitted(np.zeros((0, 3)))
        with pytest.raises(ValueError, match="grid_points"):
            gp.uniform_bound_grid_max(post, 8.5, grid_points=1)
