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
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dpotrf, dtrtri

from l1gp import gp, numerics, plant


KERNEL = gp.SeKernel(sigma_f=1.0, length_scale=1.0)


def se_kernel(kernel, A, B):
    """``sigma_f^2 exp(-|a - b|^2 / (2 l^2))`` (len(A), len(B)) from direct
    differences, independent of gp's own formula."""
    d = A[:, None, :] - B[None, :, :]
    sq = np.einsum("ijk,ijk->ij", d, d)
    return kernel.sigma_f**2 * np.exp(-0.5 * sq / kernel.length_scale**2)


def naive_predict(X, Y, noise_var, kernel, Xq):
    """Full-inverse GP oracle, no Cholesky anywhere."""
    K = se_kernel(kernel, X, X) + noise_var * np.eye(X.shape[0])
    Kinv = np.linalg.inv(K)
    ks = se_kernel(kernel, X, Xq)
    mean = ks.T @ Kinv @ Y
    var = kernel.sigma_f**2 - np.einsum("ij,ik,kj->j", ks, Kinv, ks)
    return mean, np.sqrt(np.maximum(var, 0.0))


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
        # N = 512 is the learner's cap; the factor is stored column-major so
        # the per-tick read takes it without a copy
        rng = np.random.default_rng(5)
        X = rng.uniform(-3.0, 3.0, size=(512, 3))
        Y = np.stack([poly_f(x) for x in X]) + 0.01 * rng.normal(size=(512, 3))
        post = gp.fit(X, Y, 1e-4, KERNEL)
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
        # potrf reads: it must be the lower one of the read-matrix product
        rng = np.random.default_rng(N)
        X = rng.uniform(-3.0, 3.0, size=(N, 3))
        Xa, K = read_matrix_gram(kernel, X, 1e-4)
        want = np.tril(dpotrf(K, lower=1)[0])
        post = gp.fit(X, rng.normal(size=(N, 2)), 1e-4, kernel)
        assert np.array_equal(post.Xa, Xa)
        assert np.array_equal(post.chol, want)
        assert post.chol.flags.f_contiguous
        if N > 1:
            # the upper triangle's product differs: the lower one is pinned
            assert not np.array_equal(want, np.tril(dpotrf(K.T, lower=1)[0]))

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("noise", [1e-4, 0.01, 0.3])
    def test_one_point_factor_is_the_exact_diagonal(self, kernel, noise):
        X = np.array([[14.0, -15.0, 3.7]])  # far out, where the product rounds most
        post = gp.fit(X, np.ones((1, 2)), noise, kernel)
        assert post.chol[0, 0] == math.sqrt(kernel.sigma_f**2 + noise)

    def test_fit_at_cap_holds_one_gram_buffer(self):
        # the Gram matrix is built, factored and kept in one N x N buffer;
        # everything else fit allocates is O(N)
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
        assert post.chol.shape == (N, N)
        assert peak < 1.25 * 8 * N * N


class TestBatchSolve:
    """``predict_batch`` solves against the factor with LAPACK's ``dtrtrs``
    from scipy's compiled wrapper, the routine ``solve_triangular`` runs."""

    @pytest.mark.parametrize("N", [1, 37, 512])
    def test_std_is_bitwise_solve_triangular(self, N):
        from scipy.linalg import solve_triangular

        rng = np.random.default_rng(N)
        post = gp.fit(rng.uniform(-3.0, 3.0, size=(N, 3)), rng.normal(size=(N, 2)),
                      1e-4, KERNEL)
        Xq = rng.uniform(-4.0, 4.0, size=(300, 3))
        kstar = gp._kernel_block(post.Xa, Xq)
        w = solve_triangular(post.chol, kstar, lower=True, check_finite=False)
        var = post.signal_var - np.einsum("ij,ij->j", w, w)
        std = np.sqrt(np.maximum(var, 0.0))
        got_mean, got_std = post.predict_batch(Xq)
        assert np.array_equal(got_mean, kstar.T @ post.alpha)
        assert np.array_equal(got_std, np.repeat(std[:, None], 2, axis=1))

    def test_zero_on_the_factor_diagonal_raises(self):
        rng = np.random.default_rng(2)
        post = gp.fit(rng.uniform(-3.0, 3.0, size=(5, 3)), rng.normal(size=(5, 2)),
                      1e-4, KERNEL)
        chol = post.chol.copy(order="F")
        chol[2, 2] = 0.0
        singular = dataclasses.replace(post, chol=chol)
        # dtrtri finds the zero too: the point read falls back to the solve
        assert post.R is not None and singular.R is None
        with pytest.raises(np.linalg.LinAlgError,
                           match="singular factor: zero on its diagonal at 2"):
            singular.predict_batch(np.zeros((4, 3)))


# a fresh interpreter imports the GP and scipy.linalg in the given order,
# then checks that both use one copy of each compiled wrapper
LOAD_ORDER_PROBE = """
import sys
import numpy as np
if sys.argv[1] == "gp-first":
    from l1gp import gp, numerics
    assert "scipy.linalg" not in sys.modules
    import scipy.linalg
else:
    import scipy.linalg
    from l1gp import gp, numerics
from scipy.linalg import blas, lapack

fblas = sys.modules["scipy.linalg._fblas"]
flapack = sys.modules["scipy.linalg._flapack"]
assert gp._fblas is fblas is numerics._scipy_wrapper("_fblas") is blas._fblas
assert gp._flapack is flapack is numerics._scipy_wrapper("_flapack") is lapack._flapack
assert blas.dtrsv is fblas.dtrsv
for name in ("dpotrf", "dpotrs", "dtrtrs", "dtrtri"):
    assert getattr(lapack, name) is getattr(flapack, name), name

L = np.array([[2.0, 0.0], [1.0, 4.0]])
assert np.array_equal(scipy.linalg.solve_triangular(L, [2.0, 9.0], lower=True),
                      [1.0, 2.0])
assert np.allclose(scipy.linalg.expm(np.diag([0.0, 1.0])), np.diag([1.0, np.e]))
post = gp.fit(np.eye(3), np.ones((3, 1)), 0.01, gp.SeKernel())
std = post.point_eval((1.0, 0.5, 0.0))[1]
assert abs(std - post.predict_batch([[1.0, 0.5, 0.0]])[1][0, 0]) < 1e-12
print("ok")
"""


@pytest.mark.parametrize("order", ["gp-first", "scipy.linalg-first"])
def test_one_copy_of_each_wrapper_in_either_load_order(order):
    # the GP loads scipy's two wrappers without scipy.linalg; whichever of
    # the two loads first, the other reuses its modules (pytest itself has
    # imported scipy.linalg by now, so only a fresh interpreter tells)
    src = os.path.dirname(os.path.dirname(os.path.abspath(gp.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", LOAD_ORDER_PROBE, order], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ok"]


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


def direct_read(post, x):
    """The 1 kHz read from direct differences, the form before the read
    matrix: kernel vector k, w = L^{-1} k, mean and unclamped variance."""
    d = post.X - np.asarray(x, dtype=float)
    sq = np.einsum("ij,ij->i", d, d)
    k = post.kernel.sigma_f**2 * np.exp(-0.5 * sq / post.kernel.length_scale**2)
    w = dtrsv(post.chol, k, lower=1)
    return k, w, k @ post.alpha, post.kernel.sigma_f**2 - w @ w


def chol_norms(post):
    """Spectral norms of the Cholesky factor L and of its inverse, then
    those of their entrywise absolute values |L| and |L^{-1}|."""
    inv = np.linalg.inv(post.chol)
    return tuple(float(np.linalg.norm(a, 2))
                 for a in (post.chol, inv, np.abs(post.chol), np.abs(inv)))


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


def read_tolerance(post, norms, x, k, w):
    """Bounds on |mean - mean'| (per channel) and |var - var'| between a
    point read and a solve's read, each of whose kernel vectors carries
    the expanded form's error; ``norms`` is ``chol_norms(post)``.

    Each kernel entry is off by at most ``expanded_rel`` relative, which
    reaches ``w = L^{-1} k`` through ``||L^{-1}||``; the dot products add
    their own ``N eps`` rounding. Here ``||.||`` is the spectral norm and
    ``|.|`` the entrywise absolute value. Where ``w`` comes from, the two
    forms of the point read differ:

    - a triangular solve (``dtrsv``, ``dtrtrs``) is backward stable,
      ``(L + dL) w' = k`` with ``|dL| <= N eps |L|``, so ``||w' - w|| <=
      N eps ||L^{-1}|| ||L|| ||w||`` per read;
    - the inverse factor's read ``w' = W' k`` takes ``W'`` from
      ``dtrtri``, which computes each block column of ``L^{-1}`` from the
      ones after it, so its left residual is small: ``|W' L - I| <=
      2 N eps |W'| |L|``. So ``W' k - w = (W' L - I) w`` is at most
      ``2 N eps || |L^{-1}| || || |L| || ||w||``, and the product's own
      rounding, ``N eps || |L^{-1}| || ||k||`` with ``||k|| <= ||L||
      ||w||``, at most half that again: ``3 N eps || |L^{-1}| ||
      || |L| || ||w||`` in all.

    Below the normal range rounding is absolute, up to half a subnormal
    unit per operation, which no relative bound covers: a read far from
    the data has a subnormal mean. Each read's dot products take 2N - 1
    such roundings, so both bounds carry an absolute floor of 2N subnormal
    units.
    """
    N = post.n_samples
    rel = expanded_rel(post, x)
    floor = 2 * N * TINY
    tol_mean = 2 * (rel + N * EPS) * (k @ np.abs(post.alpha)) + floor
    l_norm, l_inv_norm, abs_l_norm, abs_inv_norm = norms
    w_norm, k_norm = float(np.linalg.norm(w)), float(np.linalg.norm(k))
    solve = N * EPS * l_norm * w_norm * l_inv_norm
    point = solve if post.R is None else 3 * N * EPS * abs_inv_norm * abs_l_norm * w_norm
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
    @pytest.mark.parametrize("N", [1, 22, gp._INVERSE_READ_MAX, gp._INVERSE_READ_MAX + 1, 512])
    def test_matches_the_direct_difference_read(self, N, kernel):
        post = self.posterior(N, kernel)
        norms = chol_norms(post)
        for x in self.queries(post):
            k, w, mean_o, var_o = direct_read(post, x)
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
        norms = chol_norms(post)
        for i, x in enumerate(Xq):
            k, w, _, _ = direct_read(post, x)
            tol_mean, tol_var = read_tolerance(post, norms, x, k, w)
            mean, std = post.point_eval(x)
            assert np.all(np.abs(mean - mean_b[i]) <= tol_mean)
            assert abs(std**2 - std_b[i, 0] ** 2) <= tol_var


def oracle_tolerance(post, norms, x, k, w, Y):
    """Bounds on |mean - mean_o| (per channel) and |var - var_o| between a
    point read and ``naive_predict``'s, derived as ``read_tolerance``
    derives its own: its bounds, which cover the point read's error, plus
    the oracle's, to first order, with ``||.||`` the spectral norm.

    - The oracle's Gram matrix K' comes from direct differences, within
      ``expanded_rel`` of the expanded form's entry by entry. K is
      positive entrywise, so ``||K' - K|| <= rel ||K||``, which moves the
      mean by at most ``||K^{-1} k|| rel ||K|| ||alpha||`` and the
      variance by ``||K^{-1} k||^2 rel ||K||``.
    - Its inverse X' is LU's, column by column, with a right residual
      ``|K X' - I| <= 2 N eps |K| |X'|``, at most ``2 N^{3/2} eps ||K||
      ||K^{-1}||`` in norm, and ``X' - K^{-1} = K^{-1} (K X' - I)``. That
      moves the mean by at most ``||K^{-1} k||`` times that times ``||Y||``
      and the variance by the same with ``||k||`` for ``||Y||``.
    - Its products round by ``2 N eps |k| |X'| |Y|`` (the mean, two
      products) and ``N^2 eps |k| |X'| |k|`` (the variance, one sum of N^2
      terms), with ``|| |X'| || <= N^{1/2} ||K^{-1}||``.

    ``||K|| = ||L||^2``, ``||K^{-1}|| = ||L^{-1}||^2`` and ``||K^{-1} k|| <=
    ||L^{-1}|| ||w||``.
    """
    tol_mean, tol_var = read_tolerance(post, norms, x, k, w)
    N = post.n_samples
    rel = expanded_rel(post, x)
    l_norm, l_inv_norm = norms[:2]
    K_norm, K_inv_norm = l_norm**2, l_inv_norm**2
    k_norm = float(np.linalg.norm(k))
    kinv_k = l_inv_norm * float(np.linalg.norm(w))
    resid = 2 * N**1.5 * EPS * K_norm * K_inv_norm
    y_norm, a_norm = np.linalg.norm(Y, axis=0), np.linalg.norm(post.alpha, axis=0)
    tol_mean = (tol_mean + kinv_k * (resid * y_norm + rel * K_norm * a_norm)
                + 2 * N**1.5 * EPS * K_inv_norm * k_norm * y_norm)
    tol_var = (tol_var + kinv_k * (resid * k_norm + rel * K_norm * kinv_k)
               + N**2.5 * EPS * K_inv_norm * k_norm**2)
    return tol_mean, tol_var


@pytest.mark.parametrize("N", [gp._INVERSE_READ_MAX, gp._INVERSE_READ_MAX + 1])
class TestReadForms:
    """Up to ``_INVERSE_READ_MAX`` points a posterior is read through its
    inverse factor, one point more and it is read through a solve; both
    forms read within their bound of the dense oracle, and in each the
    tick's read and the row's read share one mean."""

    def test_the_form_changes_past_the_constant(self, N):
        X, Y = box_data(N)
        post = gp.fit(X, Y, 1e-4, KERNEL)
        if N <= gp._INVERSE_READ_MAX:
            W = dtrtri(post.chol, lower=1)[0]
            assert post.R.shape == (3 + N, N) and post.R.flags.c_contiguous
            assert np.array_equal(post.R, np.vstack([post.alpha.T, W]))
        else:
            assert post.R is None

    def test_matches_the_dense_oracle(self, N):
        X, Y = box_data(N)
        post = gp.fit(X, Y, 1e-4, KERNEL)
        norms = chol_norms(post)
        Xq = TestExpandedRead.queries(post)
        mean_o, std_o = naive_predict(X, Y, 1e-4, KERNEL, Xq)
        for i, x in enumerate(Xq):
            k, w, _, _ = direct_read(post, x)
            tol_mean, tol_var = oracle_tolerance(post, norms, x, k, w, Y)
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
        # Per block the kernel is one (N, 512) Fortran-order buffer, which
        # the solve overwrites in place (2.2 MB traced in all)
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
        # kernel block, solved in place (0.33 MB traced in all)
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
