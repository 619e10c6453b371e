"""Empirical coverage of the high-probability uniform error envelope.

Fits the GP on noisy samples of the quadratic uncertainty and checks the
envelope sqrt(beta) * |std(x)|_inf at 500 probe points: at delta = 0.01
at most 1% may fall outside, and in practice the grid-based covering
bound is conservative enough that none do. Also shows how the envelope
tightens pointwise as the training set grows.
"""

import math

import numpy as np

from l1gp import gp, plant


def main():
    kernel = gp.SeKernel(sigma_f=1.0, length_scale=1.0)
    cfg = gp.UniformBoundConfig(kappa=15.0, xi=0.001, delta=0.01)
    beta = gp.beta_value(cfg, n_outputs=3, n_inputs=3)
    sqrt_beta = math.sqrt(beta)
    quadratic = plant.UncertaintySchedule(((0.0, "quadratic"),))
    rng = np.random.default_rng(7)
    probes = rng.uniform(-5, 5, size=(500, 3))
    F = np.array([quadratic.eval(0.0, x) for x in probes])
    for n_train in (0, 10, 50, 200):
        X = rng.uniform(-5, 5, size=(n_train, 3))
        Y = np.array(
            [quadratic.eval(0.0, x) for x in X], dtype=float
        ).reshape(n_train, 3)
        Y += rng.normal(0.0, 0.01, size=Y.shape)
        post = gp.fit(X, Y, 1e-4, kernel)
        if n_train == 0:
            print(f"envelope scale: beta = {beta:.4f}, "
                  f"sqrt(beta) = {sqrt_beta:.4f}")
        mean, std = post.predict_batch(probes)
        env = sqrt_beta * np.max(std, axis=1)
        err = np.max(np.abs(F - mean), axis=1)
        frac = np.mean(err > env)
        print(
            f"  N = {n_train:3d}: envelope min/median {np.min(env):.3f}/"
            f"{np.median(env):.3f}, max |f - mean| {np.max(err):.4f}, "
            f"violations {frac * 100:.1f}%"
        )


if __name__ == "__main__":
    main()
