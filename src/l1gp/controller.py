"""Adaptive rate controller: predictor, piecewise-constant adaptation, filters.

Two operating modes share one code path. In the plain adaptive mode the
control is ``u = -C(s)(sigma_hat - k_g r)`` with ``C(s)`` a first-order
low-pass of bandwidth ``omega_c`` (the sign convention is fixed by the
requirement that a perfect estimate ``sigma_hat = f`` cancels the
uncertainty). In the learning-augmented mode a smoothed copy ``f_L`` of
the learned mean enters directly, ``u = -f_L - C(s)(sigma_hat - k_g r)``,
where ``f_L`` follows the learned model through a first-order lag whose
bandwidth rises as the published error bound shrinks.

Every linear update is discretized exactly per tick. The filters use the
pole mapping ``alpha = exp(-omega dt)``; with ``omega_c T_s = 0.08`` a
forward-Euler filter would be visibly lossy. The state predictor uses the
zero-order-hold map ``x_hat+ = exp(A_m T_s) x_hat + Phi(T_s) B_m drive``,
the same sampled-data map the adaptation gain
``-pinv(B_m) Phi(T_s)^{-1} exp(A_m T_s)`` is derived from. Both matrices and
the gain are precomputed once per configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics

__all__ = [
    "ConfigurationError",
    "ControllerConfig",
    "ControllerState",
    "PrecomputedAdaptation",
    "feedforward_gain",
    "adaptation_step",
    "bandwidth_command",
    "learning_filter_step",
    "control_step",
    "l1_norm_condition",
    "NormConditionReport",
]

MODES = ("l1", "l1gp")


class ConfigurationError(ValueError):
    """Controller configuration violates a construction invariant."""


def feedforward_gain(A_m: np.ndarray, B_m: np.ndarray, C_m: np.ndarray) -> np.ndarray:
    """Feedforward gain ``-(C_m A_m^{-1} B_m)^{-1}``.

    Makes the DC gain of the desired loop ``C_m (-A_m)^{-1} B_m k_g`` the
    identity, so step references are tracked with zero steady-state error.
    """
    A_m = np.asarray(A_m, dtype=float)
    B_m = np.asarray(B_m, dtype=float)
    C_m = np.asarray(C_m, dtype=float)
    prod = C_m @ np.linalg.solve(A_m, B_m)
    try:
        kg = -np.linalg.inv(prod)
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError("C_m A_m^{-1} B_m is singular") from exc
    dc = C_m @ np.linalg.solve(-A_m, B_m) @ kg
    if not np.allclose(dc, np.eye(dc.shape[0]), atol=1e-10):
        raise ConfigurationError("DC-gain identity failed for computed k_g")
    return kg


@dataclass
class ControllerConfig:
    """Plant-model matrices, rates, filter bandwidths, and mode.

    ``A_m`` must be Hurwitz (checked at construction). ``k_g`` is computed
    from (A_m, B_m, C_m) and stored. ``omega_0 = 0`` disables the learning
    filter entirely (the commanded bandwidth is pinned at zero), which is
    the degenerate configuration equal to the plain adaptive mode.
    """

    A_m: np.ndarray
    B_m: np.ndarray
    C_m: np.ndarray
    T_s: float = 0.001
    omega_c: float = 80.0
    omega_L: float = 0.01
    omega_0: float = 1.0
    mode: str = "l1gp"
    x_hat0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    k_g: np.ndarray = field(init=False)

    def __post_init__(self):
        self.A_m = np.asarray(self.A_m, dtype=float)
        self.B_m = np.asarray(self.B_m, dtype=float)
        self.C_m = np.asarray(self.C_m, dtype=float)
        self.x_hat0 = np.asarray(self.x_hat0, dtype=float)
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.T_s <= 0 or self.omega_c <= 0 or self.omega_L <= 0:
            raise ConfigurationError("T_s, omega_c, omega_L must be positive")
        if self.omega_0 < 0:
            raise ConfigurationError("omega_0 must be nonnegative")
        eig = np.linalg.eigvals(self.A_m)
        if np.any(eig.real >= 0):
            raise ConfigurationError(f"A_m is not Hurwitz: eigenvalues {eig}")
        self.k_g = feedforward_gain(self.A_m, self.B_m, self.C_m)
        # per-tick filter decay factors, exact pole mapping
        self._alpha_c = math.exp(-self.omega_c * self.T_s)
        self._alpha_L = math.exp(-self.omega_L * self.T_s)

    @property
    def n(self) -> int:
        return self.A_m.shape[0]

    @property
    def m(self) -> int:
        return self.B_m.shape[1]


@dataclass
class PrecomputedAdaptation:
    """Matrices of the sampled predictor and adaptation law, built once per
    (A_m, B_m, T_s).

    ``expAT`` and ``phi`` are ``exp(A_m T_s)`` and ``Phi(T_s)``, the
    predictor's exact map over one tick. ``gain @ xtilde`` reproduces
    ``-pinv(B_m) inv(Phi(T_s)) exp(A_m T_s) xtilde``; the composition is
    spot-checked against the factored formula at construction.
    """

    expAT: np.ndarray
    phi: np.ndarray
    gain: np.ndarray

    @classmethod
    def from_config(cls, cfg: ControllerConfig) -> "PrecomputedAdaptation":
        expAT = numerics.matrix_exponential(cfg.A_m, cfg.T_s)
        phi = numerics.phi_matrix(cfg.A_m, cfg.T_s)
        B_pinv = numerics.pseudo_inverse(cfg.B_m)
        gain = -B_pinv @ np.linalg.solve(phi, expAT)
        probe = np.arange(1.0, cfg.n + 1.0)
        direct = -B_pinv @ np.linalg.solve(phi, expAT @ probe)
        if not np.allclose(gain @ probe, direct, rtol=1e-12, atol=1e-12):
            raise ConfigurationError("adaptation gain failed its construction check")
        return cls(expAT=expAT, phi=phi, gain=gain)


@dataclass
class ControllerState:
    """Everything that evolves at the control rate.

    ``sigma_hat`` changes value only at sampling instants; ``f_L`` starts
    at zero; ``omega_filtered`` starts at the first commanded bandwidth.
    """

    x_hat: np.ndarray
    sigma_hat: np.ndarray
    f_L: np.ndarray
    omega_filtered: float
    c_state: np.ndarray

    @classmethod
    def initial(cls, cfg: ControllerConfig, e_f_hat0: float) -> "ControllerState":
        m = cfg.m
        omega0 = (
            bandwidth_command(e_f_hat0, cfg.omega_0, cfg.omega_c)
            if cfg.mode == "l1gp"
            else 0.0
        )
        return cls(
            x_hat=cfg.x_hat0.astype(float).copy(),
            sigma_hat=np.zeros(m),
            f_L=np.zeros(m),
            omega_filtered=omega0,
            c_state=np.zeros(m),
        )


def adaptation_step(
    state: ControllerState, x: np.ndarray, pre: PrecomputedAdaptation
) -> np.ndarray:
    """Piecewise-constant adaptive-estimate update, once per sampling instant."""
    state.sigma_hat = pre.gain @ (state.x_hat - x)
    return state.sigma_hat


def bandwidth_command(e_f_hat: float, omega_0: float, omega_c: float) -> float:
    """Commanded learning-filter bandwidth ``min(omega_0 / e_f_hat, omega_c)``.

    Clamped at omega_c, including the e_f_hat -> 0 limit; omega_0 = 0 pins
    the command at zero (filter disabled).
    """
    if e_f_hat < 0:
        raise ValueError("e_f_hat must be nonnegative")
    if omega_0 == 0.0:
        return 0.0
    return omega_0 / max(e_f_hat, omega_0 / omega_c)


def learning_filter_step(
    state: ControllerState,
    f_hat_x: np.ndarray,
    omega_hat: float,
    cfg: ControllerConfig,
) -> np.ndarray:
    """Advance the bandwidth lag and the learning filter by one tick.

    The commanded bandwidth passes through the slow first-order lag, then
    ``f_L`` relaxes toward the learned mean with the filtered bandwidth.
    Both updates hold their inputs over the tick, which makes the
    exponential maps exact for the piecewise-constant inputs they receive.
    """
    state.omega_filtered = omega_hat + (state.omega_filtered - omega_hat) * cfg._alpha_L
    decay = math.exp(-state.omega_filtered * cfg.T_s)
    state.f_L = f_hat_x + (state.f_L - f_hat_x) * decay
    return state.f_L


def control_step(
    state: ControllerState,
    x: np.ndarray,
    r: np.ndarray,
    cfg: ControllerConfig,
    pre: PrecomputedAdaptation,
    t: float,
) -> np.ndarray:
    """Filter update, control output, and predictor advance for one tick.

    Assumes adaptation_step (and, in learning mode, learning_filter_step)
    already ran this tick. The predictor ``x_hat' = A_m x_hat + B_m (f_L +
    sigma_hat + u)`` sees its input held over the tick, so it advances by
    the exact map ``x_hat+ = exp(A_m T_s) x_hat + Phi(T_s) B_m (f_L +
    sigma_hat + u)``. ``t`` is the tick's start time; the map does not
    depend on it.
    """
    v = state.sigma_hat - cfg.k_g @ r
    state.c_state = v + (state.c_state - v) * cfg._alpha_c
    u = -state.f_L - state.c_state
    drive = cfg.B_m @ (state.f_L + state.sigma_hat + u)
    state.x_hat = pre.expAT @ state.x_hat + pre.phi @ drive
    return u


@dataclass
class NormConditionReport:
    """Both sides of the filter-design inequality, for reporting."""

    satisfied: bool
    lhs: float
    rhs: float
    rho_r: float
    rho_in: float
    hc_kg_norm: float

    def as_dict(self) -> dict:
        return {
            "satisfied": bool(self.satisfied),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "rho_r": self.rho_r,
            "rho_in": self.rho_in,
            "hc_kg_norm": self.hc_kg_norm,
        }


def _real_eigensystem(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lam, V = np.linalg.eig(A)
    if np.max(np.abs(lam.imag)) > 1e-12:
        raise ConfigurationError(
            "norm-condition checker requires real eigenvalues of A_m"
        )
    lam = lam.real
    if np.any(lam >= 0):
        raise ConfigurationError("A_m must be Hurwitz")
    V = V.real
    W = np.linalg.inv(V)
    return lam, V, W


def _matrix_l1_norm(entry_norms: np.ndarray) -> float:
    """Induced-inf-norm style aggregate: max row sum of per-entry L1 norms."""
    return float(np.max(np.sum(entry_norms, axis=1)))


def l1_norm_condition(
    cfg: ControllerConfig,
    lip_f: float,
    b0: float,
    rho_r: float | None = None,
    r_inf: float = 0.0,
    rho_0: float = 0.0,
) -> NormConditionReport:
    """Evaluate the low-pass filter design inequality for the configuration.

    Per-entry impulse-response L1 norms are computed by quadrature from the
    modal partial fractions of ``H(s) = (sI - A_m)^{-1} B_m`` combined with
    the first-order filter, then aggregated as max row sums. The checker is
    a diagnostic: callers should warn, not abort, when it fails.

    ``rho_r`` defaults to ``2 |r|_inf |H C k_g| + rho_in + 1``.
    """
    lam, V, W = _real_eigensystem(cfg.A_m)
    n, m = cfg.n, cfg.m
    wc = cfg.omega_c
    WB = W @ cfg.B_m                       # modal input weights (n x m)
    kg = cfg.k_g

    # |H(s)(1 - C(s))| : modes lambda_k plus the filter pole -wc per entry
    hg_norms = np.zeros((n, m))
    # |H(s) C(s) k_g| : same pole set, different residues
    hck_norms = np.zeros((n, m))
    HCkg_res = np.einsum("ik,kj->ikj", V, WB @ kg)     # residues of (H k_g) modes
    H_res = np.einsum("ik,kj->ikj", V, WB)
    for i in range(n):
        for j in range(m):
            poles = []
            res_hg = []
            res_hck = []
            wc_accum_hg = 0.0
            wc_accum_hck = 0.0
            for k in range(n):
                R = H_res[i, k, j]
                Rk = HCkg_res[i, k, j]
                lk = lam[k]
                poles.append(lk)
                # (1/(s-l)) * (s/(s+wc)) -> l/(l+wc) at l, wc/(wc+l) at -wc
                res_hg.append(R * lk / (lk + wc))
                wc_accum_hg += R * wc / (wc + lk)
                # (1/(s-l)) * (wc/(s+wc)) -> wc/(l+wc) at l, -wc/(l+wc) at -wc
                res_hck.append(Rk * wc / (lk + wc))
                wc_accum_hck += -Rk * wc / (lk + wc)
            poles.append(-wc)
            res_hg.append(wc_accum_hg)
            res_hck.append(wc_accum_hck)
            hg_norms[i, j] = numerics.l1_norm_impulse(poles, res_hg)
            hck_norms[i, j] = numerics.l1_norm_impulse(poles, res_hck)
    lhs = _matrix_l1_norm(hg_norms)
    hck_norm = _matrix_l1_norm(hck_norms)

    # |s (sI - A_m)^{-1}| = |I + A_m (sI - A_m)^{-1}| : feedthrough + modes
    sin_norms = np.zeros((n, n))
    As_res = np.einsum("ik,k,kj->ikj", V, lam, W)
    for i in range(n):
        for j in range(n):
            sin_norms[i, j] = numerics.l1_norm_impulse(
                lam, As_res[i, :, j], feedthrough=1.0 if i == j else 0.0
            )
    rho_in = _matrix_l1_norm(sin_norms) * rho_0

    if rho_r is None:
        rho_r = 2.0 * r_inf * hck_norm + rho_in + 1.0
    denom = lip_f * rho_r + b0
    if denom <= 0.0:
        rhs = math.inf
    else:
        rhs = (rho_r - hck_norm * r_inf - rho_in) / denom
    return NormConditionReport(
        satisfied=lhs < rhs,
        lhs=lhs,
        rhs=rhs,
        rho_r=rho_r,
        rho_in=rho_in,
        hc_kg_norm=hck_norm,
    )
