"""Adaptive rate controller: predictor, piecewise-constant adaptation, filters.

The controller owns the L1 law and its tick state, :class:`ControllerState`.
One code path serves the loop with and without a learner. The control is
``u = -f_L - C(s)(sigma_hat - k_g r)`` with ``C(s)`` a first-order
low-pass of bandwidth ``omega_c`` (the sign convention is fixed by the
requirement that a perfect estimate ``sigma_hat = f`` cancels the
uncertainty). With no learner ``f_L`` stays zero, which is the plain L1
loop. With one, ``f_L`` is a smoothed copy of the learned mean: it follows
the published model through a first-order lag whose bandwidth follows the
bandwidth law ``min(omega_0 / e_f_hat, omega_c)``, so it rises as the
learner's envelope ``e_f_hat`` shrinks. The trace also reports
``eta = C(s) sigma_hat``. The engine only calls :func:`adaptation_step`,
:func:`learning_filter_step` (with a learner) and :func:`control_step` in
turn.

Every linear update is discretized exactly per tick. The filters use the
pole mapping ``alpha = exp(-omega dt)``; with ``omega_c T_s = 0.08`` a
forward-Euler filter would be visibly lossy. The state predictor uses the
zero-order-hold map ``x_hat+ = exp(A_m T_s) x_hat + Phi(T_s) B_m drive``,
the same sampled-data map the adaptation gain
``-B_m^{-1} Phi(T_s)^{-1} exp(A_m T_s)`` is derived from.

``A_m`` and ``B_m`` are diagonal, given as the float 3-tuples ``a_m`` and
``b_m`` of their diagonals, and the output matrix is the identity, so
``k_g``, ``exp(A_m T_s)``, ``Phi(T_s)`` and the gain are diagonal too.
:class:`ControllerConfig` derives each once, per axis, as the float 3-tuple
of its diagonal, with no linear solve; each equals the diagonal of its
matrix formula bitwise. The tick runs on Python floats, with no numpy
call: the state is a set of float 3-tuples, and each product is three
scalar products ``0.0 + d_i v_i``, bitwise numpy's ``M @ v``. Products keep
the order of the array formulas (``B_m`` times the summed input, then
``Phi``), so the tick is bitwise the array computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import numerics

__all__ = [
    "ConfigurationError",
    "ControllerConfig",
    "ControllerState",
    "adaptation_step",
    "bandwidth_command",
    "learning_filter_step",
    "control_step",
    "l1_norm_condition",
]


class ConfigurationError(ValueError):
    """Controller configuration violates a construction invariant."""


@dataclass(frozen=True)
class ControllerConfig:
    """The loop's known model, rates and filter bandwidths.

    ``a_m`` and ``b_m`` are the diagonals of ``A_m`` and ``B_m``, the one
    copy of the model that the plant's field, the predictor, the ideal loop
    and the norm-condition report read, and ``x_hat0`` the predictor's
    initial state, each 3 finite values, held as a float 3-tuple; ``A_m``
    must be Hurwitz. Construction derives, per axis and as float 3-tuples,
    the feedforward gain ``k_g = -(A_m^{-1} B_m)^{-1}``, which makes the DC
    gain ``(-A_m)^{-1} B_m k_g`` of the desired loop the identity, and the
    constants of the tick: ``exp(A_m T_s)``, ``Phi(T_s)``, the adaptation
    gain and the filter decay factors. The config is frozen, so these
    cannot go stale: an edit goes through ``dataclasses.replace``, which
    reruns every check.
    ``omega_0 = 0`` disables the learning filter entirely (the commanded
    bandwidth is pinned at zero), so ``f_L`` stays zero whatever the learner
    publishes: a run with a learner is then the run without one bit for
    bit in every recorded signal but the model's reads ``fhat`` and
    ``e_f_hat``.
    """

    a_m: tuple
    b_m: tuple
    T_s: float = 0.001
    omega_c: float = 80.0
    omega_L: float = 0.01
    omega_0: float = 1.0
    x_hat0: tuple = (0.0, 0.0, 0.0)
    k_g: tuple = field(init=False)

    def __post_init__(self):
        # a chained comparison is false for nan as well
        if not all(0.0 < v < math.inf for v in (self.T_s, self.omega_c, self.omega_L)):
            raise ConfigurationError("T_s, omega_c, omega_L must be positive and finite")
        if not 0.0 <= self.omega_0 < math.inf:
            raise ConfigurationError("omega_0 must be nonnegative and finite")
        try:
            a, b, x_hat0 = (numerics.float3(getattr(self, name), name)
                            for name in ("a_m", "b_m", "x_hat0"))
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        if not all(d < 0.0 for d in a):
            raise ConfigurationError(f"A_m is not Hurwitz: diagonal {a}")
        # each constant is bitwise the diagonal of its dense formula, whose
        # LAPACK solves multiply by reciprocals; first A_m^{-1} B_m
        prod = tuple(bi * (1.0 / ai) for ai, bi in zip(a, b))
        if 0.0 in prod:
            raise ConfigurationError(f"A_m^{{-1}} B_m is singular: diagonal {prod}")
        k_g = tuple(-(1.0 / p) for p in prod)
        # the DC identity b k_g / -a = 1 needs a finite, nonzero k_g
        if not all(0.0 < abs(k) < math.inf for k in k_g):
            raise ConfigurationError(f"k_g must be finite and nonzero, got {k_g}")
        expAT, phi = numerics.zoh_map(a, self.T_s)
        if 0.0 in phi:
            raise ConfigurationError(f"Phi(T_s) is singular: diagonal {phi}")
        # -B_m^{-1} Phi^{-1} exp(A_m T_s)
        gain = tuple(-(1.0 / bi) * (e * (1.0 / p)) for bi, e, p in zip(b, expAT, phi))
        if not all(map(math.isfinite, gain)):
            raise ConfigurationError(f"adaptation gain is not finite: {gain}")
        derived = {
            "a_m": a, "b_m": b, "x_hat0": x_hat0, "k_g": k_g,
            "_expAT": expAT, "_phi": phi, "_gain": gain,
            # per-tick filter decay factors, exact pole mapping
            "_alpha_c": math.exp(-self.omega_c * self.T_s),
            "_alpha_L": math.exp(-self.omega_L * self.T_s),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)


_Vec3 = tuple[float, float, float]


@dataclass
class ControllerState:
    """Everything that evolves at the control rate, as float 3-tuples.

    ``sigma_hat`` changes value only at sampling instants; ``f_L`` starts
    at zero; ``omega_filtered`` starts at the first commanded bandwidth.
    ``c_state`` is ``C(s)(sigma_hat - k_g r)``, ``eta`` ``C(s) sigma_hat``
    and ``u`` the last command, each zero at first; ``e_f_hat`` is the
    envelope the last tick read, ``e_f_hat0`` before the first tick. A
    loop with no learner passes ``e_f_hat0 = None``: its bandwidth and
    envelope start, and stay, at zero.
    """

    x_hat: _Vec3
    sigma_hat: _Vec3
    f_L: _Vec3
    omega_filtered: float
    c_state: _Vec3
    eta: _Vec3
    u: _Vec3
    e_f_hat: float

    @classmethod
    def initial(cls, cfg: ControllerConfig,
                e_f_hat0: Optional[float]) -> "ControllerState":
        if e_f_hat0 is None:
            omega0 = e_f_hat0 = 0.0
        else:
            omega0 = bandwidth_command(e_f_hat0, cfg.omega_0, cfg.omega_c)
        zero = (0.0, 0.0, 0.0)
        return cls(x_hat=cfg.x_hat0, sigma_hat=zero, f_L=zero, omega_filtered=omega0,
                   c_state=zero, eta=zero, u=zero, e_f_hat=e_f_hat0)


def adaptation_step(
    state: ControllerState, x: Sequence[float], cfg: ControllerConfig
) -> _Vec3:
    """Piecewise-constant adaptive-estimate update, once per sampling instant:
    ``sigma_hat = gain @ (x_hat - x)``."""
    g0, g1, g2 = cfg._gain
    h0, h1, h2 = state.x_hat
    x0, x1, x2 = x
    state.sigma_hat = (0.0 + g0 * (h0 - x0), 0.0 + g1 * (h1 - x1), 0.0 + g2 * (h2 - x2))
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
    f_hat_x: Sequence[float],
    e_f_hat: float,
    cfg: ControllerConfig,
) -> _Vec3:
    """Advance the bandwidth lag and the learning filter by one tick, from
    the learned mean ``f_hat_x`` and envelope ``e_f_hat`` at the state.

    The envelope is stored in ``state.e_f_hat``, and the bandwidth law
    :func:`bandwidth_command` turns it into the commanded bandwidth, which
    passes through the slow first-order lag; then ``f_L`` relaxes toward
    the learned mean with the filtered bandwidth. Both updates hold their
    inputs over the tick, which makes the exponential maps exact for the
    piecewise-constant inputs they receive.
    """
    state.e_f_hat = e_f_hat
    omega_hat = bandwidth_command(e_f_hat, cfg.omega_0, cfg.omega_c)
    state.omega_filtered = omega_hat + (state.omega_filtered - omega_hat) * cfg._alpha_L
    decay = math.exp(-state.omega_filtered * cfg.T_s)
    f0, f1, f2 = f_hat_x
    l0, l1, l2 = state.f_L
    state.f_L = (
        f0 + (l0 - f0) * decay,
        f1 + (l1 - f1) * decay,
        f2 + (l2 - f2) * decay,
    )
    return state.f_L


def control_step(
    state: ControllerState,
    r: Sequence[float],
    cfg: ControllerConfig,
) -> _Vec3:
    """Filter updates, control output, and predictor advance for one tick;
    the command is stored in ``state.u`` and returned.

    Assumes adaptation_step (and, with a learner, learning_filter_step)
    already ran this tick. ``eta = C(s) sigma_hat`` follows
    ``eta+ = sigma_hat + (eta - sigma_hat) alpha_c``. The control filter
    state follows ``c+ = v + (c - v) alpha_c`` with
    ``v = sigma_hat - k_g r``, and ``u = -f_L - c+``. The predictor
    ``x_hat' = A_m x_hat + B_m (f_L + sigma_hat + u)`` sees its input held
    over the tick, so it advances by the exact map ``x_hat+ = exp(A_m T_s)
    x_hat + Phi(T_s) B_m (f_L + sigma_hat + u)``.
    """
    s0, s1, s2 = state.sigma_hat
    l0, l1, l2 = state.f_L
    c0, c1, c2 = state.c_state
    k0, k1, k2 = cfg.k_g
    r0, r1, r2 = r
    alpha = cfg._alpha_c
    n0, n1, n2 = state.eta
    state.eta = (s0 + (n0 - s0) * alpha, s1 + (n1 - s1) * alpha, s2 + (n2 - s2) * alpha)
    v0, v1, v2 = s0 - (0.0 + k0 * r0), s1 - (0.0 + k1 * r1), s2 - (0.0 + k2 * r2)
    c0 = v0 + (c0 - v0) * alpha
    c1 = v1 + (c1 - v1) * alpha
    c2 = v2 + (c2 - v2) * alpha
    state.c_state = (c0, c1, c2)
    u0, u1, u2 = -l0 - c0, -l1 - c1, -l2 - c2
    state.u = (u0, u1, u2)
    b0, b1, b2 = cfg.b_m
    e0, e1, e2 = cfg._expAT
    p0, p1, p2 = cfg._phi
    h0, h1, h2 = state.x_hat
    state.x_hat = (
        (0.0 + e0 * h0) + (0.0 + p0 * (0.0 + b0 * (l0 + s0 + u0))),
        (0.0 + e1 * h1) + (0.0 + p1 * (0.0 + b1 * (l1 + s1 + u1))),
        (0.0 + e2 * h2) + (0.0 + p2 * (0.0 + b2 * (l2 + s2 + u2))),
    )
    return state.u


def l1_norm_condition(
    cfg: ControllerConfig,
    lip_f: float,
    b0: float,
    rho_r: float | None = None,
    r_inf: float = 0.0,
    rho_0: float = 0.0,
) -> dict:
    """Evaluate the low-pass filter design inequality for the configuration.

    ``A_m``, ``B_m`` and ``k_g`` are diagonal, so each transfer matrix is
    too, and its L1 norm (the max row sum of its entries' impulse-response
    L1 norms) is the max over axes of one scalar norm, each in closed form.
    With ``a < 0`` and ``b`` axis i's entries and ``r = omega_c / |a|``:

    - ``b s / ((s - a)(s + omega_c))``, the entry of ``H(s)(1 - C(s))``:
      its impulse response changes sign once, at ``ln(r) / (omega_c - |a|)``,
      and integrates to zero, so its norm is ``2|b|/|a| r^(-r/(r-1))``
      (``2|b|/(e omega_c)`` at the double pole ``r = 1``);
    - ``H(s) C(s) k_g``: a positive impulse response, so its norm is its DC
      gain ``|b k_g / a|``;
    - ``s (sI - A_m)^{-1} = 1 + a/(s - a)``: norm 2.

    The checker is a diagnostic: callers should warn, not abort, when it
    fails. ``rho_r`` defaults to ``2 |r|_inf |H C k_g| + rho_in + 1``.
    Returns an ``l1_condition`` event's detail, both sides included.
    """
    lhs = hck_norm = 0.0
    for a, b, kg in zip(cfg.a_m, cfg.b_m, cfg.k_g):
        r = cfg.omega_c / -a
        x = r - 1.0
        # r^(-r/(r-1)) = exp(-r ln(r)/(r-1)); ln(r)/(r-1) -> 1 at r = 1
        log_ratio = math.log1p(x) / x if x else 1.0
        lhs = max(lhs, 2.0 * abs(b / a) * math.exp(-r * log_ratio))
        hck_norm = max(hck_norm, abs(b * kg / a))
    rho_in = 2.0 * rho_0

    if rho_r is None:
        rho_r = 2.0 * r_inf * hck_norm + rho_in + 1.0
    numerator = rho_r - hck_norm * r_inf - rho_in
    denom = lip_f * rho_r + b0
    # lhs < numerator / denom, multiplied out: a zero denominator holds
    # only when the numerator is positive
    rhs = numerator / denom if denom > 0.0 else math.copysign(math.inf, numerator)
    return {
        "satisfied": lhs * denom < numerator,
        "lhs": lhs,
        "rhs": rhs,
        "rho_r": rho_r,
        "rho_in": rho_in,
        "hc_kg_norm": hck_norm,
    }
