"""Scenario decks and their resolution.

A deck is a TOML 1.0 file, read by the standard library's ``tomllib``;
its tables flatten to dotted keys (``j`` under ``[plant]`` is
``plant.j``). Each deck key is named once, in ``_KEYS``, with its type
and default. Resolution reads the deck through that table into the echo,
with every default the run will actually use, so the manifest can echo a
complete, re-runnable configuration; the config objects are built from
the echo. Any invalid value raises :class:`ConfigError`.
"""

from __future__ import annotations

import math
import tomllib
from typing import Optional

import numpy as np

from . import controller as ctrl
from . import numerics, plant as plant_mod, scenario

__all__ = ["ConfigError", "parse_flat_file", "resolve_scenario", "quadrotor_nominal"]


class ConfigError(ValueError):
    """Malformed or incomplete configuration; message names the problem field."""


def parse_flat_file(path: str) -> dict:
    """Parse a TOML deck into a flat {dotted.key: value} dict.

    Tables flatten to dotted names: ``j`` under ``[plant]`` is ``plant.j``.
    A deck that cannot be read or is not valid TOML, which includes one
    that defines a key twice, raises ConfigError naming the line.
    """
    try:
        with open(path, "rb") as fh:
            table = tomllib.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    return _flatten(table, "", {})


def _flatten(table: dict, prefix: str, flat: dict) -> dict:
    for key, value in table.items():
        name = prefix + key
        if isinstance(value, dict):
            _flatten(value, name + ".", flat)
        elif name in flat:
            # a quoted "plant.j" beside j under [plant]: TOML sees two keys
            raise ConfigError(f"{name} given twice")
        else:
            flat[name] = value
    return flat


def _float(value) -> float:
    # float("nan") and float(True) parse, yet neither is a number a deck means
    number = math.nan if isinstance(value, bool) else float(value)
    if not math.isfinite(number):
        raise ValueError("must be a finite number")
    return number


def _positive(value) -> float:
    number = _float(value)
    if not number > 0.0:
        raise ValueError("must be positive")
    return number


def _only(value):
    """The type of a key that accepts one value and sets nothing: it stays
    in the table so that a deck which sets it still parses."""
    def only(given):
        if given != value:
            raise ValueError(f"only {value!r} is supported")
        return value
    return only


def _vec3(value) -> list:
    if isinstance(value, (int, float)):
        return [_float(value)] * 3
    if np.shape(value) != (3,):
        raise ValueError("must be a scalar or a 3-element list")
    return [_float(v) for v in value]


def _bool(value) -> bool:
    # bool("false") is True: a quoted or misspelled flag must not pass
    if not isinstance(value, bool):
        raise ValueError("must be true or false")
    return value


def _int(value) -> int:
    return numerics.whole(value, "value")


_REQUIRED = object()

# deck key -> (type, default); a default of None is echoed only when the
# deck sets the key, _REQUIRED means the deck must set it
_KEYS = {
    "duration": (_float, 60.0),
    "step": (_float, 0.001),
    "seed": (_int, 12345),
    "record_decimation": (_int, 10),
    "blowup": (_float, 100.0),
    "reference.kind": (str, "step"),
    "reference.amplitude": (_vec3, 1.0),
    "reference.frequency": (_vec3, 0.5),
    "controller.mode": (str, "l1gp"),
    "controller.ts": (_float, 0.001),
    "controller.omega_c": (_float, 80.0),
    "controller.omega_l": (_float, 0.01),
    "controller.omega_0": (_float, 1.0),
    "controller.a_m": (_vec3, -3.0),
    "controller.x_hat0": (_vec3, 0.5),
    "plant.j": (_vec3, _REQUIRED),
    "plant.x0": (_vec3, 0.0),
    "plant.uncertainty": (str, "quadratic"),
    "plant.switch_time": (_positive, None),
    "plant.input_delay": (_float, 0.0),
    # follows controller.mode: a deck may set it only to mode == "l1gp"
    "learner.enabled": (_bool, None),
    "learner.t_data": (_float, 1.0),
    "learner.n_update": (_int, 10),
    # every successful refit publishes
    "learner.gating": (_only("always"), "always"),
    "learner.max_points": (_int, 512),
    "learner.sigma_n": (_float, 0.01),
    "kernel.sigma_f": (_float, 1.0),
    "kernel.length_scale": (_float, 1.0),
    "bound.kappa": (_float, 15.0),
    "bound.xi": (_float, 0.001),
    "bound.delta": (_float, 0.01),
    "bound.kappa_op": (_float, 5.0),
    "bound.grid_points": (_only(21), None),
    "condition.check": (_bool, True),
    "condition.l_f": (_float, 0.2),
    "condition.b0": (_float, 0.0),
    "condition.rho_0": (_float, None),
    "condition.rho_r": (_float, None),
}

# sections that only configure the learner: echoed only in mode l1gp
_LEARNER_KEYS = ("learner.", "kernel.", "bound.")


def resolve_scenario(flat: dict) -> tuple[scenario.ScenarioConfig, dict]:
    """Build a ScenarioConfig from a flat dict; returns (config, echo).

    The echo dict contains every key the run uses, including materialized
    defaults, so feeding it back through this function reproduces the run
    exactly.
    """
    unknown = set(flat) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    echo = {}
    for key, (kind, default) in _KEYS.items():
        value = flat.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"missing required config key: {key}")
        if value is not None:
            try:
                echo[key] = kind(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{key} = {value!r}: {exc}") from exc
    segments = ((0.0, echo["plant.uncertainty"]),)
    switch_time = echo.get("plant.switch_time")
    if switch_time is not None:
        segments += ((switch_time, "sine_switch"),)
    try:
        plant_cfg = plant_mod.PlantConfig(
            j=echo["plant.j"],
            x0=echo["plant.x0"],
            uncertainty=plant_mod.UncertaintySchedule(segments),
            input_delay=echo["plant.input_delay"],
            a_m=echo["controller.a_m"],
        )
        controller_cfg = ctrl.ControllerConfig(
            a_m=echo["controller.a_m"],
            b_m=tuple(1.0 / v for v in plant_cfg.j),
            T_s=echo["controller.ts"],
            omega_c=echo["controller.omega_c"],
            omega_L=echo["controller.omega_l"],
            omega_0=echo["controller.omega_0"],
            mode=echo["controller.mode"],
            x_hat0=echo["controller.x_hat0"],
        )
        learner_cfg = None
        l1gp = controller_cfg.mode == "l1gp"
        if echo.setdefault("learner.enabled", l1gp) != l1gp:
            raise ConfigError(
                f"learner.enabled = {echo['learner.enabled']}: a learner runs "
                f"in mode l1gp and only there, and controller.mode is "
                f"{controller_cfg.mode!r}")
        if l1gp:
            from . import gp, learner as learner_mod

            learner_cfg = learner_mod.LearnerConfig(
                T_data=echo["learner.t_data"],
                N_update=echo["learner.n_update"],
                max_points=echo["learner.max_points"],
                sigma_n=echo["learner.sigma_n"],
                kernel=gp.SeKernel(
                    sigma_f=echo["kernel.sigma_f"],
                    length_scale=echo["kernel.length_scale"],
                ),
                bound=gp.UniformBoundConfig(
                    kappa=echo["bound.kappa"],
                    xi=echo["bound.xi"],
                    delta=echo["bound.delta"],
                ),
                kappa_op=echo["bound.kappa_op"],
            )
        else:
            echo = {k: v for k, v in echo.items()
                    if k == "learner.enabled" or not k.startswith(_LEARNER_KEYS)}
        cfg = scenario.ScenarioConfig(
            controller=controller_cfg,
            plant=plant_cfg,
            learner=learner_cfg,
            reference=scenario.ReferenceConfig(
                kind=echo["reference.kind"],
                amplitude=echo["reference.amplitude"],
                frequency=echo["reference.frequency"],
            ),
            duration=echo["duration"],
            step=echo["step"],
            seed=echo["seed"],
            record_decimation=echo["record_decimation"],
            blowup=echo["blowup"],
            condition=scenario.ConditionParams(
                check=echo["condition.check"],
                lip_f=echo["condition.l_f"],
                b0=echo["condition.b0"],
                rho_0=echo.get("condition.rho_0"),
                rho_r=echo.get("condition.rho_r"),
            ),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg, echo


def quadrotor_nominal(
    mode: str = "l1gp",
    reference_kind: str = "step",
    uncertainty: str = "quadratic",
    duration: float = 60.0,
    switch_time: Optional[float] = None,
    seed: int = 12345,
    record_decimation: int = 10,
    input_delay: float = 0.0,
) -> scenario.ScenarioConfig:
    """Stock quadrotor rate-loop scenario, resolved as a deck.

    Inertia diag(0.011, 0.011, 0.021); every other constant is the default
    of its key in ``_KEYS``: desired dynamics -3 I, control filter bandwidth
    80 rad/s, bandwidth-law lag 0.01 rad/s, sampling period 1 ms, predictor
    offset initialization (0.5, 0.5, 0.5) and, in mode l1gp, the one mode
    with a learner, a learner at 1 Hz refitting every 10 samples with an
    unoptimized unit kernel. Each argument sets one deck key.
    """
    flat = {
        "plant.j": [0.011, 0.011, 0.021],
        "controller.mode": mode,
        "reference.kind": reference_kind,
        "plant.uncertainty": uncertainty,
        "duration": duration,
        "plant.switch_time": switch_time,
        "seed": seed,
        "record_decimation": record_decimation,
        "plant.input_delay": input_delay,
    }
    return resolve_scenario(flat)[0]
