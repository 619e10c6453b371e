"""Every config dataclass of ``l1gp`` is frozen: an edit is a new config
made by ``dataclasses.replace``, which reruns every check, so no derived
value can go stale against the fields it came from."""

import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest

import l1gp
from l1gp import config, controller as ctrl, plant, scenario

MODULES = ["l1gp"] + [
    f"l1gp.{info.name}" for info in pkgutil.iter_modules(l1gp.__path__)
]

# the dataclasses that are not configuration: a run's evolving state and
# its results
NOT_CONFIG = {
    "l1gp.controller.ControllerState",
    "l1gp.scenario.SimulationTrace",
    "l1gp.scenario.Snapshot",
    "l1gp.scenario.MarginResult",
}


def dataclasses_of_l1gp():
    """{qualified name: class} of every dataclass an l1gp module defines."""
    found = {}
    for name in MODULES:
        for obj in vars(importlib.import_module(name)).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == name):
                found[f"{name}.{obj.__qualname__}"] = obj
    return found


def test_every_config_dataclass_is_frozen():
    found = dataclasses_of_l1gp()
    assert NOT_CONFIG <= set(found), "NOT_CONFIG names a class that is gone"
    unfrozen = sorted(name for name, cls in found.items()
                      if name not in NOT_CONFIG
                      and not cls.__dataclass_params__.frozen)
    assert not unfrozen, f"config dataclasses not frozen: {unfrozen}"


def config_tree(cfg):
    """Every config object inside ``cfg``, itself included."""
    out = [cfg]
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            out += config_tree(value)
    return out


def test_assigning_any_field_raises():
    cfg = config.quadrotor_nominal(duration=1.0)
    parts = config_tree(cfg)
    # scenario, controller, plant, schedule, learner, kernel, bound,
    # reference, condition
    assert len(parts) == 9
    for part in parts:
        for f in dataclasses.fields(part):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(part, f.name, getattr(part, f.name))


def test_model_values_are_float_triples():
    # a per-axis value is held as a float 3-tuple, whatever it was given as
    cfg = config.quadrotor_nominal(duration=1.0)
    for part, name in [(cfg.controller, "a_m"), (cfg.controller, "b_m"),
                       (cfg.controller, "x_hat0"), (cfg.plant, "x0"),
                       (cfg.reference, "amplitude"), (cfg.reference, "frequency")]:
        value = getattr(part, name)
        assert type(value) is tuple and len(value) == 3, name
        assert all(type(v) is float for v in value), name
    edited = dataclasses.replace(cfg.plant, x0=np.array([0.1, 0.0, -0.2]))
    assert edited.x0 == (0.1, 0.0, -0.2)


@pytest.mark.parametrize("part, changes, error, match", [
    ("controller", {"omega_c": -1.0}, ctrl.ConfigurationError, "omega_c"),
    ("controller", {"a_m": (-3.0, 1.0, -3.0)}, ctrl.ConfigurationError, "Hurwitz"),
    ("plant", {"x0": (0.0, math.nan, 0.0)}, ValueError, "x0 must be 3 finite"),
    ("reference", {"amplitude": (1.0, math.inf, 1.0)}, ValueError, "amplitude"),
    ("condition", {"lip_f": -1.0}, ValueError, "l_f"),
    ("learner", {"T_data": 0.0}, ValueError, "T_data"),
], ids=["omega_c-negative", "a_m-not-hurwitz", "x0-nan",
        "amplitude-inf", "lip_f-negative", "T_data-zero"])
def test_replace_with_an_invalid_value_raises(part, changes, error, match):
    cfg = config.quadrotor_nominal(duration=1.0)
    with pytest.raises(error, match=match):
        dataclasses.replace(getattr(cfg, part), **changes)


INTEGER_FIELDS = [(None, "seed"), (None, "record_decimation"),
                  ("learner", "N_update"), ("learner", "max_points")]


def edit(cfg, part, changes):
    """``cfg`` (part None) or one of its parts, replaced with ``changes``."""
    return dataclasses.replace(cfg if part is None else getattr(cfg, part), **changes)


@pytest.mark.parametrize("part, name", INTEGER_FIELDS)
@pytest.mark.parametrize("bad", [2.5, True])
def test_integer_field_refuses_fractions_and_flags(part, name, bad):
    # int(2.5) is 2 and int(True) is 1: each was accepted, then failed or
    # ran on a value nobody gave
    cfg = config.quadrotor_nominal(duration=1.0)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        edit(cfg, part, {name: bad})


@pytest.mark.parametrize("part, name", INTEGER_FIELDS)
def test_integer_field_holds_a_python_int(part, name):
    # a whole float or a numpy integer is held as the int it stands for
    cfg = config.quadrotor_nominal(duration=1.0)
    for given in (3.0, np.int64(3)):
        value = getattr(edit(cfg, part, {name: given}), name)
        assert type(value) is int and value == 3


def test_uncertainty_segments_cannot_be_edited_in_place():
    # an assignment to a schedule's segments would leave its scalar fields,
    # which the engine reads, on the old kind: it raises instead, and the
    # edit goes through replace, whose run sees the new kind
    cfg = config.quadrotor_nominal(duration=1.0, mode="l1")
    schedule = cfg.plant.uncertainty
    with pytest.raises(dataclasses.FrozenInstanceError):
        schedule.segments = ((0.0, "zero"),)
    assert type(schedule.segments) is tuple
    zero = plant.UncertaintySchedule(((0.0, "zero"),))
    edited = dataclasses.replace(
        cfg, plant=dataclasses.replace(cfg.plant, uncertainty=zero))
    before, after = scenario.run(cfg), scenario.run(edited)
    assert np.max(np.abs(after.block("ftrue"))) == 0.0
    assert np.max(np.abs(before.block("ftrue"))) > 0.0
