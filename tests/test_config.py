"""Config key table and shipped decks: every key is used, every deck runs."""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from l1gp import cli, config as config_mod

ROOT = pathlib.Path(__file__).resolve().parents[1]
DECKS = sorted(ROOT.glob("configs/*.cfg")) + [ROOT / "perfbench" / "dense_learner.cfg"]

BASE = {"plant.j": [0.011, 0.011, 0.021], "duration": 1.0}

# a valid value for each key that differs from its default (or from BASE)
NON_DEFAULT = {
    "duration": 2.0,
    "step": 0.0005,
    "seed": 1,
    "record_decimation": 5,
    "blowup": 50.0,
    "reference.kind": "sinusoid",
    "reference.amplitude": 2.0,
    "reference.frequency": [1.0, 0.5, 0.25],
    "controller.mode": "l1",
    "controller.ts": 0.002,
    "controller.omega_c": 60.0,
    "controller.omega_l": 0.02,
    "controller.omega_0": 2.0,
    "controller.a_m": [-2.0, -3.0, -4.0],
    "controller.x_hat0": [0.1, 0.2, 0.3],
    "plant.j": [0.02, 0.02, 0.03],
    "plant.x0": [0.1, 0.0, 0.0],
    "plant.uncertainty": "zero",
    "plant.switch_time": 0.5,
    "plant.input_delay": 0.002,
    "plant.delay_total": True,
    "learner.enabled": False,
    "learner.t_data": 0.5,
    "learner.n_update": 5,
    "learner.gating": "improvement",
    "learner.gamma_tol": 0.5,
    "learner.max_points": 100,
    "learner.sigma_n": 0.02,
    "kernel.sigma_f": 2.0,
    "kernel.length_scale": 0.5,
    "bound.kappa": 10.0,
    "bound.xi": 0.01,
    "bound.delta": 0.05,
    "bound.l_f": 0.1,
    "bound.include_gamma": True,
    "bound.kappa_op": 3.0,
    "bound.grid_points": 11,
    "condition.check": False,
    "condition.l_f": 0.3,
    "condition.b0": 0.1,
    "condition.rho_0": 1.0,
    "condition.rho_r": 2.0,
}


def tree(obj):
    """A config as nested tuples, arrays as lists, so == compares values."""
    if dataclasses.is_dataclass(obj):
        return tuple((f.name, tree(getattr(obj, f.name)))
                     for f in dataclasses.fields(obj))
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        return tuple(tree(v) for v in obj)
    return obj


def test_every_table_key_has_a_test_value():
    assert set(NON_DEFAULT) == set(config_mod._KEYS)


@pytest.mark.parametrize("key", sorted(NON_DEFAULT))
def test_each_key_changes_the_config_and_round_trips(key):
    base_cfg, _ = config_mod.resolve_scenario(BASE)
    cfg, echo = config_mod.resolve_scenario({**BASE, key: NON_DEFAULT[key]})
    assert tree(cfg) != tree(base_cfg)
    again, echo2 = config_mod.resolve_scenario(echo)
    assert echo2 == echo
    assert tree(again) == tree(cfg)


@pytest.mark.parametrize("deck", DECKS, ids=lambda p: p.name)
def test_shipped_deck_resolves_round_trips_and_runs(deck, tmp_path):
    flat = config_mod.parse_flat_file(str(deck))
    _, echo = config_mod.resolve_scenario(flat)
    assert config_mod.resolve_scenario(echo)[1] == echo
    # the echo, written back as a deck, runs for 1 s
    short = {**echo, "duration": 1.0}
    path = tmp_path / deck.name
    path.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in short.items()))
    assert cli.main(["simulate", str(path), "-o", str(tmp_path / "out")]) == cli.EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["t_final"] == 1.0
