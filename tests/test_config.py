"""Config key table and shipped decks: every key is used, every deck runs,
the stock builder matches the shipped decks, and README's CLI decks resolve."""

import dataclasses
import json
import pathlib

import pytest

from l1gp import cli, config as config_mod, scenario

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
    "learner.t_data": 0.5,
    "learner.n_update": 5,
    "learner.max_points": 100,
    "learner.sigma_n": 0.02,
    "kernel.sigma_f": 2.0,
    "kernel.length_scale": 0.5,
    "bound.kappa": 10.0,
    "bound.xi": 0.01,
    "bound.delta": 0.05,
    "bound.kappa_op": 3.0,
    "condition.check": False,
    "condition.l_f": 0.3,
    "condition.b0": 0.1,
    "condition.rho_0": 1.0,
    "condition.rho_r": 2.0,
}


# keys with one valid value, so none other to test: learner.gating and
# bound.grid_points stay in the table only because
# perfbench/dense_learner.cfg sets them, and learner.enabled's one value
# is the mode's (test_learner_enabled_follows_the_mode)
ONE_VALUE = {"learner.gating", "bound.grid_points", "learner.enabled"}


def test_every_table_key_has_a_test_value():
    assert set(NON_DEFAULT) == set(config_mod._KEYS) - ONE_VALUE


@pytest.mark.parametrize("mode", ["l1", "l1gp"])
def test_learner_enabled_follows_the_mode(mode):
    # a learner runs in mode l1gp and only there: the echo names it either
    # way, a deck may set it to that value only, and then sets nothing
    base = {**BASE, "controller.mode": mode}
    cfg, echo = config_mod.resolve_scenario(base)
    assert echo["learner.enabled"] is (mode == "l1gp")
    assert (cfg.learner is not None) is (mode == "l1gp")
    assert config_mod.resolve_scenario(echo) == (cfg, echo)
    with pytest.raises(config_mod.ConfigError, match=(
            r"^learner\.enabled = (True|False): a learner runs in mode l1gp "
            r"and only there, and controller\.mode is ")):
        config_mod.resolve_scenario({**base, "learner.enabled": mode == "l1"})


def test_gating_accepts_only_always():
    _, echo = config_mod.resolve_scenario(BASE)
    assert echo["learner.gating"] == "always"
    for value in ("improvement", "", True):
        with pytest.raises(config_mod.ConfigError,
                           match=r"^learner\.gating = .*: only 'always' is supported$"):
            config_mod.resolve_scenario({**BASE, "learner.gating": value})


def test_grid_points_accepts_only_21():
    # echoed only when a deck sets it; it sets nothing, so the config is
    # the one without it
    base_cfg, echo = config_mod.resolve_scenario(BASE)
    assert "bound.grid_points" not in echo
    for given in (21, 21.0):
        cfg, echo = config_mod.resolve_scenario({**BASE, "bound.grid_points": given})
        assert cfg == base_cfg
        assert type(echo["bound.grid_points"]) is int and echo["bound.grid_points"] == 21
        assert config_mod.resolve_scenario(echo)[1] == echo
    for value in (2, 11, 20, 22, -21, 21.5, True, "21", [21]):
        with pytest.raises(config_mod.ConfigError,
                           match=r"^bound\.grid_points = .*: only 21 is supported$"):
            config_mod.resolve_scenario({**BASE, "bound.grid_points": value})


@pytest.mark.parametrize("key", sorted(NON_DEFAULT))
def test_each_key_changes_the_config_and_round_trips(key):
    base_cfg, _ = config_mod.resolve_scenario(BASE)
    cfg, echo = config_mod.resolve_scenario({**BASE, key: NON_DEFAULT[key]})
    # a config is a value: == compares every field, nested configs included
    assert cfg != base_cfg
    again, echo2 = config_mod.resolve_scenario(echo)
    assert echo2 == echo
    assert again == cfg


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


# each shipped deck and the stock-builder call it stands for
STOCK_CALLS = {
    "l1_plain.cfg": dict(mode="l1", duration=20.0),
    "step_nominal.cfg": dict(),
    "sinusoid_learning.cfg": dict(reference_kind="sinusoid"),
    "switch.cfg": dict(reference_kind="sinusoid", switch_time=35.0),
}


@pytest.mark.parametrize("deck", sorted(ROOT.glob("configs/*.cfg")),
                         ids=lambda p: p.name)
def test_shipped_deck_matches_the_stock_builder(deck):
    deck_cfg, _ = config_mod.resolve_scenario(config_mod.parse_flat_file(str(deck)))
    stock_cfg = config_mod.quadrotor_nominal(**STOCK_CALLS[deck.name])
    assert deck_cfg == stock_cfg
    # the same loop, step for step, over the first second
    a = scenario.run(dataclasses.replace(deck_cfg, duration=1.0))
    b = scenario.run(dataclasses.replace(stock_cfg, duration=1.0))
    assert a.data.tobytes() == b.data.tobytes()
    assert a.events == b.events


def test_readme_cli_decks_resolve_and_compare_pair_matches():
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = [line.split() for line in block.splitlines() if line.startswith("l1gp ")]
    assert {words[1] for words in lines} == {
        "simulate", "margin", "bound-check", "compare"}
    for words in lines:
        decks = [w for w in words if w.endswith(".cfg")]
        assert decks, words
        cfgs = [config_mod.resolve_scenario(
            config_mod.parse_flat_file(str(ROOT / d)))[0] for d in decks]
        if words[1] == "compare":
            a, b = cfgs
            assert (a.duration, a.step) == (b.duration, b.step)
