"""scripts/same_outputs.py's comparison, on small hand-made output directories."""

import importlib.util
import json
from pathlib import Path

import pytest

from l1gp import config, scenario

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_outputs.py"
spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)

TRACE = "t,x1,x2\n0,0.5,1\n0.01,0.25,2\n"
MANIFEST = '{\n  "seed": 1,\n  "wall_clock_s": %s,\n  "tool_version": "0.1.0"\n}\n'


def write(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def compare(tmp_path, parent, change):
    return same_outputs.compare_dirs(write(tmp_path / "parent", parent),
                                     write(tmp_path / "change", change))


def test_identical_directories(tmp_path):
    files = {"run/trace.csv": TRACE, "run/summary.json": '{"a": 1}\n'}
    assert compare(tmp_path, files, files) == []


def test_wall_clock_is_ignored(tmp_path):
    assert compare(tmp_path, {"run/manifest.json": MANIFEST % "1.25"},
                   {"run/manifest.json": MANIFEST % "0.5"}) == []


def test_any_other_manifest_byte_counts(tmp_path):
    other = MANIFEST.replace('"seed": 1', '"seed": 2')
    assert compare(tmp_path, {"run/manifest.json": MANIFEST % "1.25"},
                   {"run/manifest.json": other % "1.25"}) == [
        "run/manifest.json: differs", "  seed: 1 -> 2, relative difference 1"]
    # the wall-clock blank is for manifests only
    assert compare(tmp_path / "2", {"run/summary.json": MANIFEST % "1.25"},
                   {"run/summary.json": MANIFEST % "0.5"}) == [
        "run/summary.json: differs",
        "  wall_clock_s: 1.25 -> 0.5, relative difference 0.6"]


def test_json_names_each_dotted_key_that_differs(tmp_path):
    # a moved number prints both values in full and its difference relative
    # to the parent's; a flag, a string or a list is not a number
    parent = {"config": {"bound.l_f": 0.0, "bound.xi": 0.001, "seed": 1},
              "gamma": 0.0, "n": 1, "nan": float("nan"), "v": [1, 2],
              "err": 0.3, "to_nan": 1.0, "zero": 0, "flag": True, "name": "a"}
    change = {"config": {"bound.xi": 0.001, "seed": 2}, "n": 1.0,
              "nan": float("nan"), "v": [1, 3], "new": {},
              "err": 0.1 + 0.2, "to_nan": float("nan"), "zero": 0.5, "flag": 1,
              "name": "b"}
    assert compare(tmp_path, {"run/coverage.json": json.dumps(parent)},
                   {"run/coverage.json": json.dumps(change)}) == [
        "run/coverage.json: differs",
        "  config.bound.l_f: only in parent",
        "  config.seed: 1 -> 2, relative difference 1",
        "  err: 0.3 -> 0.30000000000000004, relative difference 1.85e-16",
        "  flag: changed",
        "  gamma: only in parent",
        "  n: 1 -> 1.0, relative difference 0",
        "  name: changed",
        "  new: only in change",
        "  to_nan: 1.0 -> NaN, relative difference nan",
        "  v: changed",
        "  zero: 0 -> 0.5, relative difference inf",
    ]


def test_json_same_values_in_other_text_or_not_json(tmp_path):
    assert compare(tmp_path, {"a.json": '{"a": 1, "b": 2}'},
                   {"a.json": '{"b": 2, "a": 1}'}) == [
        "a.json: differs", "  same values, different text"]
    assert compare(tmp_path / "2", {"a.json": '{"a": 1}'}, {"a.json": '{"a": '}) == [
        "a.json: differs", "  not JSON"]


def test_csv_reports_the_largest_difference_per_column(tmp_path):
    moved = "t,x1,x2\n0,0.5,1\n0.01,0.75,2\n"
    assert compare(tmp_path, {"run/trace.csv": TRACE}, {"run/trace.csv": moved}) == [
        "run/trace.csv: differs",
        "  x1: max |diff| 0.5 in 1 rows, parent max |value| 0.5",
    ]


def test_csv_scale_is_the_parents_largest_value_in_the_column(tmp_path):
    # over every row of the parent's column, moved or not, negative or not,
    # with empty cells left out; the change's values play no part
    parent = "t,x1,x2\n0,-3,1\n0.01,0.25,\n0.02,1,2\n"
    change = "t,x1,x2\n0,-3,1\n0.01,0.5,\n0.02,1,-40\n"
    assert compare(tmp_path, {"trace.csv": parent}, {"trace.csv": change}) == [
        "trace.csv: differs",
        "  x1: max |diff| 0.25 in 1 rows, parent max |value| 3",
        "  x2: max |diff| 42 in 1 rows, parent max |value| 2",
    ]


EVENTS = ("t,kind,update_index,e_f_hat,n_data,detail\n"
          "10,learner_published,1,8.5,6,\n"
          '35,uncertainty_switch,,,,{"segment": 1}\n')


def test_csv_with_text_columns_compares_each_column(tmp_path):
    # the numeric columns of an events.csv are compared by value, the text
    # columns by their cells
    moved = EVENTS.replace("8.5", "8.4")
    assert compare(tmp_path, {"run/events.csv": EVENTS}, {"run/events.csv": moved}) == [
        "run/events.csv: differs",
        "  e_f_hat: max |diff| 0.1 in 1 rows, parent max |value| 8.5",
    ]
    renamed = EVENTS.replace("uncertainty_switch", "switch").replace("1}", "2}")
    assert compare(tmp_path / "2", {"events.csv": EVENTS}, {"events.csv": renamed}) == [
        "events.csv: differs",
        "  kind: text differs in 1 rows",
        "  detail: text differs in 1 rows",
    ]
    assert compare(tmp_path / "3", {"events.csv": EVENTS},
                   {"events.csv": EVENTS.replace(",6,", ",6.0,")}) == [
        "events.csv: differs",
        "  same numbers, different text",
    ]


def test_csv_rows_of_unequal_length(tmp_path):
    assert compare(tmp_path, {"trace.csv": TRACE},
                   {"trace.csv": TRACE.replace("0,0.5,1", "0,0.5")}) == [
        "trace.csv: differs",
        "  rows of unequal length",
    ]


def test_csv_same_numbers_in_other_text(tmp_path):
    assert compare(tmp_path, {"run/trace.csv": TRACE},
                   {"run/trace.csv": TRACE.replace("0.5", "5e-1")}) == [
        "run/trace.csv: differs",
        "  same numbers, different text",
    ]


def test_csv_shape_and_header_changes(tmp_path):
    assert compare(tmp_path, {"trace.csv": TRACE}, {"trace.csv": TRACE + "0.02,0,3\n"}) == [
        "trace.csv: differs",
        "  shapes differ: (2, 3) vs (3, 3)",
    ]
    assert compare(tmp_path / "2", {"trace.csv": TRACE},
                   {"trace.csv": TRACE.replace("x2", "x3")}) == [
        "trace.csv: differs",
        "  headers differ",
    ]


def test_a_file_on_one_side_only(tmp_path):
    events = "t,kind\n"
    assert compare(tmp_path, {"a/events.csv": events}, {"b/events.csv": events}) == [
        "a/events.csv: only in parent",
        "b/events.csv: only in change",
    ]


def test_runs_cover_every_deck(tmp_path):
    write(tmp_path, {"configs/b.cfg": "", "configs/a.cfg": ""})
    runs = same_outputs.runs(tmp_path, tmp_path / "decks")
    assert [name for name, _ in runs] == [
        "simulate-a", "simulate-b", "simulate-dense_learner", "margin-l1_plain",
        "margin-step_nominal-snapshot30", "bound-check-step_nominal",
        "simulate-anisotropic", "margin-anisotropic", "simulate-off_grid_rows",
        "simulate-unstable_l1", "simulate-unsatisfied_condition",
        "compare-l1_plain-anisotropic", "compare-l1_plain-unstable",
    ]
    decks = tmp_path / "decks"
    aniso = str(decks / same_outputs.ANISOTROPIC_DECK)
    unstable = str(decks / same_outputs.UNSTABLE_DECK)
    assert runs[-7][1] == ["simulate", aniso]
    assert runs[-6][1] == ["margin", aniso, "--horizon", "5"]
    assert runs[-5][1] == ["simulate", str(decks / same_outputs.OFF_GRID_DECK)]
    assert runs[-4][1] == ["simulate", unstable]
    assert runs[-3][1] == ["simulate", str(decks / same_outputs.UNSATISFIED_DECK)]
    assert runs[-2][1] == ["compare", "configs/l1_plain.cfg", aniso]
    assert runs[-1][1] == ["compare", "configs/l1_plain.cfg", unstable]


def test_anisotropic_deck_differs_on_every_axis(tmp_path):
    # a swap of any two axes of any per-axis value changes the config
    same_outputs.write_decks(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [same_outputs.ANISOTROPIC_DECK, same_outputs.OFF_GRID_DECK,
         same_outputs.UNSTABLE_DECK, same_outputs.UNSATISFIED_DECK])
    cfg, echo = config.resolve_scenario(
        config.parse_flat_file(str(tmp_path / same_outputs.ANISOTROPIC_DECK)))
    per_axis = [cfg.controller.a_m, cfg.controller.b_m, cfg.controller.x_hat0,
                cfg.plant.j, cfg.plant.x0, cfg.reference.amplitude,
                cfg.reference.frequency]
    for value in per_axis:
        assert len(set(value)) == 3, value
    assert cfg.reference.kind == "sinusoid" and cfg.learner is not None
    assert (cfg.duration, cfg.seed, cfg.learner.T_data) == (20.0, 7, 0.5)
    assert cfg.plant.uncertainty.switch_times == (12.0,)


def test_off_grid_deck_records_rows_on_and_off_the_tick_grid(tmp_path):
    # a row every 5 steps against a tick every 2: the rows alternate
    # between a step that starts a tick and one that does not
    same_outputs.write_decks(tmp_path)
    cfg, _ = config.resolve_scenario(
        config.parse_flat_file(str(tmp_path / same_outputs.OFF_GRID_DECK)))
    assert cfg.controller.mode == "l1gp" and cfg.learner is not None
    assert (cfg.ts_every, cfg.record_decimation) == (2, 5)
    row_steps = range(0, cfg.n_steps + 1, cfg.record_decimation)
    assert {k % cfg.ts_every for k in row_steps} == {0, 1}


def test_unstable_deck_aborts_before_its_late_window(tmp_path):
    # simulate's summary windows are [0, 10] and [10, 20]: the run stops
    # in the first, so the second has no row
    same_outputs.write_decks(tmp_path)
    cfg, echo = config.resolve_scenario(
        config.parse_flat_file(str(tmp_path / same_outputs.UNSTABLE_DECK)))
    assert cfg.learner is None and echo["learner.enabled"] is False
    trace = scenario.run(cfg)
    assert trace.unstable and trace.t[-1] == 0.37


def test_unsatisfied_deck_fails_the_norm_condition(tmp_path):
    # lhs 6.50 >= rhs 3.33 at 20 rad/s: the run warns, logs the report at
    # t = 0 as unsatisfied and stays stable
    same_outputs.write_decks(tmp_path)
    cfg, _ = config.resolve_scenario(
        config.parse_flat_file(str(tmp_path / same_outputs.UNSATISFIED_DECK)))
    assert cfg.learner is None and cfg.controller.omega_c == 20.0
    with pytest.warns(UserWarning, match="unsatisfied"):
        trace = scenario.run(cfg)
    report = trace.events[0]
    assert (report["t"], report["kind"], report["satisfied"]) == (0.0, "l1_condition", False)
    assert round(report["lhs"], 2) == 6.50 and round(report["rhs"], 2) == 3.33
    assert not trace.unstable and trace.t[-1] == 10.0


STUB_CLI = """\
import sys
from pathlib import Path
out = Path(sys.argv[sys.argv.index("-o") + 1])
out.mkdir(parents=True)
(out / "summary.json").write_text("{{}}")
print({message!r}, file=sys.stderr)
print("from", __file__, file=sys.stderr)
"""


def stub_tree(root, message):
    """A tree whose ``l1gp.cli`` writes one output file and prints
    ``message`` and its own path to standard error."""
    return write(root, {"src/l1gp/__init__.py": "",
                        "src/l1gp/cli.py": STUB_CLI.format(message=message)})


@pytest.mark.parametrize("change_message, code", [
    ("warning: norm condition unsatisfied", 0),
    ("warning: the norm condition fails", 1),
])
def test_a_run_whose_stderr_differs_fails_the_check(
        tmp_path, monkeypatch, capsys, change_message, code):
    # same files and exit status on both sides: only the message differs;
    # each side's source path is its own, which the check does not count
    monkeypatch.setattr(same_outputs, "runs",
                        lambda tree, deck_dir: [("simulate-x", ["simulate", "x.cfg"])])
    parent = stub_tree(tmp_path / "parent", "warning: norm condition unsatisfied")
    change = stub_tree(tmp_path / "change", change_message)
    assert same_outputs.main([str(parent), str(change)]) == code
    out = capsys.readouterr().out.splitlines()
    if code:
        assert out == ["simulate-x: stderr differs",
                       "  - warning: norm condition unsatisfied",
                       "  + warning: the norm condition fails",
                       "3 difference lines"]
    else:
        assert out == ["outputs identical"]


def test_run_diffs_names_exit_status_and_stderr():
    parent = {"a": (0, "warning: x\n"), "b": (2, "")}
    change = {"a": (0, "warning: x\n"), "b": (0, "error: y\n")}
    assert same_outputs.run_diffs(parent, change) == [
        "b: exit 2 vs 0", "b: stderr differs", "  + error: y"]
