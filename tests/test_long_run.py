"""scripts/long_run.py on short runs of stock decks."""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "long_run.py"
spec = importlib.util.spec_from_file_location("long_run", SCRIPT)
long_run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(long_run)


def test_overrides_only_the_top_level_duration():
    deck = "# d\nduration = 60.0  # s\nstep = 0.001\n\n[learner]\nduration = 3\n"
    assert long_run.with_duration(deck, 2.5) == (
        "duration = 2.5\n# d\nstep = 0.001\n\n[learner]\nduration = 3\n"
    )


def test_short_run_reports_one_json_line(tmp_path, capsys):
    deck = str(REPO / "configs" / "step_nominal.cfg")
    code = long_run.main([deck, "--duration", "2", "-o", str(tmp_path)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    res = json.loads(lines[0])
    assert res["exit_code"] == 0 and res["duration_s"] == 2.0
    assert res["max_rss_mb"] > 0 and res["cpu_s"] > 0
    assert res["rtf"] == 2.0 / res["wall_s"]
    # a simulate writes its summary with numpy; no run loads scipy
    assert res["command"] == "simulate" and res["numpy_loaded"] is True
    assert res["scipy_loaded"] is False
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["t_final"] == 2.0


def test_margin_reports_its_candidates_and_no_numpy(tmp_path, capsys):
    # a mode-l1 margin search never imports numpy; its real-time factor
    # counts the horizon of every candidate it ran
    deck = str(REPO / "configs" / "l1_plain.cfg")
    code = long_run.main([deck, "--command", "margin", "--duration", "0.5",
                          "-o", str(tmp_path)])
    assert code == 0
    res = json.loads(capsys.readouterr().out)
    assert res["command"] == "margin" and res["numpy_loaded"] is False
    assert res["scipy_loaded"] is False
    margin = json.loads((tmp_path / "out" / "margin.json").read_text())
    assert margin["horizon_s"] == 0.5
    assert res["rtf"] == len(margin["candidates"]) * 0.5 / res["wall_s"]


def test_a_run_without_outputs_has_null_figures(tmp_path, capsys):
    deck = tmp_path / "bad.cfg"
    deck.write_text("duration = 1.0\n")  # plant.j missing: exit 2, no outputs
    code = long_run.main([str(deck), "--duration", "1", "-o", str(tmp_path / "w")])
    assert code == 2
    res = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert res["command"] == "simulate"
    assert res["rtf"] is None and res["numpy_loaded"] is None
    # the child still tells what it imported before it failed
    assert res["scipy_loaded"] is False
