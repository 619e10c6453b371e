"""scripts/long_run.py on a short run of a stock deck."""

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
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["t_final"] == 2.0
