"""CLI contract tests: exit codes, file formats, round trips, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import l1gp
from l1gp import cli, config as config_mod


NOMINAL = """
duration = 2.0
step = 0.001
seed = 777
record_decimation = 10

[reference]
kind = "step"
amplitude = [1.0, 1.0, 1.0]

[controller]
mode = "l1gp"
a_m = -3.0
x_hat0 = [0.5, 0.5, 0.5]

[plant]
j = [0.011, 0.011, 0.021]
uncertainty = "quadratic"

[condition]
check = false
"""

ZERO_CFG = """
duration = 1.0
seed = 1

[reference]
kind = "zero"

[controller]
mode = "l1"
x_hat0 = [0.0, 0.0, 0.0]

[plant]
j = [0.011, 0.011, 0.021]
uncertainty = "zero"

[learner]
enabled = false

[condition]
check = false
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_flat_file_round_trip(self, tmp_path):
        path = write(tmp_path, "a.cfg", NOMINAL)
        flat = config_mod.parse_flat_file(path)
        assert flat["duration"] == 2.0
        assert flat["plant.j"] == [0.011, 0.011, 0.021]
        assert flat["reference.kind"] == "step"
        cfg, echo = config_mod.resolve_scenario(flat)
        assert echo["controller.omega_c"] == 80.0  # default materialized
        cfg2, echo2 = config_mod.resolve_scenario(echo)
        assert echo2 == echo

    def test_missing_required_field(self, tmp_path):
        path = write(tmp_path, "bad.cfg", "duration = 1.0\n")
        flat = config_mod.parse_flat_file(path)
        with pytest.raises(config_mod.ConfigError, match="plant.j"):
            config_mod.resolve_scenario(flat)

    def test_unknown_key(self, tmp_path):
        path = write(tmp_path, "bad.cfg", "plant.j = [1,1,1]\nplant.mass = 2\n")
        flat = config_mod.parse_flat_file(path)
        with pytest.raises(config_mod.ConfigError, match="plant.mass"):
            config_mod.resolve_scenario(flat)

    def test_malformed_line(self, tmp_path):
        path = write(tmp_path, "bad.cfg", "this is not a key value pair\n")
        with pytest.raises(config_mod.ConfigError, match="line 1"):
            config_mod.parse_flat_file(path)


class TestSimulate:
    def test_exit_codes_and_outputs(self, tmp_path):
        cfg = write(tmp_path, "a.cfg", NOMINAL)
        out = tmp_path / "out"
        code = cli.main(["simulate", cfg, "-o", str(out)])
        assert code == cli.EXIT_OK
        for name in ("trace.csv", "events.csv", "summary.json", "manifest.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stable"] is True

    def test_missing_field_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.cfg", "duration = 1.0\n")
        code = cli.main(["simulate", cfg, "-o", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert "plant.j" in capsys.readouterr().err

    def test_zero_config_all_zero_columns(self, tmp_path):
        cfg = write(tmp_path, "zero.cfg", ZERO_CFG)
        out = tmp_path / "out"
        assert cli.main(["simulate", cfg, "-o", str(out)]) == cli.EXIT_OK
        data, header = cli.read_trace_csv(str(out / "trace.csv"))
        numeric = data[:, 1:]  # all columns except time
        assert np.max(np.abs(numeric)) == 0.0

    def test_csv_round_trip_full_precision(self, tmp_path):
        cfg = write(tmp_path, "a.cfg", NOMINAL)
        out = tmp_path / "out"
        cli.main(["simulate", cfg, "-o", str(out)])
        data, header = cli.read_trace_csv(str(out / "trace.csv"))
        from l1gp import scenario
        assert tuple(header) == scenario.TRACE_COLUMNS
        flat = config_mod.parse_flat_file(cfg)
        cfg_obj, _ = config_mod.resolve_scenario(flat)
        trace = scenario.run(cfg_obj)
        assert np.array_equal(data, trace.data)

    def test_manifest_reproduces_run(self, tmp_path):
        cfg = write(tmp_path, "a.cfg", NOMINAL)
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        cli.main(["simulate", cfg, "-o", str(out1)])
        manifest = json.loads((out1 / "manifest.json").read_text())
        echoed = manifest["config"]
        cfg2, _ = config_mod.resolve_scenario(echoed)
        from l1gp import scenario
        trace2 = scenario.run(cfg2)
        data1, _ = cli.read_trace_csv(str(out1 / "trace.csv"))
        assert np.array_equal(data1, trace2.data)
        assert manifest["tool_version"]
        assert manifest["seed"] == 777

    def test_unstable_exit_3(self, tmp_path):
        text = NOMINAL.replace('uncertainty = "quadratic"',
                               'uncertainty = "quadratic"\ninput_delay = 0.15')
        text = text.replace("duration = 2.0", "duration = 8.0")
        cfg = write(tmp_path, "unstable.cfg", text)
        out = tmp_path / "out"
        code = cli.main(["simulate", cfg, "-o", str(out)])
        assert code == cli.EXIT_UNSTABLE
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stable"] is False
        data, _ = cli.read_trace_csv(str(out / "trace.csv"))
        assert np.all(np.isfinite(data))


class TestBoundCheck:
    def test_prior_only_no_violations(self, tmp_path):
        cfg = write(tmp_path, "a.cfg", NOMINAL)
        out = tmp_path / "out"
        code = cli.main(["bound-check", cfg, "-o", str(out),
                         "--n-train", "0", "--n-probe", "200"])
        assert code == cli.EXIT_OK
        cov = json.loads((out / "coverage.json").read_text())
        assert cov["violation_fraction"] == 0.0
        assert cov["sqrt_beta"] == pytest.approx(8.509, abs=5e-4)

    def test_delta_monotonicity(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg1 = write(tmp_path, "d1.cfg", NOMINAL)
        cfg2 = write(tmp_path, "d2.cfg", NOMINAL + "\n[bound]\ndelta = 0.5\n")
        cli.main(["bound-check", cfg1, "-o", str(out1), "--n-train", "10",
                  "--n-probe", "50"])
        cli.main(["bound-check", cfg2, "-o", str(out2), "--n-train", "10",
                  "--n-probe", "50"])
        b1 = json.loads((out1 / "coverage.json").read_text())
        b2 = json.loads((out2 / "coverage.json").read_text())
        assert b2["sqrt_beta"] < b1["sqrt_beta"]

    def test_trained_coverage(self, tmp_path):
        cfg = write(tmp_path, "a.cfg", NOMINAL)
        out = tmp_path / "out"
        cli.main(["bound-check", cfg, "-o", str(out),
                  "--n-train", "50", "--n-probe", "500"])
        cov = json.loads((out / "coverage.json").read_text())
        assert cov["violation_fraction"] <= 0.01


class TestCompare:
    def test_identical_configs_ratio_one(self, tmp_path):
        cfg_a = write(tmp_path, "a.cfg", NOMINAL)
        cfg_b = write(tmp_path, "b.cfg", NOMINAL)
        out = tmp_path / "out"
        assert cli.main(["compare", cfg_a, cfg_b, "-o", str(out)]) == cli.EXIT_OK
        cmp_data = json.loads((out / "compare.json").read_text())
        for v in cmp_data["ratio_b_over_a"].values():
            assert v == pytest.approx(1.0, abs=0.0)

    def test_mismatched_durations_exit_2(self, tmp_path):
        cfg_a = write(tmp_path, "a.cfg", NOMINAL)
        cfg_b = write(tmp_path, "b.cfg", NOMINAL.replace("duration = 2.0",
                                                          "duration = 3.0"))
        code = cli.main(["compare", cfg_a, cfg_b, "-o", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG

    def test_learning_beats_plain_adaptation_at_slow_sampling(self, tmp_path):
        # the performance gap shows at a low adaptation rate (10 ms): with
        # 1 ms sampling the plain adaptive loop already cancels nearly
        # everything and the two modes tie
        def deck(mode, learner):
            return f"""
duration = 60.0
seed = 5
controller.mode = "{mode}"
controller.ts = 0.01
learner.enabled = {learner}

[reference]
kind = "sinusoid"

[plant]
j = [0.011, 0.011, 0.021]

[condition]
check = false
"""
        cfg_a = write(tmp_path, "a.cfg", deck("l1", "false"))
        cfg_b = write(tmp_path, "b.cfg", deck("l1gp", "true"))
        out = tmp_path / "out"
        assert cli.main(["compare", cfg_a, cfg_b, "-o", str(out)]) == cli.EXIT_OK
        cmp_data = json.loads((out / "compare.json").read_text())
        # pre-learning window: no separation yet
        assert 0.8 <= cmp_data["ratio_b_over_a"]["0-5"] <= 1.25
        # post-learning window: the learned feedforward wins
        late = cmp_data["ratio_b_over_a"]["50-60"]
        assert late < 1.0

    def test_compare_is_repeatable(self, tmp_path):
        # two runs of the same compare give the same result
        cfg_a = write(tmp_path, "a.cfg", NOMINAL)
        cfg_b = write(tmp_path, "b.cfg", NOMINAL)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cli.main(["compare", cfg_a, cfg_b, "-o", str(out1)])
        cli.main(["compare", cfg_a, cfg_b, "-o", str(out2)])
        j1 = json.loads((out1 / "compare.json").read_text())
        j2 = json.loads((out2 / "compare.json").read_text())
        assert j1["err_ideal_mean_a"] == j2["err_ideal_mean_a"]


class TestMargin:
    def test_margin_mechanics_short_horizon(self, tmp_path):
        cfg = write(tmp_path, "a.cfg", NOMINAL.replace('mode = "l1gp"',
                                                        'mode = "l1"'))
        out = tmp_path / "out"
        code = cli.main(["margin", cfg, "-o", str(out),
                         "--resolution", "0.004", "--horizon", "4.0"])
        assert code == cli.EXIT_OK
        res = json.loads((out / "margin.json").read_text())
        assert "margin_s" in res and "bracket" in res and res["candidates"]
        assert res["resolution_s"] == 0.004


def test_cli_import_leaves_out_scipy_signal():
    # scipy.signal alone costs most of the CLI's start-up time
    src = os.path.dirname(os.path.dirname(os.path.abspath(l1gp.__file__)))
    code = "import sys, l1gp.cli; print('scipy.signal' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
