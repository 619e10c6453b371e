"""CLI contract tests: exit codes, file formats, round trips, determinism."""

import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from array import array

import numpy as np
import pytest

import l1gp
from l1gp import cli, config as config_mod, scenario


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
"""


# a mode-l1 loop that a 150 ms input delay drives unstable at 0.37 s
UNSTABLE_L1 = """
duration = 20.0
controller.mode = "l1"
plant.j = [0.011, 0.011, 0.021]
plant.input_delay = 0.15
"""

# a loop at rest: every window mean is 0, and with l_f = 0 and b0 = 0 the
# norm condition's right side divides by 0
AT_REST = """
duration = 2.0
reference.kind = "zero"
controller.mode = "l1"
controller.x_hat0 = [0.0, 0.0, 0.0]
plant.j = [0.011, 0.011, 0.021]
plant.uncertainty = "zero"
condition.l_f = 0.0
"""

# an integer too large for a float
BIG = "1" + "0" * 400

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def refuse_large_buffers(monkeypatch):
    """Make the row buffer refuse any buffer of over 10**8 rows, as a host
    that cannot hold it would, before it is tried; returns the list of the
    row counts it refused."""
    refused = []

    class ZeroRow(array):
        def __mul__(self, rows):
            if rows > 10**8:
                refused.append(rows)
                raise MemoryError
            return array("d", self) * rows

    monkeypatch.setattr(scenario, "_ZERO_ROW", ZeroRow("d", scenario._ZERO_ROW))
    return refused


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

    @pytest.mark.parametrize("before, second, problem", [
        ("seed", "duration = 0.3", "Cannot overwrite a value (at line 4,"),
        ("[plant]", '[controller]\nmode = "l1gp"',
         "Cannot declare ('controller',) twice (at line 20,"),
        ("seed", 'controller.mode = "l1gp"',
         "Cannot declare ('controller',) twice (at line 12,"),
    ], ids=["duration", "controller-section", "controller-dotted"])
    def test_key_given_twice_exit_2(self, tmp_path, capsys, before, second, problem):
        # TOML names the line of the second definition
        with open(os.path.join(REPO, "configs", "l1_plain.cfg")) as fh:
            text = fh.read().replace(before, f"{second}\n{before}", 1)
        cfg = write(tmp_path, "twice.cfg", text)
        code = cli.main(["simulate", cfg, "-o", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, problem", [
        ("[plant]\nj = [0.011, 0.011, 0.021]\n[plant]\nx0 = 0.0\n",
         "Cannot declare ('plant',) twice (at line 4,"),
        ("plant.j = [0.011, 0.011, 0.021]\n[plant]\nx0 = 0.0\n",
         "Cannot declare ('plant',) twice (at line 3,"),
        ('"plant.j" = [1.0, 1.0, 1.0]\n[plant]\nj = [0.011, 0.011, 0.021]\n',
         "plant.j given twice"),
        ("plant.j = [0.011, 0.011, 0.021]\nseed = 1979-05-27\n",
         "seed = datetime.date(1979, 5, 27)"),
        ("plant.j = [0.011, 0.011, 0.021]\nrecord_decimation = 07:32:00\n",
         "record_decimation = datetime.time(7, 32)"),
        ("plant.j = [0.011, 0.011, 0.021]\nbound.grid_points = {a = 1}\n",
         "unknown config keys: ['bound.grid_points.a']"),
    ], ids=["section-twice", "dotted-beside-section", "quoted-dotted-key", "date",
            "time", "inline-table"])
    def test_toml_deck_refused_exit_2(self, tmp_path, capsys, text, problem):
        # what TOML adds to a deck: tables declared twice and typed values
        cfg = write(tmp_path, "bad.cfg", "duration = 0.1\n" + text)
        code = cli.main(["simulate", cfg, "-o", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_same_key_in_two_sections(self, tmp_path, capsys):
        # two keys: the run reads condition.l_f and refuses bound.l_f alone
        path = write(tmp_path, "a.cfg",
                     NOMINAL + "\n[condition]\nl_f = 3.0\n\n[bound]\nl_f = 2.0\n")
        flat = config_mod.parse_flat_file(path)
        assert flat["condition.l_f"] == 3.0 and flat["bound.l_f"] == 2.0
        code = cli.main(["simulate", path, "-o", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert "unknown config keys: ['bound.l_f']" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, key", [
        ("[bound]\nl_f = 0.0\n", "bound.l_f"),
        ("[bound]\ninclude_gamma = false\n", "bound.include_gamma"),
    ], ids=["l_f", "include_gamma"])
    def test_removed_bound_keys_exit_2(self, tmp_path, capsys, lines, key):
        # the envelope has no slack term: its Lipschitz bound and switch are gone
        path = write(tmp_path, "a.cfg", NOMINAL + lines)
        code = cli.main(["simulate", path, "-o", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


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

    @pytest.mark.parametrize("deck", ["missing.cfg", "a_directory", "latin1.cfg"])
    def test_unreadable_deck_exit_2(self, tmp_path, capsys, deck):
        (tmp_path / "a_directory").mkdir()
        (tmp_path / "latin1.cfg").write_bytes("duration = 1.0 # \xb0\n".encode("latin-1"))
        path = str(tmp_path / deck)
        code = cli.main(["simulate", path, "-o", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert f"cannot read config {path}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line, problem", [
        ('controller.mode = "foo"', "'foo'"),
        pytest.param('controller.mode = "pid"',
                     'controller.mode = \'pid\': must be "l1" or "l1gp"',
                     id='controller.mode = "pid"'),
        ('learner.gating = "sometimes"', "gating"),
        ('reference.kind = "ramp"', "reference kind"),
        ("kernel.sigma_f = 0", "sigma_f"),
        ("kernel.sigma_f = 1e200", "sigma_f**2 must be a normal, finite float"),
        ('plant.uncertainty = "cubic"', "'cubic'"),
        ("plant.j = [1, -1, 1]", "J must be"),
        ('controller.ts = "abc"', "controller.ts"),
        ("controller.mode = l1gp", "Invalid value (at line 3,"),
        ("plant.input_delay = 0.0005", "input_delay"),
        ('learner.enabled = "false"', "learner.enabled"),
        ("seed = 1.5", "seed"),
        ("record_decimation = 2.7", "record_decimation"),
        ("seed = true", "seed"),
        ("bound.grid_points = 3.5", "bound.grid_points"),
        ("bound.grid_points = 0", "only 21 is supported"),
        ("bound.grid_points = -4", "only 21 is supported"),
        ("bound.grid_points = 1", "only 21 is supported"),
        ("bound.kappa_op = 0", "kappa_op must be in"),
        ("bound.kappa_op = -1", "kappa_op must be in"),
        ("bound.kappa_op = 15.5", "kappa_op must be in"),
        ("plant.switch_time = 0.0505", "switch_time"),
        ("margin --resolution 0", "--resolution"),
        ("margin --resolution 0.0015", "--resolution"),
        ("margin --horizon 0", "--horizon"),
        ("margin --snapshot-time 0", "--snapshot-time"),
        ("margin --snapshot-time 0.0005", "--snapshot-time"),
        ("bound-check --n-train -1", "--n-train"),
        ("bound-check --n-probe 0", "--n-probe"),
        ("controller.omega_c = nan", "controller.omega_c"),
        ("bound.xi = nan", "bound.xi"),
        ("bound.kappa = inf", "bound.kappa"),
        ("kernel.length_scale = nan", "kernel.length_scale"),
        ("plant.x0 = [0, nan, 0]", "plant.x0"),
        ("duration = true", "duration"),
        ("seed = -1", "seed must be nonnegative"),
        ("condition.rho_0 = -1", "condition.rho_0"),
        ("condition.l_f = -1", "condition.l_f"),
        ("condition.b0 = -5", "condition.b0"),
        ("condition.rho_r = -3", "condition.rho_r"),
        ("blowup = nan", "blowup"),
        ("blowup = 0", "blowup must be positive"),
        ("blowup = -1", "blowup must be positive"),
        ("learner.max_points = 0", "max_points must be at least 1"),
        ('learner.gating = "improvement"', "learner.gating = 'improvement'"),
        ("learner.gamma_tol = 0.5", "unknown config keys: ['learner.gamma_tol']"),
        # the input delay acts on the adaptive input only
        ("plant.delay_total = true", "unknown config keys: ['plant.delay_total']"),
        ("plant.switch_time = 0.0", "plant.switch_time = 0.0: must be positive"),
        ("plant.switch_time = -1.0", "plant.switch_time = -1.0: must be positive"),
        pytest.param(f"duration = {BIG}",
                     f"duration = {BIG}: int too large to convert to float",
                     id="duration = 1e400 as an integer"),
        pytest.param(f"plant.x0 = [{BIG}, 0, 0]",
                     f"plant.x0 = [{BIG}, 0, 0]: int too large to convert to float",
                     id="plant.x0 = [1e400 as an integer, 0, 0]"),
        pytest.param(f"learner.max_points = {10**30}", "max_points must be at most",
                     id="learner.max_points = 10**30"),
        # a quoted number is a string, not a number
        ('duration = "2"', "duration = '2': must be a finite number"),
        ('plant.j = ["0.011", "0.011", "0.021"]',
         "plant.j = ['0.011', '0.011', '0.021']: must be a finite number"),
        # finite, on the step grid, but a trace no array can hold: refused
        # when the run allocates it, the margin's warm-up run included
        ("duration = 1e300", "duration 1e+300 at step 0.001 needs"),
        ("step = 1e-300", "duration 0.1 at step 1e-300 needs"),
        ("margin --snapshot-time 1e300", "duration 1e+300 at step 0.001 needs"),
    ])
    def test_invalid_value_exit_2(self, tmp_path, capsys, line, problem):
        # a deck line run by simulate, or a command's flag on a valid deck
        deck = {"duration": "0.1", "plant.j": "[0.011, 0.011, 0.021]"}
        command, *flags = line.split()
        if command not in ("margin", "bound-check"):
            # the line replaces the deck's own value of its key
            key, _, value = line.partition(" = ")
            command, flags, deck[key] = "simulate", [], value
        text = "".join(f"{key} = {value}\n" for key, value in deck.items())
        cfg = write(tmp_path, "bad.cfg", text)
        code = cli.main([command, cfg, "-o", str(tmp_path / "o"), *flags])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert problem in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_row_buffer_the_host_cannot_allocate_exit_2(self, tmp_path, capsys,
                                                         monkeypatch):
        # the 10**11-row buffer of duration = 1e9 can be addressed, but the
        # host cannot hold 26 TiB: the allocation is refused here, never tried
        refused = refuse_large_buffers(monkeypatch)
        cfg = write(tmp_path, "big.cfg",
                    "duration = 1e9\nplant.j = [0.011, 0.011, 0.021]\n")
        code = cli.main(["simulate", cfg, "-o", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert refused
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "duration 1000000000.0 at step 0.001 needs" in err
        assert "Traceback" not in err
        # the output directory is made only once the run has returned
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("threads", [None, "1"])
    def test_manifest_records_the_blas_setup(self, tmp_path, monkeypatch, threads):
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        if threads is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            monkeypatch.setenv("OMP_NUM_THREADS", "2")
        out = tmp_path / "out"
        assert cli.main(["simulate", write(tmp_path, "a.cfg", NOMINAL), "-o", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["runtime"] == {
            "numpy_version": np.__version__,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": None if threads is None else "2",
            "cpu_count": os.cpu_count(),
        }

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

    def test_abort_before_the_late_window_exit_3(self, tmp_path):
        # a 60 s run that aborts at 0.37 s writes every file, with the late
        # window's means null
        cfg = write(tmp_path, "unstable.cfg", UNSTABLE_L1.replace("20.0", "60.0"))
        out = tmp_path / "out"
        assert cli.main(["simulate", cfg, "-o", str(out)]) == cli.EXIT_UNSTABLE
        assert sorted(p.name for p in out.iterdir()) == [
            "events.csv", "manifest.json", "summary.json", "trace.csv"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stable"] is False and summary["t_final"] == 0.37
        windows = summary["windows"]
        assert all(math.isfinite(v) for v in windows["0-10"].values())
        assert windows["50-60"] == dict.fromkeys(windows["0-10"])

    @pytest.mark.parametrize("mode, enabled", [("l1", "true"), ("l1gp", "false")])
    def test_learner_against_the_mode_exit_2(self, tmp_path, capsys, mode, enabled):
        cfg = write(tmp_path, "a.cfg", NOMINAL.replace('mode = "l1gp"', f'mode = "{mode}"')
                    + f"\n[learner]\nenabled = {enabled}\n")
        code = cli.main(["simulate", cfg, "-o", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"learner.enabled = {enabled.title()}: a learner runs in mode l1gp" in err
        assert not (tmp_path / "o").exists()


class TestTraceCsv:
    SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
               1.7976931348623157e308, 0.1, 1.0, -3.0, 60.0, 12345.0)

    @staticmethod
    def trace(rows):
        data = np.random.default_rng(rows).normal(size=(rows, len(scenario.TRACE_COLUMNS)))
        if rows:
            # in the first row and the last
            data[0, : len(TestTraceCsv.SPECIAL)] = TestTraceCsv.SPECIAL
            data[-1, -len(TestTraceCsv.SPECIAL):] = TestTraceCsv.SPECIAL
        # packed row after row, as a run's row buffer holds them
        trace = scenario.SimulationTrace(values=memoryview(array("d", data.ravel())),
                                         events=[])
        assert trace.data.tobytes() == data.tobytes()
        return trace

    @pytest.mark.parametrize("rows", [0, 1, 31, 32, 33, 65])
    def test_bytes_of_savetxt(self, tmp_path, rows):
        trace = self.trace(rows)
        cli.write_trace_csv(trace, str(tmp_path / "trace.csv"))
        np.savetxt(tmp_path / "oracle.csv", trace.data, fmt="%.17g", delimiter=",",
                   header=",".join(trace.columns), comments="")
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_writing_holds_a_few_rows_at_a_time(self, tmp_path):
        # a writer that formats the whole trace at once peaks at 6 MB here
        trace = self.trace(3000)
        tracemalloc.start()
        try:
            cli.write_trace_csv(trace, str(tmp_path / "trace.csv"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        data, header = cli.read_trace_csv(str(tmp_path / "trace.csv"))
        assert header == list(scenario.TRACE_COLUMNS)
        assert np.array_equal(data, trace.data, equal_nan=True)


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

    def test_mode_l1_deck_exit_2(self, tmp_path, capsys):
        deck = os.path.join(REPO, "configs", "l1_plain.cfg")
        code = cli.main(["bound-check", deck, "-o", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert 'needs a learner, so controller.mode = "l1gp"' in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ill_conditioned_gram_exit_4(self, tmp_path, capsys):
        # a noise far below the kernel's scale: the Gram matrix of 200
        # points is singular in floats, the fit fails at pivot 21
        cfg = write(tmp_path, "a.cfg", "plant.j = [0.011, 0.011, 0.021]\n"
                    "learner.sigma_n = 1e-12\nkernel.length_scale = 200.0\n")
        out = tmp_path / "out"
        code = cli.main(["bound-check", cfg, "-o", str(out), "--n-train", "200"])
        assert code == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: Gram matrix not positive definite (pivot 21)")
        assert not out.exists()


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

    def test_abort_before_a_window_null_ratio(self, tmp_path):
        # run a aborts at 0.37 s: its late window has no row, so that
        # window's mean and ratio are null
        cfg_a = write(tmp_path, "a.cfg", UNSTABLE_L1)
        stable = UNSTABLE_L1.replace("plant.input_delay = 0.15\n", "")
        cfg_b = write(tmp_path, "b.cfg", stable)
        out = tmp_path / "out"
        assert cli.main(["compare", cfg_a, cfg_b, "-o", str(out)]) == cli.EXIT_OK
        cmp_data = json.loads((out / "compare.json").read_text())
        assert (cmp_data["stable_a"], cmp_data["stable_b"]) == (False, True)
        assert cmp_data["err_ideal_mean_a"]["10-20"] is None
        assert cmp_data["ratio_b_over_a"]["10-20"] is None
        assert all(math.isfinite(cmp_data["ratio_b_over_a"][k]) for k in ("0-5", "0-20"))

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


def test_every_json_file_is_strict_json(tmp_path):
    # JSON has no Infinity or NaN: a ratio over a zero mean and the norm
    # condition's infinite right side are written as null, in the JSON
    # files and in the detail column of events.csv
    def strict(path):
        def refuse(name):
            raise ValueError(f"{name} in {path.name}")
        return json.loads(path.read_text(), parse_constant=refuse)

    deck = write(tmp_path, "rest.cfg", AT_REST)
    sim, cmp = tmp_path / "sim", tmp_path / "cmp"
    assert cli.main(["simulate", deck, "-o", str(sim)]) == cli.EXIT_OK
    assert cli.main(["compare", deck, deck, "-o", str(cmp)]) == cli.EXIT_OK
    docs = {f"{d.name}/{p.name}": strict(p) for d in (sim, cmp) for p in d.glob("*.json")}
    assert sorted(docs) == ["cmp/compare.json", "cmp/manifest.json",
                            "sim/manifest.json", "sim/summary.json"]
    cond = next(e for e in docs["sim/manifest.json"]["events"] if e["kind"] == "l1_condition")
    assert cond["satisfied"] is True and cond["rhs"] is None
    events = (sim / "events.csv").read_text()
    assert "Infinity" not in events and "NaN" not in events
    row = next(r for r in events.splitlines() if ",l1_condition," in r)
    assert '"rhs": null' in row
    assert docs["cmp/compare.json"]["err_ideal_mean_a"] == {"0-2": 0.0}
    assert docs["cmp/compare.json"]["ratio_b_over_a"] == {"0-2": None}


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

    def test_l1_plain_margin_is_whole_steps(self, tmp_path):
        # the search runs on integer step counts: every delay is k * step.
        # It starts at the predicted 19.1 ms, rounded down to 19 steps
        deck = os.path.join(REPO, "configs", "l1_plain.cfg")
        out = tmp_path / "out"
        code = cli.main(["margin", deck, "-o", str(out), "--horizon", "20"])
        assert code == cli.EXIT_OK
        res = json.loads((out / "margin.json").read_text())
        assert res["margin_s"] == 0.019
        assert res["bracket"] == [0.019, 0.02]
        assert res["predicted_margin_s"] == math.pi / 160.0 - 0.0005
        assert res["candidates"] == [
            {"delay_s": 0.019, "stable": True},
            {"delay_s": 0.02, "stable": False},
        ]

    def test_margin_reads_whole_steps(self, tmp_path):
        # 9 * 0.001 is 0.009000000000000001 in floating point; each delay is
        # reported from its step count. At omega_c = 160 the search starts
        # at the predicted 9.3 ms, rounded down to 9 steps
        with open(os.path.join(REPO, "configs", "l1_plain.cfg")) as fh:
            deck = fh.read().replace("omega_c = 80.0\n", "omega_c = 160.0\n")
        out = tmp_path / "out"
        code = cli.main(["margin", write(tmp_path, "fast.cfg", deck), "-o", str(out),
                         "--horizon", "20"])
        assert code == cli.EXIT_OK
        res = json.loads((out / "margin.json").read_text())
        assert res["predicted_margin_s"] == math.pi / 320.0 - 0.0005
        assert res["margin_s"] == 0.01
        assert res["bracket"] == [0.01, 0.011]
        assert res["candidates"] == [
            {"delay_s": 0.009, "stable": True},
            {"delay_s": 0.01, "stable": True},
            {"delay_s": 0.012, "stable": False},
            {"delay_s": 0.011, "stable": False},
        ]

    def test_warm_up_buffer_the_host_cannot_allocate_exit_2(self, tmp_path, capsys,
                                                             monkeypatch):
        # the warm-up run of --snapshot-time 1e9 needs a 10**11-row buffer:
        # refused, never tried, and no output directory is left behind
        refused = refuse_large_buffers(monkeypatch)
        cfg = write(tmp_path, "a.cfg", "plant.j = [0.011, 0.011, 0.021]\n")
        code = cli.main(["margin", cfg, "-o", str(tmp_path / "o"),
                         "--snapshot-time", "1e9"])
        assert code == cli.EXIT_CONFIG
        assert refused
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "duration 1000000000.0 at step 0.001 needs" in err
        assert not (tmp_path / "o").exists()

    def test_row_count_of_a_huge_warm_up_in_short_form_exit_2(self, tmp_path, capsys):
        # 10**302 rows: past any address space, refused before an allocation
        # is tried, and named as 1e+302, not in 303 digits
        code = cli.main(["margin", os.path.join(REPO, "configs", "l1_plain.cfg"),
                         "-o", str(tmp_path / "o"), "--snapshot-time", "1e300"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200
        assert err.startswith("config error: duration 1e+300 at step 0.001 needs "
                              "1e+302 trace rows")

    def test_unstable_at_zero_delay_exits_4(self, tmp_path):
        cfg = write(tmp_path, "a.cfg", NOMINAL.replace('mode = "l1gp"', 'mode = "l1"')
                    .replace("[reference]", "blowup = 1e-6\n\n[reference]"))
        code = cli.main(["margin", cfg, "-o", str(tmp_path / "out"),
                         "--horizon", "0.1"])
        assert code == cli.EXIT_PRECONDITION


@pytest.mark.parametrize("command", ["simulate", "margin"])
def test_unsatisfied_norm_condition_is_one_warning_line(tmp_path, command):
    # the omega_c = 20 deck fails the norm condition: a fresh interpreter
    # prints one line for it, however many runs the command makes, and
    # the manifest holds the report, once
    spec = importlib.util.spec_from_file_location(
        "same_outputs", os.path.join(REPO, "scripts", "same_outputs.py"))
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    same_outputs.write_decks(tmp_path)
    deck = str(tmp_path / same_outputs.UNSATISFIED_DECK)
    flags = ["--horizon", "1"] if command == "margin" else []
    src = os.path.dirname(os.path.dirname(os.path.abspath(l1gp.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "l1gp.cli", command, deck, "-o", str(tmp_path / "o"), *flags],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert out.returncode == cli.EXIT_OK
    assert out.stderr.startswith(
        "warning: filter norm condition unsatisfied: lhs=6.504 >= rhs=3.333")
    assert out.stderr.count("\n") == 1
    events = json.loads((tmp_path / "o" / "manifest.json").read_text())["events"]
    reports = [e for e in events if e["kind"] == "l1_condition"]
    assert len(reports) == 1
    assert (reports[0]["t"], reports[0]["satisfied"]) == (0.0, False)
    assert round(reports[0]["lhs"], 2) == 6.50 and round(reports[0]["rhs"], 2) == 3.33


# a fresh interpreter runs the CLI and reports whether numpy, any scipy
# module and numpy's random generator were imported
PROBE = ("import sys, l1gp.cli; "
         "code = l1gp.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
         "print(code, 'numpy' in sys.modules, "
         "any(name.split('.')[0] == 'scipy' for name in sys.modules), "
         "'numpy.random' in sys.modules)")


@pytest.mark.parametrize("command, loads_numpy, loads_gp", [
    ("import", False, False),
    ("margin", False, False),
    ("margin snapshot", False, False),
    ("simulate l1", True, False),
    ("simulate l1 sinusoid", True, False),
    ("simulate l1gp", True, True),
    ("bound-check", True, True),
])
def test_numpy_and_scipy_load_only_where_arrays_are_read(tmp_path, command,
                                                         loads_numpy, loads_gp):
    # numpy loads only where arrays are read: the GP and the learner, a
    # simulate's summary and bound-check; so a mode-l1 margin, with or
    # without a warm-up run, never loads it. No command loads scipy: the
    # GP runs on numpy alone. numpy.random loads only for the learner's
    # noise and bound-check's samples
    src = os.path.dirname(os.path.dirname(os.path.abspath(l1gp.__file__)))
    l1gp_deck = NOMINAL.replace("duration = 2.0", "duration = 0.1")
    l1_deck = l1gp_deck.replace('mode = "l1gp"', 'mode = "l1"')
    l1_plain = os.path.join(REPO, "configs", "l1_plain.cfg")
    argv = {
        "import": [],
        "margin": ["margin", l1_plain, "--horizon", "0.1"],
        "margin snapshot": ["margin", l1_plain, "--horizon", "0.1",
                            "--snapshot-time", "0.5"],
        "simulate l1": ["simulate", write(tmp_path, "l1.cfg", l1_deck)],
        "simulate l1 sinusoid": ["simulate", write(tmp_path, "sin.cfg", l1_deck.replace(
            'kind = "step"', 'kind = "sinusoid"\nfrequency = [1.0, 0.5, 0.25]'))],
        "simulate l1gp": ["simulate", write(tmp_path, "l1gp.cfg", l1gp_deck)],
        "bound-check": ["bound-check", os.path.join(REPO, "configs", "step_nominal.cfg"),
                        "--n-probe", "20"],
    }[command]
    if argv:
        argv += ["-o", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split()[-4:] == ["0", str(loads_numpy), "False", str(loads_gp)]
    if argv:
        # the manifest names numpy's version only when the run loaded it
        runtime = json.loads((tmp_path / "out" / "manifest.json").read_text())["runtime"]
        assert (runtime["numpy_version"] is not None) == loads_numpy
        assert "scipy_version" not in runtime
