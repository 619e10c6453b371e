"""Tests of the benchmark itself: span arithmetic, host speed, output checks,
metric names.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import re

import pytest

import hostspeed
import layers
import run
import workloads
from hostspeed import HostSpeed
from spans import Hook, SpanTable, Tracer

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    """Each reading advances time by one unit."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_time_subtracts_direct_children():
    tracer = Tracer(clock=FakeClock())
    inner = tracer.wrap("m.inner", lambda: None)
    middle = tracer.wrap("m.middle", lambda: inner())

    def outer_fn():
        middle()
        inner()

    outer = tracer.wrap("x.outer", outer_fn)
    outer()
    # readings: outer 1, middle 2, inner 3-4, middle 5, inner 6-7, outer 8
    table = SpanTable(tracer)
    assert table.total_s("x.outer") == 7.0
    assert table.total_s("m.middle") == 3.0
    assert table.total_s("m.inner") == 2.0
    assert table.self_s("x.outer") == 7.0 - 3.0 - 1.0
    assert table.self_s("m.middle") == 3.0 - 1.0
    assert table.self_s("m.inner") == 2.0
    assert table.layer_self_s("m") == 4.0
    # the inner call made from middle lies inside middle's span already
    assert table.layer_total_s("m") == 3.0 + 1.0
    assert table.layer_total_s("x") == 7.0
    assert table.self_time.sum() == table.total_s("x.outer")
    assert table.parent_is("m.inner", "m.middle").sum() == 1
    assert table.parent_is("m.inner", "x.outer").sum() == 1


def test_installed_hooks_pass_results_through_and_restore():
    class Box:
        def double(self, x):
            return 2 * x

    original = Box.__dict__["double"]
    tracer = Tracer()
    with tracer.installed([Hook("t.double", Box, "double", note=lambda a, r: r)]):
        assert Box().double(21) == 42
        with pytest.raises(TypeError):
            Box().double()
    assert Box.__dict__["double"] is original
    assert len(tracer) == 2
    assert tracer.notes["t.double"] == [(0, 42)]


def test_span_recorded_when_function_raises():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("t.boom", boom)()
    assert tracer._stack == [-1]
    assert SpanTable(tracer).total_s("t.boom") == 1.0


def test_tick_durations_group_by_adaptation_step():
    tracer = Tracer(clock=FakeClock())
    parts = [tracer.wrap(name, lambda: None) for name in layers.TICK_PARTS]
    for _ in range(3):
        for part in parts:
            part()
    ticks = layers.tick_durations(SpanTable(tracer))
    assert list(ticks) == [3.0, 3.0, 3.0]


def test_host_speed_factor_uses_the_trimmed_mean():
    durations = [1.0] * 8 + [0.5, 100.0]
    readings = iter([x for d in durations for x in (0.0, d)])
    speed = HostSpeed(clock=lambda: next(readings), wall=lambda: 0.0, kernel=lambda: None)
    speed.sample(len(durations))
    assert speed.samples == durations
    assert speed.spent_s == sum(durations)
    # a tenth of the samples is dropped at each end: 0.5 and 100
    assert speed.mean_s() == 1.0
    assert speed.factor() == hostspeed.REFERENCE_NOMINAL_S


def test_host_speed_samples_at_most_once_per_interval_and_restores():
    class Line:
        def push(self, x):
            return x + 1

    now = [0.0]
    speed = HostSpeed(clock=lambda: 0.0, wall=lambda: now[0], kernel=lambda: None)
    original = Line.__dict__["push"]
    with speed.sampling(Line, "push"):
        for i in range(10):
            now[0] = i * hostspeed.SAMPLE_EVERY_S / 4
            assert Line().push(i) == i + 1
    assert Line.__dict__["push"] is original
    # calls at 0, 1/4, ..., 9/4 intervals: samples at 0, 1 and 2 intervals
    assert len(speed.samples) == 3


SWITCH_FLAT = {"duration": 60.0, "learner.t_data": 1.0, "learner.n_update": 10,
               "plant.switch_time": 35.0}
DENSE_FLAT = {"learner.max_points": 512}


def _switch_manifest(switch_times=(35.0,), publishes=6, extra=()):
    events = [{"t": 0.0, "kind": "l1_condition"}]
    events += [{"t": 10.0 * (k + 1), "kind": "learner_published", "n_data": 6 + 10 * k}
               for k in range(publishes)]
    events += [{"t": t, "kind": "uncertainty_switch"} for t in switch_times]
    events += list(extra)
    return {"acceptance_flags": {"stable": True}, "events": events}


def test_switch_check_accepts_the_paper_scenario():
    assert workloads.check_switch(0, _switch_manifest(), SWITCH_FLAT) == []


@pytest.mark.parametrize("manifest, code", [
    (_switch_manifest(switch_times=()), 0),
    (_switch_manifest(switch_times=(30.0,)), 0),
    (_switch_manifest(switch_times=(35.0, 35.0)), 0),
    (_switch_manifest(publishes=5), 0),
    (_switch_manifest(extra=[{"t": 20.0, "kind": "learner_fit_failed"}]), 0),
    (_switch_manifest(), 3),
    (dict(_switch_manifest(), acceptance_flags={"stable": False}), 0),
])
def test_switch_check_rejects(manifest, code):
    assert workloads.check_switch(code, manifest, SWITCH_FLAT)


def test_dense_check():
    def manifest(n_last, failed=False):
        events = [{"kind": "learner_published", "n_data": 16},
                  {"kind": "learner_published", "n_data": n_last}]
        if failed:
            events.append({"kind": "learner_fit_failed"})
        return {"acceptance_flags": {"stable": True}, "events": events}

    assert workloads.check_dense_learner(0, manifest(512), DENSE_FLAT) == []
    assert workloads.check_dense_learner(0, manifest(511), DENSE_FLAT)
    assert workloads.check_dense_learner(0, manifest(512, failed=True), DENSE_FLAT)
    assert workloads.check_dense_learner(0, {"events": []}, DENSE_FLAT)


def test_margin_check():
    good = {"margin_s": 0.019000000000000003, "bracket": [0.019, 0.020000000000000004],
            "open_bracket": False}
    assert workloads.check_l1_margin(0, good) == []
    assert workloads.check_l1_margin(0, dict(good, margin_s=0.018))
    assert workloads.check_l1_margin(0, dict(good, bracket=[0.018, 0.02]))
    assert workloads.check_l1_margin(0, dict(good, open_bracket=True))
    assert workloads.check_l1_margin(4, good)
    assert workloads.check_l1_margin(0, {})


def _quality_dir(tmp_path, rows):
    """A simulate output directory with a 20 s summary and the given
    (ftrue, fhat, e_f) trace rows, the same value on each axis."""
    (tmp_path / "summary.json").write_text(
        json.dumps({"windows": {"10-20": {"err_ideal_norm": 0.25}}}))
    lines = ["t,ftrue1,ftrue2,ftrue3,fhat1,fhat2,fhat3,e_f_hat"]
    lines += [f"{i},{ft},{ft},{ft},{fh},{fh},{fh},{ef}" for i, (ft, fh, ef) in enumerate(rows)]
    (tmp_path / "trace.csv").write_text("\n".join(lines) + "\n")
    return str(tmp_path)


def test_loop_quality_counts_rows_outside_the_envelope(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    out = _quality_dir(tmp_path, [(1.0, 0.9, 0.2), (1.0, 0.5, 0.2), (0.0, 0.0, 0.0),
                                  (2.0, 1.0, 0.5)])
    q = workloads.loop_quality(out, {"duration": 20.0, "learner.enabled": True})
    assert q == {"err_ideal_late": 0.25, "envelope_violation_frac": 0.5,
                 "envelope_coverage_frac": 0.5}


def test_loop_quality_without_learner_requires_zero_estimate(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    flat = {"duration": 20.0, "learner.enabled": False}
    out = _quality_dir(tmp_path, [(1.0, 0.0, 0.0), (-2.0, 0.0, 0.0)])
    assert workloads.loop_quality(out, flat)["envelope_coverage_frac"] == 1.0
    for bad in ([(1.0, 0.1, 0.0)], [(1.0, 0.0, 0.1)]):
        with pytest.raises(ValueError):
            workloads.loop_quality(_quality_dir(tmp_path, bad), flat)


def test_deck_with_seed_replaces_only_the_top_level_seed():
    deck = "duration = 1.0\nseed = 12345\n\n[learner]\nseed_like = 3\n"
    assert workloads.deck_with_seed(deck, 7) == deck.replace("seed = 12345", "seed = 7")
    with pytest.raises(ValueError):
        workloads.deck_with_seed("[plant]\nj = 1\n", 7)


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.E2E_METRICS
    assert per_layer == layers.LAYER_METRICS
    assert set(spec["workloads"][i]["name"] for i in range(len(spec["workloads"]))) == set(
        workloads.WORKLOADS)
    for name in [*e2e, *per_layer, *workloads.WORKLOADS]:
        assert NAME_RE.fullmatch(name), name


def test_traced_and_sampled_runs_match_the_plain_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    import l1gp.cli

    text = (run.ROOT / "configs" / "switch.cfg").read_text()
    deck = tmp_path / "short.cfg"
    deck.write_text(text.replace("duration = 60.0", "duration = 2.0"))
    wl = workloads.Workload("short", "simulate", str(deck))
    code, _, _ = run.run_command(l1gp, wl, str(deck), tmp_path / "plain")
    tracer = Tracer()
    with tracer.installed(layers.hooks(l1gp)):
        traced_code, _, traced_s = run.run_command(l1gp, wl, str(deck), tmp_path / "traced")
    speed = HostSpeed()
    sampled_code, _, _ = run.run_command(l1gp, wl, str(deck), tmp_path / "sampled", speed)
    assert code == traced_code == sampled_code == 0
    assert run.same_outputs(wl, tmp_path / "plain", tmp_path / "traced")
    assert run.same_outputs(wl, tmp_path / "plain", tmp_path / "sampled")
    assert len(speed.samples) >= 2
    metrics = layers.layer_metrics(tracer, traced_s)
    assert set(metrics) == {k for k in layers.LAYER_METRICS if k not in (
        "trace.run_s", "trace.overhead_s", "trace.identical")}
    assert metrics["numerics.rk4_step.calls_per_step"] == 3.0
    assert metrics["scenario.steps"] == 2000.0
    assert abs(sum(metrics[f"{layer}.self_share"] for layer in layers.LAYERS) - 1.0) < 0.05
