"""Which ``l1gp`` functions the traced run wraps, and the per-layer metrics.

A layer is one module of ``src/l1gp``. The hooks cover the calls a run
makes at each layer boundary; everything a layer does outside them is
counted as self time of the enclosing span. ``LAYER_METRICS`` maps each
metric to its unit; README.md says which end-to-end metric it should
move, on which workload.
"""

from __future__ import annotations

import os

import numpy as np

from spans import Hook, SpanTable, Tracer

LAYERS = ("numerics", "plant", "controller", "gp", "learner", "scenario", "cli", "config")

TICK_PARTS = ("controller.adaptation_step", "controller.learning_filter_step",
              "controller.control_step")

# name -> unit, in the order they are reported
LAYER_METRICS = {
    "numerics.rk4_step.calls_per_step": "count",
    "numerics.rk4_step.self_s": "s",
    "numerics.rk4_step.predictor.self_s": "s",
    "numerics.rk4_step.loop.self_s": "s",
    "numerics.estimate_derivative.self_s": "s",
    "numerics.solve_with_factor.self_s": "s",
    "plant.plant_derivative.calls": "count",
    "plant.plant_derivative.self_s": "s",
    "plant.DelayLine.push.self_s": "s",
    "controller.tick.p50_us": "us",
    "controller.tick.p99_us": "us",
    "controller.control_step.self_s": "s",
    "gp.point_eval.calls": "count",
    "gp.point_eval.p50_us": "us",
    "gp.point_eval.p99_us": "us",
    "gp.point_eval.mean_n": "count",
    "gp.uniform_bound_grid_max.p50_ms": "ms",
    "gp.uniform_bound_grid_max.max_ms": "ms",
    "gp.predict_batch.self_s": "s",
    "gp.fit.max_ms": "ms",
    "gp.mean_at.self_s": "s",
    "learner.maybe_update.max_ms": "ms",
    "learner.reconstruct_ready.self_s": "s",
    "learner.refits": "count",
    "learner.published": "count",
    "learner.fit_failed": "count",
    "learner.publish_ratio": "ratio",
    "learner.n_data_final": "count",
    "scenario.Engine.run.self_s": "s",
    "scenario.steps": "count",
    "scenario.margin.candidates": "count",
    "scenario.margin.candidate_sim_s": "s",
    "cli.write_trace_csv.s": "s",
    "cli.trace_bytes": "bytes",
    "config.resolve_scenario.s": "s",
    **{f"{layer}.self_share": "fraction" for layer in LAYERS},
    **{f"{layer}.total_share": "fraction" for layer in LAYERS},
    "trace.spans": "count",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.identical": "count",
}


def hooks(l1gp) -> list[Hook]:
    """Every wrapped function of the ``l1gp`` package passed in."""
    n, p, c, g, lrn, s = (l1gp.numerics, l1gp.plant, l1gp.controller, l1gp.gp,
                          l1gp.learner, l1gp.scenario)
    cli, cfg = l1gp.cli, l1gp.config

    def sim_seconds(args, _result):
        engine = args[0]
        return engine.t_final - engine.t0

    return [
        Hook("numerics.rk4_step", n, "rk4_step"),
        Hook("numerics.estimate_derivative", n, "estimate_derivative"),
        Hook("numerics.solve_with_factor", n, "solve_with_factor"),
        Hook("numerics.cholesky_factor", n, "cholesky_factor"),
        Hook("plant.plant_derivative", p, "plant_derivative"),
        Hook("plant.DelayLine.push", p.DelayLine, "push"),
        Hook("controller.adaptation_step", c, "adaptation_step"),
        Hook("controller.learning_filter_step", c, "learning_filter_step"),
        Hook("controller.control_step", c, "control_step"),
        Hook("controller.l1_norm_condition", c, "l1_norm_condition"),
        Hook("gp.point_eval", g.GpPosterior, "point_eval",
             note=lambda args, _r: args[0].n_samples),
        Hook("gp.predict_batch", g.GpPosterior, "predict_batch"),
        Hook("gp.mean_at", g.GpPosterior, "mean_at"),
        Hook("gp.fit", g, "fit"),
        Hook("gp.uniform_bound_grid_max", g, "uniform_bound_grid_max"),
        Hook("learner.push", lrn.BayesianLearner, "push"),
        Hook("learner.maybe_update", lrn.BayesianLearner, "maybe_update",
             note=lambda _a, result: result),
        Hook("learner.reconstruct_ready", lrn.MeasurementBuffer, "reconstruct_ready"),
        Hook("scenario.Engine.__init__", s.Engine, "__init__"),
        Hook("scenario.Engine.run", s.Engine, "run", note=sim_seconds),
        Hook("scenario.delay_margin_search", s, "delay_margin_search"),
        Hook("scenario.metrics", s, "metrics"),
        Hook("cli.cmd_simulate", cli, "cmd_simulate"),
        Hook("cli.cmd_margin", cli, "cmd_margin"),
        Hook("cli.write_trace_csv", cli, "write_trace_csv",
             note=lambda args, _r: os.path.getsize(args[1])),
        Hook("config.parse_flat_file", cfg, "parse_flat_file"),
        Hook("config.resolve_scenario", cfg, "resolve_scenario"),
    ]


def _pct(values, q: float, scale: float) -> float:
    return float(np.percentile(values, q) * scale) if len(values) else 0.0


def _max(values, scale: float) -> float:
    return float(np.max(values) * scale) if len(values) else 0.0


def tick_durations(t: SpanTable):
    """Per control tick: summed time of adaptation, learning filter and
    control step (which includes the predictor RK4). A tick starts at
    each adaptation_step span; spans are stored in start order."""
    tick_id = np.cumsum(t.name_id == t.ids(TICK_PARTS[0]))
    part = np.isin(t.name_id, [t.ids(name) for name in TICK_PARTS])
    sums = np.bincount(tick_id[part], weights=t.dur[part])
    return sums[1:] if len(sums) else sums


def layer_metrics(tracer: Tracer, traced_run_s: float) -> dict:
    """Every ``LAYER_METRICS`` entry but the three that compare with the
    untraced run, from one traced command of wall time ``traced_run_s``."""
    t = SpanTable(tracer)
    steps = t.calls("plant.DelayLine.push")
    rk4_pred = t.parent_is("numerics.rk4_step", "controller.control_step")
    rk4_all = t.mask("numerics.rk4_step")

    point_n = [v for _, v in tracer.notes.get("gp.point_eval", [])]
    outcomes = [r for _, r in tracer.notes.get("learner.maybe_update", []) if r is not None]
    refits = [r for r in outcomes if r["kind"] != "learner_skipped"]
    published = [r for r in outcomes if r["kind"] == "learner_published"]
    candidates = t.parent_is("scenario.Engine.run", "scenario.delay_margin_search")
    sim_s = dict(tracer.notes.get("scenario.Engine.run", []))
    trace_bytes = [v for _, v in tracer.notes.get("cli.write_trace_csv", [])]
    ticks = tick_durations(t)

    m = {
        "numerics.rk4_step.calls_per_step": rk4_all.sum() / steps if steps else 0.0,
        "numerics.rk4_step.self_s": t.self_s("numerics.rk4_step"),
        "numerics.rk4_step.predictor.self_s": float(t.self_time[rk4_pred].sum()),
        "numerics.rk4_step.loop.self_s": float(t.self_time[rk4_all & ~rk4_pred].sum()),
        "numerics.estimate_derivative.self_s": t.self_s("numerics.estimate_derivative"),
        "numerics.solve_with_factor.self_s": t.self_s("numerics.solve_with_factor"),
        "plant.plant_derivative.calls": t.calls("plant.plant_derivative"),
        "plant.plant_derivative.self_s": t.self_s("plant.plant_derivative"),
        "plant.DelayLine.push.self_s": t.self_s("plant.DelayLine.push"),
        "controller.tick.p50_us": _pct(ticks, 50, 1e6),
        "controller.tick.p99_us": _pct(ticks, 99, 1e6),
        "controller.control_step.self_s": t.self_s("controller.control_step"),
        "gp.point_eval.calls": t.calls("gp.point_eval"),
        "gp.point_eval.p50_us": _pct(t.durations("gp.point_eval"), 50, 1e6),
        "gp.point_eval.p99_us": _pct(t.durations("gp.point_eval"), 99, 1e6),
        "gp.point_eval.mean_n": float(np.mean(point_n)) if point_n else 0.0,
        "gp.uniform_bound_grid_max.p50_ms": _pct(t.durations("gp.uniform_bound_grid_max"), 50, 1e3),
        "gp.uniform_bound_grid_max.max_ms": _max(t.durations("gp.uniform_bound_grid_max"), 1e3),
        "gp.predict_batch.self_s": t.self_s("gp.predict_batch"),
        "gp.fit.max_ms": _max(t.durations("gp.fit"), 1e3),
        "gp.mean_at.self_s": t.self_s("gp.mean_at"),
        "learner.maybe_update.max_ms": _max(t.durations("learner.maybe_update"), 1e3),
        "learner.reconstruct_ready.self_s": t.self_s("learner.reconstruct_ready"),
        "learner.refits": len(refits),
        "learner.published": len(published),
        "learner.fit_failed": sum(r["kind"] == "learner_fit_failed" for r in refits),
        "learner.publish_ratio": len(published) / len(refits) if refits else 0.0,
        "learner.n_data_final": published[-1]["n_data"] if published else 0,
        "scenario.Engine.run.self_s": t.self_s("scenario.Engine.run"),
        "scenario.steps": steps,
        "scenario.margin.candidates": int(candidates.sum()),
        "scenario.margin.candidate_sim_s": float(
            sum(sim_s[i] for i in np.flatnonzero(candidates))),
        "cli.write_trace_csv.s": t.total_s("cli.write_trace_csv"),
        "cli.trace_bytes": sum(trace_bytes),
        "config.resolve_scenario.s": t.total_s("config.resolve_scenario"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = t.layer_self_s(layer) / traced_run_s
        m[f"{layer}.total_share"] = t.layer_total_s(layer) / traced_run_s
    m["trace.spans"] = len(tracer)
    return {k: float(v) for k, v in m.items()}
