"""Command-line front end: run scenarios, searches, and bound checks.

Subcommands::

    l1gp simulate <config> -o <dir>
    l1gp margin <config> -o <dir> [--resolution s] [--horizon s] [--snapshot-time s]
    l1gp bound-check <config> -o <dir> [--n-train N] [--n-probe N]
    l1gp compare <configA> <configB> -o <dir>

Outputs are CSV time series (full round-trip float precision) and JSON
summaries. Exit codes: 0 success, 2 config error, 3 flagged-unstable
completion, 4 precondition failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import struct
import sys
import time
import warnings

from . import __version__, config as config_mod, scenario

__all__ = [
    "write_trace_csv",
    "read_trace_csv",
    "write_events_csv",
    "cmd_simulate",
    "cmd_margin",
    "cmd_bound_check",
    "cmd_compare",
    "build_parser",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_PRECONDITION = 4

_CSV_FMT = "%.17g"
# trace rows per chunk: each value of a chunk is held as a Python float and
# a string while it is written, so a larger chunk raises the peak memory
# (1024 rows: +3.2 MB max RSS writing the 6001-row switch trace). Each row
# is formatted on its own: one format of a whole chunk grew the max RSS by
# 0.25 MB on each further run in one process
_CSV_ROWS = 32


def write_trace_csv(trace: scenario.SimulationTrace, path: str) -> None:
    """The bytes ``np.savetxt(trace.data, fmt=_CSV_FMT, delimiter=",",
    header=..., comments="")`` writes, formatted ``_CSV_ROWS`` rows at a
    time straight from the packed rows, with no numpy."""
    n = len(trace.columns)
    row = ",".join([_CSV_FMT] * n) + "\n"
    rows = struct.iter_unpack(f"{n}d", trace.values)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(trace.columns) + "\n")
        while chunk := list(itertools.islice(rows, _CSV_ROWS)):
            fh.write("".join([row % r for r in chunk]))


def read_trace_csv(path: str) -> tuple[np.ndarray, list]:
    import numpy as np

    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data, header


def write_events_csv(events: list, path: str) -> None:
    cols = ("t", "kind", "update_index", "e_f_hat", "n_data", "detail")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for ev in events:
            detail = {
                k: v
                for k, v in ev.items()
                if k not in ("t", "kind", "update_index", "e_f_hat", "n_data")
            }
            fh.write(
                ",".join(
                    [
                        _CSV_FMT % ev["t"],
                        str(ev["kind"]),
                        str(ev.get("update_index", "")),
                        "" if "e_f_hat" not in ev else _CSV_FMT % ev["e_f_hat"],
                        str(ev.get("n_data", "")),
                        json.dumps(_finite(detail), allow_nan=False).replace(",", ";")
                        if detail else "",
                    ]
                )
                + "\n"
            )


def _finite(obj):
    """``obj`` with each non-finite float in it as None: JSON has no
    Infinity or NaN, so they are written as null."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(obj, path: str) -> None:
    """Write ``obj`` as strict JSON, each non-finite float as null."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_finite(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _runtime() -> dict:
    """The numerical setup a run's bits depend on beyond its config: a
    learner refit's factor rounds differently at another BLAS thread
    count. numpy's version is null when the run never imported it; a
    thread variable is null when it is not set."""
    numpy = sys.modules.get("numpy")
    return {
        "numpy_version": None if numpy is None else numpy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
    }


def _write_manifest(out_dir, echo, seed, wall, events, flags) -> None:
    manifest = {
        "tool_version": __version__,
        "seed": seed,
        "config": echo,
        "wall_clock_s": wall,
        "events": events,
        "acceptance_flags": flags,
        "runtime": _runtime(),
    }
    _write_json(manifest, os.path.join(out_dir, "manifest.json"))


def _load(config_path: str):
    flat = config_mod.parse_flat_file(config_path)
    return config_mod.resolve_scenario(flat)


def cmd_simulate(config_path: str, out_dir: str) -> int:
    t_start = time.perf_counter()
    cfg, echo = _load(config_path)
    trace = scenario.run(cfg)
    wall = time.perf_counter() - t_start

    os.makedirs(out_dir, exist_ok=True)
    write_trace_csv(trace, os.path.join(out_dir, "trace.csv"))
    write_events_csv(trace.events, os.path.join(out_dir, "events.csv"))
    windows = [(0.0, min(10.0, cfg.duration))]
    if cfg.duration > 10.0:
        windows.append((cfg.duration - 10.0, cfg.duration))
    _write_json(scenario.metrics(trace, windows), os.path.join(out_dir, "summary.json"))
    _write_manifest(
        out_dir,
        echo,
        cfg.seed,
        wall,
        trace.events,
        {"stable": not trace.unstable},
    )
    return EXIT_UNSTABLE if trace.unstable else EXIT_OK


def cmd_margin(
    config_path: str,
    out_dir: str,
    resolution: float = 0.001,
    horizon: float = 20.0,
    snapshot_time: float | None = None,
) -> int:
    t_start = time.perf_counter()
    cfg, echo = _load(config_path)
    for flag, value in (("--resolution", resolution), ("--horizon", horizon),
                        ("--snapshot-time", snapshot_time)):
        if value is not None:
            try:
                cfg.steps(value, flag)
            except ValueError as exc:
                raise config_mod.ConfigError(str(exc)) from exc
    try:
        result = scenario.delay_margin_search(
            cfg,
            resolution=resolution,
            horizon=horizon,
            snapshot_time=snapshot_time,
        )
    except scenario.UnstableAtZeroDelayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    wall = time.perf_counter() - t_start
    out = result.as_dict()
    out["resolution_s"] = resolution
    out["horizon_s"] = horizon
    if snapshot_time is not None:
        out["snapshot_time_s"] = snapshot_time
    os.makedirs(out_dir, exist_ok=True)
    _write_json(out, os.path.join(out_dir, "margin.json"))
    _write_manifest(
        out_dir, echo, cfg.seed, wall, [result.condition],
        {"open_bracket": result.open_bracket},
    )
    return EXIT_OK


def cmd_bound_check(
    config_path: str,
    out_dir: str,
    n_train: int = 50,
    n_probe: int = 500,
) -> int:
    t_start = time.perf_counter()
    if n_train < 0 or n_probe < 1:
        raise config_mod.ConfigError(
            "--n-train must be >= 0" if n_train < 0 else "--n-probe must be >= 1"
        )
    cfg, echo = _load(config_path)
    if cfg.learner is None:
        print("error: bound-check needs a learner, so controller.mode = \"l1gp\"",
              file=sys.stderr)
        return EXIT_CONFIG
    import numpy as np

    from . import gp

    lcfg = cfg.learner
    rng = np.random.default_rng(cfg.seed)
    schedule = cfg.plant.uncertainty
    box = lcfg.kappa_op

    X_train = rng.uniform(-box, box, size=(n_train, 3))
    Y_train = np.array(
        [schedule.eval(0.0, x) for x in X_train], dtype=float
    ).reshape(n_train, 3)
    Y_train += rng.normal(0.0, lcfg.sigma_n, size=Y_train.shape)
    try:
        posterior = gp.fit(X_train, Y_train, lcfg.sigma_n**2, lcfg.kernel)
    except gp.IllConditionedKernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    X_probe = rng.uniform(-box, box, size=(n_probe, 3))
    F_probe = np.array(
        [schedule.eval(0.0, x) for x in X_probe], dtype=float
    ).reshape(n_probe, 3)
    mean, std = posterior.predict_batch(X_probe)
    beta = gp.beta_value(lcfg.bound, posterior.n_outputs, posterior.n_inputs)
    sqrt_beta = math.sqrt(beta)
    envelope = sqrt_beta * np.max(std, axis=1)
    err = np.max(np.abs(F_probe - mean), axis=1)
    violations = err > envelope
    wall = time.perf_counter() - t_start
    coverage = {
        "n_train": n_train,
        "n_probe": n_probe,
        "beta": beta,
        "sqrt_beta": sqrt_beta,
        "delta": lcfg.bound.delta,
        "violation_fraction": float(np.mean(violations)),
        "n_violations": int(np.sum(violations)),
        "probe_box_halfwidth": box,
        "per_point_margin": (envelope - err).tolist(),
    }
    os.makedirs(out_dir, exist_ok=True)
    _write_json(coverage, os.path.join(out_dir, "coverage.json"))
    _write_manifest(
        out_dir, echo, cfg.seed, wall, [],
        {"coverage_ok": coverage["violation_fraction"] <= lcfg.bound.delta},
    )
    return EXIT_OK


def cmd_compare(config_a: str, config_b: str, out_dir: str) -> int:
    t_start = time.perf_counter()
    cfg_a, echo_a = _load(config_a)
    cfg_b, echo_b = _load(config_b)
    if (cfg_a.n_steps, cfg_a.step) != (cfg_b.n_steps, cfg_b.step):
        print("error: compare requires matching duration and step", file=sys.stderr)
        return EXIT_CONFIG
    trace_a, trace_b = scenario.run(cfg_a), scenario.run(cfg_b)
    wall = time.perf_counter() - t_start

    duration = cfg_a.duration
    windows = [(0.0, min(5.0, duration))]
    if duration > 10.0:
        windows.append((duration - 10.0, duration))
    windows.append((0.0, duration))

    means_a, means_b = (
        {k: w["err_ideal_norm"]
         for k, w in scenario.metrics(trace, windows)["windows"].items()}
        for trace in (trace_a, trace_b)
    )
    compare = {
        "config_a": config_a,
        "config_b": config_b,
        "err_ideal_mean_a": means_a,
        "err_ideal_mean_b": means_b,
        # null where either run recorded no row in the window or a's mean is 0
        "ratio_b_over_a": {
            k: (None if None in (means_a[k], means_b[k]) or means_a[k] == 0
                else means_b[k] / means_a[k])
            for k in means_a
        },
        "stable_a": not trace_a.unstable,
        "stable_b": not trace_b.unstable,
    }
    os.makedirs(out_dir, exist_ok=True)
    _write_json(compare, os.path.join(out_dir, "compare.json"))
    _write_manifest(
        out_dir, {"a": echo_a, "b": echo_b}, cfg_a.seed, wall, [],
        {"stable_a": not trace_a.unstable, "stable_b": not trace_b.unstable},
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l1gp", description="adaptive-control learning simulation toolkit"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one scenario")
    p_sim.add_argument("config")
    p_sim.add_argument("-o", "--out-dir", required=True)

    p_margin = sub.add_parser("margin", help="search the input-delay margin")
    p_margin.add_argument("config")
    p_margin.add_argument("-o", "--out-dir", required=True)
    p_margin.add_argument("--resolution", type=float, default=0.001)
    p_margin.add_argument("--horizon", type=float, default=20.0)
    p_margin.add_argument("--snapshot-time", type=float, default=None)

    p_bound = sub.add_parser("bound-check", help="empirical bound coverage")
    p_bound.add_argument("config")
    p_bound.add_argument("-o", "--out-dir", required=True)
    p_bound.add_argument("--n-train", type=int, default=50)
    p_bound.add_argument("--n-probe", type=int, default=500)

    p_cmp = sub.add_parser("compare", help="run two scenarios and compare")
    p_cmp.add_argument("config_a")
    p_cmp.add_argument("config_b")
    p_cmp.add_argument("-o", "--out-dir", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a warning, as the run's norm-condition report, is one stderr line
    # after the command, each distinct one once: a margin search warns in
    # each of its candidate runs
    with warnings.catch_warnings(record=True) as caught:
        try:
            if args.command == "simulate":
                code = cmd_simulate(args.config, args.out_dir)
            elif args.command == "margin":
                code = cmd_margin(
                    args.config,
                    args.out_dir,
                    resolution=args.resolution,
                    horizon=args.horizon,
                    snapshot_time=args.snapshot_time,
                )
            elif args.command == "bound-check":
                code = cmd_bound_check(
                    args.config, args.out_dir, n_train=args.n_train, n_probe=args.n_probe
                )
            else:
                code = cmd_compare(args.config_a, args.config_b, args.out_dir)
        except (config_mod.ConfigError, scenario.RowBufferError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            code = EXIT_CONFIG
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
