#!/usr/bin/env python3
"""Benchmark of the l1gp simulator: end-to-end metrics, or per-layer ones.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload switch --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's CLI command (through ``l1gp.cli.main``)
again and again in this process until ``--seconds`` would be exceeded,
checks every run's outputs, and reports the end-to-end metrics as
medians. Its times are CPU seconds rescaled to a nominal host speed by a
reference kernel timed all through the run (see hostspeed.py).
``--trace 1`` runs the command once untraced and once with every
hooked ``l1gp`` function wrapped (see layers.py), checks that both runs
wrote the same bytes, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
with the environment it ran in, goes to ``perfbench/out/``.
README.md documents every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported in main, once BLAS is pinned
    from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# one process, one thread: BLAS pools would add threads and, on a shared
# two-core machine, noise; set before numpy is first imported
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_METRICS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "err_ideal_late": "rad/s",
    "envelope_coverage_frac": "fraction",
}

IMPORT_REPEATS = 5
CONSTRUCT_REPEATS = 5
# reference-kernel samples taken with each set-up repeat
SETUP_SAMPLES = 20
# a fresh interpreter times the import, then the reference kernel, and
# prints the import's CPU seconds at the nominal host speed
IMPORT_PROBE = (
    "import time; t = time.process_time(); import l1gp.cli; "
    "cpu = time.process_time() - t; from hostspeed import HostSpeed; "
    f"speed = HostSpeed(); speed.sample({SETUP_SAMPLES}); print(cpu * speed.factor())"
)


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" when it is not a git repository;
    git does not look for a repository above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        # set, every import of l1gp compiles its sources: part of setup_s
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "commit": git_commit(ROOT),
    }


def import_seconds() -> float:
    """Median CPU time of ``import l1gp.cli`` in fresh interpreters, each
    rescaled by the host speed its interpreter measured."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    samples = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def construct_seconds(l1gp, deck: str, speed: HostSpeed) -> tuple[float, dict]:
    """Median CPU time to parse and resolve the deck and build its engine
    (controller precompute, learner prior publish); also the resolved
    config as the flat dict the CLI echoes."""
    samples = []
    for _ in range(CONSTRUCT_REPEATS):
        speed.sample(SETUP_SAMPLES)
        t0 = time.process_time()
        cfg, echo = l1gp.config.resolve_scenario(l1gp.config.parse_flat_file(deck))
        l1gp.scenario.Engine(cfg)
        samples.append(time.process_time() - t0)
    speed.sample(SETUP_SAMPLES)
    return statistics.median(samples), echo


def run_command(l1gp, workload, deck: str, out_dir: Path,
                speed: HostSpeed | None = None) -> tuple[int, float, float]:
    """One CLI command; returns (exit code, CPU seconds, wall seconds).
    CPU time (user plus system) of this single-threaded process leaves out
    the time it waits to be scheduled on a shared host. With ``speed``,
    the reference kernel is sampled at engine steps (``DelayLine.push``)
    and its CPU time is left out. An exception escaping the CLI is a
    failed run with exit code -1."""
    argv = [workload.command, deck, "-o", str(out_dir), *workload.extra]
    sampling = speed.sampling(l1gp.plant.DelayLine, "push") if speed else nullcontext()
    spent0 = speed.spent_s if speed else 0.0
    t0, w0 = time.process_time(), time.perf_counter()
    with sampling:
        try:
            code = l1gp.cli.main(argv)
        except Exception:  # the benchmark reports the failure and carries on
            traceback.print_exc()
            code = -1
    cpu, wall = time.process_time() - t0, time.perf_counter() - w0
    return code, cpu - ((speed.spent_s - spent0) if speed else 0.0), wall


def simulated_seconds(workload, out_dir: Path, flat: dict) -> float:
    """Simulated time one command asked for: the deck's duration, or for a
    margin search the horizon of every candidate it ran."""
    if workload.command == "simulate":
        return flat["duration"]
    margin = json.loads((out_dir / "margin.json").read_text())
    return len(margin["candidates"]) * margin["horizon_s"]


def same_outputs(workload, a: Path, b: Path) -> bool:
    name = "trace.csv" if workload.command == "simulate" else "margin.json"
    return (a / name).read_bytes() == (b / name).read_bytes()


def end_to_end(l1gp, workload, deck, flat, run_dir, seconds, extra,
               construct_speed: HostSpeed) -> tuple[dict, list]:
    """Repeat the command for ``seconds`` of wall time; medians of the
    end-to-end metrics. The set-up time and each command's time are
    rescaled by the host speed measured while they ran."""
    from hostspeed import HostSpeed
    from workloads import check_outputs, loop_quality

    out_dir = run_dir / "cmd"
    runs = []
    t_begin = time.perf_counter()
    while True:
        speed = HostSpeed()
        code, cpu, wall = run_command(l1gp, workload, deck, out_dir, speed)
        if not speed.samples:  # the command failed before its first engine step
            speed.sample()
        problems = check_outputs(workload, code, str(out_dir), flat)
        sim = simulated_seconds(workload, out_dir, flat) if not problems else 0.0
        runs.append({"run_s": cpu * speed.factor(), "cpu_s": cpu, "wall_s": wall,
                     "reference_ms": speed.mean_s() * 1e3,
                     "reference_samples": len(speed.samples),
                     "sim_s": sim, "problems": problems})
        if time.perf_counter() - t_begin + wall > seconds:
            break

    if workload.command == "simulate":
        quality_dir = out_dir
    else:
        # a margin search writes no trace: loop quality comes from the same
        # deck simulated once at zero delay, outside the timed runs
        quality_dir = run_dir / "quality"
        code, _, _ = run_command(l1gp, replace(workload, command="simulate", extra=()),
                                 deck, quality_dir)
        if code != 0:
            runs[-1]["problems"].append(f"zero-delay simulate exit code {code}")
    try:
        quality = loop_quality(str(quality_dir), flat)
    except (OSError, KeyError, ValueError) as exc:
        runs[-1]["problems"].append(f"no loop quality: {exc!r}")
        quality = dict.fromkeys(
            ("err_ideal_late", "envelope_violation_frac", "envelope_coverage_frac"), 0.0)

    good = [r for r in runs if not r["problems"]] or runs
    metrics = {
        "run_s": statistics.median(r["run_s"] for r in good),
        "setup_s": extra["import_s"] + extra["construct_s"] * construct_speed.factor(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_ideal_late": quality["err_ideal_late"],
        "envelope_coverage_frac": quality["envelope_coverage_frac"],
    }
    extra.update(
        rtf=statistics.median(r["sim_s"] / r["wall_s"] for r in good),
        envelope_violation_frac=quality["envelope_violation_frac"],
        run_s_min=min(r["run_s"] for r in runs),
        run_s_max=max(r["run_s"] for r in runs),
        run_cpu_s=statistics.median(r["cpu_s"] for r in good),
        run_wall_s=statistics.median(r["wall_s"] for r in good),
        reference_ms=statistics.median(r["reference_ms"] for r in good),
        construct_reference_ms=construct_speed.mean_s() * 1e3,
    )
    return metrics, runs


def per_layer(l1gp, workload, deck, flat, run_dir) -> tuple[dict, list]:
    """One untraced and one traced command; per-layer metrics of the latter."""
    import layers
    from spans import Tracer
    from workloads import check_outputs

    plain_dir, traced_dir = run_dir / "untraced", run_dir / "traced"
    code, cpu_plain, _ = run_command(l1gp, workload, deck, plain_dir)
    runs = [{"run_s": cpu_plain,
             "problems": check_outputs(workload, code, str(plain_dir), flat)}]

    tracer = Tracer()
    with tracer.installed(layers.hooks(l1gp)):
        code, cpu_traced, wall_traced = run_command(l1gp, workload, deck, traced_dir)
    problems = check_outputs(workload, code, str(traced_dir), flat)
    identical = not problems and not runs[0]["problems"] and same_outputs(
        workload, plain_dir, traced_dir)
    if not identical:
        problems.append("traced run wrote different outputs than the untraced run")
    runs.append({"run_s": cpu_traced, "problems": problems})

    # spans are wall-clock intervals, so the shares divide by wall time
    metrics = layers.layer_metrics(tracer, wall_traced)
    metrics.update({
        "trace.run_s": cpu_traced,
        "trace.overhead_s": cpu_traced - cpu_plain,
        "trace.identical": float(identical),
    })
    tracer.save(str(run_dir / "spans.npz"))
    return metrics, runs


def main(argv=None) -> int:
    args = parse_args(argv)
    from workloads import WORKLOADS, deck_with_seed

    workload = WORKLOADS[args.workload]
    base_deck = ROOT / workload.deck
    if not (SRC / "l1gp" / "cli.py").is_file() or not base_deck.is_file():
        print(f"error: {SRC / 'l1gp'} or {base_deck} is missing; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"

    # command outputs are overwritten run after run; one small record per seed
    run_dir = OUT / f"{workload.name}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    deck = run_dir / "deck.cfg"
    deck.write_text(deck_with_seed(base_deck.read_text(), args.seed))

    from hostspeed import HostSpeed

    construct_speed = HostSpeed()
    extra = {} if args.trace else {"import_s": import_seconds()}
    sys.path.insert(0, str(SRC))
    import l1gp.cli

    if not Path(l1gp.__file__).resolve().is_relative_to(SRC):
        print(f"error: l1gp imported from {l1gp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    extra["construct_s"], flat = construct_seconds(l1gp, str(deck), construct_speed)

    if args.trace:
        from layers import LAYER_METRICS

        metrics, runs = per_layer(l1gp, workload, str(deck), flat, run_dir)
        units = LAYER_METRICS
    else:
        metrics, runs = end_to_end(l1gp, workload, str(deck), flat, run_dir,
                                   args.seconds, extra, construct_speed)
        units = E2E_METRICS
    failed = sum(bool(r["problems"]) for r in runs)
    extra["fail_frac"] = failed / len(runs)

    env = environment()
    for r in runs:
        for p in r["problems"]:
            print(f"check failed: {p}", file=sys.stderr)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(runs)} runs, {failed} failed")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:.6g} {unit}")
    for name, value in extra.items():
        print(f"  {name:40s} {value:.6g}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, extra=extra, runs=runs, env=env)
    record_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
