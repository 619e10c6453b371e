#!/usr/bin/env python3
"""Run ``l1gp simulate`` on a deck for a given simulated duration and report
what the run cost.

Usage, from the root of a checkout::

    python3 scripts/long_run.py configs/step_nominal.cfg --duration 600 [-o DIR]

The deck's top-level ``duration`` is replaced by ``--duration`` and the
command runs in a fresh interpreter with this checkout's ``src`` first on
its path, so the figures belong to that one run: interpreter start, imports,
the simulation and the writing of its outputs. The outputs go to ``DIR``
(``DIR/out``, next to the deck actually run, ``DIR/deck.cfg``), or to a
temporary directory removed afterwards. One JSON line is printed::

    {"deck": ..., "duration_s": ..., "exit_code": ..., "max_rss_mb": ...,
     "cpu_s": ..., "wall_s": ..., "rtf": ...}

``max_rss_mb`` and ``cpu_s`` (user plus system) are the child's own, as
``wait4`` reports them; ``rtf`` is the real-time factor, simulated seconds
per wall second. The environment passes through unchanged, BLAS threads
included (the benchmark sets ``OPENBLAS_NUM_THREADS=1``). The exit code is
the command's. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def with_duration(text: str, duration: float) -> str:
    """The deck ``text`` with its top-level ``duration`` set to ``duration``."""
    kept = []
    top_level = True
    for line in text.splitlines(keepends=True):
        body = line.split("#", 1)[0].strip()
        if body.startswith("["):
            top_level = False
        elif top_level and body.partition("=")[0].strip() == "duration":
            continue
        kept.append(line)
    return f"duration = {duration!r}\n" + "".join(kept)


def run(deck: str, duration: float, work: Path) -> dict:
    """Simulate ``deck`` for ``duration`` seconds under ``work``; the figures."""
    run_deck = work / "deck.cfg"
    run_deck.write_text(with_duration(Path(deck).read_text(encoding="utf-8"), duration),
                        encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "l1gp.cli", "simulate", str(run_deck),
            "-o", str(work / "out")]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return {
        "deck": deck,
        "duration_s": duration,
        "exit_code": os.waitstatus_to_exitcode(status),
        "max_rss_mb": usage.ru_maxrss / 1024.0,  # kilobytes on Linux
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "wall_s": wall,
        "rtf": duration / wall,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("deck")
    ap.add_argument("--duration", type=float, required=True,
                    help="simulated seconds")
    ap.add_argument("-o", "--out-dir", default=None,
                    help="keep the deck run and its outputs here")
    args = ap.parse_args(argv)
    if not args.duration > 0:
        ap.error("--duration must be positive")
    if args.out_dir is None:
        with tempfile.TemporaryDirectory() as tmp:
            result = run(args.deck, args.duration, Path(tmp))
    else:
        work = Path(args.out_dir)
        work.mkdir(parents=True, exist_ok=True)
        result = run(args.deck, args.duration, work)
    print(json.dumps(result))
    return result["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
