#!/usr/bin/env python3
"""Run ``l1gp simulate`` or ``l1gp margin`` on a deck in a fresh interpreter
and report what the run cost.

Usage, from the root of a checkout::

    python3 scripts/long_run.py configs/step_nominal.cfg --duration 600 [-o DIR]
    python3 scripts/long_run.py configs/l1_plain.cfg --command margin --duration 20

The deck's top-level ``duration`` is replaced by ``--duration``, and
``margin`` runs with ``--horizon`` set to it, so each of the search's
candidate runs lasts that long. The command (``simulate`` unless
``--command`` says otherwise) runs in a fresh interpreter with this
checkout's ``src`` first on its path, so the figures belong to that one
run: interpreter start, imports, the simulation and the writing of its
outputs. The outputs go to ``DIR``
(``DIR/out``, next to the deck actually run, ``DIR/deck.cfg``), or to a
temporary directory removed afterwards. One JSON line is printed::

    {"deck": ..., "command": ..., "duration_s": ..., "exit_code": ...,
     "max_rss_mb": ..., "cpu_s": ..., "wall_s": ..., "rtf": ...,
     "numpy_loaded": ..., "scipy_loaded": ...}

``max_rss_mb`` and ``cpu_s`` (user plus system) are the child's own, as
``wait4`` reports them; ``rtf`` is the real-time factor, simulated seconds
per wall second, where a margin search simulates ``duration`` for each of
its candidates. ``numpy_loaded`` says whether the child imported numpy, as
its ``manifest.json`` records it in ``runtime.numpy_version``.
``scipy_loaded`` says whether the child imported any ``scipy`` module:
the child runs the CLI as ``python -m l1gp.cli`` does, then writes that
to ``DIR/scipy_loaded``. A figure the outputs cannot give, as when the
command wrote none, is null. The
environment passes through unchanged, BLAS threads included (the
benchmark sets ``OPENBLAS_NUM_THREADS=1``). The exit code is the
command's. Standard library only.
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

# the child: ``python -m l1gp.cli ARGS``, then whether any scipy module
# was imported, written to the file named by its first argument
CHILD = (
    "import runpy, sys\n"
    "flag = sys.argv.pop(1)\n"
    "try:\n"
    "    runpy.run_module('l1gp.cli', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    with open(flag, 'w') as fh:\n"
    "        fh.write(str(any(m.partition('.')[0] == 'scipy' for m in sys.modules)))\n"
)


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


def run(deck: str, duration: float, work: Path, command: str = "simulate") -> dict:
    """Run ``command`` on ``deck`` for ``duration`` seconds under ``work``;
    the figures."""
    run_deck = work / "deck.cfg"
    run_deck.write_text(with_duration(Path(deck).read_text(encoding="utf-8"), duration),
                        encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = work / "out"
    flags = ["--horizon", repr(duration)] if command == "margin" else []
    flag = work / "scipy_loaded"
    argv = [sys.executable, "-c", CHILD, str(flag), command, str(run_deck), "-o", str(out),
            *flags]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    simulated = runtime = None
    try:
        runtime = json.loads((out / "manifest.json").read_text())["runtime"]
        simulated = duration
        if command == "margin":
            simulated *= len(json.loads((out / "margin.json").read_text())["candidates"])
    except OSError:  # the command wrote no outputs
        pass
    try:
        scipy_loaded = {"True": True, "False": False}[flag.read_text()]
    except (OSError, KeyError):  # the child died before it could tell
        scipy_loaded = None
    return {
        "deck": deck,
        "command": command,
        "duration_s": duration,
        "exit_code": os.waitstatus_to_exitcode(status),
        "max_rss_mb": usage.ru_maxrss / 1024.0,  # kilobytes on Linux
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "wall_s": wall,
        "rtf": None if simulated is None else simulated / wall,
        "numpy_loaded": None if runtime is None else runtime["numpy_version"] is not None,
        "scipy_loaded": scipy_loaded,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("deck")
    ap.add_argument("--command", choices=("simulate", "margin"), default="simulate")
    ap.add_argument("--duration", type=float, required=True,
                    help="simulated seconds: the run's, or each margin candidate's")
    ap.add_argument("-o", "--out-dir", default=None,
                    help="keep the deck run and its outputs here")
    args = ap.parse_args(argv)
    if not args.duration > 0:
        ap.error("--duration must be positive")
    if args.out_dir is None:
        with tempfile.TemporaryDirectory() as tmp:
            result = run(args.deck, args.duration, Path(tmp), args.command)
    else:
        work = Path(args.out_dir)
        work.mkdir(parents=True, exist_ok=True)
        result = run(args.deck, args.duration, work, args.command)
    print(json.dumps(result))
    return result["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
