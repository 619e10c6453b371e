#!/usr/bin/env python3
"""Check that two source trees write byte-identical outputs on the stock runs.

Usage::

    python3 scripts/same_outputs.py PARENT_TREE CHANGE_TREE [--work DIR]

Each tree is the root of a checkout. Every run below is made once per tree,
in a fresh interpreter with that tree's ``src`` first on the path and the
tree as the working directory:

- ``simulate`` on each ``configs/*.cfg`` deck and ``perfbench/dense_learner.cfg``;
- ``margin configs/l1_plain.cfg --horizon 20``;
- ``margin configs/step_nominal.cfg --snapshot-time 30``;
- ``bound-check configs/step_nominal.cfg``;
- ``simulate`` and ``margin --horizon 5`` on a fixed anisotropic deck,
  written to a temporary directory: every per-axis value (``a_m``, ``j``,
  ``x0``, ``x_hat0``, the reference's amplitude and frequency) differs
  across the three axes, so a swap of two axes changes its outputs;
- ``simulate`` on a learner deck with a 2 ms sampling period and a row
  every 5 steps, also written to the temporary directory: half its rows
  fall between two ticks, so the rows that read the model's mean alone
  and those that record their tick's read are both compared;
- ``simulate`` on ``configs/sinusoid_learning.cfg``'s run with a 10 ms
  input delay, also written to the temporary directory: the one stock path
  on which a learner target carries the delay's bias;
- ``margin --horizon 20 --snapshot-time 30`` on that delayed deck: the one
  margin path on which the deck's own delay could reach the search, since
  only the warm-up runs with the deck's plant (at zero delay) and each
  candidate resumes it with a delay line of its own;
- ``simulate`` on a mode-l1 deck whose 150 ms input delay drives it
  unstable at 0.37 s of 20, also written to the temporary directory: the
  flagged-unstable exit and the summary of a run that aborts before its
  late window are compared;
- ``simulate`` on a mode-l1 deck with a 20 rad/s control filter, also
  written to the temporary directory: its filter fails the norm condition,
  so the ``l1_condition`` row of ``events.csv`` that reads
  ``"satisfied": false`` is compared;
- ``compare configs/l1_plain.cfg`` against the anisotropic deck, and
  against the unstable deck: ``compare.json`` holds the window means of
  both runs and their ratios, a null ratio where the unstable run recorded
  no row.

Both trees read the written decks from one temporary directory, so a deck
path an output records, as ``compare.json`` does, is the same on both.

Every file a run writes is compared byte for byte, except the value of
``wall_clock_s`` in ``manifest.json``. For each CSV that differs, each
column that moved is printed: a numeric one with its largest absolute
difference and, beside it, the parent's largest absolute value in that
column, so a relative tolerance reads off one run; a text one (an event's
``kind`` or ``detail``) with the count of rows that differ. For each JSON
file, each dotted key that is only in the parent's, only in the change's,
or changed is printed; a changed number with the parent's value, the
change's and their relative difference. Each run's standard error is
compared too, with the tree's own path written as ``TREE`` so that a
message naming a source file reads the same from either tree; for a run
whose standard error differs, each line on one side only is printed,
``-`` for the parent's and ``+`` for the change's. The exit status is 0
when every output, every run's exit status and every run's standard
error agree, else 1. Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

_WALL = re.compile(rb'("wall_clock_s": )[^,\n}]*')

ANISOTROPIC_DECK = "anisotropic.cfg"
ANISOTROPIC_TEXT = """\
duration = 20.0
seed = 7

[reference]
kind = "sinusoid"
amplitude = [1.0, 0.6, 0.3]
frequency = [0.5, 0.7, 1.1]

[controller]
a_m = [-2.0, -3.0, -4.5]
x_hat0 = [0.5, -0.2, 0.1]

[plant]
j = [0.011, 0.013, 0.021]
x0 = [0.1, -0.05, 0.2]
switch_time = 12.0

[learner]
t_data = 0.5
"""

OFF_GRID_DECK = "off_grid_rows.cfg"
OFF_GRID_TEXT = """\
duration = 12.0
record_decimation = 5

[reference]
kind = "sinusoid"

[controller]
mode = "l1gp"
ts = 0.002

[plant]
j = [0.011, 0.011, 0.021]

[learner]
enabled = true
t_data = 0.5
"""

DELAYED_LEARNER_DECK = "delayed_learner.cfg"
DELAYED_LEARNER_TEXT = """\
[reference]
kind = "sinusoid"

[controller]
mode = "l1gp"

[plant]
j = [0.011, 0.011, 0.021]
input_delay = 0.01

[learner]
enabled = true
"""

UNSTABLE_DECK = "unstable_l1.cfg"
UNSTABLE_TEXT = """\
duration = 20.0

[controller]
mode = "l1"

[plant]
j = [0.011, 0.011, 0.021]
input_delay = 0.15
"""

UNSATISFIED_DECK = "unsatisfied_condition.cfg"
UNSATISFIED_TEXT = """\
duration = 10.0

[controller]
mode = "l1"
omega_c = 20.0

[plant]
j = [0.011, 0.011, 0.021]
"""


def write_decks(deck_dir: Path) -> None:
    """Write the anisotropic, the off-grid, the delayed-learner, the
    unstable and the unsatisfied-condition deck to ``deck_dir``."""
    (deck_dir / ANISOTROPIC_DECK).write_text(ANISOTROPIC_TEXT)
    (deck_dir / OFF_GRID_DECK).write_text(OFF_GRID_TEXT)
    (deck_dir / DELAYED_LEARNER_DECK).write_text(DELAYED_LEARNER_TEXT)
    (deck_dir / UNSTABLE_DECK).write_text(UNSTABLE_TEXT)
    (deck_dir / UNSATISFIED_DECK).write_text(UNSATISFIED_TEXT)


def runs(tree: Path, deck_dir: Path) -> list:
    """(name, cli arguments) of every run, decks in sorted order; the
    written decks are read from ``deck_dir``."""
    decks = sorted((tree / "configs").glob("*.cfg"))
    decks.append(tree / "perfbench" / "dense_learner.cfg")
    out = [(f"simulate-{d.stem}", ["simulate", str(d.relative_to(tree))]) for d in decks]
    aniso = str(deck_dir / ANISOTROPIC_DECK)
    delayed = str(deck_dir / DELAYED_LEARNER_DECK)
    return out + [
        ("margin-l1_plain", ["margin", "configs/l1_plain.cfg", "--horizon", "20"]),
        ("margin-step_nominal-snapshot30",
         ["margin", "configs/step_nominal.cfg", "--snapshot-time", "30"]),
        ("bound-check-step_nominal", ["bound-check", "configs/step_nominal.cfg"]),
        ("simulate-anisotropic", ["simulate", aniso]),
        ("margin-anisotropic", ["margin", aniso, "--horizon", "5"]),
        ("simulate-off_grid_rows", ["simulate", str(deck_dir / OFF_GRID_DECK)]),
        ("simulate-delayed_learner", ["simulate", delayed]),
        ("margin-delayed_learner-snapshot30",
         ["margin", delayed, "--horizon", "20", "--snapshot-time", "30"]),
        ("simulate-unstable_l1", ["simulate", str(deck_dir / UNSTABLE_DECK)]),
        ("simulate-unsatisfied_condition",
         ["simulate", str(deck_dir / UNSATISFIED_DECK)]),
        ("compare-l1_plain-anisotropic", ["compare", "configs/l1_plain.cfg", aniso]),
        ("compare-l1_plain-unstable",
         ["compare", "configs/l1_plain.cfg", str(deck_dir / UNSTABLE_DECK)]),
    ]


def run_all(tree: Path, out_root: Path, deck_dir: Path) -> dict:
    """Make every run of ``tree`` into ``out_root/<name>``, the written
    decks read from ``deck_dir``; {name: (exit status, standard error)},
    the tree's path in the latter written as ``TREE``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    results = {}
    for name, args in runs(tree, deck_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "l1gp.cli", *args, "-o", str(out_root / name)],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        stderr = proc.stderr.decode(errors="replace")
        results[name] = (proc.returncode, stderr.replace(str(tree), "TREE"))
        print(f"{out_root.name}: {name} exit {proc.returncode}", file=sys.stderr)
        if proc.returncode:
            sys.stderr.write(stderr)
    return results


def run_diffs(parent: dict, change: dict) -> list:
    """Lines naming each run whose exit status or standard error differs
    between two ``run_all`` results."""
    lines = []
    for name, (code, err) in parent.items():
        code_b, err_b = change.get(name, (None, ""))
        if code != code_b:
            lines.append(f"{name}: exit {code} vs {code_b}")
        if err != err_b:
            lines.append(f"{name}: stderr differs")
            lines.extend(f"  {line}" for line in difflib.ndiff(err.splitlines(),
                                                              err_b.splitlines())
                         if line[:1] in "-+")
    return lines


def comparable(path: Path) -> bytes:
    """The bytes of an output file, with a manifest's wall-clock time blanked."""
    data = path.read_bytes()
    return _WALL.sub(rb"\1null", data) if path.name == "manifest.json" else data


def _csv_cells(data: bytes) -> tuple:
    """(header line, body rows as lists of cell strings) of a CSV file."""
    header, _, body = data.decode().partition("\n")
    return header, [line.split(",") for line in body.splitlines()]


def _numbers(cells: list):
    """A column's cells as floats, an empty cell as NaN; None when any
    cell is text."""
    try:
        return np.array([float(c) if c else math.nan for c in cells])
    except ValueError:
        return None


def csv_column_diffs(a: bytes, b: bytes) -> list:
    """Lines naming each column of two same-header CSVs whose values differ,
    or why the two cannot be compared. A numeric column is named with its
    largest absolute difference and the largest absolute value of ``a``'s
    column, a text column with the count of rows that differ."""
    (header_a, rows_a), (header_b, rows_b) = _csv_cells(a), _csv_cells(b)
    if header_a != header_b:
        return ["  headers differ"]
    names = header_a.split(",")
    if any(len(row) != len(names) for row in rows_a + rows_b):
        return ["  rows of unequal length"]
    if len(rows_a) != len(rows_b):
        return [f"  shapes differ: {(len(rows_a), len(names))} vs "
                f"{(len(rows_b), len(names))}"]
    lines = []
    for name, cells_x, cells_y in zip(names, zip(*rows_a), zip(*rows_b)):
        col_x, col_y = _numbers(cells_x), _numbers(cells_y)
        if col_x is None or col_y is None:
            moved = sum(x != y for x, y in zip(cells_x, cells_y))
            if moved:
                lines.append(f"  {name}: text differs in {moved} rows")
            continue
        moved = ~((col_x == col_y) | (np.isnan(col_x) & np.isnan(col_y)))
        if moved.any():
            diff = np.abs(col_x[moved] - col_y[moved])
            scale = np.max(np.abs(col_x), initial=0.0, where=~np.isnan(col_x))
            lines.append(f"  {name}: max |diff| {np.max(diff):.3g} in {moved.sum()} rows,"
                         f" parent max |value| {scale:.3g}")
    return lines or ["  same numbers, different text"]


def flat_json(value, prefix: str = "") -> dict:
    """{dotted key: value} of a parsed JSON document; a list, a scalar and
    an empty object are leaves."""
    if not (isinstance(value, dict) and value):
        return {prefix: value}
    out = {}
    for key, item in value.items():
        out.update(flat_json(item, f"{prefix}.{key}" if prefix else key))
    return out


def _moved(a, b) -> str:
    """How a JSON leaf changed: two numbers as both values and their
    difference relative to ``a``, anything else as ``changed``."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        return "changed"
    rel = abs(b - a) / abs(a) if a else (math.inf if b else 0.0)
    return f"{json.dumps(a)} -> {json.dumps(b)}, relative difference {rel:.3g}"


def json_key_diffs(a: bytes, b: bytes) -> list:
    """Lines naming each dotted key of two JSON documents that is on one
    side only or whose value differs, or why the two cannot be compared."""
    try:
        x, y = (flat_json(json.loads(d)) for d in (a, b))
    except ValueError:
        return ["  not JSON"]
    lines = []
    for key in sorted(x.keys() | y.keys()):
        if key not in y:
            lines.append(f"  {key}: only in parent")
        elif key not in x:
            lines.append(f"  {key}: only in change")
        # as text, so that NaN equals NaN and 1 differs from 1.0
        elif json.dumps(x[key]) != json.dumps(y[key]):
            lines.append(f"  {key}: {_moved(x[key], y[key])}")
    return lines or ["  same values, different text"]


def compare_dirs(parent: Path, change: Path) -> list:
    """Lines describing every difference between two output directories."""
    names = sorted({p.relative_to(parent) for p in parent.rglob("*") if p.is_file()}
                   | {p.relative_to(change) for p in change.rglob("*") if p.is_file()})
    lines = []
    for rel in names:
        a, b = parent / rel, change / rel
        if not (a.is_file() and b.is_file()):
            lines.append(f"{rel}: only in {'parent' if a.is_file() else 'change'}")
            continue
        da, db = comparable(a), comparable(b)
        if da == db:
            continue
        lines.append(f"{rel}: differs")
        if rel.suffix == ".csv":
            lines.extend(csv_column_diffs(da, db))
        elif rel.suffix == ".json":
            lines.extend(json_key_diffs(da, db))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for the outputs (default: a temporary one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as decks:
        work = args.work or Path(tmp)
        # one deck directory for both sides: compare.json records deck paths
        write_decks(Path(decks))
        results = {side: run_all(tree.resolve(), work / side, Path(decks))
                   for side, tree in (("parent", args.parent), ("change", args.change))}
        lines = run_diffs(results["parent"], results["change"])
        lines += compare_dirs(work / "parent", work / "change")
    for line in lines:
        print(line)
    print("outputs identical" if not lines else f"{len(lines)} difference lines")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
