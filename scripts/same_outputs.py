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
- ``simulate`` and ``margin --horizon 20`` on ``configs/l1_plain.cfg`` with
  ``plant.delay_total = true``, from a deck written to a temporary
  directory: the only runs that step the plant with the baseline outside
  its RK4 step;
- ``simulate`` and ``margin --horizon 5`` on a fixed anisotropic deck, also
  written to the temporary directory: every per-axis value (``a_m``, ``j``,
  ``x0``, ``x_hat0``, the reference's amplitude and frequency) differs
  across the three axes, so a swap of two axes changes its outputs.

Every file a run writes is compared byte for byte, except the value of
``wall_clock_s`` in ``manifest.json``. For each CSV that differs, the
largest absolute difference of each column that moved is printed. The exit
status is 0 when every output and every run's exit status agree, else 1.
Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

_WALL = re.compile(rb'("wall_clock_s": )[^,\n}]*')

DELAY_TOTAL_DECK = "l1_plain_delay_total.cfg"
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


def write_delay_total_deck(tree: Path, deck_dir: Path) -> Path:
    """``tree``'s ``configs/l1_plain.cfg`` with ``plant.delay_total = true``,
    written to ``deck_dir``; returns its path."""
    text = (tree / "configs" / "l1_plain.cfg").read_text()
    if "\n[plant]\n" not in text:
        raise ValueError("configs/l1_plain.cfg has no [plant] section")
    path = deck_dir / DELAY_TOTAL_DECK
    path.write_text(text.replace("\n[plant]\n", "\n[plant]\ndelay_total = true\n", 1))
    return path


def write_decks(tree: Path, deck_dir: Path) -> None:
    """Write the delay-total and the anisotropic deck to ``deck_dir``."""
    write_delay_total_deck(tree, deck_dir)
    (deck_dir / ANISOTROPIC_DECK).write_text(ANISOTROPIC_TEXT)


def runs(tree: Path, deck_dir: Path) -> list:
    """(name, cli arguments) of every run, decks in sorted order; the
    delay-total and the anisotropic deck are read from ``deck_dir``."""
    decks = sorted((tree / "configs").glob("*.cfg"))
    decks.append(tree / "perfbench" / "dense_learner.cfg")
    out = [(f"simulate-{d.stem}", ["simulate", str(d.relative_to(tree))]) for d in decks]
    total = str(deck_dir / DELAY_TOTAL_DECK)
    aniso = str(deck_dir / ANISOTROPIC_DECK)
    return out + [
        ("margin-l1_plain", ["margin", "configs/l1_plain.cfg", "--horizon", "20"]),
        ("margin-step_nominal-snapshot30",
         ["margin", "configs/step_nominal.cfg", "--snapshot-time", "30"]),
        ("bound-check-step_nominal", ["bound-check", "configs/step_nominal.cfg"]),
        ("simulate-l1_plain-delay_total", ["simulate", total]),
        ("margin-l1_plain-delay_total", ["margin", total, "--horizon", "20"]),
        ("simulate-anisotropic", ["simulate", aniso]),
        ("margin-anisotropic", ["margin", aniso, "--horizon", "5"]),
    ]


def run_all(tree: Path, out_root: Path) -> dict:
    """Make every run of ``tree`` into ``out_root/<name>``; {name: exit status}."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    status = {}
    with tempfile.TemporaryDirectory() as tmp:
        deck_dir = Path(tmp)
        write_decks(tree, deck_dir)
        for name, args in runs(tree, deck_dir):
            proc = subprocess.run(
                [sys.executable, "-m", "l1gp.cli", *args, "-o", str(out_root / name)],
                cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            )
            status[name] = proc.returncode
            print(f"{out_root.name}: {name} exit {proc.returncode}", file=sys.stderr)
            if proc.returncode:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
    return status


def comparable(path: Path) -> bytes:
    """The bytes of an output file, with a manifest's wall-clock time blanked."""
    data = path.read_bytes()
    return _WALL.sub(rb"\1null", data) if path.name == "manifest.json" else data


def csv_column_diffs(a: bytes, b: bytes) -> list:
    """Lines naming each column of two same-header CSVs whose values differ,
    with the largest absolute difference, or why the two cannot be compared."""
    header_a, _, _ = a.partition(b"\n")
    header_b, _, _ = b.partition(b"\n")
    if header_a != header_b:
        return ["  headers differ"]
    try:
        x, y = (np.loadtxt(io.BytesIO(d), delimiter=",", skiprows=1, ndmin=2)
                for d in (a, b))
    except ValueError:
        return ["  not numeric"]
    if x.shape != y.shape:
        return [f"  shapes differ: {x.shape} vs {y.shape}"]
    lines = []
    for name, col_x, col_y in zip(header_a.decode().split(","), x.T, y.T):
        moved = ~((col_x == col_y) | (np.isnan(col_x) & np.isnan(col_y)))
        if moved.any():
            diff = np.abs(col_x[moved] - col_y[moved])
            lines.append(f"  {name}: max |diff| {np.max(diff):.3g} in {moved.sum()} rows")
    return lines or ["  same numbers, different text"]


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
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for the outputs (default: a temporary one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        status = {side: run_all(tree.resolve(), work / side)
                  for side, tree in (("parent", args.parent), ("change", args.change))}
        lines = [f"{name}: exit {code} vs {status['change'].get(name)}"
                 for name, code in status["parent"].items()
                 if code != status["change"].get(name)]
        lines += compare_dirs(work / "parent", work / "change")
    for line in lines:
        print(line)
    print("outputs identical" if not lines else f"{len(lines)} difference lines")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
