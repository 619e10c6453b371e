"""The benchmark's workloads, the check of each one's outputs, and loop quality.

Every workload is one ``l1gp`` CLI command on one config deck, run as a
closed loop with one caller: the next command starts only when the
previous one has returned. The benchmark seed becomes the deck's
scenario ``seed``, which drives the learner's measurement noise.

The checks are pure functions of what the command wrote, so they can be
tested without running a simulation.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass

# trace rows whose |f_true - f_hat|_inf exceeds e_f break the envelope claim
_F_TRUE, _F_HAT, _E_F = ("ftrue1", "ftrue2", "ftrue3"), ("fhat1", "fhat2", "fhat3"), "e_f_hat"


@dataclass(frozen=True)
class Workload:
    """One CLI command: ``l1gp <command> <deck> -o <dir> <extra...>``."""

    name: str
    command: str
    deck: str
    extra: tuple = ()


# why each workload is here: README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("switch", "simulate", "configs/switch.cfg"),
        Workload("dense_learner", "simulate", "perfbench/dense_learner.cfg"),
        Workload("l1_margin", "margin", "configs/l1_plain.cfg", ("--horizon", "20")),
    )
}


def deck_with_seed(deck_text: str, seed: int) -> str:
    """The deck with its top-level ``seed`` line set to ``seed``."""
    out, n = re.subn(r"(?m)^seed\s*=.*$", f"seed = {int(seed)}", deck_text, count=1)
    if n == 0:
        raise ValueError("the deck has no top-level 'seed = ...' line")
    return out


def expected_publishes(flat: dict) -> int:
    """Publishes of an always-gated learner: one per refit period, which is
    ``t_data * n_update`` seconds of simulated time."""
    period = flat["learner.t_data"] * flat["learner.n_update"]
    return int(math.floor(flat["duration"] / period + 1e-9))


def check_switch(exit_code: int, manifest: dict, flat: dict) -> list[str]:
    """Stable, one uncertainty switch at the deck's switch time, every refit
    period published, no fit failure."""
    problems = _check_stable(exit_code, manifest)
    events = manifest.get("events", [])
    switches = [e["t"] for e in events if e["kind"] == "uncertainty_switch"]
    t_switch = flat["plant.switch_time"]
    if len(switches) != 1 or abs(switches[0] - t_switch) > 1e-9:
        problems.append(f"uncertainty_switch events at {switches}, expected one at {t_switch}")
    n_pub = sum(e["kind"] == "learner_published" for e in events)
    if n_pub != expected_publishes(flat):
        problems.append(f"{n_pub} publishes, expected {expected_publishes(flat)}")
    problems += _check_no_fit_failure(events)
    return problems


def check_dense_learner(exit_code: int, manifest: dict, flat: dict) -> list[str]:
    """Stable, the last publish holds the full data cap, no fit failure."""
    problems = _check_stable(exit_code, manifest)
    events = manifest.get("events", [])
    pubs = [e for e in events if e["kind"] == "learner_published"]
    cap = flat["learner.max_points"]
    if not pubs or pubs[-1].get("n_data") != cap:
        last = pubs[-1].get("n_data") if pubs else None
        problems.append(f"last publish has n_data={last}, expected {cap}")
    problems += _check_no_fit_failure(events)
    return problems


def check_l1_margin(exit_code: int, margin: dict) -> list[str]:
    """The l1_plain deck's delay margin is 19 ms, bracketed by (19, 20) ms."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    got = round(margin.get("margin_s", math.nan) * 1000.0, 6)
    bracket = [round(b * 1000.0, 6) for b in margin.get("bracket", [])]
    if got != 19.0 or bracket != [19.0, 20.0] or margin.get("open_bracket"):
        problems.append(f"margin {got} ms with bracket {bracket} ms, expected 19 in (19, 20)")
    return problems


def _check_stable(exit_code: int, manifest: dict) -> list[str]:
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    if not manifest.get("acceptance_flags", {}).get("stable", False):
        problems.append("run flagged unstable")
    return problems


def _check_no_fit_failure(events: list) -> list[str]:
    n = sum(e["kind"] == "learner_fit_failed" for e in events)
    return [f"{n} learner_fit_failed events"] if n else []


def check_outputs(workload: Workload, exit_code: int, out_dir: str, flat: dict) -> list[str]:
    """Read what the command wrote to ``out_dir`` and check it."""
    try:
        if workload.command == "margin":
            return check_l1_margin(exit_code, _read_json(out_dir, "margin.json"))
        manifest = _read_json(out_dir, "manifest.json")
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    check = {"switch": check_switch, "dense_learner": check_dense_learner}[workload.name]
    return check(exit_code, manifest, flat)


def loop_quality(out_dir: str, flat: dict) -> dict:
    """Distance to the ideal loop over the last 10 s, and envelope coverage.

    Reads a ``simulate`` output directory. ``err_ideal_late`` is the mean of
    |x - x_id| over [duration - 10, duration], as ``summary.json`` reports it.
    ``envelope_violation_frac`` is the share of trace rows with
    |f_true - f_hat|_inf > e_f; ``envelope_coverage_frac`` is its complement.
    A deck without a learner makes no envelope claim: its coverage is 1 by
    definition, and every row must hold f_hat = 0 and e_f = 0, or this
    raises ValueError.
    """
    from l1gp.cli import read_trace_csv

    duration = flat["duration"]
    summary = _read_json(out_dir, "summary.json")
    key = f"{max(duration - 10.0, 0.0):g}-{duration:g}"
    err_late = summary["windows"][key]["err_ideal_norm"]
    data, header = read_trace_csv(os.path.join(out_dir, "trace.csv"))
    f_true, f_hat, e_f = (data[:, [header.index(c) for c in cols]]
                          for cols in (_F_TRUE, _F_HAT, (_E_F,)))
    if flat["learner.enabled"]:
        violation = float((abs(f_true - f_hat).max(axis=1) > e_f[:, 0]).mean())
    elif f_hat.any() or e_f.any():
        raise ValueError("a run without a learner has a nonzero f_hat or e_f")
    else:
        violation = 0.0
    return {
        "err_ideal_late": float(err_late),
        "envelope_violation_frac": violation,
        "envelope_coverage_frac": 1.0 - violation,
    }


def _read_json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)
