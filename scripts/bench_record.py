#!/usr/bin/env python3
"""Summarize end-to-end benchmark records of a parent and a change into one file.

Usage, from the root of a checkout::

    python3 scripts/bench_record.py --parent PARENT/perfbench/out \\
        --change perfbench/out -o BENCH.json

Each directory holds the records ``perfbench/run.py --trace 0`` writes,
``<workload>-seed<seed>-trace0.json``, one per seed. For every workload
and every end-to-end metric the output gives, on each side, the value of
each seed and their median and quartiles, and the relative change of the
change's median against the parent's; beside them, the environment each
side ran in. Every workload needs at least three seeds on both sides.

Each workload's ``claim`` section applies the claim rule to every
end-to-end metric, over the seeds run on both sides (a seed's two runs
are a pair): how many pairs the change wins and loses, in the direction
``better`` that the benchmark's ``BENCHMARK.json`` gives the metric (a
tie counts for neither), the parent's interquartile distance over those
seeds, the change's median less the parent's, and whether that
difference is larger than the interquartile distance. A metric is
claimed to improve when the change wins at least nine pairs in ten and
its median is better by more than the parent's interquartile distance.

A directory may also hold per-layer records (``--trace 1``,
``<workload>-seed<seed>-trace1.json``). For every workload traced on both
sides, the output's ``traced`` section gives both sides' per-layer metrics,
each the median over every seed traced on both sides, the number of those
seeds, and the relative change of the medians. One traced run a side is
open to host drift; the median of several is less so.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

_RECORD = re.compile(r"^(?P<workload>.+)-seed(?P<seed>-?\d+)-trace[01]\.json$")
_MIN_SEEDS = 3
_BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def read_records(out_dir: Path, trace: int = 0) -> dict:
    """{workload: {seed: record}} of the records in ``out_dir`` that
    ``perfbench/run.py --trace <trace>`` wrote."""
    by_workload: dict = {}
    for path in sorted(out_dir.glob(f"*-seed*-trace{trace}.json")):
        m = _RECORD.match(path.name)
        if m is None:
            continue
        record = json.loads(path.read_text())
        by_workload.setdefault(m["workload"], {})[int(m["seed"])] = record
    return by_workload


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method) of at least two values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize_side(records: dict) -> dict:
    """One side of one workload: per-metric spread over seeds, in seed order."""
    seeds = sorted(records)
    first = records[seeds[0]]
    side = {
        "seeds": seeds,
        "attempted": sum(records[s]["attempted"] for s in seeds),
        "failed": sum(records[s]["failed"] for s in seeds),
        "metrics": {},
    }
    for name, entry in first["metrics"].items():
        values = [records[s]["metrics"][name]["value"] for s in seeds]
        side["metrics"][name] = dict(spread(values), unit=entry["unit"])
    return side


def environment(by_workload: dict) -> dict:
    """The environment of the side's records, which must all agree."""
    envs = {json.dumps(r["env"], sort_keys=True)
            for records in by_workload.values() for r in records.values()}
    if len(envs) != 1:
        raise ValueError(f"the records ran in {len(envs)} different environments")
    return json.loads(envs.pop())


def relative(before: dict, after: dict) -> dict:
    """{metric: after / before - 1} over the metrics of ``before``; None
    where ``before`` is 0."""
    return {m: (after[m] / before[m] - 1.0 if before[m] else None)
            for m in before if m in after}


def read_better(benchmark: Path) -> dict:
    """{end-to-end metric: "lower" or "higher"} from a ``BENCHMARK.json``."""
    return {m["name"]: m["better"] for m in json.loads(benchmark.read_text())["end_to_end"]}


def claim(parent: dict, change: dict, better: dict) -> dict:
    """The claim rule of one workload's {seed: record} sets, for every
    metric of ``better`` the records hold, over the seeds on both sides."""
    seeds = sorted(set(parent) & set(change))
    if len(seeds) < _MIN_SEEDS:
        raise ValueError(f"{len(seeds)} seeds run on both sides, need {_MIN_SEEDS}")
    out = {}
    for metric, direction in sorted(better.items()):
        if metric not in parent[seeds[0]]["metrics"]:
            continue
        p, c = ([records[s]["metrics"][metric]["value"] for s in seeds]
                for records in (parent, change))
        # > 0 where the change is better
        gains = [(a - b) if direction == "lower" else (b - a) for a, b in zip(p, c)]
        q1, median, q3 = statistics.quantiles(p, n=4, method="inclusive")
        difference = statistics.median(c) - median
        out[metric] = {
            "better": direction, "seeds": seeds,
            "wins": sum(g > 0 for g in gains), "losses": sum(g < 0 for g in gains),
            "parent_iqr": q3 - q1, "median_difference": difference,
            "beyond_iqr": abs(difference) > q3 - q1,
        }
    return out


def traced(parent: dict, change: dict) -> dict:
    """Both sides' per-layer metrics, each the median over every seed
    traced on both sides, for every workload traced on both sides; with
    ``seed`` the lowest of those seeds and ``n_seeds`` their count."""
    out = {}
    for name in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[name]) & set(change[name]))
        if not seeds:
            continue
        sides = {}
        for label, records in (("parent", parent), ("change", change)):
            runs = [records[name][s]["metrics"] for s in seeds]
            sides[label] = {m: statistics.median(run[m]["value"] for run in runs)
                            for m in runs[0]}
        out[name] = dict(sides, seed=seeds[0], n_seeds=len(seeds),
                         change_vs_parent=relative(sides["parent"], sides["change"]))
    return out


def build(parent: dict, change: dict, better: dict,
          parent_traced: dict | None = None, change_traced: dict | None = None) -> dict:
    """The summary of two {workload: {seed: record}} sets of end-to-end
    records, with the claim rule for the metrics of ``better`` (see
    :func:`read_better`), and of the per-layer records beside them, if
    any."""
    if sorted(parent) != sorted(change):
        raise ValueError(f"workloads differ: parent {sorted(parent)}, change {sorted(change)}")
    if not parent:
        raise ValueError("no end-to-end records found")
    workloads = {}
    for name in sorted(parent):
        sides = {}
        for label, records in (("parent", parent[name]), ("change", change[name])):
            if len(records) < _MIN_SEEDS:
                raise ValueError(f"{name}: {label} has {len(records)} seeds, "
                                 f"need {_MIN_SEEDS}")
            sides[label] = summarize_side(records)
        before, after = ({m: e["median"] for m, e in sides[label]["metrics"].items()}
                         for label in ("parent", "change"))
        sides["change_vs_parent"] = relative(before, after)
        try:
            sides["claim"] = claim(parent[name], change[name], better)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        workloads[name] = sides
    summary = {
        "workloads": workloads,
        "env": {"parent": environment(parent), "change": environment(change)},
    }
    pairs = traced(parent_traced or {}, change_traced or {})
    if pairs:
        summary["traced"] = pairs
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="directory of the parent's end-to-end records")
    ap.add_argument("--change", type=Path, required=True,
                    help="directory of the change's end-to-end records")
    ap.add_argument("-o", "--output", type=Path, required=True)
    ap.add_argument("--benchmark", type=Path, default=_BENCHMARK,
                    help="the BENCHMARK.json that gives each metric's better "
                         "direction (default: the checkout's)")
    args = ap.parse_args(argv)
    try:
        summary = build(read_records(args.parent), read_records(args.change),
                        read_better(args.benchmark),
                        read_records(args.parent, 1), read_records(args.change, 1))
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args.output.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    for name, sides in summary["workloads"].items():
        for metric, rel in sides["change_vs_parent"].items():
            p, c = (sides[s]["metrics"][metric]["median"] for s in ("parent", "change"))
            rel_text = "n/a" if rel is None else f"{rel:+.1%}"
            line = f"{name:14s} {metric:24s} {p:12.6g} -> {c:12.6g}  {rel_text:>7s}"
            rule = sides["claim"].get(metric)
            if rule:
                line += (f"  wins {rule['wins']}/{len(rule['seeds'])},"
                         f" losses {rule['losses']}, median moved"
                         f" {rule['median_difference']:+.4g}"
                         f" {'>' if rule['beyond_iqr'] else '<='}"
                         f" parent IQR {rule['parent_iqr']:.4g}")
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
