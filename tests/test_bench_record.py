"""scripts/bench_record.py on synthetic benchmark records."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

ENV = {"python": "3.11.7", "nproc": 2, "commit": "abc"}


def write_record(out_dir, workload, seed, run_s, trace=0, env=ENV, metrics=None):
    record = {
        "correct": True, "attempted": 4, "failed": 0,
        "metrics": metrics or {"run_s": {"value": run_s, "unit": "s"},
                               "err_ideal_late": {"value": 0.5, "unit": "rad/s"}},
        "workload": workload, "seed": seed, "trace": trace, "env": env,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def test_medians_quartiles_and_change(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (a, b) in enumerate([(6.0, 2.0), (7.0, 3.0), (5.0, 2.5), (6.5, 2.2)], 1):
        write_record(parent, "dense_learner", seed, a)
        write_record(change, "dense_learner", seed, b, env=dict(ENV, commit="def"))
    # a per-layer record is not an end-to-end one
    write_record(change, "dense_learner", 9, 100.0, trace=1)
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", str(parent), "--change", str(change),
                              "-o", str(out)]) == 0
    summary = json.loads(out.read_text())
    w = summary["workloads"]["dense_learner"]
    assert w["parent"]["seeds"] == [1, 2, 3, 4]
    run_p = w["parent"]["metrics"]["run_s"]
    assert run_p["values"] == [6.0, 7.0, 5.0, 6.5]
    assert (run_p["q1"], run_p["median"], run_p["q3"]) == (5.75, 6.25, 6.625)
    assert run_p["unit"] == "s"
    assert w["change"]["metrics"]["run_s"]["median"] == 2.35
    assert w["change_vs_parent"]["run_s"] == pytest.approx(2.35 / 6.25 - 1.0)
    assert w["change_vs_parent"]["err_ideal_late"] == 0.0
    assert w["change"]["attempted"] == 16 and w["change"]["failed"] == 0
    assert summary["env"]["parent"]["commit"] == "abc"
    assert summary["env"]["change"]["commit"] == "def"


def test_too_few_seeds_exit_2(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2, 3):
        write_record(parent, "switch", seed, 2.4)
    for seed in (1, 2):
        write_record(change, "switch", seed, 2.3)
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", str(parent), "--change", str(change),
                              "-o", str(out)]) == 2
    assert "change has 2 seeds" in capsys.readouterr().err
    assert not out.exists()


def test_mixed_environments_exit_2(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2, 3):
        write_record(parent, "switch", seed, 2.4, env=dict(ENV, nproc=seed))
        write_record(change, "switch", seed, 2.3)
    assert bench_record.main(["--parent", str(parent), "--change", str(change),
                              "-o", str(tmp_path / "BENCH.json")]) == 2
    assert "different environments" in capsys.readouterr().err


def test_traced_records_pair_at_the_lowest_common_seed(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2, 3):
        for side, run_s in ((parent, 2.4), (change, 2.0)):
            write_record(side, "switch", seed, run_s)
            write_record(side, "dense_learner", seed, run_s)

    def layers(p50_us, calls):
        return {"gp.point_eval.p50_us": {"value": p50_us, "unit": "us"},
                "gp.point_eval.calls": {"value": calls, "unit": "count"}}

    write_record(parent, "switch", 2, None, trace=1, metrics=layers(12.0, 60000))
    write_record(parent, "switch", 3, None, trace=1, metrics=layers(99.0, 60000))
    write_record(change, "switch", 2, None, trace=1, metrics=layers(6.0, 60000))
    # traced on one side only: no pair
    write_record(change, "dense_learner", 1, None, trace=1, metrics=layers(20.0, 1))
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", str(parent), "--change", str(change),
                              "-o", str(out)]) == 0
    pairs = json.loads(out.read_text())["traced"]
    assert sorted(pairs) == ["switch"]
    # one common seed: its values, as one run a side gives them
    assert (pairs["switch"]["seed"], pairs["switch"]["n_seeds"]) == (2, 1)
    assert pairs["switch"]["parent"]["gp.point_eval.p50_us"] == 12.0
    assert pairs["switch"]["change"]["gp.point_eval.p50_us"] == 6.0
    assert pairs["switch"]["change_vs_parent"] == {
        "gp.point_eval.p50_us": -0.5, "gp.point_eval.calls": 0.0}


def test_traced_metrics_are_medians_over_the_common_seeds(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2, 3):
        for side, run_s in ((parent, 2.4), (change, 2.0)):
            write_record(side, "switch", seed, run_s)

    def layers(self_s, calls):
        return {"gp.mean_at.self_s": {"value": self_s, "unit": "s"},
                "gp.point_eval.calls": {"value": calls, "unit": "count"}}

    # seed 4 is traced on the parent only: left out of both medians
    for seed, p, c in ((1, 0.30, 0.010), (2, 0.10, 0.002), (3, 0.20, 0.004),
                       (4, 9.0, None)):
        write_record(parent, "switch", seed, None, trace=1, metrics=layers(p, 60000))
        if c is not None:
            write_record(change, "switch", seed, None, trace=1, metrics=layers(c, 60000))
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", str(parent), "--change", str(change),
                              "-o", str(out)]) == 0
    pair = json.loads(out.read_text())["traced"]["switch"]
    assert (pair["seed"], pair["n_seeds"]) == (1, 3)
    assert pair["parent"] == {"gp.mean_at.self_s": 0.20, "gp.point_eval.calls": 60000}
    assert pair["change"] == {"gp.mean_at.self_s": 0.004, "gp.point_eval.calls": 60000}
    assert pair["change_vs_parent"]["gp.mean_at.self_s"] == pytest.approx(0.004 / 0.20 - 1.0)
    assert pair["change_vs_parent"]["gp.point_eval.calls"] == 0.0


def write_benchmark(path, better):
    path.write_text(json.dumps({"end_to_end": [
        {"name": name, "unit": "x", "better": b, "bound": 0.25} for name, b in better.items()]}))
    return path


def test_claim_rule_counts_pairs_in_each_metrics_direction(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    run_p = [1.20, 1.10, 1.30, 1.00, 1.25]
    run_c = [1.10, 1.10, 1.20, 1.05, 1.00]   # wins 3, a tie, loses 1
    cov_p = [0.90, 0.91, 0.92, 0.93, 0.94]
    cov_c = [0.95, 0.96, 0.97, 0.98, 0.90]   # higher is better: wins 4, loses 1

    def metrics(run_s, cov):
        return {"run_s": {"value": run_s, "unit": "s"},
                "envelope_coverage_frac": {"value": cov, "unit": "fraction"},
                "err_ideal_late": {"value": 0.5, "unit": "rad/s"}}

    for seed in range(5):
        for side, run_s, cov in ((parent, run_p, cov_p), (change, run_c, cov_c)):
            write_record(side, "switch", seed + 1, None, metrics=metrics(run_s[seed], cov[seed]))
    # seed 9 runs on the change's side only: no pair
    write_record(change, "switch", 9, None, metrics=metrics(0.01, 1.0))
    bench = write_benchmark(tmp_path / "BENCHMARK.json",
                            {"run_s": "lower", "envelope_coverage_frac": "higher",
                             "peak_rss_mb": "lower"})
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", str(parent), "--change", str(change),
                              "-o", str(out), "--benchmark", str(bench)]) == 0
    rule = json.loads(out.read_text())["workloads"]["switch"]["claim"]
    # no direction for err_ideal_late, no record of peak_rss_mb
    assert sorted(rule) == ["envelope_coverage_frac", "run_s"]
    run = rule["run_s"]
    assert run["seeds"] == [1, 2, 3, 4, 5] and run["better"] == "lower"
    assert (run["wins"], run["losses"]) == (3, 1)
    # parent quartiles 1.10 and 1.25; medians 1.20 and 1.10
    assert run["parent_iqr"] == pytest.approx(0.15)
    assert run["median_difference"] == pytest.approx(-0.10)
    assert run["beyond_iqr"] is False
    cov = rule["envelope_coverage_frac"]
    assert (cov["better"], cov["wins"], cov["losses"]) == ("higher", 4, 1)
    # parent quartiles 0.91 and 0.93; medians 0.92 and 0.96
    assert cov["parent_iqr"] == pytest.approx(0.02)
    assert cov["median_difference"] == pytest.approx(0.04)
    assert cov["beyond_iqr"] is True


def test_claim_rule_reads_the_checkouts_benchmark_by_default(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(1, 11):
        write_record(parent, "switch", seed, 1.2 + 0.01 * seed)
        write_record(change, "switch", seed, 1.1 + 0.01 * seed)
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", str(parent), "--change", str(change),
                              "-o", str(out)]) == 0
    run = json.loads(out.read_text())["workloads"]["switch"]["claim"]["run_s"]
    assert (run["better"], run["wins"], run["losses"]) == ("lower", 10, 0)
    assert run["beyond_iqr"] is True
    assert "wins 10/10, losses 0" in capsys.readouterr().out


def test_claim_rule_needs_three_pairs(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2, 3):
        write_record(parent, "switch", seed, 2.4)
        write_record(change, "switch", seed + 2, 2.3)
    assert bench_record.main(["--parent", str(parent), "--change", str(change),
                              "-o", str(tmp_path / "BENCH.json")]) == 2
    assert "switch: 1 seeds run on both sides, need 3" in capsys.readouterr().err
