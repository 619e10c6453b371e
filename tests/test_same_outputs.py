"""scripts/same_outputs.py's comparison, on small hand-made output directories."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_outputs.py"
spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)

TRACE = "t,x1,x2\n0,0.5,1\n0.01,0.25,2\n"
MANIFEST = '{\n  "seed": 1,\n  "wall_clock_s": %s,\n  "tool_version": "0.1.0"\n}\n'


def write(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def compare(tmp_path, parent, change):
    return same_outputs.compare_dirs(write(tmp_path / "parent", parent),
                                     write(tmp_path / "change", change))


def test_identical_directories(tmp_path):
    files = {"run/trace.csv": TRACE, "run/summary.json": '{"a": 1}\n'}
    assert compare(tmp_path, files, files) == []


def test_wall_clock_is_ignored(tmp_path):
    assert compare(tmp_path, {"run/manifest.json": MANIFEST % "1.25"},
                   {"run/manifest.json": MANIFEST % "0.5"}) == []


def test_any_other_manifest_byte_counts(tmp_path):
    other = MANIFEST.replace('"seed": 1', '"seed": 2')
    assert compare(tmp_path, {"run/manifest.json": MANIFEST % "1.25"},
                   {"run/manifest.json": other % "1.25"}) == ["run/manifest.json: differs"]
    # the wall-clock blank is for manifests only
    assert compare(tmp_path / "2", {"run/summary.json": MANIFEST % "1.25"},
                   {"run/summary.json": MANIFEST % "0.5"}) == ["run/summary.json: differs"]


def test_csv_reports_the_largest_difference_per_column(tmp_path):
    moved = "t,x1,x2\n0,0.5,1\n0.01,0.75,2\n"
    assert compare(tmp_path, {"run/trace.csv": TRACE}, {"run/trace.csv": moved}) == [
        "run/trace.csv: differs",
        "  x1: max |diff| 0.5 in 1 rows",
    ]


def test_csv_same_numbers_in_other_text(tmp_path):
    assert compare(tmp_path, {"run/trace.csv": TRACE},
                   {"run/trace.csv": TRACE.replace("0.5", "5e-1")}) == [
        "run/trace.csv: differs",
        "  same numbers, different text",
    ]


def test_csv_shape_and_header_changes(tmp_path):
    assert compare(tmp_path, {"trace.csv": TRACE}, {"trace.csv": TRACE + "0.02,0,3\n"}) == [
        "trace.csv: differs",
        "  shapes differ: (2, 3) vs (3, 3)",
    ]
    assert compare(tmp_path / "2", {"trace.csv": TRACE},
                   {"trace.csv": TRACE.replace("x2", "x3")}) == [
        "trace.csv: differs",
        "  headers differ",
    ]


def test_a_file_on_one_side_only(tmp_path):
    events = "t,kind\n"
    assert compare(tmp_path, {"a/events.csv": events}, {"b/events.csv": events}) == [
        "a/events.csv: only in parent",
        "b/events.csv: only in change",
    ]


def test_runs_cover_every_deck(tmp_path):
    write(tmp_path, {"configs/b.cfg": "", "configs/a.cfg": ""})
    names = [name for name, _ in same_outputs.runs(tmp_path)]
    assert names == [
        "simulate-a", "simulate-b", "simulate-dense_learner", "margin-l1_plain",
        "margin-step_nominal-snapshot30", "bound-check-step_nominal",
    ]
