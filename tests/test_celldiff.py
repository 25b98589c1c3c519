"""``tools/celldiff.py``: every moved CSV cell and JSON key path, with both values."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import hbvkit as hk

TOOL = Path(__file__).resolve().parent.parent / "tools" / "celldiff.py"
_spec = importlib.util.spec_from_file_location("celldiff", TOOL)
celldiff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(celldiff)


@pytest.fixture()
def two_runs(tmp_path):
    """Two run directories of the same registry scenario."""
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        hk.run_scenario("table2-dfe", out)
    return runs


def test_identical_runs_move_nothing(two_runs):
    assert celldiff.celldiff(*two_runs) == ([], ["0 moved in all"])
    done = subprocess.run([sys.executable, str(TOOL), *map(str, two_runs)], capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "0 moved in all\n")


def test_moved_cells_and_keys_are_printed_with_both_values(two_runs, capsys):
    a, b = two_runs
    csv = b / "trajectory.csv"
    rows = csv.read_text(encoding="utf-8").splitlines(keepends=True)
    t, x, y, z = rows[2].rstrip("\n").split(",")
    rows[2] = f"{t},{x},1.5,{z}\n"
    csv.write_text("".join(rows + ["9,1,2,3\n"]), encoding="utf-8")
    report = json.loads((b / "report.json").read_text(encoding="utf-8"))
    report["trajectory"]["n_points"] += 1
    report["added"] = [1.0]
    (b / "report.json").write_text(json.dumps(report), encoding="utf-8")
    (b / "plot.gp").write_text("plot 1\n", encoding="utf-8")
    (b / "extra.txt").write_text("", encoding="utf-8")
    n_points = report["trajectory"]["n_points"]

    assert celldiff.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "plot.gp bytes differ",
        f"report.json trajectory.n_points: {n_points - 1} -> {n_points}",
        "report.json added.0: (none) -> 1.0",
        f"trajectory.csv row 2 y: {y} -> 1.5",
        *(f"trajectory.csv row {len(rows)} {col}: (none) -> {v}" for col, v in zip("txyz", "9123")),
        f"only in {b}: extra.txt",
        "plot.gp: 1 moved",
        "report.json: 2 moved",
        "trajectory.csv: 5 moved",
        "9 moved in all",
    ]


def test_two_files(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text('{"x": 1, "y": [NaN, {}], "z": 2}', encoding="utf-8")
    b.write_text('{"x": 1.0, "y": [NaN, {}]}', encoding="utf-8")
    assert celldiff.celldiff(a, b) == (
        ["a.json x: 1 -> 1.0", "a.json z: 2 -> (none)"], ["a.json: 2 moved", "2 moved in all"]
    )


def test_usage_errors(tmp_path, capsys):
    assert celldiff.main([str(tmp_path)]) == 2
    (tmp_path / "f.csv").write_text("t\n", encoding="utf-8")
    assert celldiff.main([str(tmp_path), str(tmp_path / "f.csv")]) == 2
