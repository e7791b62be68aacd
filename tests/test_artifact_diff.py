"""tools/artifact_diff.py reports per-column and per-field changes of differing artifacts."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import artifact_diff  # noqa: E402


def _write(root: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)


def test_csv_and_json_changes_per_field(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    common = {"eigen/summary.json": json.dumps({"mu": [0.0, -9.8]})}
    _write(parent, {**common,
                    "simulate/path_0000.csv": "t,h\n0,1.0\n1,2.0\n",
                    "simulate/path_0001.csv": "t,h\n0,1.0\n1,4.0\n",
                    "simulate/summary.json": json.dumps({"mean": 3.0, "config": {"T": 1}})})
    _write(change, {**common,
                    "simulate/path_0000.csv": "t,h\n0,1.0\n1,2.000000000002\n",
                    "simulate/path_0001.csv": "t,h\n0,1.0\n1,4.00000000004\n",
                    "simulate/summary.json": json.dumps({"mean": 3.000003, "config": {"T": 1}})})
    assert artifact_diff.compare(parent, change) == 3
    out = capsys.readouterr().out
    assert "differs: simulate/path_0000.csv\n  h: largest relative change 1e-12\n" in out
    assert "differs: simulate/summary.json\n  mean: largest relative change 1e-06\n" in out
    # the closing table takes the largest change over files of one kind
    assert "  simulate/path_*.csv h: 1e-11\n" in out
    assert "eigen" not in out and " t:" not in out
    assert out.endswith("artifact_diff: 4 files compared, 3 differ\n")


@pytest.mark.parametrize("parent_csv,change_csv", [("a,b\n1,2\n", "a,b\n1,2\n3,4\n"),
                                                    ("a,b\n1,2\n", "a,c\n1,2\n")])
def test_reshaped_csv_reads_as_infinite_change(parent_csv, change_csv, tmp_path):
    (tmp_path / "p.csv").write_text(parent_csv)
    (tmp_path / "c.csv").write_text(change_csv)
    table = artifact_diff.file_table(Path("x.csv"), tmp_path / "p.csv", tmp_path / "c.csv")
    assert max(table.values()) == float("inf")


def test_nan_against_a_number_reads_as_infinite_change(tmp_path):
    (tmp_path / "p.json").write_text(json.dumps({"exponent": [0.06, 0.07]}))
    (tmp_path / "c.json").write_text('{"exponent": [NaN, 0.07]}')
    table = artifact_diff.file_table(Path("x.json"), tmp_path / "p.json", tmp_path / "c.json")
    assert table == {"exponent": float("inf")}


def test_moved_check_reads_by_its_name(tmp_path, capsys):
    def table(tail_ratio):
        checks = [{"name": "m1_batch_ratio", "value": 1.0, "bound": [0.8, 1.2], "op": "<=",
                   "se": None, "passed": True},
                  {"name": "m1_tail_ratio", "value": tail_ratio, "bound": [0.8, 1.2], "op": "<=",
                   "se": None, "passed": True}]
        criterion = {"id": 8, "name": "moment bound envelopes", "passed": True, "elapsed_s": 1.0,
                     "details": {"m1_tail_ratio": tail_ratio}, "checks": checks}
        return json.dumps({"criteria": [criterion], "all_passed": True, "quick": True,
                           "master_seed": 0})

    _write(tmp_path / "parent", {"acceptance/acceptance.json": table(1.06)})
    _write(tmp_path / "change", {"acceptance/acceptance.json": table(1.07)})
    assert artifact_diff.compare(tmp_path / "parent", tmp_path / "change") == 1
    out = capsys.readouterr().out
    assert "acceptance.json criterion 8: checks.m1_tail_ratio.value: largest relative change" in out
    assert "checks.m1_batch_ratio" not in out
