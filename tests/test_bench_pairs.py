"""tools/bench_pairs.py reads each metric of paired runs as a gain, regression, unresolved or
unchanged, and keeps each run's record fields."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs  # noqa: E402

# parent runs with median 100 and IQR 2 (2% of the median)
PARENT = [97.0, 98.0, 99.0, 99.5, 100.0, 100.0, 100.5, 101.0, 102.0, 103.0]


def _shifted(delta: float, losers: int = 0) -> list[float]:
    """The parent's runs moved by delta, with the first ``losers`` pairs moved by -delta."""
    return [v - delta if i < losers else v + delta for i, v in enumerate(PARENT)]


@pytest.mark.parametrize(
    "change,lower,bound,expected",
    [
        # lower is better: every pair won, median 3 below against an IQR of 2
        (_shifted(-3.0), True, 0.1, "gain"),
        # the same runs when higher is better: 3% worse, outside a 2% bound
        (_shifted(-3.0), False, 0.02, "regression"),
        # ... but inside a 10% bound, whose spread the parent's IQR does not exceed
        (_shifted(-3.0), False, 0.1, "unchanged"),
        # nine wins of ten still count as a gain, eight do not
        (_shifted(-3.0, losers=1), True, 0.1, "gain"),
        (_shifted(-3.0, losers=2), True, 0.1, "unchanged"),
        # every pair won, but the median moves by less than the parent's IQR
        (_shifted(-1.0), True, 0.1, "unchanged"),
        # a spread wider than the bound leaves a small move unresolved
        (_shifted(-1.0), True, 0.01, "unresolved"),
        # ties count for neither side
        (list(PARENT), True, 0.1, "unchanged"),
    ],
)
def test_verdict_on_synthetic_runs(change, lower, bound, expected):
    assert bench_pairs.verdict(PARENT, change, lower, bound) == expected


def test_every_change_run_better_is_not_unresolved():
    # IQR 10 of a median 105, wider than the bound; every change run beats
    # every parent run by less than the IQR: no gain, and not unresolved
    parent = [100.0] * 5 + [110.0] * 5
    assert bench_pairs.verdict(parent, [99.0] * 10, True, 0.01) == "unchanged"
    assert bench_pairs.verdict(parent, [101.0] * 10, True, 0.01) == "unresolved"


def test_summary_carries_the_verdict():
    runs = [
        {"pair": i, "side": side, "result": {"failed": 0, "metrics": {"peak_rss_mb": {"value": v}}}}
        for i, (p, c) in enumerate(zip(PARENT, _shifted(-3.0)))
        for side, v in (("parent", p), ("change", c))
    ]
    metrics = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    summary = bench_pairs.summarize(runs, metrics)["peak_rss_mb"]
    assert summary["verdict"] == "gain"
    assert summary["change_won_pairs"] == 10


def test_run_keeps_its_record_fields(tmp_path, monkeypatch):
    # a fake perfbench run: its stdout and the record it leaves under perfbench/work/
    record = {
        "extra": {"failed_ratio": 0.0, "iterations": 3, "criterion8_s": 7.5,
                  "criterion9_s": 14.0, "criterion10_s": 6.1},
        "setup_samples_s": [0.51, 0.5, 0.52],
        "wall_samples_s": [9.0, 9.5, 9.2],
        "metrics": {"wall_s": 9.2},
    }
    work = tmp_path / "perfbench" / "work"
    work.mkdir(parents=True)
    (work / "verify-seed4-trace0.json").write_text(json.dumps(record))
    result = {"correct": True, "attempted": 33, "failed": 0, "metrics": {}}
    stdout = f"perfbench verify\nenv: {json.dumps({'blas': 'x'})}\n{json.dumps(result)}\n"

    def fake_run(cmd, **kwargs):
        assert kwargs["cwd"] == tmp_path and cmd[cmd.index("--seed") + 1] == "4"
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    run = bench_pairs.run_once(tmp_path, "verify", 4, 30.0)
    assert run == {
        "result": result,
        "env": {"blas": "x"},
        "extra": {"criterion8_s": 7.5, "criterion9_s": 14.0, "criterion10_s": 6.1, "iterations": 3},
        "setup_samples_s": [0.51, 0.5, 0.52],
        "wall_samples_s": [9.0, 9.5, 9.2],
    }
