"""Tests of the benchmark itself: wrappers, traced vs untraced outputs, smoke runs.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402  (pins the thread settings first)

sys.path.insert(0, str(run.SRC))
import layertrace  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.SimulateSpec("small", paths=5, T=0.02, dt=1e-3, n_modes=8, n_grid=16)
SMALL_WIDE = workloads.SimulateSpec("small-wide", paths=3, T=0.01, dt=1e-3, n_modes=128, n_grid=256)
CHEAP_CRITERIA = (2, 3, 7)


def _patched_names():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in layertrace.targets()]


def test_wrappers_restore_originals_even_on_error():
    originals = _patched_names()
    with pytest.raises(RuntimeError):
        with layertrace.installed(layertrace.Tracer()):
            assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
            raise RuntimeError("inside the traced block")
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_column_step_counter_restores_originals():
    originals = _patched_names()
    with layertrace.column_step_counter():
        pass
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_traced_simulate_matches_untraced(tmp_path):
    wl = workloads.SimulateWorkload(SMALL, 3, tmp_path, None)
    plain = wl.run()
    tracer = layertrace.Tracer()
    with layertrace.installed(tracer):
        traced = wl.run(tracer)
    assert plain.failed == traced.failed == 0
    assert plain.digests == traced.digests
    summary = tracer.summary()
    steps = SMALL.paths * SMALL.steps
    assert plain.column_steps == summary["solver.column_steps"] == steps
    assert summary["noise.normals_calls"] == steps
    assert summary["solver.batches"] == 1
    assert summary["cli.write_calls"] == SMALL.paths + 1
    assert summary["model.norm_calls"] == 2 * (SMALL.steps + 1)
    assert summary["solver.transform_gflop_computed"] == steps * 2 * 2 * 8 * 16 / 1e9
    assert 0.0 < summary["solver.self_s"] < summary["solver.batch_s"]


def test_traced_verify_matches_untraced():
    wl = workloads.VerifyWorkload(criteria=CHEAP_CRITERIA)
    plain = wl.run()
    tracer = layertrace.Tracer()
    with layertrace.installed(tracer):
        traced = wl.run(tracer)
    assert plain.failed == traced.failed == 0
    assert plain.digests == traced.digests
    summary = tracer.summary()
    # criterion 7 runs one eps-ladder batch whose observer evaluates the drift
    assert summary["solver.batches"] == 1
    assert summary["solver.observer_s"] > 0.0
    assert summary["ergodics.observer_s"] == summary["kolmogorov.observer_s"] == 0.0
    assert set(tracer.layers) >= {f"acceptance.criterion{c}" for c in CHEAP_CRITERIA}


def test_simulate_check_flags_bad_outputs(tmp_path):
    wl = workloads.SimulateWorkload(SMALL, 0, tmp_path, None)
    wl.run()
    stats, _ = workloads.path_statistics(wl.out, SMALL)
    wl.reference = stats.copy()
    assert wl.run().failed == 0
    wl.reference[1, 0] *= 1.0 + 1e-6
    assert wl.run().failed == 1
    (wl.out / "path_0002.csv").unlink()
    failed, notes = wl.check()
    assert failed == 2 and len(notes) == 2  # the missing file and the reference mismatch
    (wl.out / "summary.json").unlink()
    assert wl.check()[0] == SMALL.paths


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize(
    "make",
    [
        lambda d: workloads.SimulateWorkload(SMALL, 1, d, None),
        lambda d: workloads.SimulateWorkload(SMALL_WIDE, 1, d, None),
        lambda d: workloads.VerifyWorkload(criteria=(1, 2, 3)),
    ],
    ids=["ensemble", "wide", "verify"],
)
def test_reduced_workload_smoke(tmp_path, make, trace):
    everything, untraced, traced = run.measure(make(tmp_path), 0.0, trace, deadline=float("inf"))
    assert untraced and all(it.failed == 0 for it in everything)
    for key in everything[-1].digests:
        assert len({it.digests[key] for it in everything if key in it.digests}) == 1
    assert len(traced) == (len(untraced) if trace else 0)


def test_traced_verify_stops_at_deadline():
    wl = workloads.VerifyWorkload(criteria=(1, 2, 3))
    everything, untraced, traced = run.measure(wl, 0.0, True, deadline=0.0)
    assert len(traced) == 1 and untraced[0].criterion_s == {}
    assert all(it.failed == 0 for it in everything)
    assert run.tracing_overhead(untraced, traced) == 0.0


def test_command_prints_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "ensemble", "--seed", "5",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_fails_without_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ensemble", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
