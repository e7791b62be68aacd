"""fhn-spectral benchmark: one workload per call, end-to-end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload {ensemble,wide,verify} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` the run prints the end-to-end metrics, measured with no
wrapper but a call counter on the solver batch: set-up time (median of
fresh-interpreter probes), the median wall time of one workload iteration,
path-steps per second and peak RSS.  With ``--trace 1`` it alternates
untraced and traced iterations and prints the per-layer metrics of the
traced ones plus the tracing overhead.  Every iteration's outputs are
checked.  The last stdout line is the JSON result; the full record, with
the thread settings and library versions, and the spans of traced
iterations are written under perfbench/work/.
"""

from __future__ import annotations

import os

# pinned before numpy loads: one BLAS/OpenMP thread, no process pool
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "FHN_SPECTRAL_WORKERS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports the package lazily)
from layertrace import Tracer, installed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "work"
SETUP_PROBES = 3
# a traced verify run stops repeating criteria untraced after this long
TRACE_BUDGET_S = 100.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "path_steps_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    """Thread settings, machine and library versions recorded with each result."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "fhn_spectral").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        git_sha = proc.stdout.strip() or None
    return {
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Interpreter start to first workload call, in fresh processes."""
    probe = HERE / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        start = time.time()
        proc = subprocess.run(
            [sys.executable, str(probe), workload, str(seed), str(SRC)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def measure(workload, seconds: float, trace: bool, deadline: float):
    """Iterate until ``seconds`` have passed (simulations: at least 3 times).

    Traced simulation runs alternate untraced and traced iterations.  A
    verify pass takes longer than ``seconds``; a traced verify run makes one
    traced pass and then repeats untraced only the criteria whose traced
    time fits before ``deadline`` (a perf_counter time), so the run ends in
    time on a slow machine.  Returns (all iterations, untraced ones, traced
    ones with their summaries and span dumps).
    """
    everything, untraced, traced = [], [], []
    tracer = Tracer()

    def traced_run():
        tracer.reset()
        with installed(tracer):
            it = workload.run(tracer)
        everything.append(it)
        traced.append((it, tracer.summary(), tracer.dump()))
        return it

    verify = isinstance(workload, workloads.VerifyWorkload)
    if trace and verify:
        it = traced_run()
        fits, end = [], time.perf_counter()
        for cid in workload.criteria:
            if end + it.criterion_s[cid] <= deadline:
                fits.append(cid)
                end += it.criterion_s[cid]
        untraced.append(workload.subset(tuple(fits)).run())
        everything.append(untraced[-1])
        return everything, untraced, traced

    start = time.perf_counter()
    min_runs = 1 if verify else (2 if trace else 3)
    while True:
        untraced.append(workload.run())
        everything.append(untraced[-1])
        if trace:
            traced_run()
        if len(untraced) >= min_runs and time.perf_counter() - start >= seconds:
            return everything, untraced, traced


def tracing_overhead(untraced, traced) -> float:
    """Median traced minus median untraced wall time, over the same work.

    For verify that is the sum over the criteria both passes ran.
    """
    if traced[0][0].criterion_s:
        done = untraced[0].criterion_s
        return sum(traced[0][0].criterion_s[cid] - t for cid, t in done.items())
    return statistics.median(it.wall_s for it, _, _ in traced) - statistics.median(
        it.wall_s for it in untraced
    )


def main(argv: list[str] | None = None) -> int:
    deadline = time.perf_counter() + TRACE_BUDGET_S
    args = parse_args(argv)
    if not (SRC / "fhn_spectral" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    workload = workloads.make(args.workload, args.seed, WORKDIR)
    everything, untraced, traced = measure(workload, args.seconds, bool(args.trace), deadline)

    attempted = sum(it.attempted for it in everything)
    failed = sum(it.failed for it in everything)
    wall = statistics.median(it.wall_s for it in untraced)
    column_steps = untraced[0].column_steps
    first: dict[str, str] = {}
    differ = sorted({k for it in everything for k, v in it.digests.items() if first.setdefault(k, v) != v})
    if differ:
        print(f"perfbench: outputs differ between iterations: {differ}", file=sys.stderr)
        failed = max(failed, 1)
    extra: dict[str, tuple[float, str]] = {
        "failed_ratio": (failed / attempted, "ratio"),
        "iterations": (len(untraced), "count"),
    }
    if args.trace:
        metrics = {key: _median([summary[key] for _, summary, _ in traced]) for key in traced[0][1]}
        for cid in workloads.VERIFY_CRITERIA:
            metrics[f"acceptance.criterion{cid}_s"] = statistics.median(
                it.criterion_s.get(cid, 0.0) for it, _, _ in traced
            )
        metrics["trace.overhead_s"] = tracing_overhead(untraced, traced)
        units = {key: _unit(key) for key in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "path_steps_per_s": column_steps / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END_UNITS)
        if args.workload == "verify":
            for cid in (8, 9, 10):
                extra[f"criterion{cid}_s"] = (untraced[0].criterion_s[cid], "s")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "metrics": metrics,
        "extra": {k: v for k, (v, _) in extra.items()},
        "setup_samples_s": setup,
        "wall_samples_s": [it.wall_s for it in untraced],
        "untraced_criteria": sorted(untraced[0].criterion_s),
        "notes": [note for it in everything for note in it.notes],
    }
    WORKDIR.mkdir(exist_ok=True)
    stem = WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str))
    if traced:
        spans = [dump for _, _, dump in traced]
        (WORKDIR / f"{stem.name}-spans.json").write_text(json.dumps(spans))

    for note in record["notes"]:
        print(f"perfbench: {note}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for key, value in metrics.items():
        print(f"  {key:34s} {value:>16.6g} {units[key]}")
    for key, (value, unit) in extra.items():
        print(f"  {key:34s} {value:>16.6g} {unit}")
    print("env: " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _median(values: list) -> float | int:
    """Median; counts stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("gflop_computed"):
        return "GFLOP"
    if key.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
