"""Paired parent/change runs of the benchmark, written to one JSON file.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent REV --workload wide --workload verify \\
        --pairs 10 --out BENCH_N.json

The parent tree is extracted with ``git archive REV`` and the change is
copied from the working tree (tracked and unignored files), both into a
temporary directory, so neither side sees the other's build products or
the repository's ``.git``.  For each workload the runner
makes ``--pairs`` pairs of ``perfbench/run.py --trace 0`` runs and
alternates which side goes first.  It refuses to run when the two trees'
``perfbench/`` files differ, so both sides are measured by the same code.
The output holds every run's result line and environment line, with the
criterion times, iteration count and time samples of the record the run
leaves under ``perfbench/work/``, and per end-to-end metric of
``BENCHMARK.json`` each side's median and quartiles, the change/parent
ratio of the medians, how many pairs the change won and a ``verdict``
(see :func:`verdict`).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev: str, dest: Path) -> str:
    """Write ``git archive rev`` under dest; returns the full commit id."""
    sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", rev], capture_output=True, text=True, check=True
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", sha], capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def copy_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and unignored files under dest."""
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True, text=True, check=True,
    ).stdout
    for name in filter(None, listed.split("\0")):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def same_benchmark(a: Path, b: Path) -> bool:
    def files(root: Path) -> dict[str, bytes]:
        bench = root / "perfbench"
        return {
            str(p.relative_to(bench)): p.read_bytes()
            for p in sorted(bench.rglob("*"))
            if p.is_file() and "work" not in p.relative_to(bench).parts
            and "__pycache__" not in p.parts
        }

    return files(a) == files(b)


# the fields of perfbench's per-run record kept beside the result line: the
# slow criteria's times and the iteration count, and every set-up and wall sample
RECORD_EXTRA = ("criterion8_s", "criterion9_s", "criterion10_s", "iterations")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(line[len("env: "):] for line in lines if line.startswith("env: "))
    record = json.loads(
        (tree / "perfbench" / "work" / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    return {
        "result": json.loads(lines[-1]),
        "env": json.loads(env),
        "extra": {k: record["extra"][k] for k in RECORD_EXTRA if k in record["extra"]},
        "setup_samples_s": record["setup_samples_s"],
        "wall_samples_s": record["wall_samples_s"],
    }


def quartiles(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def pairs_won(parent: list[float], change: list[float], lower: bool) -> int:
    """Pairs in which the change reads strictly better; ties count for neither side."""
    return sum((c < p) if lower else (c > p) for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], lower: bool, bound: float) -> str:
    """One metric's reading from paired runs, ``parent[i]`` paired with ``change[i]``.

    ``gain``: the change won at least nine tenths of the pairs (ties count
    for neither) and its median is better by more than the parent's IQR.
    ``regression``: its median is worse by more than the relative ``bound``.
    ``unresolved``: the parent's IQR is wider than ``bound`` of its median
    and not every change run beats every parent run.  ``unchanged``: none
    of these.
    """
    sign = 1.0 if lower else -1.0  # sign * (parent - change) > 0 where the change is better
    p = quartiles(parent)
    gap = sign * (p["median"] - quartiles(change)["median"])
    if 10 * pairs_won(parent, change, lower) >= 9 * len(parent) and gap > p["iqr"]:
        return "gain"
    if -gap > bound * abs(p["median"]):
        return "regression"
    best_parent = min(parent) if lower else max(parent)
    worst_change = max(change) if lower else min(change)
    if p["iqr"] > bound * abs(p["median"]) and not sign * (best_parent - worst_change) > 0:
        return "unresolved"
    return "unchanged"


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's quartiles, the median ratio, the pairs won and the verdict."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        side = {
            s: [r["result"]["metrics"][name]["value"] for r in runs if r["side"] == s]
            for s in ("parent", "change")
        }
        won = pairs_won(side["parent"], side["change"], lower)
        parent, change = quartiles(side["parent"]), quartiles(side["change"])
        out[name] = {
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": parent,
            "change": change,
            "ratio": change["median"] / parent["median"],
            "change_won_pairs": won,
            "pairs": len(side["parent"]),
            "verdict": verdict(side["parent"], side["change"], lower, metric["bound"]),
        }
    out["failed"] = {
        s: sum(r["result"]["failed"] for r in runs if r["side"] == s) for s in ("parent", "change")
    }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(bench["run_seconds"])

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        parent_sha = extract(args.parent, trees["parent"])
        copy_worktree(trees["change"])
        if not same_benchmark(trees["parent"], trees["change"]):
            print("bench_pairs: perfbench/ differs between parent and change", file=sys.stderr)
            return 2
        record = {
            "parent": parent_sha,
            "change": "working tree",
            "command": bench["command"] + ["--workload", "<workload>", "--seed", str(args.seed),
                                           "--seconds", str(seconds), "--trace", "0"],
            "pairs": args.pairs,
            "env": None,
            "workloads": {},
        }
        for workload in args.workload:
            runs = []
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    run = run_once(trees[side], workload, args.seed, seconds)
                    runs.append({"pair": pair, "side": side, **run})
                    record["env"] = record["env"] or run["env"]
                    value = run["result"]["metrics"]["path_steps_per_s"]["value"]
                    print(f"{workload} pair {pair} {side}: path_steps_per_s {value:.6g}",
                          file=sys.stderr)
            record["workloads"][workload] = {
                "summary": summarize(runs, bench["end_to_end"]),
                "runs": runs,
            }
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
