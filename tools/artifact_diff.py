"""Compare every CLI artifact of a parent revision with the working tree's.

Usage (from the repository root):

    python3 tools/artifact_diff.py --parent REV [--workers N]

Both trees are laid out the way ``bench_pairs.py`` lays them out: the
parent from ``git archive REV``, the change from the working tree's tracked
and unignored files.  Each tree runs the inputs in ``CONFIGS`` (``eigen``
with the default config, the eight experiment subcommands with small fixed
configs, ``couple``, ``dynkin`` and ``linear-oracle`` again with a start
time and eps off their defaults, ``dynkin`` with c and p grid tables,
``dynkin`` and ``couple`` with dense directions and starts, ``invariant``
pairing on the w channel, ``couple`` with at most one record in its fit
window, ``eigen`` and ``simulate`` on a 256-mode basis, which transforms
by DCT, ``simulate`` with a variable c and on a 96-point grid,
``couple`` with one start above the substep ceiling and one below,
``simulate`` with 136 paths from above the ceiling, and ``backward`` with
40 paths) and ``acceptance --quick``, all with one BLAS thread.
Each ``CONFIGS`` input's stdout report line, with its ``--out`` path read
as ``<out>``, goes to ``report/<name>.txt``, so a moved report line shows
like a moved artifact.  The parent always runs with one worker;
``--workers`` sets ``FHN_SPECTRAL_WORKERS`` for the change, so a worker
count that moves a byte shows up too.  Each tree also runs the inputs in
``REJECTED`` and records each one's exit code, last stderr line (argparse
prints its usage first) and whether it left its ``--out`` directory
behind in ``rejected/<name>.txt``, so a move in the error contract shows
up like a moved artifact.

The script prints every output file that is missing on one side or
differs, and for a ``rejected/`` file both sides' contents.  For a
differing CSV it prints the largest relative change per column, for a
differing JSON file per field, and for ``acceptance.json`` per criterion
field, ignoring ``elapsed_s``.  A closing table gives the largest change
per field over all files of one kind (digits in the file name read as
``*``).  Exit code 0 means every file is byte-identical and
``acceptance.json`` is equal apart from ``elapsed_s``; 1 means something
differs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import copy_worktree, extract

# the CLI's inputs: output directory -> (subcommand, config)
CONFIGS: dict[str, tuple[str, dict]] = {
    "eigen": ("eigen", {}),
    "simulate": ("simulate", {
        "run": {"T": 0.2, "record_every": 7, "x0": {"kind": "constant", "u": 1.5}},
        "master_seed": 3, "paths": 40,
    }),
    "couple": ("couple", {"run": {"T": 0.5, "record_every": 30}, "master_seed": 4, "paths": 3}),
    "convergence": ("convergence", {
        "run": {"T": 0.1, "x0": {"kind": "cosine", "u_amplitude": 1.5, "u_mode": 1}},
        "convergence": {"eps_ladder": [0.2, 0.1, 0.05]},
        "master_seed": 5, "paths": 4,
    }),
    "backward": ("backward", {
        "run": {"dt": 2e-3, "x0": {"kind": "constant", "u": 1.5}},
        "backward": {"lambda_ladder": [0.5, 1, 2]},
        "master_seed": 7, "paths": 34,
    }),
    "moments": ("moments", {
        "run": {"T": 2.0, "dt": 2e-3, "record_every": 20, "x0": {"kind": "constant", "u": 2.0}},
        "master_seed": 8, "paths": 36,
    }),
    "invariant": ("invariant", {
        "model": {"p": 0.85},
        "run": {"T": 1.0, "dt": 2e-3, "x0": {"kind": "constant", "u": 0.5}},
        "invariant": {"burn_in": 9.0, "n_time_samples": 40, "sample_spacing": 1.0,
                      "pairing_mode": 0},
        "master_seed": 9, "paths": 36,
    }),
    "linear-oracle": ("linear-oracle", {
        "run": {"T": 30.0, "dt": 0.05, "drift": "linear_eta"},
        "linear_oracle": {"burn_in": 10.0},
        "master_seed": 10, "paths": 32,
    }),
    "dynkin": ("dynkin", {
        "model": {"gamma": 1.0},
        "run": {"T": 0.2},
        "dynkin": {"h_u": [[0, 0.4], [1, 0.3]]},
        "master_seed": 6, "paths": 16,
    }),
    # start times and eps off their defaults, so every field a run description
    # forwards to the integrator is exercised
    "couple-offset": ("couple", {
        "run": {"T": 0.4, "record_every": 20, "start_time": -0.2, "eps": 0.1},
        "master_seed": 13, "paths": 2,
    }),
    "dynkin-offset": ("dynkin", {
        "model": {"gamma": 1.0},
        "run": {"T": 0.2, "start_time": -0.3, "eps": 0.1},
        "master_seed": 14, "paths": 8,
    }),
    "linear-oracle-offset": ("linear-oracle", {
        "run": {"T": 20.0, "dt": 0.05, "drift": "linear_eta", "start_time": -5.0},
        "linear_oracle": {"burn_in": 10.0},
        "master_seed": 15, "paths": 16,
    }),
    # c and p grid tables: a variable-c basis, and a block at min p whose
    # remainder (min p - p) u rides in the explicit term of drift and generator
    "dynkin-variable": ("dynkin", {
        "model": {"gamma": 1.0, "c": [1.0 + 0.5 * (j + 0.5) / 64 for j in range(64)],
                  "p": [0.3 + 0.2 * ((j + 0.5) / 64) ** 2 for j in range(64)]},
        "run": {"T": 0.2, "eps": 0.2},
        "dynkin": {"h_u": [[0, 0.4], [1, 0.3]], "h_w": [[1, 0.2]]},
        "master_seed": 16, "paths": 8,
    }),
    # dense directions and starts: a pairing whose summation order moved would
    # show here, where today's sparse inputs (at most three entries) hide it
    "dynkin-dense": ("dynkin", {
        "model": {"gamma": 1.0},
        "run": {"T": 0.2},
        "dynkin": {"h_u": [[k, 0.05 * (-1) ** k / (1 + k)] for k in range(8)],
                   "h_w": [[k, 0.03 / (2 + k)] for k in range(4)]},
        "master_seed": 17, "paths": 8,
    }),
    "couple-dense": ("couple", {
        "run": {"T": 0.3, "record_every": 20},
        "couple": {"x0_b": {"kind": "scaled", "h_norm": 1.3, "base": {
            "kind": "coeffs", "u_hat": [1.0 / (1 + k) ** 1.5 for k in range(32)],
            "w_hat": [0.7 * (-1) ** k / (2 + k) for k in range(32)]}}},
        "master_seed": 18, "paths": 2,
    }),
    # the pairing functional on the w channel
    "invariant-w": ("invariant", {
        "model": {"p": 0.85},
        "run": {"T": 1.0, "dt": 2e-3, "x0": {"kind": "constant", "u": 0.5, "w": 0.2}},
        "invariant": {"burn_in": 9.0, "n_time_samples": 40, "sample_spacing": 1.0,
                      "pairing_mode": 1, "pairing_channel": "w"},
        "master_seed": 19, "paths": 36,
    }),
    # a DCT basis: no mode table is stored, its rows are evaluated in blocks
    "eigen-dct": ("eigen", {"model": {"n_modes": 256, "n_grid": 512}}),
    "simulate-dct": ("simulate", {
        "model": {"n_modes": 256, "n_grid": 512},
        "run": {"T": 0.02, "x0": {"kind": "constant", "u": 1.5}},
        "master_seed": 12, "paths": 4,
    }),
    # records at t = 0, 0.25, 0.5: one record in the fit window [T/4, 3T/4]
    "couple-sparse": ("couple", {
        "run": {"T": 0.5, "record_every": 250}, "master_seed": 20, "paths": 2,
    }),
    # a variable-c basis: |x|_V sums the face differences of u on the grid
    "simulate-variable-c": ("simulate", {
        "model": {"c": [1.0 + 0.5 * (j + 0.5) / 64 for j in range(64)]},
        "run": {"T": 0.1, "record_every": 10, "x0": {"kind": "cosine", "u_amplitude": 1.5,
                                                     "u_mode": 2}},
        "master_seed": 21, "paths": 4,
    }),
    # a grid whose weight 1/96 is not a power of two, so the projection's
    # scaling rounds
    "simulate-grid-96": ("simulate", {
        "model": {"n_grid": 96},
        "run": {"T": 0.1, "record_every": 10, "x0": {"kind": "cosine", "u_amplitude": 1.5,
                                                     "u_mode": 2}},
        "master_seed": 22, "paths": 4,
    }),
    # u = 10 is above the substep ceiling at dt 1e-3 and x0_b is below it, so
    # the first step substeps half the columns and takes the plain step on the rest
    "couple-ceiling": ("couple", {
        "run": {"T": 0.1, "record_every": 5, "x0": {"kind": "constant", "u": 10.0}},
        "master_seed": 23, "paths": 2,
    }),
    # 4 x 32 + 8 paths from above the ceiling: chunks that share a batch
    # substep at the same m, and a shorter last chunk transforms on its own
    "simulate-chunks": ("simulate", {
        "run": {"T": 0.02, "record_every": 4, "x0": {"kind": "constant", "u": 10.0}},
        "master_seed": 24, "paths": 136,
    }),
    # chunks of 32 and 8 paths, each running the whole ladder in one pass
    "backward-chunks": ("backward", {
        "run": {"dt": 2e-3, "x0": {"kind": "constant", "u": 1.5}},
        "backward": {"lambda_ladder": [0.5, 1, 2]},
        "master_seed": 25, "paths": 40,
    }),
}

# inputs the CLI rejects: (arguments after the subcommand's name, config)
REJECTED: dict[str, tuple[list[str], dict]] = {
    "seed-negative": (["simulate", "--seed", "-1"], {"run": {"T": 0.01}, "paths": 1}),
    "null-in-c": (
        ["simulate"],
        {"model": {"n_modes": 8, "n_grid": 16, "c": [1.0] * 15 + [None]}, "run": {"T": 0.01},
         "paths": 1},
    ),
    # finite and positive, but the eigensolve fails on it
    "ill-conditioned-c": (
        ["simulate"],
        {"model": {"c": [1e-150] * 32 + [1e150] * 32}, "run": {"T": 0.01}, "paths": 1},
    ),
    # the defaults: linear_oracle.burn_in 50 is past run.T 1
    "burn-in-past-T": (["linear-oracle", "--paths", "2"], {}),
    # only the cubic drift has an eps family
    "convergence-linear-drift": (
        ["convergence"], {"run": {"T": 0.01, "drift": "linear"}, "paths": 2},
    ),
    # the ladder sets every column's eps
    "convergence-run-eps": (["convergence"], {"run": {"T": 0.01, "eps": 0.3}, "paths": 2}),
    # every criterion fixes its own setup; acceptance reads only the seed
    "acceptance-config": (
        ["acceptance", "--quick"],
        {"model": {"n_modes": 64, "n_grid": 128}, "run": {"dt": 0.5}},
    ),
    # a setting off its default that the subcommand does not read; the read
    # ones are small, so a tree that accepts the input runs it quickly
    "eigen-paths": (["eigen", "--paths", "5"], {}),
    "backward-run-T": (["backward"], {
        "run": {"T": 0.37, "start_time": -0.2}, "backward": {"lambda_ladder": [0.01, 0.02]},
        "paths": 2,
    }),
    "invariant-run-T": (["invariant"], {
        "run": {"T": 0.37}, "paths": 2,
        "invariant": {"burn_in": 0.01, "n_time_samples": 2, "sample_spacing": 0.01},
    }),
    "dynkin-record-every": (["dynkin"], {"run": {"T": 0.01, "record_every": 5}, "paths": 2}),
    "simulate-foreign-block": (
        ["simulate"], {"run": {"T": 0.01}, "couple": {"envelope_tol": 0.1}, "paths": 1},
    ),
    # the basis is built from c, n_modes and n_grid alone
    "eigen-model-alpha": (["eigen"], {"model": {"alpha": 2.0}}),
    # values read only with others
    "noise-tables-sigma2": (["simulate"], {
        "model": {"n_modes": 8, "n_grid": 16}, "run": {"T": 0.01}, "paths": 1,
        "noise": {"lambda1": [0.01] * 8, "lambda2": [0.01] * 8, "sigma2": 0.02},
    }),
    "invariant-channel-without-mode": (["invariant"], {
        "paths": 2, "invariant": {"burn_in": 0.01, "n_time_samples": 2, "sample_spacing": 0.01,
                                  "pairing_channel": "w"},
    }),
}


def run_cli(tree: Path, args: list[str], workers: int,
            check: bool = True) -> subprocess.CompletedProcess:
    """Run the CLI in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", FHN_SPECTRAL_WORKERS=str(workers))
    proc = subprocess.run([sys.executable, "-m", "fhn_spectral", *args], cwd=tree, env=env,
                          capture_output=True, text=True)
    # acceptance exits 1 when a criterion fails; its table is still compared
    if check and proc.returncode not in (0, 1):
        raise RuntimeError(f"fhn_spectral {' '.join(args)} in {tree} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return proc


def run_tree(tree: Path, out: Path, workers: int) -> None:
    (out / "report").mkdir()
    for name, (command, cfg) in CONFIGS.items():
        cfg_path = tree / f"artifact-diff-{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(cfg_path), "--out", str(out / name)]
        stdout = run_cli(tree, argv, workers).stdout
        (out / "report" / f"{name}.txt").write_text(stdout.replace(str(out / name), "<out>"))
    run_cli(tree, ["acceptance", "--quick", "--out", str(out / "acceptance")], workers)
    (out / "rejected").mkdir()
    for name, (args, cfg) in REJECTED.items():
        cfg_path = tree / f"artifact-diff-rejected-{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        # what a run that is not rejected writes stays out of the comparison
        out_dir = tree / f"out-rejected-{name}"
        argv = [*args, "--config", str(cfg_path), "--out", str(out_dir)]
        proc = run_cli(tree, argv, workers, check=False)
        last_err = (proc.stderr.splitlines() or [""])[-1]
        (out / "rejected" / f"{name}.txt").write_text(
            f"exit {proc.returncode}\n{last_err}\n--out exists: {out_dir.exists()}\n")


def numbers(value, path: str = ""):
    """(path, number-or-other) leaves of a JSON value; list items share their field's path."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from numbers(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from numbers(item, path)
    else:
        yield path, value


def rel_change(a, b) -> float:
    if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, (int, float)) \
            or not isinstance(b, (int, float)):
        return 0.0 if a == b else math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def json_fields(payload) -> dict[str, list]:
    """Leaf values of a JSON payload grouped by field path."""
    out: dict[str, list] = {}
    for path, value in numbers(payload):
        out.setdefault(path, []).append(value)
    return out


def acceptance_fields(payload: dict) -> dict[str, list]:
    """Leaf values per criterion field, elapsed_s left out."""
    out: dict[str, list] = {}
    for crit in payload.get("criteria", []):
        body = {k: v for k, v in crit.items() if k not in ("id", "elapsed_s")}
        for path, value in numbers(body):
            out.setdefault(f"criterion {crit['id']}: {path}", []).append(value)
    for key in ("all_passed", "quick", "master_seed"):
        out[key] = [payload.get(key)]
    return out


def csv_fields(text: str) -> dict[str, list]:
    """Column values of a CSV with a header row; cells that are not numbers stay strings."""
    def cell(value: str):
        try:
            return float(value)
        except ValueError:
            return value

    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    return {
        column: [cell(row[j]) if j < len(row) else None for row in rows]
        for j, column in enumerate(lines[0].split(",") if lines else [])
    }


def change_table(a: dict[str, list], b: dict[str, list]) -> dict[str, float]:
    """Largest relative change per field; inf where a field is missing or changes length."""
    table = {}
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va is None or vb is None or len(va) != len(vb):
            table[key] = math.inf
        else:
            table[key] = max((rel_change(x, y) for x, y in zip(va, vb)), default=0.0)
    return table


def file_table(name: Path, a: Path, b: Path) -> dict[str, float] | None:
    """Per-field changes of a CSV or JSON artifact; None for other files or unreadable ones."""
    try:
        if name == Path("acceptance/acceptance.json"):
            return change_table(acceptance_fields(json.loads(a.read_text())),
                                acceptance_fields(json.loads(b.read_text())))
        if name.suffix == ".json":
            return change_table(json_fields(json.loads(a.read_text())),
                                json_fields(json.loads(b.read_text())))
        if name.suffix == ".csv":
            return change_table(csv_fields(a.read_text()), csv_fields(b.read_text()))
    except (ValueError, UnicodeDecodeError):
        pass
    return None


def compare(parent_out: Path, change_out: Path) -> int:
    names = sorted(
        {p.relative_to(parent_out) for p in parent_out.rglob("*") if p.is_file()}
        | {p.relative_to(change_out) for p in change_out.rglob("*") if p.is_file()}
    )
    differing = 0
    # (file kind, field) -> largest relative change over the differing files of that kind
    summary: dict[tuple[str, str], float] = {}
    for name in names:
        a, b = parent_out / name, change_out / name
        if not a.is_file() or not b.is_file():
            print(f"only in {'change' if b.is_file() else 'parent'}: {name}")
            differing += 1
            continue
        is_acceptance = name == Path("acceptance/acceptance.json")
        if not is_acceptance and a.read_bytes() == b.read_bytes():
            continue
        moved = {k: v for k, v in (file_table(name, a, b) or {}).items() if v > 0.0}
        if is_acceptance:
            for key, value in moved.items():
                print(f"acceptance.json {key}: largest relative change {value:.3g}")
            differing += bool(moved)
        else:
            print(f"differs: {name}")
            if name.parts[0] == "rejected":
                print(f"  parent: {a.read_text()!r}\n  change: {b.read_text()!r}")
            for key, value in moved.items():
                print(f"  {key}: largest relative change {value:.3g}")
            differing += 1
        kind = re.sub(r"\d+", "*", str(name))
        for key, value in moved.items():
            summary[kind, key] = max(summary.get((kind, key), 0.0), value)
    if summary:
        print("largest relative change per field, over the files of each kind:")
        for (kind, key), value in sorted(summary.items()):
            print(f"  {kind} {key}: {value:.3g}")
    print(f"artifact_diff: {len(names)} files compared, {differing} differ")
    return differing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workers", type=int, default=1,
                        help="FHN_SPECTRAL_WORKERS for the change side (default 1)")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be a positive integer")

    with tempfile.TemporaryDirectory(prefix="artifact-diff-") as tmp:
        root = Path(tmp)
        trees = {"parent": root / "parent", "change": root / "change"}
        outs = {"parent": root / "out-parent", "change": root / "out-change"}
        for path in (*trees.values(), *outs.values()):
            path.mkdir()
        sha = extract(args.parent, trees["parent"])
        copy_worktree(trees["change"])
        print(f"artifact_diff: parent {sha}, change = working tree "
              f"(FHN_SPECTRAL_WORKERS={args.workers})")
        for side in ("parent", "change"):
            run_tree(trees[side], outs[side], 1 if side == "parent" else args.workers)
        return 1 if compare(outs["parent"], outs["change"]) else 0


if __name__ == "__main__":
    sys.exit(main())
