"""Regenerate reference.json, the stored outputs the simulate workloads are checked against.

Usage (from the repository root): python3 perfbench/make_reference.py

For every master seed the benchmark can pick, runs the full-size ensemble
and wide workloads once and stores each path's terminal |X|_H^2, terminal
|X|_V^2 and time-mean |X|_H^2.  Regenerate only at a commit whose outputs
are trusted, and only when a workload's spec changes.
"""

import json
import sys

import run  # pins the thread settings before numpy loads
import workloads


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    reference = {}
    for spec in workloads.SIMULATE_SPECS.values():
        seeds = {}
        for seed in range(workloads.N_SEEDS):
            wl = workloads.SimulateWorkload(spec, seed, run.WORKDIR / "reference", None)
            it = wl.run()
            if it.failed:
                sys.exit(f"{spec.name} seed {seed} failed its checks: {it.notes}")
            stats, _ = workloads.path_statistics(wl.out, spec)
            seeds[str(seed)] = stats.tolist()
            print(f"{spec.name} seed {seed}: {it.wall_s:.2f} s", flush=True)
        reference[spec.name] = {
            "spec": {k: getattr(spec, k) for k in ("paths", "T", "dt", "n_modes", "n_grid")},
            "columns": ["terminal_h_norm_sq", "terminal_v_norm_sq", "mean_h_norm_sq"],
            "seeds": seeds,
        }
    workloads.REFERENCE_FILE.write_text(json.dumps(reference) + "\n")


if __name__ == "__main__":
    main()
