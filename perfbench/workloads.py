"""The benchmark's workloads: what each runs, its inputs, and its output check.

``ensemble`` and ``wide`` run the CLI ``simulate`` subcommand in-process on
a generated config; ``verify`` runs acceptance criteria 1-11 in quick mode.
For the simulations the benchmark seed picks one of ``N_SEEDS`` master
seeds and the program only sees the generated config.  The criteria run at
the acceptance table's pinned master seed whatever the benchmark seed: in
quick mode their statistical checks are tuned to it, and criteria 5 and 8
fail at master seed 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from layertrace import Tracer, column_step_counter

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# master seeds the benchmark seed maps onto; reference.json holds every one
N_SEEDS = 8
# the seed the acceptance table is certified at (tests/test_acceptance.py, CLI default)
VERIFY_MASTER_SEED = 0
VERIFY_CRITERIA = tuple(range(1, 12))
# per-path summary statistics must match the reference to this tolerance:
# loose enough for reordered sums or a different transform algorithm,
# tight enough that any change of the noise path or the drift shows
RTOL = 1e-8
ATOL = 1e-12


def master_seed(seed: int) -> int:
    return seed % N_SEEDS


@dataclass(frozen=True)
class SimulateSpec:
    """One ``fhn-spectral simulate`` run: ensemble size, horizon and resolution."""

    name: str
    paths: int
    T: float
    dt: float
    n_modes: int
    n_grid: int

    @property
    def steps(self) -> int:
        return int(round(self.T / self.dt))

    def config(self, seed: int) -> dict[str, Any]:
        return {
            "model": {"n_modes": self.n_modes, "n_grid": self.n_grid},
            "run": {"T": self.T, "dt": self.dt, "record_every": 1},
            "master_seed": master_seed(seed),
            "paths": self.paths,
        }


# paper scale: per-path noise draws and per-step overhead dominate
ENSEMBLE = SimulateSpec("ensemble", paths=128, T=1.0, dt=1e-3, n_modes=32, n_grid=64)
# one chunk at N = 1024: the dense spectral <-> grid transforms dominate
WIDE = SimulateSpec("wide", paths=32, T=0.2, dt=1e-3, n_modes=1024, n_grid=2048)
SIMULATE_SPECS = {spec.name: spec for spec in (ENSEMBLE, WIDE)}
WORKLOADS = ("ensemble", "wide", "verify")


@dataclass
class Iteration:
    """One timed unit of a workload and the check of its outputs."""

    wall_s: float
    attempted: int
    failed: int
    column_steps: int
    digests: dict[str, str]  # output part -> sha256; equal across iterations
    criterion_s: dict[int, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def load_reference(spec: SimulateSpec, seed: int) -> np.ndarray:
    """Stored per-path (terminal |X|_H^2, terminal |X|_V^2, mean |X|_H^2)."""
    ref = json.loads(REFERENCE_FILE.read_text())[spec.name]
    stored = {k: ref["spec"][k] for k in ("paths", "T", "dt", "n_modes", "n_grid")}
    if stored != {k: getattr(spec, k) for k in stored}:
        raise ValueError(f"reference.json was made for another {spec.name} spec: {stored}")
    return np.array(ref["seeds"][str(master_seed(seed))], dtype=float)


def path_statistics(out_dir: Path, spec: SimulateSpec) -> tuple[np.ndarray, list[str]]:
    """Per-path summary statistics; a row of NaN marks a missing or bad file."""
    n_rec = spec.steps + 1
    times = np.arange(n_rec) * spec.dt
    stats = np.full((spec.paths, 3), np.nan)
    notes = []
    for p in range(spec.paths):
        path = out_dir / f"path_{p:04d}.csv"
        try:
            header, _, body = path.read_text().partition("\n")
            vals = np.array(body.replace(",", " ").split(), dtype=float)
        except (OSError, ValueError) as exc:
            notes.append(f"{path.name}: {exc}")
            continue
        if header != "t,h_norm_sq,v_norm_sq" or vals.size != 3 * n_rec:
            notes.append(f"{path.name}: bad header or {vals.size} values, expected {3 * n_rec}")
            continue
        arr = vals.reshape(n_rec, 3)
        if not np.isfinite(arr).all():
            notes.append(f"{path.name}: non-finite values")
            continue
        if np.abs(arr[:, 0] - times).max() > 1e-9 or (arr[:, 1:] < 0).any():
            notes.append(f"{path.name}: wrong time grid or negative norm")
            continue
        stats[p] = arr[-1, 1], arr[-1, 2], arr[:, 1].mean()
    return stats, notes


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class SimulateWorkload:
    """``fhn-spectral simulate`` run in-process on the generated config."""

    def __init__(self, spec: SimulateSpec, seed: int, workdir: Path, reference: np.ndarray | None):
        from fhn_spectral import cli

        self._cli = cli
        self.spec = spec
        self.reference = reference
        self.dir = workdir / f"{spec.name}-seed{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cfg_path = self.dir / "config.json"
        self.cfg_path.write_text(json.dumps(spec.config(seed)))
        self.out = self.dir / "out"

    def run(self, tracer: Tracer | None = None) -> Iteration:
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["simulate", "--config", str(self.cfg_path), "--out", str(self.out)]
        notes: list[str] = []
        with column_step_counter() as steps, contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                rc = self._cli.main(argv)
            except Exception:
                rc = None
                notes.append(traceback.format_exc())
            wall = time.perf_counter() - start
        n = self.spec.paths
        if rc != 0:
            notes.append(f"simulate exited with {rc}")
            return Iteration(wall, n, n, steps[0], {}, notes=notes)
        failed, bad = self.check()
        return Iteration(wall, n, failed, steps[0], {"out": _digest(self.out)}, notes=notes + bad)

    def check(self) -> tuple[int, list[str]]:
        """Failed paths in the output directory, and why."""
        stats, notes = path_statistics(self.out, self.spec)
        ok = np.isfinite(stats).all(axis=1)
        if self.reference is not None:
            match = np.isclose(stats, self.reference, rtol=RTOL, atol=ATOL).all(axis=1)
            notes += [f"path {p}: {stats[p]} != reference {self.reference[p]}"
                      for p in np.nonzero(ok & ~match)[0]]
            ok &= match
        try:
            summary_mean = json.loads((self.out / "summary.json").read_text())[
                "terminal_h_norm_sq_mean"
            ]
        except (OSError, ValueError, KeyError) as exc:
            notes.append(f"summary.json: {exc!r}")
            ok[:] = False
        else:
            all_read = np.isfinite(stats).all()
            if all_read and not np.isclose(summary_mean, stats[:, 0].mean(), rtol=1e-12):
                notes.append("summary.json disagrees with the path files")
                ok[:] = False
        return int(ok.size - ok.sum()), notes


class VerifyWorkload:
    """Acceptance criteria 1-11, quick mode, run through ``run_criterion``."""

    def __init__(self, criteria: tuple[int, ...] = VERIFY_CRITERIA):
        from fhn_spectral import acceptance

        self._acceptance = acceptance
        self.criteria = criteria

    def subset(self, criteria: tuple[int, ...]) -> "VerifyWorkload":
        return VerifyWorkload(criteria)

    def run(self, tracer: Tracer | None = None) -> Iteration:
        failed = 0
        criterion_s: dict[int, float] = {}
        details: dict[int, Any] = {}
        notes: list[str] = []
        with column_step_counter() as steps:
            start = time.perf_counter()
            for cid in self.criteria:
                span = tracer.span(f"acceptance.criterion{cid}") if tracer else contextlib.nullcontext()
                t0 = time.perf_counter()
                try:
                    with span:
                        res = self._acceptance.run_criterion(
                            cid, quick=True, master_seed=VERIFY_MASTER_SEED
                        )
                    passed, details[cid] = res.passed, res.details
                except Exception:
                    passed = False
                    notes.append(traceback.format_exc())
                criterion_s[cid] = time.perf_counter() - t0
                if not passed:
                    failed += 1
                    notes.append(f"criterion {cid} failed: {details.get(cid)}")
            wall = time.perf_counter() - start
        digests = {
            f"criterion{cid}": hashlib.sha256(
                json.dumps(d, sort_keys=True, default=str).encode()
            ).hexdigest()
            for cid, d in details.items()
        }
        return Iteration(wall, len(self.criteria), failed, steps[0], digests, criterion_s, notes)


def make(name: str, seed: int, workdir: Path) -> SimulateWorkload | VerifyWorkload:
    """The full-size workload the benchmark measures."""
    if name == "verify":
        return VerifyWorkload()
    spec = SIMULATE_SPECS[name]
    return SimulateWorkload(spec, seed, workdir, load_reference(spec, seed))


def build_setup(name: str, seed: int) -> None:
    """What a user pays before the first workload call: config and model objects."""
    from fhn_spectral import config, model, noise

    if name == "verify":
        import fhn_spectral.acceptance  # noqa: F401

        params = model.ModelParams()
        model.build_eigenbasis(params)
        noise.NoiseSpec.power_law(params.n_modes)
        return
    import fhn_spectral.cli  # noqa: F401

    cfg = config.merge_config(SIMULATE_SPECS[name].config(seed))
    params = config.build_params(cfg)
    model.build_eigenbasis(params)
    config.build_noise(cfg)
