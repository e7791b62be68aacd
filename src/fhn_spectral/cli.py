"""Command-line front end: one binary, one experiment per subcommand.

Each experiment is a function of the built config, model, basis, noise and
run description that returns its tables, summary fields and report line;
``run_command`` does the loading, building, writing and printing once, and
refuses any setting off its default that the subcommand does not read.

Outputs are CSV for curves and histograms plus a JSON summary per run; the
summary embeds the resolved configuration, the master seed, and the
package version, and all floats are written with deterministic formatting
so identical (config, seed) pairs produce byte-identical artifacts
regardless of the worker count.

Exit codes: 0 success, 1 acceptance failure, 2 invalid configuration,
3 numerical blow-up.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .config import (
    SCHEMA,
    ConfigError,
    build_ladder,
    build_noise,
    build_params,
    build_run_config,
    build_x0,
    experiment_block,
    load_config,
)
from .ergodics import (
    StateFunctional,
    empirical_mode_covariances,
    estimate_invariant_measure,
    estimate_moments,
    h_norm_functional,
    invariant_moment_integral,
    v_norm_functional,
)
from .kolmogorov import CylinderFunction, dynkin_residual
from .model import EigenBasis, EigenbasisError, StateH, build_eigenbasis
from .noise import stationary_mode_covariances
from .solver import BlowUpError, backward_run, coupled_run, eps_convergence_study, run_ensemble

EXIT_OK = 0
EXIT_ACCEPTANCE = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3


# grid points (CSV rows) that `eigen` evaluates and writes at a time
_EIGEN_BLOCK = 64


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[float]]) -> None:
    fmt = "{:.17g}".format
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(fmt, np.asarray(row, dtype=float).tolist())) + "\n")


def write_json(path: Path, payload: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _summary(cfg: dict[str, Any], **extra: Any) -> dict[str, Any]:
    body = {
        "version": __version__,
        "config": cfg,
        "master_seed": cfg["master_seed"],
        "paths": cfg["paths"],
    }
    body.update(extra)
    return body


def _out_dir(args: argparse.Namespace, name: str) -> Path:
    """The output directory; the first artifact written creates it, so a failed run leaves none."""
    out = Path(args.out) if args.out else Path(f"out-{name}")
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        raise NotADirectoryError(f"--out {out}: {nearest} is not a directory")
    return out


def _eigen_rows(basis: EigenBasis) -> Iterator[np.ndarray]:
    """CSV rows (xi, e_0(xi), ..., e_{N-1}(xi)), a block of grid points at a time."""
    for start in range(0, basis.n_grid, _EIGEN_BLOCK):
        points = slice(start, start + _EIGEN_BLOCK)
        yield from np.column_stack([basis.xi[points], basis.mode_rows(0, basis.n_modes, points).T])


# what an experiment returns: its CSV tables (file name, header, rows) in
# writing order, the fields it adds to summary.json, and its report line
Result = tuple[Iterable[tuple[str, Sequence[str], Iterable[Sequence[float]]]], dict[str, Any], str]


def cmd_eigen(cfg, params, basis) -> Result:
    header = ["xi"] + [f"e_{k}" for k in range(basis.n_modes)]
    fields = {"mu": [float(v) for v in basis.mu], "sup_bound": basis.sup_bound, "constant_c": basis.constant_c}
    line = f"{basis.n_modes} modes on {basis.n_grid} points"
    return [("eigenbasis.csv", header, _eigen_rows(basis))], fields, line


def cmd_simulate(cfg, params, basis, spec, run_cfg) -> Result:
    ens = run_ensemble(run_cfg, params, basis, spec, cfg["paths"])
    # a generator, so each path's table is formatted only as it is written
    tables = (
        (f"path_{pid:04d}.csv", ["t", "h_norm_sq", "v_norm_sq"], np.column_stack([ens.times, h, v]))
        for pid, h, v in zip(ens.path_ids, ens.h_norm_sq, ens.v_norm_sq)
    )
    terminal_h = ens.h_norm_sq[:, -1]
    fields = {
        "terminal_h_norm_sq_mean": float(np.mean(terminal_h)),
        "terminal_h_norm_sq_max": float(np.max(terminal_h)),
        "n_records": int(ens.times.size),
    }
    return tables, fields, f"{cfg['paths']} paths, T={run_cfg.T}"


def cmd_couple(cfg, params, basis, spec, run_cfg) -> Result:
    block = experiment_block(cfg, "couple")
    x_b = build_x0(block["x0_b"], params, basis, "couple.x0_b") or StateH.zero(basis.n_modes)
    tol = float(block["envelope_tol"])
    report = coupled_run(x_b, run_cfg, params, basis, spec, n_paths=cfg["paths"], envelope_tol=tol)
    rows = np.column_stack([report.times] + [report.delta_sq[p] for p in range(cfg["paths"])])
    header = ["t"] + [f"delta_sq_{p}" for p in range(cfg["paths"])]
    fields = {
        "omega": report.omega,
        "envelope_ok": report.envelope_ok,
        "max_envelope_ratio": report.max_envelope_ratio,
        "pooled_exponent": report.pooled_exponent,
        "pooled_r2": report.pooled_r2,
        "path_exponents": [float(v) for v in report.path_exponents],
    }
    line = (f"envelope_ok={report.envelope_ok} exponent={report.pooled_exponent:.4f} "
            f"r2={report.pooled_r2:.4f}")
    return [("decay.csv", header, rows)], fields, line


def cmd_convergence(cfg, params, basis, spec, run_cfg) -> Result:
    ladder = build_ladder(cfg, "convergence", "eps_ladder")
    report = eps_convergence_study(ladder, run_cfg, params, basis, spec, n_paths=cfg["paths"])
    rows = np.column_stack([report.eps_ladder, report.distance, report.distance_se])
    fields = {
        "slope": report.slope,
        "r2": report.r2,
        "f_eps_integral": {f"{k:g}": v for k, v in report.f_eps_integral.items()},
    }
    line = f"slope={report.slope:.3f} r2={report.r2:.4f}"
    return [("distances.csv", ["eps", "distance", "se"], rows)], fields, line


def cmd_backward(cfg, params, basis, spec, run_cfg) -> Result:
    ladder = build_ladder(cfg, "backward", "lambda_ladder", dt=run_cfg.dt)
    report = backward_run(ladder, run_cfg, params, basis, spec, n_paths=cfg["paths"])
    rows = [
        [lam, gam, d, report.distance_se[(lam, gam)]] for (lam, gam), d in report.distances.items()
    ]
    fields = {
        "fit_rate": report.fit_rate,
        "fit_r2": report.fit_r2,
        "second_moments": {f"{k:g}": v for k, v in report.second_moment.items()},
        "envelope": {f"{k:g}": v for k, v in report.envelope.items()},
        "envelope_constant": report.envelope_constant,
    }
    line = f"fit rate={report.fit_rate:.4f} r2={report.fit_r2:.4f}"
    return [("distances.csv", ["lambda", "gamma", "distance", "se"], rows)], fields, line


def cmd_moments(cfg, params, basis, spec, run_cfg) -> Result:
    ens = run_ensemble(run_cfg, params, basis, spec, cfg["paths"])
    reports = {m: estimate_moments(m, ens, run_cfg, params) for m in (1, 2)}
    rows = np.column_stack(
        [reports[1].times, reports[1].estimate, reports[1].se, reports[2].estimate, reports[2].se]
    )
    fields = {
        "envelope_constants": {str(m): r.envelope_constant for m, r in reports.items()},
        "transient_exponents": {str(m): r.transient_exponent for m, r in reports.items()},
        "flatness_drift": {str(m): r.flatness_drift for m, r in reports.items()},
        "omega1": reports[1].omega1,
    }
    line = f"C1={reports[1].envelope_constant:.4g} C2={reports[2].envelope_constant:.4g}"
    return [("moments.csv", ["t", "m1", "m1_se", "m2", "m2_se"], rows)], fields, line


def cmd_invariant(cfg, params, basis, spec, run_cfg) -> Result:
    block = experiment_block(cfg, "invariant")
    functionals = [h_norm_functional(params), v_norm_functional(params, basis)]
    mode = block["pairing_mode"]
    if mode is not None:
        # <x, h>_H with h = e_k on the chosen channel
        e_k = {f"{block['pairing_channel']}_modes": [(mode, 1.0)]}
        h = CylinderFunction(StateH.from_modes(basis.n_modes, **e_k), params)
        functionals.append(StateFunctional(f"pairing_{mode}", h.pairing))
    measure = estimate_invariant_measure(
        run_cfg,
        params,
        basis,
        spec,
        functionals=functionals,
        burn_in=block["burn_in"],
        n_time_samples=int(block["n_time_samples"]),
        sample_spacing=float(block["sample_spacing"]),
        n_ensemble=cfg["paths"],
    )
    tables, ks = [], {}
    for name, hist in measure.functionals.items():
        mids = 0.5 * (hist.edges[:-1] + hist.edges[1:])
        rows = np.column_stack([hist.edges[:-1], hist.edges[1:], mids, hist.mass_time_avg, hist.mass_ensemble])
        header = ["bin_left", "bin_right", "bin_mid", "mass_time_avg", "mass_ensemble"]
        tables.append((f"hist_{name}.csv", header, rows))
        ks[name] = {
            "stat": hist.ks_stat,
            "crit_5pct": hist.ks_crit_5pct,
            "pvalue": hist.ks_pvalue,
        }
    fields = {
        "burn_in": measure.burn_in,
        "n_time_samples": len(measure.states_time_avg),
        "n_ensemble_samples": len(measure.states_ensemble),
        "ks": ks,
        "invariant_moments": {
            str(m): invariant_moment_integral(m, measure, params, basis).__dict__ for m in (1, 2)
        },
    }
    return tables, fields, f"{len(measure.functionals)} functionals, burn_in={measure.burn_in:g}"


def cmd_linear_oracle(cfg, params, basis, spec, run_cfg) -> Result:
    if run_cfg.drift == "fhn":
        run_cfg = replace(run_cfg, drift="linear_eta")
    burn = float(experiment_block(cfg, "linear_oracle")["burn_in"])
    # the ensemble samples the steps at or after start_time + burn_in
    if (run_cfg.start_interval + run_cfg.n_steps) * run_cfg.dt < run_cfg.start_time + burn:
        raise ConfigError(
            "linear_oracle.burn_in",
            f"{burn:g} leaves no samples in run.T={run_cfg.T:g}; "
            "extend run.T or shrink linear_oracle.burn_in",
        )
    target = stationary_mode_covariances(params, basis, spec, shifted=run_cfg.drift == "linear_eta")
    empirical = empirical_mode_covariances(
        run_cfg, params, basis, spec, n_paths=cfg["paths"], burn_in=burn
    )
    n_lead = min(8, basis.n_modes)
    rel = np.abs(empirical[:n_lead] - target[:n_lead]) / np.abs(target[:n_lead])
    rows = [
        [k, target[k, 0, 0], target[k, 0, 1], target[k, 1, 1],
         empirical[k, 0, 0], empirical[k, 0, 1], empirical[k, 1, 1]]
        for k in range(basis.n_modes)
    ]
    header = ["mode", "lyap_uu", "lyap_uw", "lyap_ww", "emp_uu", "emp_uw", "emp_ww"]
    fields = {"max_rel_error_leading": float(rel.max()), "n_leading": n_lead}
    line = f"max rel err (leading {n_lead}) = {rel.max():.4f}"
    return [("covariances.csv", header, rows)], fields, line


def cmd_dynkin(cfg, params, basis, spec, run_cfg) -> Result:
    block = experiment_block(cfg, "dynkin")
    h_u = [(int(k), float(c)) for k, c in block["h_u"]]
    h_w = [(int(k), float(c)) for k, c in block["h_w"]]
    h = CylinderFunction.from_modes(basis.n_modes, params, spec, u_modes=h_u, w_modes=h_w)
    report = dynkin_residual(h, cfg["paths"], run_cfg, params, basis, spec)
    fields = {
        "t": report.t,
        "dt": report.dt,
        "residual": report.residual,
        "se": report.se,
        "n_paths": report.n_paths,
        "n_rejected": report.n_rejected,
        "phi_start": report.phi_start,
        "phi_terminal_mean": report.phi_terminal_mean,
        "integral_mean": report.integral_mean,
        "h_norm": h.h_norm,
    }
    line = f"residual={report.residual:.3e} se={report.se:.3e} rejected={report.n_rejected}"
    return [], fields, line


def cmd_acceptance(args: argparse.Namespace, cfg: dict[str, Any], out: Path) -> int:
    from .acceptance import run_acceptance

    results = run_acceptance(quick=args.quick, master_seed=cfg["master_seed"])
    table = []
    for res in results:
        line = f"[{'PASS' if res.passed else 'FAIL'}] criterion {res.cid:2d}: {res.name} ({res.elapsed:.1f}s)"
        print(line)
        table.append(
            {
                "id": res.cid,
                "name": res.name,
                "passed": res.passed,
                "elapsed_s": round(res.elapsed, 2),
                "details": res.details,
                "checks": [{**asdict(check), "passed": check.passed} for check in res.checks],
            }
        )
    payload = _summary(cfg, quick=args.quick, criteria=table, all_passed=all(r.passed for r in results))
    write_json(out / "acceptance.json", payload)
    print(f"acceptance: {'ALL PASS' if payload['all_passed'] else 'FAILURES PRESENT'} -> {out}")
    return EXIT_OK if payload["all_passed"] else EXIT_ACCEPTANCE


# each subcommand's experiment and its read-set: what it reads of the config,
# as top-level keys, whole blocks and single "block.key" names, its own
# experiment block included.  ``eigen`` takes the config, model and basis and
# reads only what the basis is built from, the other experiments also take
# the noise and run description; ``acceptance`` runs the criteria, each of
# which fixes its own setup but the seed.
_RUN = {"master_seed", "paths", "model", "noise", *(f"run.{key}" for key in SCHEMA["run"])}
COMMANDS = {
    "eigen": (cmd_eigen, {"model.c", "model.n_modes", "model.n_grid"}),
    "simulate": (cmd_simulate, _RUN),
    "couple": (cmd_couple, _RUN | {"couple"}),
    "convergence": (cmd_convergence, _RUN - {"run.record_every"} | {"convergence"}),
    "backward": (cmd_backward, _RUN - {"run.record_every", "run.T", "run.start_time"} | {"backward"}),
    "moments": (cmd_moments, _RUN),
    "invariant": (cmd_invariant, _RUN - {"run.record_every", "run.T"} | {"invariant"}),
    "linear-oracle": (cmd_linear_oracle, _RUN - {"run.record_every"} | {"linear_oracle"}),
    "dynkin": (cmd_dynkin, _RUN - {"run.record_every"} | {"dynkin"}),
    "acceptance": (cmd_acceptance, {"master_seed"}),
}


def _check_reads(cfg: dict[str, Any], command: str) -> None:
    """Refuse every setting off its ``SCHEMA`` default outside ``command``'s
    read-set, so that no artifact echoes a value its run ignored."""
    reads = COMMANDS[command][1]
    unread = []
    for block, keys in SCHEMA.items():
        given = cfg.get(block, {}) if block else cfg
        for key, (_, default) in keys.items():
            name = f"{block}.{key}" if block else key
            if key in given and given[key] != default and not {block, name} & reads:
                unread.append(name)
    if unread:
        first, *rest = unread
        nor = f" (nor {', '.join(rest)})" if rest else ""
        raise ConfigError(first, f"not read by {command}{nor}; leave it out or at its default")


def run_command(args: argparse.Namespace) -> int:
    """Load and check the config, build what the subcommand needs, run it, write and report."""
    overrides = {"master_seed": getattr(args, "seed", None), "paths": getattr(args, "paths", None)}
    cfg = load_config(args.config or None, {k: v for k, v in overrides.items() if v is not None})
    _check_reads(cfg, args.command)
    out = _out_dir(args, args.command)
    experiment, reads = COMMANDS[args.command]
    if args.command == "acceptance":
        return experiment(args, cfg, out)
    params = build_params(cfg)
    basis = build_eigenbasis(params)
    built = [cfg, params, basis]
    if args.command != "eigen":
        # backward and invariant set their own horizons, so the run.T they do
        # not read is not held to the dt grid
        run = cfg["run"] if "run.T" in reads else {**cfg["run"], "T": 0.0}
        built += [build_noise(cfg), build_run_config({**cfg, "run": run}, params, basis)]
    tables, fields, line = experiment(*built)
    for name, header, rows in tables:
        write_csv(out / name, header, rows)
    write_json(out / "summary.json", _summary(cfg, **fields))
    print(f"{args.command}: {line} -> {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhn-spectral",
        description="Spectral simulation and verification of the stochastic FitzHugh-Nagumo system",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, reads) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        if "master_seed" in reads:
            p.add_argument("--seed", type=int, default=None, help="master seed override")
        if "paths" in reads:
            p.add_argument("--paths", type=int, default=None, help="ensemble size override")
        if name == "acceptance":
            p.add_argument("--quick", action="store_true", help="reduced-cost smoke run")
        p.add_argument("--out", type=str, default=None, help="output directory")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run_command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError, EigenbasisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(
            f"blow-up: {exc} (t={exc.time}, path={exc.path_id}, |x|_H^2 before the step"
            f" {exc.h_norm_sq:.6g}, substeps requested {exc.substeps})",
            file=sys.stderr,
        )
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
