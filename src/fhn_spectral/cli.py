"""Command-line front end: one binary, one experiment per subcommand.

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
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    build_noise,
    build_params,
    build_run_config,
    build_x0,
    experiment_block,
    load_config,
)
from .ergodics import (
    StateFunctional,
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


def _load(args: argparse.Namespace) -> dict[str, Any]:
    overrides = {"master_seed": args.seed, "paths": args.paths}
    return load_config(args.config or None, {k: v for k, v in overrides.items() if v is not None})


def _out_dir(args: argparse.Namespace, name: str) -> Path:
    """The output directory; the first artifact written creates it, so a failed run leaves none."""
    out = Path(args.out) if args.out else Path(f"out-{name}")
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        raise NotADirectoryError(f"--out {out}: {nearest} is not a directory")
    return out


def _experiment(args: argparse.Namespace, name: str):
    """Config, output directory, model, basis, noise and run description of a subcommand."""
    cfg = _load(args)
    out = _out_dir(args, name)
    params = build_params(cfg)
    basis = build_eigenbasis(params)
    return cfg, out, params, basis, build_noise(cfg), build_run_config(cfg, params, basis)


def _eigen_rows(basis: EigenBasis) -> Iterator[np.ndarray]:
    """CSV rows (xi, e_0(xi), ..., e_{N-1}(xi)), a block of grid points at a time."""
    for start in range(0, basis.n_grid, _EIGEN_BLOCK):
        points = slice(start, start + _EIGEN_BLOCK)
        yield from np.column_stack([basis.xi[points], basis.mode_rows(0, basis.n_modes, points).T])


def cmd_eigen(args: argparse.Namespace) -> int:
    cfg = _load(args)
    out = _out_dir(args, "eigen")
    params = build_params(cfg)
    basis = build_eigenbasis(params)
    header = ["xi"] + [f"e_{k}" for k in range(basis.n_modes)]
    write_csv(out / "eigenbasis.csv", header, _eigen_rows(basis))
    write_json(
        out / "summary.json",
        _summary(
            cfg,
            mu=[float(v) for v in basis.mu],
            sup_bound=basis.sup_bound,
            constant_c=basis.constant_c,
        ),
    )
    print(f"eigen: {basis.n_modes} modes on {basis.n_grid} points -> {out}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg, out, params, basis, spec, run_cfg = _experiment(args, "simulate")
    ens = run_ensemble(run_cfg, params, basis, spec, cfg["paths"])
    for pid, h, v in zip(ens.path_ids, ens.h_norm_sq, ens.v_norm_sq):
        rows = np.column_stack([ens.times, h, v])
        write_csv(out / f"path_{pid:04d}.csv", ["t", "h_norm_sq", "v_norm_sq"], rows)
    terminal_h = ens.h_norm_sq[:, -1]
    write_json(
        out / "summary.json",
        _summary(
            cfg,
            terminal_h_norm_sq_mean=float(np.mean(terminal_h)),
            terminal_h_norm_sq_max=float(np.max(terminal_h)),
            n_records=int(ens.times.size),
        ),
    )
    print(f"simulate: {cfg['paths']} paths, T={run_cfg.T} -> {out}")
    return EXIT_OK


def cmd_couple(args: argparse.Namespace) -> int:
    cfg, out, params, basis, spec, run_cfg = _experiment(args, "couple")
    block = experiment_block(cfg, "couple")
    x_b = build_x0(block["x0_b"], params, basis, "couple.x0_b") or StateH.zero(basis.n_modes)
    tol = float(block["envelope_tol"])
    report = coupled_run(x_b, run_cfg, params, basis, spec, n_paths=cfg["paths"], envelope_tol=tol)
    rows = np.column_stack([report.times] + [report.delta_sq[p] for p in range(cfg["paths"])])
    write_csv(out / "decay.csv", ["t"] + [f"delta_sq_{p}" for p in range(cfg["paths"])], rows)
    write_json(
        out / "summary.json",
        _summary(
            cfg,
            omega=report.omega,
            envelope_ok=report.envelope_ok,
            max_envelope_ratio=report.max_envelope_ratio,
            pooled_exponent=report.pooled_exponent,
            pooled_r2=report.pooled_r2,
            path_exponents=[float(v) for v in report.path_exponents],
        ),
    )
    print(
        f"couple: envelope_ok={report.envelope_ok} exponent={report.pooled_exponent:.4f} "
        f"r2={report.pooled_r2:.4f} -> {out}"
    )
    return EXIT_OK


def cmd_convergence(args: argparse.Namespace) -> int:
    cfg, out, params, basis, spec, run_cfg = _experiment(args, "convergence")
    ladder = experiment_block(cfg, "convergence")["eps_ladder"]
    report = eps_convergence_study(ladder, run_cfg, params, basis, spec, n_paths=cfg["paths"])
    rows = np.column_stack([report.eps_ladder, report.distance, report.distance_se])
    write_csv(out / "distances.csv", ["eps", "distance", "se"], rows)
    write_json(
        out / "summary.json",
        _summary(
            cfg,
            slope=report.slope,
            r2=report.r2,
            f_eps_integral={f"{k:g}": v for k, v in report.f_eps_integral.items()},
        ),
    )
    print(f"convergence: slope={report.slope:.3f} r2={report.r2:.4f} -> {out}")
    return EXIT_OK


def cmd_backward(args: argparse.Namespace) -> int:
    cfg, out, params, basis, spec, run_cfg = _experiment(args, "backward")
    ladder = experiment_block(cfg, "backward")["lambda_ladder"]
    report = backward_run(ladder, run_cfg, params, basis, spec, n_paths=cfg["paths"])
    rows = [
        [lam, gam, d, report.distance_se[(lam, gam)]] for (lam, gam), d in report.distances.items()
    ]
    write_csv(out / "distances.csv", ["lambda", "gamma", "distance", "se"], rows)
    write_json(
        out / "summary.json",
        _summary(
            cfg,
            fit_rate=report.fit_rate,
            fit_r2=report.fit_r2,
            second_moments={f"{k:g}": v for k, v in report.second_moment.items()},
            envelope={f"{k:g}": v for k, v in report.envelope.items()},
            envelope_constant=report.envelope_constant,
        ),
    )
    print(f"backward: fit rate={report.fit_rate:.4f} r2={report.fit_r2:.4f} -> {out}")
    return EXIT_OK


def cmd_moments(args: argparse.Namespace) -> int:
    cfg, out, params, basis, spec, run_cfg = _experiment(args, "moments")
    ens = run_ensemble(run_cfg, params, basis, spec, cfg["paths"])
    reports = {m: estimate_moments(m, ens, run_cfg, params) for m in (1, 2)}
    rows = np.column_stack(
        [reports[1].times, reports[1].estimate, reports[1].se, reports[2].estimate, reports[2].se]
    )
    write_csv(out / "moments.csv", ["t", "m1", "m1_se", "m2", "m2_se"], rows)
    write_json(
        out / "summary.json",
        _summary(
            cfg,
            envelope_constants={str(m): r.envelope_constant for m, r in reports.items()},
            transient_exponents={str(m): r.transient_exponent for m, r in reports.items()},
            flatness_drift={str(m): r.flatness_drift for m, r in reports.items()},
            omega1=reports[1].omega1,
        ),
    )
    print(
        "moments: C1={:.4g} C2={:.4g} -> {}".format(
            reports[1].envelope_constant, reports[2].envelope_constant, out
        )
    )
    return EXIT_OK


def cmd_invariant(args: argparse.Namespace) -> int:
    cfg, out, params, basis, spec, run_cfg = _experiment(args, "invariant")
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
    ks = {}
    for name, hist in measure.functionals.items():
        mids = 0.5 * (hist.edges[:-1] + hist.edges[1:])
        rows = np.column_stack([hist.edges[:-1], hist.edges[1:], mids, hist.mass_time_avg, hist.mass_ensemble])
        write_csv(
            out / f"hist_{name}.csv",
            ["bin_left", "bin_right", "bin_mid", "mass_time_avg", "mass_ensemble"],
            rows,
        )
        ks[name] = {
            "stat": hist.ks_stat,
            "crit_5pct": hist.ks_crit_5pct,
            "pvalue": hist.ks_pvalue,
        }
    moments = {
        str(m): invariant_moment_integral(m, measure, params, basis).__dict__ for m in (1, 2)
    }
    write_json(
        out / "summary.json",
        _summary(
            cfg,
            burn_in=measure.burn_in,
            n_time_samples=len(measure.states_time_avg),
            n_ensemble_samples=len(measure.states_ensemble),
            ks=ks,
            invariant_moments=moments,
        ),
    )
    print(f"invariant: {len(measure.functionals)} functionals, burn_in={measure.burn_in:g} -> {out}")
    return EXIT_OK


def cmd_linear_oracle(args: argparse.Namespace) -> int:
    cfg, out, params, basis, spec, run_cfg = _experiment(args, "linear-oracle")
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
    from .ergodics import empirical_mode_covariances

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
    write_csv(
        out / "covariances.csv",
        ["mode", "lyap_uu", "lyap_uw", "lyap_ww", "emp_uu", "emp_uw", "emp_ww"],
        rows,
    )
    write_json(
        out / "summary.json",
        _summary(cfg, max_rel_error_leading=float(rel.max()), n_leading=n_lead),
    )
    print(f"linear-oracle: max rel err (leading {n_lead}) = {rel.max():.4f} -> {out}")
    return EXIT_OK


def cmd_dynkin(args: argparse.Namespace) -> int:
    cfg, out, params, basis, spec, run_cfg = _experiment(args, "dynkin")
    block = experiment_block(cfg, "dynkin")
    h_u = [(int(k), float(c)) for k, c in block["h_u"]]
    h_w = [(int(k), float(c)) for k, c in block["h_w"]]
    h = CylinderFunction.from_modes(basis.n_modes, params, spec, u_modes=h_u, w_modes=h_w)
    report = dynkin_residual(h, cfg["paths"], run_cfg, params, basis, spec)
    write_json(
        out / "summary.json",
        _summary(
            cfg,
            t=report.t,
            dt=report.dt,
            residual=report.residual,
            se=report.se,
            n_paths=report.n_paths,
            n_rejected=report.n_rejected,
            phi_start=report.phi_start,
            phi_terminal_mean=report.phi_terminal_mean,
            integral_mean=report.integral_mean,
            h_norm=h.h_norm,
        ),
    )
    print(
        f"dynkin: residual={report.residual:.3e} se={report.se:.3e} "
        f"rejected={report.n_rejected} -> {out}"
    )
    return EXIT_OK


def cmd_acceptance(args: argparse.Namespace) -> int:
    from .acceptance import run_acceptance

    cfg = _load(args)
    out = _out_dir(args, "acceptance")
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
            }
        )
    payload = _summary(cfg, quick=args.quick, criteria=table, all_passed=all(r.passed for r in results))
    write_json(out / "acceptance.json", payload)
    print(f"acceptance: {'ALL PASS' if payload['all_passed'] else 'FAILURES PRESENT'} -> {out}")
    return EXIT_OK if payload["all_passed"] else EXIT_ACCEPTANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhn-spectral",
        description="Spectral simulation and verification of the stochastic FitzHugh-Nagumo system",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "eigen": cmd_eigen,
        "simulate": cmd_simulate,
        "couple": cmd_couple,
        "convergence": cmd_convergence,
        "backward": cmd_backward,
        "moments": cmd_moments,
        "invariant": cmd_invariant,
        "linear-oracle": cmd_linear_oracle,
        "dynkin": cmd_dynkin,
        "acceptance": cmd_acceptance,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--paths", type=int, default=None, help="ensemble size override")
        p.add_argument("--out", type=str, default=None, help="output directory")
        if name == "acceptance":
            p.add_argument("--quick", action="store_true", help="reduced-cost smoke run")
        p.set_defaults(fn=fn)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
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
