"""Acceptance criteria: every structural claim the package certifies.

Each criterion is a self-contained function returning a
:class:`CriterionResult` with a pass flag and the measured quantities.
Criteria are property- and oracle-based at desk scale (32 modes,
dt = 1e-3, tens to hundreds of paths) with all seeds pinned, so a run is
deterministic end to end.  ``run_acceptance`` executes the full table and
is what both the CLI subcommand and the pytest acceptance module call.

Configuration choices that deviate from the package defaults are made per
criterion and recorded in the result details:

* the backward-ladder fit uses a slow-mixing parameter set so the
  pairwise distances at the deepest rung stay far above the
  double-precision floor (the default dynamics contract so fast that
  shared-noise trajectories at offset 40 collapse to bitwise equality);
* the two-start Kolmogorov-Smirnov check uses a strongly dissipative set
  so the 5/omega burn-in is affordable;
* the Dynkin criterion runs with gamma = 1, where the weighted-trace term
  <Qh,h>_H of the generator coincides exactly with the quadratic
  variation of the simulated (plain-coordinate) noise.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.stats import ks_2samp

from .ergodics import (
    _KS_COEFF_5PCT,
    bounded_ramp_functional,
    cylinder_exp_functional,
    empirical_mode_covariances,
    estimate_moments,
    linear_invariant_covariance,
    transition_semigroup,
)
from .kolmogorov import CylinderFunction, dynkin_residual, ou_expectation_exact
from .model import (
    EigenBasis,
    ModelParams,
    StateH,
    build_eigenbasis,
    norm_H_sq_arrays,
    norm_V_sq_arrays,
    random_coeff_states,
)
from .model import _apply_A_arrays
from .nonlinearity import DriftParams, apply_F_arrays, f_eta_eps_prime
from .noise import (
    NoiseSpec,
    convolution_trace_integral,
    convolution_trace_integrand,
    trace_Q,
)
from .solver import (
    RECORD_ENDPOINTS,
    TrajectoryConfig,
    backward_run,
    coupled_run,
    eps_convergence_study,
    run_ensemble,
)


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    elapsed: float
    details: dict = field(default_factory=dict)


def _default_setup(master_seed: int, **overrides):
    params = ModelParams(**overrides) if overrides else ModelParams()
    basis = build_eigenbasis(params)
    spec = NoiseSpec.power_law(params.n_modes)
    return params, basis, spec


def criterion_1_drift_identities(quick: bool, master_seed: int) -> dict:
    """Closed-form identity of the shifted cubic and the sup of f'."""
    rng = np.random.default_rng(master_seed + 1)
    n_u = 10**5 if quick else 10**6
    n_grid = 10**6 if quick else 10**7
    # f' is a downward parabola peaking at xi0 in (1/3, 2/3); the quick scan
    # shrinks the window, not the tolerance, so the grid-resolution error
    # 3 delta^2 stays far below 1e-8 either way
    lo, hi = (-2.0, 3.0) if quick else (-100.0, 100.0)
    worst_identity = 0.0
    worst_sup = 0.0
    for _ in range(20):
        xi1 = rng.uniform(0.01, 0.99)
        dp = DriftParams(xi1)
        u = rng.uniform(-10.0, 10.0, n_u)
        lhs = -u * (u - 1.0) * (u - xi1) - dp.eta * u
        v = u - dp.xi0
        rhs = -(v * v * v) - dp.xi0**3
        bound = 1e-12 * (1.0 + np.abs(u * u * u))
        worst_identity = max(worst_identity, float((np.abs(lhs - rhs) / bound).max()))
        g = np.linspace(lo, hi, n_grid)
        fprime = -3.0 * g * g + 2.0 * (1.0 + xi1) * g - xi1
        worst_sup = max(worst_sup, abs(float(fprime.max()) - dp.eta))
    return {
        "passed": worst_identity <= 1.0 and worst_sup <= 1e-8,
        "max_identity_ratio": worst_identity,
        "max_sup_error": worst_sup,
        "n_u": n_u,
        "n_grid": n_grid,
    }


def criterion_2_monotonicity(quick: bool, master_seed: int) -> dict:
    """<F_eta(x)-F_eta(y), x-y>_H <= 0 and nonpositivity of f'_{eta,eps}."""
    params, basis, _ = _default_setup(master_seed)
    rng = np.random.default_rng(master_seed + 2)
    n_pairs = 10**3 if quick else 10**4
    dp = DriftParams.from_params(params)
    ux, wx = random_coeff_states(n_pairs, params, rng)
    uy, wy = random_coeff_states(n_pairs, params, rng)
    fx = apply_F_arrays(ux, dp, basis, kind="eta")
    fy = apply_F_arrays(uy, dp, basis, kind="eta")
    gap = params.gamma * ((fx - fy) * (ux - uy)).sum(axis=1)
    diff_sq = norm_H_sq_arrays(ux - uy, wx - wy, params.gamma)
    worst_gap = float((gap / (1.0 + diff_sq)).max())
    u_scan = np.linspace(-50.0, 50.0, 200001)
    worst_prime = -np.inf
    for eps in (1e-3, 1e-1, 1.0):
        vals = f_eta_eps_prime(u_scan, DriftParams(params.xi1, eps))
        worst_prime = max(worst_prime, float(vals.max()))
    return {
        "passed": worst_gap <= 1e-9 and worst_prime <= 1e-12,
        "max_gap_ratio": worst_gap,
        "max_f_prime": worst_prime,
        "n_pairs": n_pairs,
    }


def criterion_3_dissipativity(quick: bool, master_seed: int) -> dict:
    """<A_eta x, x>_H <= -omega1 |x|_H^2 and <= -omega2 |x|_V^2 on random states."""
    params, basis, _ = _default_setup(master_seed)
    rng = np.random.default_rng(master_seed + 3)
    n_states = 10**3 if quick else 10**4
    dc = params.derived()
    u, w = random_coeff_states(n_states, params, rng)
    au, aw = _apply_A_arrays(u, w, params, basis, eta_shift=dc.eta)
    quad_form = params.gamma * (au * u).sum(axis=1) + (aw * w).sum(axis=1)
    h_sq = norm_H_sq_arrays(u, w, params.gamma)
    v_sq = norm_V_sq_arrays(u, w, params, basis)
    slack_h = float((quad_form + dc.omega1 * h_sq).max() / max(h_sq.max(), 1.0))
    viol_h = float(((quad_form + dc.omega1 * h_sq) / (1e-300 + h_sq)).max())
    viol_v = float(((quad_form + dc.omega2 * v_sq) / (1e-300 + v_sq)).max())
    return {
        "passed": viol_h <= 1e-9 and viol_v <= 1e-9,
        "max_h_violation": viol_h,
        "max_v_violation": viol_v,
        "slack_h": slack_h,
        "omega1": dc.omega1,
        "omega2": dc.omega2,
        "n_states": n_states,
    }


def criterion_4_trace(quick: bool, master_seed: int) -> dict:
    """Quadrature of the convolution trace integral vs closed form and bound."""
    params, basis, spec = _default_setup(master_seed)
    closed = convolution_trace_integral(params, basis, spec, horizon=None)
    integrand = lambda s: convolution_trace_integrand(s, params, basis, spec)
    numeric, quad_err = quad(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=300)
    bound = trace_Q(spec) / (2.0 * params.derived().omega)
    agree = abs(numeric - closed) <= 1e-8 * max(1.0, abs(closed))
    return {
        "passed": agree and closed <= bound * (1.0 + 1e-9),
        "closed_form": closed,
        "quadrature": numeric,
        "quadrature_error_estimate": quad_err,
        "bound": bound,
    }


def criterion_5_linear_oracle(quick: bool, master_seed: int) -> dict:
    """Empirical stationary per-mode covariance vs the Lyapunov solution."""
    params, basis, spec = _default_setup(master_seed)
    target = linear_invariant_covariance(params, basis, spec, shifted=True)
    n_paths = 128 if quick else 256
    horizon = 80.0 if quick else 150.0
    cfg = TrajectoryConfig(
        T=horizon, dt=0.05, drift="linear_eta", master_seed=master_seed + 5
    )
    empirical = empirical_mode_covariances(
        cfg, params, basis, spec, n_paths=n_paths, burn_in=30.0
    )
    n_lead = 8
    rel = np.abs(empirical[:n_lead] - target[:n_lead]) / np.abs(target[:n_lead])
    return {
        "passed": float(rel.max()) <= 0.05,
        "max_rel_error": float(rel.max()),
        "mode0_target": target[0].tolist(),
        "mode0_empirical": empirical[0].tolist(),
        "n_paths": n_paths,
    }


def criterion_6_contraction(quick: bool, master_seed: int) -> dict:
    """Shared-noise coupling: envelope, fitted exponent, and fit quality."""
    params, basis, spec = _default_setup(master_seed)
    omega = params.derived().omega
    n = basis.n_modes
    u = np.zeros(n)
    u[0] = 1.0 / math.sqrt(params.gamma)  # |x - xbar|_H = 1 from x = 0
    x_bar = StateH(u, np.zeros(n))
    n_paths = 8 if quick else 32
    cfg = TrajectoryConfig(T=10.0, dt=1e-3, record_every=20, master_seed=master_seed + 6)
    report = coupled_run(x_bar, cfg, params, basis, spec, n_paths=n_paths)
    return {
        "passed": (
            report.envelope_ok
            and report.pooled_exponent >= 2.0 * omega * 0.8
            and report.pooled_r2 >= 0.95
        ),
        "max_envelope_ratio": report.max_envelope_ratio,
        "pooled_exponent": report.pooled_exponent,
        "pooled_r2": report.pooled_r2,
        "two_omega": 2.0 * omega,
        "n_paths": n_paths,
    }


def criterion_7_eps_convergence(quick: bool, master_seed: int) -> dict:
    """Order of the shared-noise distance between regularization levels."""
    params, basis, spec = _default_setup(master_seed)
    xi = basis.xi
    x0 = StateH.from_grid(2.0 * np.cos(math.pi * xi), np.zeros_like(xi), basis)
    n_paths = 16 if quick else 48
    cfg = TrajectoryConfig(T=1.0, dt=1e-3, x0=x0, master_seed=master_seed + 7)
    ladder = [0.2, 0.1, 0.05, 0.025]
    report = eps_convergence_study(ladder, cfg, params, basis, spec, n_paths=n_paths)
    monotone = bool(
        np.all(np.diff(report.distance) <= 2.0 * np.hypot(report.distance_se[1:], report.distance_se[:-1]))
    )
    return {
        "passed": report.slope >= 0.9 and monotone,
        "slope": report.slope,
        "r2": report.r2,
        "distances": report.distance.tolist(),
        "monotone_within_2se": monotone,
        "n_paths": n_paths,
    }


def criterion_8_moment_bound(quick: bool, master_seed: int) -> dict:
    """Moment envelopes for m = 1, 2: cross-batch stability and flatness.

    The envelope constant over all t is pinned by the (noise-free) initial
    record, so the cross-batch comparison is also run on the tail window
    t >= T/2 where only the stationary fluctuation enters; flatness is
    measured on the pooled batches, whose size is chosen so the estimator
    noise sits well below the 5% threshold.
    """
    params, basis, spec = _default_setup(master_seed)
    omega1 = params.derived().omega1
    n = basis.n_modes
    u = np.zeros(n)
    u[0] = 10.0 / math.sqrt(params.gamma)  # |x0|_H = 10
    x0 = StateH(u, np.zeros(n))
    horizon = 20.0 if quick else 50.0
    n_paths = 64 if quick else 256
    details: dict = {"horizon": horizon, "n_paths_per_batch": n_paths}
    passed = True
    reports = {}
    all_hsq = {}
    for batch, seed in (("a", master_seed + 8), ("b", master_seed + 80)):
        cfg = TrajectoryConfig(T=horizon, dt=2e-3, x0=x0, record_every=25, master_seed=seed)
        ens = run_ensemble(cfg, params, basis, spec, n_paths)
        times = ens.times
        all_hsq[batch] = ens.h_norm_sq
        for m in (1, 2):
            reports[(m, batch)] = estimate_moments(m, ens, cfg, params)
    hsq_pooled = np.concatenate([all_hsq["a"], all_hsq["b"]])
    x0_sq = float(hsq_pooled[0, 0])
    tail = times >= 0.5 * horizon
    for m in (1, 2):
        ra, rb = reports[(m, "a")], reports[(m, "b")]
        ratio = ra.envelope_constant / rb.envelope_constant
        envelope_shape = 1.0 + np.exp(-m * omega1 * times) * x0_sq**m
        c_tail = []
        for batch in ("a", "b"):
            est_b = (all_hsq[batch] ** m).mean(axis=0)
            c_tail.append(float((est_b[tail] / envelope_shape[tail]).max()))
        tail_ratio = c_tail[0] / c_tail[1]
        est = (hsq_pooled**m).mean(axis=0)
        th = times[tail]
        cut = th[0] + 0.5 * (th[-1] - th[0])
        first = float(est[tail][th <= cut].mean())
        second = float(est[tail][th > cut].mean())
        flatness = abs(second - first) / first
        stable = 0.8 <= ratio <= 1.2 and 0.8 <= tail_ratio <= 1.2
        decay_ok = min(ra.transient_exponent, rb.transient_exponent) >= 0.7 * m * omega1
        passed = passed and stable and flatness < 0.05 and decay_ok
        details[f"m{m}_envelope_constants"] = [ra.envelope_constant, rb.envelope_constant]
        details[f"m{m}_batch_ratio"] = ratio
        details[f"m{m}_tail_constants"] = c_tail
        details[f"m{m}_tail_ratio"] = tail_ratio
        details[f"m{m}_pooled_flatness"] = flatness
        details[f"m{m}_transient_exponents"] = [ra.transient_exponent, rb.transient_exponent]
    details["passed"] = passed
    return details


def criterion_9_invariant_construction(quick: bool, master_seed: int) -> dict:
    """Backward-ladder Cauchy decay plus two-start distribution equality."""
    # slow-mixing parameters keep the deepest rung above the fp floor
    params = ModelParams(alpha=0.12, p_profile=0.26)
    basis = build_eigenbasis(params)
    spec = NoiseSpec.power_law(params.n_modes)
    n_paths = 16 if quick else 48
    dt = 2e-3 if quick else 1e-3
    cfg = TrajectoryConfig(T=1.0, dt=dt, master_seed=master_seed + 9)
    ladder = [5.0, 10.0, 20.0, 40.0]
    report = backward_run(ladder, cfg, params, basis, spec, n_paths=n_paths)
    moments_plateau = abs(
        report.second_moment[40.0] - report.second_moment[20.0]
    ) / max(report.second_moment[40.0], 1e-300)

    # strongly dissipative configuration so burn-in >= 5/omega stays cheap
    ks_params = ModelParams(p_profile=0.85)
    ks_basis = build_eigenbasis(ks_params)
    ks_spec = NoiseSpec.power_law(ks_params.n_modes)
    burn = 5.0 / ks_params.derived().omega
    horizon = math.ceil(burn) + 3.0
    n_ks = 64 if quick else 128
    n_modes = ks_basis.n_modes
    u5 = np.zeros(n_modes)
    u5[1] = 5.0 / math.sqrt(ks_params.gamma)
    terminals = {}
    for name, x0, seed in (
        ("zero", None, master_seed + 90),
        ("far", StateH(u5, np.zeros(n_modes)), master_seed + 91),
    ):
        cfg_ks = TrajectoryConfig(
            T=horizon, dt=1e-3, x0=x0, record_every=RECORD_ENDPOINTS, master_seed=seed
        )
        arr = run_ensemble(cfg_ks, ks_params, ks_basis, ks_spec, n_ks).terminal
        terminals[name] = np.sqrt(
            norm_H_sq_arrays(arr[..., 0], arr[..., 1], ks_params.gamma)
        )
    ks = ks_2samp(terminals["zero"], terminals["far"])
    ks_crit = _KS_COEFF_5PCT * math.sqrt(2.0 / n_ks)
    return {
        "passed": (
            report.fit_rate > 0.0
            and report.fit_r2 >= 0.9
            and float(ks.statistic) < ks_crit
        ),
        "fit_rate": report.fit_rate,
        "fit_r2": report.fit_r2,
        "distances": {f"{k[0]:g}_vs_{k[1]:g}": v for k, v in report.distances.items()},
        "second_moments": {f"{k:g}": v for k, v in report.second_moment.items()},
        "plateau_rel_change": moments_plateau,
        "ks_stat": float(ks.statistic),
        "ks_crit_5pct": ks_crit,
        "ks_burn_in": burn,
        "n_paths": n_paths,
    }


def criterion_10_semigroup_limit(quick: bool, master_seed: int) -> dict:
    """P_t phi(x) becomes independent of x: two far starts at t = 40."""
    params, basis, spec = _default_setup(master_seed)
    n = basis.n_modes
    x1 = StateH.zero(n)
    u = np.zeros(n)
    u[1] = 5.0 / math.sqrt(params.gamma)  # |x1 - x2|_H = 5
    x2 = StateH(u, np.zeros(n))
    h_small = StateH(np.zeros(n), np.zeros(n))
    h_small.u_hat[0] = 0.3
    h_mix = StateH(np.zeros(n), np.zeros(n))
    h_mix.u_hat[1] = 0.3
    h_mix.w_hat[0] = 0.4
    functionals = {
        "cyl_mode0": cylinder_exp_functional(h_small, params),
        "cyl_mixed": cylinder_exp_functional(h_mix, params),
        "ramp": bounded_ramp_functional(params),
    }
    t = 40.0
    dt = 4e-3 if quick else 2e-3
    n_paths = 48 if quick else 128
    details: dict = {"t": t, "n_paths": n_paths}
    passed = True
    estimates = [
        transition_semigroup(
            list(functionals.values()),
            n_paths,
            TrajectoryConfig(T=t, dt=dt, x0=x0, master_seed=seed),
            params,
            basis,
            spec,
        )
        for x0, seed in ((x1, master_seed + 10), (x2, master_seed + 11))
    ]
    for name, (m1, s1), (m2, s2) in zip(functionals, *estimates):
        gap = abs(m1 - m2)
        lim = 3.0 * math.hypot(s1, s2)
        passed = passed and gap <= lim
        details[f"{name}_gap"] = gap
        details[f"{name}_limit"] = lim
    details["passed"] = passed
    return details


def criterion_11_dynkin(quick: bool, master_seed: int) -> dict:
    """Dynkin identity for the exact OU reference and the full cubic drift."""
    # gamma = 1: the weighted trace term matches the simulated noise exactly
    params = ModelParams(gamma=1.0)
    basis = build_eigenbasis(params)
    spec = NoiseSpec.power_law(params.n_modes)
    n = basis.n_modes
    n_paths = 96 if quick else 256
    details: dict = {"n_paths": n_paths, "gamma": params.gamma}
    passed = True

    h_ou = CylinderFunction.from_modes(n, params, spec, u_modes=[(0, 0.4)])
    x0 = StateH.zero(n)
    x0.u_hat[0] = 0.5
    cfg_ou = TrajectoryConfig(T=1.0, dt=1e-3, x0=x0, drift="linear", master_seed=master_seed + 11)
    rep = dynkin_residual(h_ou, n_paths, cfg_ou, params, basis, spec)
    exact = ou_expectation_exact(h_ou, x0, 1.0, params, basis, spec, shifted=False)
    ou_ok = abs(rep.residual) <= 3.0 * rep.se
    oracle_ok = abs(rep.phi_terminal_mean - exact) <= 3.0 * rep.se
    passed = passed and ou_ok and oracle_ok
    details["ou_residual"] = rep.residual
    details["ou_se"] = rep.se
    details["ou_exact_expectation"] = exact
    details["ou_mc_expectation"] = rep.phi_terminal_mean

    h_cubic = CylinderFunction.from_modes(
        n, params, spec, u_modes=[(0, 0.4), (1, 0.3)]
    )
    residuals = {}
    for dt in (1e-3, 5e-4):
        cfg = TrajectoryConfig(T=1.0, dt=dt, x0=x0, drift="fhn", master_seed=master_seed + 12)
        rep_c = dynkin_residual(h_cubic, n_paths, cfg, params, basis, spec)
        residuals[dt] = (abs(rep_c.residual), rep_c.se, rep_c.n_rejected)
        passed = passed and abs(rep_c.residual) <= 3.0 * rep_c.se and rep_c.n_rejected == 0
    r_coarse, s_coarse, _ = residuals[1e-3]
    r_fine, s_fine, _ = residuals[5e-4]
    reduction_ok = r_fine <= r_coarse + 2.0 * math.hypot(s_coarse, s_fine)
    passed = passed and reduction_ok
    details["cubic_residuals"] = {f"{dt:g}": r for dt, (r, _, _) in residuals.items()}
    details["cubic_ses"] = {f"{dt:g}": s for dt, (_, s, _) in residuals.items()}
    details["reduction_ok"] = reduction_ok
    details["passed"] = passed
    return details


def criterion_12_reproducibility(quick: bool, master_seed: int) -> dict:
    """Identical config + seed gives byte-identical artifacts across worker counts."""
    import contextlib
    import filecmp
    import io
    import json as _json
    import os
    import tempfile

    from .cli import main as cli_main

    cfg_json = {
        "run": {"T": 0.25, "dt": 1e-3, "record_every": 25},
        "master_seed": master_seed + 12,
        "paths": 40,  # spans two ensemble chunks
    }
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "cfg.json")
        with open(cfg_path, "w") as fh:
            _json.dump(cfg_json, fh)
        for tag, workers in (("w1", "1"), ("w2", "2"), ("w3", "3")):
            out_dir = os.path.join(tmp, tag)
            os.environ["FHN_SPECTRAL_WORKERS"] = workers
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli_main(["simulate", "--config", cfg_path, "--out", out_dir])
            finally:
                os.environ.pop("FHN_SPECTRAL_WORKERS", None)
            if rc != 0:
                return {"passed": False, "error": f"simulate exited {rc} at workers={workers}"}
            outputs.append(out_dir)
        same = True
        names = sorted(os.listdir(outputs[0]))
        for other in outputs[1:]:
            if sorted(os.listdir(other)) != names:
                same = False
                break
            for name in names:
                if not filecmp.cmp(
                    os.path.join(outputs[0], name), os.path.join(other, name), shallow=False
                ):
                    same = False
                    break
        return {"passed": same, "files": names, "worker_counts": [1, 2, 3]}


CRITERIA: list[tuple[int, str, Callable[[bool, int], dict]]] = [
    (1, "drift identities", criterion_1_drift_identities),
    (2, "drift monotonicity", criterion_2_monotonicity),
    (3, "operator dissipativity", criterion_3_dissipativity),
    (4, "convolution trace diagnostics", criterion_4_trace),
    (5, "linear-case Gaussian oracle", criterion_5_linear_oracle),
    (6, "pathwise contraction", criterion_6_contraction),
    (7, "eps-convergence order", criterion_7_eps_convergence),
    (8, "moment bound envelopes", criterion_8_moment_bound),
    (9, "invariant-measure construction", criterion_9_invariant_construction),
    (10, "semigroup limit", criterion_10_semigroup_limit),
    (11, "Dynkin identity", criterion_11_dynkin),
    (12, "reproducibility", criterion_12_reproducibility),
]


def run_criterion(cid: int, quick: bool = False, master_seed: int = 0) -> CriterionResult:
    entry = next((c for c in CRITERIA if c[0] == cid), None)
    if entry is None:
        raise ValueError(f"no criterion {cid}")
    _, name, fn = entry
    start = time.perf_counter()
    details = fn(quick, master_seed)
    elapsed = time.perf_counter() - start
    passed = bool(details.pop("passed"))
    return CriterionResult(cid=cid, name=name, passed=passed, elapsed=elapsed, details=details)


def run_acceptance(quick: bool = False, master_seed: int = 0) -> list[CriterionResult]:
    return [run_criterion(cid, quick=quick, master_seed=master_seed) for cid, _, _ in CRITERIA]
