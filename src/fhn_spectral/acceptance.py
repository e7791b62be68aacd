"""Acceptance criteria: every structural claim the package certifies.

Each criterion is a self-contained function returning its measured
quantities and its :class:`Check` records; ``run_criterion`` derives the
pass flag of its :class:`CriterionResult` from the checks alone.
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
import operator
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ergodics import (
    _KS_COEFF_5PCT,
    StateFunctional,
    bounded_ramp_functional,
    empirical_mode_covariances,
    estimate_moments,
    ks_statistic,
    transition_semigroup,
)
from .kolmogorov import CylinderFunction, dynkin_residual, ou_expectation_exact
from .model import (
    ModelParams,
    StateH,
    build_eigenbasis,
    inner_H,
    norm_H_sq_arrays,
    norm_V_sq_arrays,
    random_coeff_states,
)
from .nonlinearity import DriftParams, f, f_eta, f_eta_eps, f_eta_eps_prime, grid_drift
from .noise import (
    NoiseSpec,
    convolution_trace_integral,
    convolution_trace_integrand,
    stationary_mode_covariances,
    trace_Q,
)
from .solver import (
    RECORD_ENDPOINTS,
    TrajectoryConfig,
    backward_run,
    coupled_run,
    eps_convergence_study,
    explicit_term,
    run_drift,
    run_ensemble,
)


@dataclass(frozen=True)
class Check:
    """One gate of a criterion: ``value`` against ``bound`` under ``op``.

    ``op`` is ``<=``, ``<``, ``>=`` or ``>``; a ``(lo, hi)`` bound is two-sided,
    lo op value op hi.  ``se`` is the standard error that the bound is a
    multiple of, where it is one.  A NaN value fails every comparison.
    """

    name: str
    value: float
    bound: float | tuple[float, float]
    se: float | None = None
    op: str = "<="

    @property
    def passed(self) -> bool:
        cmp = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}[self.op]
        if isinstance(self.bound, tuple):
            return bool(cmp(self.bound[0], self.value) and cmp(self.value, self.bound[1]))
        return bool(cmp(self.value, self.bound))


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    elapsed: float
    details: dict = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)


# the million-point scans of criteria 1 and 2 walk in blocks of this many
# points, so their temporaries stay O(block) at every scan size; 1 << 13
# timed fastest for full criterion 1 among blocks of 2**9 .. 2**16
_SCAN_BLOCK = 1 << 13


def _linspace_blocks(lo: float, hi: float, n: int):
    """Consecutive blocks of ``np.linspace(lo, hi, n)`` (n >= 2), bitwise equal to its slices."""
    step = (hi - lo) / (n - 1)
    for start in range(0, n, _SCAN_BLOCK):
        stop = min(start + _SCAN_BLOCK, n)
        g = np.arange(start, stop, dtype=float) * step + lo
        if stop == n:
            g[-1] = hi
        yield g


# the exp-sinh nodes exp(pi/2 sinh u), |u| <= this, span about 1e-31 .. 1e31
_EXP_SINH_REACH = 4.5

# nodes the exp-sinh rule hands its integrand at a time: criterion 4's
# integrand holds a dozen floats per node and mode
_NODE_BLOCK = 64


def _exp_sinh_integral(f: Callable[[np.ndarray], np.ndarray]) -> tuple[float, float]:
    """int_0^inf f(s) ds by the exp-sinh rule (Takahasi & Mori 1974).

    s = exp(pi/2 sinh u) maps [0, inf) onto the real line, where the
    trapezoidal rule on a smooth, decaying f converges double
    exponentially in the number of nodes.  ``f`` takes an array of nodes,
    at most ``_NODE_BLOCK`` at a time, and must treat each node on its own.
    The step halves (each pass adds only the new nodes) until two
    successive estimates agree to 1e-13 relative, at most ten times;
    returns the last estimate and its gap to the one before.
    """

    def weighted_sum(u: np.ndarray) -> float:
        s = np.exp(0.5 * np.pi * np.sinh(u))
        fs = np.concatenate([f(s[i : i + _NODE_BLOCK]) for i in range(0, s.size, _NODE_BLOCK)])
        return float((0.5 * np.pi * np.cosh(u) * s * fs).sum())

    h = 0.5
    n = math.ceil(_EXP_SINH_REACH / h)
    estimate = h * weighted_sum(h * np.arange(-n, n + 1))
    gap = math.inf
    for _ in range(10):
        h, n = 0.5 * h, 2 * n
        refined = 0.5 * estimate + h * weighted_sum(h * np.arange(1 - n, n, 2))
        gap, estimate = abs(refined - estimate), refined
        if gap <= 1e-13 * abs(estimate):
            break
    return estimate, gap


def _default_setup(**overrides):
    """The model with ``overrides``, its eigenbasis and the default power-law noise."""
    params = ModelParams(**overrides)
    basis = build_eigenbasis(params)
    spec = NoiseSpec.power_law(params.n_modes)
    return params, basis, spec


def criterion_1_drift_identities(quick: bool, master_seed: int) -> tuple[dict, list[Check]]:
    """Closed-form identity of the shifted cubic, the sup of f', and the library's drift.

    The paper's formula -u(u - 1)(u - xi1) (less eta u for the shifted drift)
    is the oracle for the library's f, f_eta, f_eta_eps at eps = 0 and
    grid_drift on the identity's scan points, and its projection is the
    oracle for explicit_term on a state whose grid values are known.
    """
    params, basis, _ = _default_setup()
    u_hat = np.zeros(basis.n_modes)
    u_hat[:3] = (1.5, -1.0, 0.5)
    u_grid = basis.to_grid(u_hat)
    grid_bound = 1e-12 * float((1.0 + np.abs(u_grid) ** 3).max())
    # the library's drifts on the scan points, each with whether eta u is taken off
    drifts = {
        "f": (lambda u, dp: f(u, dp.xi1), False),
        "f_eta": (f_eta, True),
        "f_eta_eps0": (f_eta_eps, True),
        "grid_drift_cubic": (lambda u, dp: grid_drift(u, dp, "cubic"), False),
        "grid_drift_eta_eps": (lambda u, dp: grid_drift(u, dp, "eta_eps"), True),
    }
    # worst |library - formula| / bound per function; every fold below is
    # np.maximum, which keeps a NaN where Python's max would drop it
    library = dict.fromkeys([*drifts, "explicit_term"], 0.0)
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
        # blocked draws consume the generator exactly as one n_u draw would
        for start in range(0, n_u, _SCAN_BLOCK):
            u = rng.uniform(-10.0, 10.0, min(_SCAN_BLOCK, n_u - start))
            formula = -u * (u - 1.0) * (u - xi1)
            lhs = formula - dp.eta * u
            v = u - dp.xi0
            rhs = -(v * v * v) - dp.xi0**3
            bound = 1e-12 * (1.0 + np.abs(u * u * u))
            worst_identity = np.maximum(worst_identity, (np.abs(lhs - rhs) / bound).max())
            for key, (drift, shifted) in drifts.items():
                gap = np.abs(drift(u, dp) - (lhs if shifted else formula)) / bound
                library[key] = np.maximum(library[key], gap.max())
        projected = basis.to_coeffs(-u_grid * (u_grid - 1.0) * (u_grid - xi1))
        term = explicit_term(params, basis, u_hat, [(dp, slice(None))])
        library["explicit_term"] = np.maximum(
            library["explicit_term"], np.abs(term - projected).max() / grid_bound
        )
        sup_fprime = -np.inf
        for g in _linspace_blocks(lo, hi, n_grid):
            fprime = -3.0 * g * g + 2.0 * (1.0 + xi1) * g - xi1
            sup_fprime = np.maximum(sup_fprime, fprime.max())
        worst_sup = np.maximum(worst_sup, abs(sup_fprime - dp.eta))
    checks = [Check("max_identity_ratio", float(worst_identity), 1.0),
              Check("max_sup_error", float(worst_sup), 1e-8)]
    return {"n_u": n_u, "n_grid": n_grid}, checks + [
        Check(f"{key}_ratio", float(r), 1.0) for key, r in library.items()
    ]


def criterion_2_monotonicity(quick: bool, master_seed: int) -> tuple[dict, list[Check]]:
    """<F_eta(x)-F_eta(y), x-y>_H <= 0 and nonpositivity of f'_{eta,eps}."""
    params, basis, _ = _default_setup()
    rng = np.random.default_rng(master_seed + 2)
    n_pairs = 10**3 if quick else 10**4
    dp = DriftParams(params.xi1)
    ux, wx = random_coeff_states(n_pairs, params, rng)
    uy, wy = random_coeff_states(n_pairs, params, rng)
    fx = basis.to_coeffs(f_eta(basis.to_grid(ux), dp))
    fy = basis.to_coeffs(f_eta(basis.to_grid(uy), dp))
    du, dw = ux - uy, wx - wy
    # F_eta(x) - F_eta(y) has no w component
    gap = inner_H(fx - fy, np.zeros_like(dw), du, dw, params.gamma)
    diff_sq = norm_H_sq_arrays(du, dw, params.gamma)
    worst_gap = float((gap / (1.0 + diff_sq)).max())
    eps_levels = [DriftParams(params.xi1, eps) for eps in (1e-3, 1e-1, 1.0)]
    worst_prime = -np.inf
    for u_scan in _linspace_blocks(-50.0, 50.0, 200001):
        for dp_eps in eps_levels:
            # np.maximum keeps a NaN, which fails the check
            worst_prime = np.maximum(worst_prime, f_eta_eps_prime(u_scan, dp_eps).max())
    return {"n_pairs": n_pairs}, [Check("max_gap_ratio", worst_gap, 1e-9),
                                  Check("max_f_prime", float(worst_prime), 1e-12)]


def criterion_3_dissipativity(quick: bool, master_seed: int) -> tuple[dict, list[Check]]:
    """<A_eta x, x>_H <= -omega1 |x|_H^2 and <= -omega2 |x|_V^2 on random states."""
    params, basis, _ = _default_setup()
    rng = np.random.default_rng(master_seed + 3)
    n_states = 10**3 if quick else 10**4
    dc = params.derived()
    u, w = random_coeff_states(n_states, params, rng)
    au, aw = run_drift(params, basis, "linear_eta")(u, w)
    quad_form = inner_H(au, aw, u, w, params.gamma)
    h_sq = norm_H_sq_arrays(u, w, params.gamma)
    v_sq = norm_V_sq_arrays(u, w, params, basis)
    slack_h = float((quad_form + dc.omega1 * h_sq).max() / max(h_sq.max(), 1.0))
    viol_h = float(((quad_form + dc.omega1 * h_sq) / (1e-300 + h_sq)).max())
    viol_v = float(((quad_form + dc.omega2 * v_sq) / (1e-300 + v_sq)).max())
    details = {"slack_h": slack_h, "omega1": dc.omega1, "omega2": dc.omega2, "n_states": n_states}
    return details, [Check("max_h_violation", viol_h, 1e-9), Check("max_v_violation", viol_v, 1e-9)]


def criterion_4_trace(quick: bool, master_seed: int) -> tuple[dict, list[Check]]:
    """Exp-sinh quadrature of the convolution trace integral vs closed form (1e-8 relative) and bound."""
    params, basis, spec = _default_setup()
    closed = convolution_trace_integral(params, basis, spec)
    numeric, quad_err = _exp_sinh_integral(
        lambda s: convolution_trace_integrand(s, params, basis, spec)
    )
    bound = trace_Q(spec) / (2.0 * params.derived().omega1)
    details = {"quadrature": numeric, "quadrature_error_estimate": quad_err, "bound": bound}
    return details, [Check("quadrature_gap", abs(numeric - closed), 1e-8 * abs(closed)),
                     Check("closed_form", closed, bound * (1.0 + 1e-9))]


def criterion_5_linear_oracle(quick: bool, master_seed: int) -> tuple[dict, list[Check]]:
    """Empirical stationary per-mode covariance vs the Lyapunov solution."""
    params, basis, spec = _default_setup()
    target = stationary_mode_covariances(params, basis, spec, shifted=True)
    n_paths = 128 if quick else 256
    horizon = 80.0 if quick else 150.0
    cfg = TrajectoryConfig(
        T=horizon, dt=0.05, drift="linear_eta", master_seed=master_seed + 5
    )
    empirical = empirical_mode_covariances(
        cfg, params, basis, spec, n_paths=n_paths, burn_in=30.0
    )
    n_lead = 8
    worst = float((np.abs(empirical[:n_lead] - target[:n_lead]) / np.abs(target[:n_lead])).max())
    details = {"mode0_target": target[0].tolist(), "mode0_empirical": empirical[0].tolist(),
               "n_paths": n_paths}
    return details, [Check("max_rel_error", worst, 0.05)]


def criterion_6_contraction(quick: bool, master_seed: int) -> tuple[dict, list[Check]]:
    """Shared-noise coupling: envelope, fitted exponent, and fit quality."""
    params, basis, spec = _default_setup()
    omega = params.derived().omega1
    # |x - xbar|_H = 1 from x = 0
    x_bar = StateH.from_modes(basis.n_modes, u_modes=[(0, 1.0 / math.sqrt(params.gamma))])
    n_paths = 8 if quick else 32
    cfg = TrajectoryConfig(T=10.0, dt=1e-3, record_every=20, master_seed=master_seed + 6)
    tol = 0.05
    report = coupled_run(x_bar, cfg, params, basis, spec, n_paths=n_paths, envelope_tol=tol)
    return {"two_omega": 2.0 * omega, "n_paths": n_paths}, [
        Check("max_envelope_ratio", report.max_envelope_ratio, 1.0 + tol),
        Check("pooled_exponent", report.pooled_exponent, 2.0 * omega * 0.8, op=">="),
        Check("pooled_r2", report.pooled_r2, 0.95, op=">="),
    ]


def criterion_7_eps_convergence(quick: bool, master_seed: int) -> tuple[dict, list[Check]]:
    """Order of the shared-noise distance between regularization levels."""
    params, basis, spec = _default_setup()
    xi = basis.xi
    x0 = StateH.from_grid(2.0 * np.cos(math.pi * xi), np.zeros_like(xi), basis)
    n_paths = 16 if quick else 48
    cfg = TrajectoryConfig(T=1.0, dt=1e-3, x0=x0, master_seed=master_seed + 7)
    ladder = [0.2, 0.1, 0.05, 0.025]
    report = eps_convergence_study(ladder, cfg, params, basis, spec, n_paths=n_paths)
    # rises of the distance along the ladder, each less its 2-SE allowance
    excess = np.diff(report.distance) - 2.0 * np.hypot(report.distance_se[1:], report.distance_se[:-1])
    details = {"r2": report.r2, "distances": report.distance.tolist(), "n_paths": n_paths}
    return details, [Check("slope", report.slope, 0.9, op=">="),
                     Check("monotone_within_2se", float(excess.max()), 0.0)]


def criterion_8_moment_bound(quick: bool, master_seed: int) -> tuple[dict, list[Check]]:
    """Moment envelopes for m = 1, 2: cross-batch stability and flatness.

    The envelope constant over all t is pinned by the (noise-free) initial
    record, so the cross-batch comparison is also run on the tail window
    t >= T/2 where only the stationary fluctuation enters; flatness is
    measured on the pooled batches, whose size is chosen so the estimator
    noise sits well below the 5% threshold.
    """
    params, basis, spec = _default_setup()
    omega1 = params.derived().omega1
    # |x0|_H = 10
    x0 = StateH.from_modes(basis.n_modes, u_modes=[(0, 10.0 / math.sqrt(params.gamma))])
    horizon = 20.0 if quick else 50.0
    n_paths = 64 if quick else 256
    details: dict = {"horizon": horizon, "n_paths_per_batch": n_paths}
    checks = []
    cfgs = [TrajectoryConfig(T=horizon, dt=2e-3, x0=x0, record_every=25, master_seed=seed)
            for seed in (master_seed + 8, master_seed + 80)]
    batches = [run_ensemble(cfg, params, basis, spec, n_paths) for cfg in cfgs]
    # both batches' paths as one ensemble; the configs differ only in their
    # seed, so the first describes the pooled run
    pooled = batches[0].concat(batches[1])
    times = pooled.times
    x0_sq = float(pooled.h_norm_sq[0, 0])
    tail = times >= 0.5 * horizon
    for m in (1, 2):
        ra, rb = (estimate_moments(m, ens, cfg, params) for ens, cfg in zip(batches, cfgs))
        ratio = ra.envelope_constant / rb.envelope_constant
        envelope_shape = 1.0 + np.exp(-m * omega1 * times) * x0_sq**m
        c_tail = [float((r.estimate[tail] / envelope_shape[tail]).max()) for r in (ra, rb)]
        flatness = estimate_moments(m, pooled, cfgs[0], params).flatness_drift
        decay = min(ra.transient_exponent, rb.transient_exponent)
        checks += [Check(f"m{m}_batch_ratio", ratio, (0.8, 1.2)),
                   Check(f"m{m}_tail_ratio", c_tail[0] / c_tail[1], (0.8, 1.2)),
                   Check(f"m{m}_pooled_flatness", flatness, 0.05, op="<"),
                   Check(f"m{m}_transient_exponent", decay, 0.7 * m * omega1, op=">=")]
        details[f"m{m}_envelope_constants"] = [ra.envelope_constant, rb.envelope_constant]
        details[f"m{m}_tail_constants"] = c_tail
        details[f"m{m}_transient_exponents"] = [ra.transient_exponent, rb.transient_exponent]
    return details, checks


def criterion_9_invariant_construction(quick: bool, master_seed: int) -> tuple[dict, list[Check]]:
    """Backward-ladder Cauchy decay plus two-start distribution equality."""
    # slow-mixing parameters keep the deepest rung above the fp floor
    params, basis, spec = _default_setup(alpha=0.12, p_profile=0.26)
    n_paths = 16 if quick else 48
    dt = 2e-3 if quick else 1e-3
    cfg = TrajectoryConfig(T=1.0, dt=dt, master_seed=master_seed + 9)
    ladder = [5.0, 10.0, 20.0, 40.0]
    report = backward_run(ladder, cfg, params, basis, spec, n_paths=n_paths)
    moments_plateau = abs(
        report.second_moment[40.0] - report.second_moment[20.0]
    ) / max(report.second_moment[40.0], 1e-300)

    # strongly dissipative configuration so burn-in >= 5/omega stays cheap
    ks_params, ks_basis, ks_spec = _default_setup(p_profile=0.85)
    burn = 5.0 / ks_params.derived().omega1
    horizon = math.ceil(burn) + 3.0
    n_ks = 64 if quick else 128
    far = StateH.from_modes(ks_basis.n_modes, u_modes=[(1, 5.0 / math.sqrt(ks_params.gamma))])
    terminals = {}
    for name, x0, seed in (("zero", None, master_seed + 90), ("far", far, master_seed + 91)):
        cfg_ks = TrajectoryConfig(
            T=horizon, dt=1e-3, x0=x0, record_every=RECORD_ENDPOINTS, master_seed=seed
        )
        arr = run_ensemble(cfg_ks, ks_params, ks_basis, ks_spec, n_ks).terminal
        terminals[name] = np.sqrt(
            norm_H_sq_arrays(arr[..., 0], arr[..., 1], ks_params.gamma)
        )
    ks_stat = ks_statistic(terminals["zero"], terminals["far"])
    details = {
        "distances": {f"{k[0]:g}_vs_{k[1]:g}": v for k, v in report.distances.items()},
        "second_moments": {f"{k:g}": v for k, v in report.second_moment.items()},
        "plateau_rel_change": moments_plateau,
        "ks_burn_in": burn,
        "n_paths": n_paths,
    }
    return details, [Check("fit_rate", report.fit_rate, 0.0, op=">"),
                     Check("fit_r2", report.fit_r2, 0.9, op=">="),
                     Check("ks_stat", ks_stat, _KS_COEFF_5PCT * math.sqrt(2.0 / n_ks), op="<")]


def criterion_10_semigroup_limit(quick: bool, master_seed: int) -> tuple[dict, list[Check]]:
    """P_t phi(x) becomes independent of x: two far starts at t = 40."""
    params, basis, spec = _default_setup()
    n = basis.n_modes
    x1 = StateH.zero(n)
    x2 = StateH.from_modes(n, u_modes=[(1, 5.0 / math.sqrt(params.gamma))])  # |x1 - x2|_H = 5
    h_small = CylinderFunction.from_modes(n, params, u_modes=[(0, 0.3)])
    h_mix = CylinderFunction.from_modes(n, params, u_modes=[(1, 0.3)], w_modes=[(0, 0.4)])
    functionals = {
        "cyl_mode0": StateFunctional("cyl_mode0", h_small.phi),
        "cyl_mixed": StateFunctional("cyl_mixed", h_mix.phi),
        "ramp": bounded_ramp_functional(params),
    }
    t = 40.0
    dt = 4e-3 if quick else 2e-3
    n_paths = 48 if quick else 128
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
    checks = []
    for name, (m1, s1), (m2, s2) in zip(functionals, *estimates):
        se = math.hypot(s1, s2)
        checks.append(Check(f"{name}_gap", abs(m1 - m2), 3.0 * se, se=se))
    return {"t": t, "n_paths": n_paths}, checks


def criterion_11_dynkin(quick: bool, master_seed: int) -> tuple[dict, list[Check]]:
    """Dynkin identity for the exact OU reference and the full cubic drift."""
    # gamma = 1: the weighted trace term matches the simulated noise exactly
    params, basis, spec = _default_setup(gamma=1.0)
    n = basis.n_modes
    n_paths = 96 if quick else 256
    h_ou = CylinderFunction.from_modes(n, params, spec, u_modes=[(0, 0.4)])
    x0 = StateH.from_modes(n, u_modes=[(0, 0.5)])
    cfg_ou = TrajectoryConfig(T=1.0, dt=1e-3, x0=x0, drift="linear", master_seed=master_seed + 11)
    rep = dynkin_residual(h_ou, n_paths, cfg_ou, params, basis, spec)
    exact = ou_expectation_exact(h_ou, x0, 1.0, params, basis, spec, shifted=False)
    checks = [Check("ou_residual", abs(rep.residual), 3.0 * rep.se, se=rep.se),
              Check("ou_oracle_gap", abs(rep.phi_terminal_mean - exact), 3.0 * rep.se, se=rep.se)]

    h_cubic = CylinderFunction.from_modes(
        n, params, spec, u_modes=[(0, 0.4), (1, 0.3)]
    )
    residuals = {}
    for dt in (1e-3, 5e-4):
        cfg = TrajectoryConfig(T=1.0, dt=dt, x0=x0, drift="fhn", master_seed=master_seed + 12)
        rep_c = dynkin_residual(h_cubic, n_paths, cfg, params, basis, spec)
        r, s = residuals[dt] = (abs(rep_c.residual), rep_c.se)
        checks += [Check(f"cubic_residual_dt{dt:.0e}", r, 3.0 * s, se=s),
                   Check(f"cubic_rejected_dt{dt:.0e}", rep_c.n_rejected, 0)]
    (r_coarse, s_coarse), (r_fine, s_fine) = residuals[1e-3], residuals[5e-4]
    se = math.hypot(s_coarse, s_fine)
    checks.append(Check("cubic_residual_reduction", r_fine, r_coarse + 2.0 * se, se=se))
    # the check holds |ou residual|; its sign goes to details under its own name
    details = {"n_paths": n_paths, "gamma": params.gamma, "ou_residual_signed": rep.residual,
               "ou_exact_expectation": exact, "ou_mc_expectation": rep.phi_terminal_mean}
    return details, checks


def criterion_12_reproducibility(quick: bool, master_seed: int) -> tuple[dict, list[Check]]:
    """Identical config + seed gives byte-identical ``simulate`` and ``couple`` artifacts
    across worker counts."""
    import contextlib
    import io
    import json as _json
    import os
    import tempfile
    from pathlib import Path

    from .cli import main as cli_main

    cfg_json = {
        "run": {"T": 0.25, "dt": 1e-3, "record_every": 25},
        "master_seed": master_seed + 12,
        # 2 workers deal 72 paths as 36 + 36, 3 workers as 24 + 24 + 24
        "paths": 72,
    }
    # each worker count's artifacts of both subcommands as one {"command/name": bytes} map
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp, "cfg.json")
        cfg_path.write_text(_json.dumps(cfg_json))
        for workers in ("1", "2", "3"):
            artifacts = {}
            for command in ("simulate", "couple"):
                out_dir = Path(tmp, f"w{workers}", command)
                os.environ["FHN_SPECTRAL_WORKERS"] = workers
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        rc = cli_main([command, "--config", str(cfg_path), "--out", str(out_dir)])
                finally:
                    os.environ.pop("FHN_SPECTRAL_WORKERS", None)
                if rc != 0:
                    details = {"error": f"{command} exited {rc} at workers={workers}"}
                    return details, [Check(f"{command}_exit_code", rc, 0)]
                artifacts.update(
                    {f"{command}/{path.name}": path.read_bytes() for path in out_dir.iterdir()}
                )
            outputs.append(artifacts)
    details = {"files": sorted(outputs[0]), "worker_counts": [1, 2, 3]}
    # worker counts whose artifacts differ from one worker's
    return details, [Check("artifacts_differing", sum(out != outputs[0] for out in outputs[1:]), 0)]


CRITERIA: list[tuple[int, str, Callable[[bool, int], tuple[dict, list[Check]]]]] = [
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
    details, checks = fn(quick, master_seed)
    elapsed = time.perf_counter() - start
    names = [check.name for check in checks]
    if not checks or len(set(names)) != len(names):
        raise ValueError(f"criterion {cid} must return checks with distinct names, got {names}")
    passed = all(check.passed for check in checks)
    return CriterionResult(cid, name, passed, elapsed, details, checks)


def run_acceptance(quick: bool = False, master_seed: int = 0) -> list[CriterionResult]:
    return [run_criterion(cid, quick=quick, master_seed=master_seed) for cid, _, _ in CRITERIA]
