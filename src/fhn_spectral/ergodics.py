"""Invariant-measure estimation, moment envelopes, and Gaussian oracles.

Everything here consumes trajectory ensembles from the solver and reduces
them to the statistics the asymptotic theory speaks about: the 2m-moment
envelope C_m (1 + e^{-m omega1 t}|x0|^{2m}), time-average versus ensemble
histograms of scalar functionals (Birkhoff-style evidence), transition
semigroup values P_t phi(x) with standard errors, and moments under the
empirical invariant measure.  For the F-disabled linear dynamics every
statistic has a closed Gaussian target through the per-mode Lyapunov
equations, which is what anchors the Monte Carlo machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.stats import ks_2samp

from .model import (
    EigenBasis,
    ModelParams,
    StateH,
    norm_H_sq_arrays,
    norm_V_sq_arrays,
)
from .nonlinearity import DriftParams, apply_F_arrays
from .noise import NoiseSpec, htrace_mode_cov, stationary_mode_covariances
from .solver import (
    RECORD_ENDPOINTS,
    Ensemble,
    TrajectoryConfig,
    _is_record_step,
    _simulate_batch,
    _steps_from,
    _x0_array,
    run_ensemble,
)

# two-sample Kolmogorov-Smirnov critical coefficient at the 5% level
_KS_COEFF_5PCT = 1.358


@dataclass
class StateFunctional:
    """Named scalar functional evaluated on batched spectral states."""

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, u_hat: np.ndarray, w_hat: np.ndarray) -> np.ndarray:
        return self.fn(u_hat, w_hat)


def h_norm_functional(params: ModelParams) -> StateFunctional:
    return StateFunctional(
        "h_norm", lambda u, w: np.sqrt(norm_H_sq_arrays(u, w, params.gamma))
    )


def v_norm_functional(params: ModelParams, basis: EigenBasis) -> StateFunctional:
    return StateFunctional(
        "v_norm", lambda u, w: np.sqrt(norm_V_sq_arrays(u, w, params, basis))
    )


def linear_pairing_functional(h: StateH, params: ModelParams, name: str = "pairing") -> StateFunctional:
    """<x, h>_H as a functional; the direction h is fixed."""
    hu = params.gamma * h.u_hat
    hw = h.w_hat.copy()
    return StateFunctional(name, lambda u, w: u @ hu + w @ hw)


def bounded_ramp_functional(params: ModelParams, scale: float = 1.0) -> StateFunctional:
    """|x|_H / (scale + |x|_H): bounded, monotone in the norm."""
    def fn(u: np.ndarray, w: np.ndarray) -> np.ndarray:
        r = np.sqrt(norm_H_sq_arrays(u, w, params.gamma))
        return r / (scale + r)

    return StateFunctional(f"ramp_{scale:g}", fn)


def constant_one_functional() -> StateFunctional:
    return StateFunctional("one", lambda u, w: np.ones(u.shape[0]))


def cylinder_exp_functional(h: StateH, params: ModelParams, name: str = "cyl_exp") -> StateFunctional:
    """exp(<x,h>_H); keep |h| small so paths stay in floating range."""
    pairing = linear_pairing_functional(h, params)
    return StateFunctional(name, lambda u, w: np.exp(pairing(u, w)))


@dataclass
class MomentReport:
    """Ensemble moment curves and their fitted dissipative envelope."""

    m: int
    times: np.ndarray
    estimate: np.ndarray
    se: np.ndarray
    omega1: float
    x0_norm_sq: float
    envelope_constant: float          # C_m with E|X|^{2m} <= C_m(1+e^{-m w1 t}|x0|^{2m})
    transient_exponent: float         # fitted decay rate of the initial-condition term
    flatness_drift: float             # relative drift across the last half of the run
    n_paths: int


def estimate_moments(
    m: int,
    ensemble: Ensemble,
    cfg: TrajectoryConfig,
    params: ModelParams,
) -> MomentReport:
    """Monte Carlo curve t -> E|X(t,x)|_H^{2m} with fitted envelope constants.

    Reduces the recorded norms of ``ensemble``, the run of ``cfg``, so both
    moment orders can share one set of trajectories.
    """
    if m not in (1, 2):
        raise ValueError("moment order m must be 1 or 2")
    n_paths = ensemble.path_ids.size
    if n_paths < 2:
        raise ValueError("need at least 2 paths for standard errors")
    times = ensemble.times
    hsq = ensemble.h_norm_sq   # (P, R)
    vals = hsq if m == 1 else hsq * hsq
    est = vals.mean(axis=0)
    se = vals.std(axis=0, ddof=1) / math.sqrt(n_paths)

    omega1 = params.derived().omega1
    x0_sq = float(hsq[0, 0])
    rel_t = times - times[0]
    envelope_shape = 1.0 + np.exp(-m * omega1 * rel_t) * x0_sq**m
    c_fit = float((est / envelope_shape).max())

    # transient fit on the window where the initial-condition term dominates
    plateau = float(est[rel_t >= 0.75 * cfg.T].mean()) if cfg.T > 0 else float(est[-1])
    transient = est - plateau
    mask = transient > max(3.0 * se.mean(), 0.05 * max(plateau, 1e-300))
    mask &= rel_t > 0
    if mask.sum() >= 3 and x0_sq > 0:
        coef = np.polyfit(rel_t[mask], np.log(transient[mask]), 1)
        transient_exp = float(-coef[0])
    else:
        transient_exp = math.nan

    half = rel_t >= 0.5 * cfg.T
    t_half = rel_t[half]
    if t_half.size >= 4:
        cut = t_half[0] + 0.5 * (t_half[-1] - t_half[0])
        first = float(est[half][t_half <= cut].mean())
        second = float(est[half][t_half > cut].mean())
        flatness = abs(second - first) / max(abs(first), 1e-300)
    else:
        flatness = math.nan
    return MomentReport(
        m=m,
        times=times,
        estimate=est,
        se=se,
        omega1=omega1,
        x0_norm_sq=x0_sq,
        envelope_constant=c_fit,
        transient_exponent=transient_exp,
        flatness_drift=flatness,
        n_paths=n_paths,
    )


def linear_invariant_covariance(
    params: ModelParams, basis: EigenBasis, spec: NoiseSpec, shifted: bool = True
) -> np.ndarray:
    """Exact stationary per-mode covariances of the F-disabled dynamics.

    Solves M_k S_k + S_k M_k^T + Q_k = 0 for every mode; the defect is
    checked inside the solve.  ``shifted`` selects the A_eta block, the
    linear reference used throughout the acceptance harness.
    """
    return stationary_mode_covariances(params, basis, spec, shifted=shifted)


def linear_stationary_h_moment(params: ModelParams, basis: EigenBasis, spec: NoiseSpec) -> float:
    """E(|X|_H^2) under the exact Gaussian stationary law of the linear dynamics."""
    cov = linear_invariant_covariance(params, basis, spec)
    return htrace_mode_cov(cov, params.gamma)


def empirical_mode_covariances(
    cfg: TrajectoryConfig,
    params: ModelParams,
    basis: EigenBasis,
    spec: NoiseSpec,
    n_paths: int = 256,
    burn_in: float = 50.0,
) -> np.ndarray:
    """Per-mode second-moment matrices accumulated along an ensemble.

    Averages the (u_k, w_k) outer products over paths and post-burn-in
    steps; for the zero-started linear dynamics this estimates the
    stationary covariance that :func:`linear_invariant_covariance`
    computes exactly.
    """
    n = basis.n_modes
    acc = np.zeros((n, 2, 2))
    count = 0
    t_min = cfg.start_time + burn_in

    def on_step(i: int, t: float, state: np.ndarray) -> None:
        nonlocal count
        if t < t_min:
            return
        u, w = state[..., 0], state[..., 1]
        acc[:, 0, 0] += (u * u).sum(axis=0)
        acc[:, 0, 1] += (u * w).sum(axis=0)
        acc[:, 1, 1] += (w * w).sum(axis=0)
        count += state.shape[0]

    _simulate_batch(
        params,
        basis,
        spec,
        dt=cfg.dt,
        n_steps=cfg.n_steps,
        start_interval=cfg.start_interval,
        x0=np.broadcast_to(_x0_array(cfg, n), (n_paths, n, 2)),
        drift=cfg.drift,
        eps_by_col=np.full(n_paths, cfg.eps),
        master_seed=cfg.master_seed,
        path_ids=cfg.path_id + np.arange(n_paths),
        on_step=on_step,
    )
    if count == 0:
        raise ValueError("burn-in leaves no samples; extend T or shrink burn_in")
    acc /= count
    acc[:, 1, 0] = acc[:, 0, 1]
    return acc


@dataclass
class FunctionalHistogram:
    """Time-average vs ensemble histogram of one functional plus KS statistics."""

    name: str
    edges: np.ndarray
    mass_time_avg: np.ndarray
    mass_ensemble: np.ndarray
    ks_stat: float
    ks_crit_5pct: float
    ks_pvalue: float
    samples_time_avg: np.ndarray
    samples_ensemble: np.ndarray


@dataclass
class EmpiricalMeasure:
    """Empirical invariant-measure evidence from one long and many short runs."""

    burn_in: float
    spacing: float
    functionals: dict[str, FunctionalHistogram]
    states_time_avg: np.ndarray      # (n, N, 2) subsampled long-run states
    states_ensemble: np.ndarray      # (n_ensemble, N, 2) terminal states


def _fd_histogram(samples_a: np.ndarray, samples_b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pooled = np.concatenate([samples_a, samples_b])
    if np.ptp(pooled) == 0:
        lo = pooled[0] - 0.5
        edges = np.array([lo, pooled[0] + 0.5])
    else:
        edges = np.histogram_bin_edges(pooled, bins="fd")
    mass_a, _ = np.histogram(samples_a, bins=edges)
    mass_b, _ = np.histogram(samples_b, bins=edges)
    return edges, mass_a / max(1, samples_a.size), mass_b / max(1, samples_b.size)


def estimate_invariant_measure(
    cfg: TrajectoryConfig,
    params: ModelParams,
    basis: EigenBasis,
    spec: NoiseSpec,
    functionals: Sequence[StateFunctional] | None = None,
    burn_in: float | None = None,
    n_time_samples: int = 200,
    sample_spacing: float = 2.0,
    n_ensemble: int = 128,
) -> EmpiricalMeasure:
    """Histograms of scalar functionals under the long-run empirical law.

    One long trajectory is subsampled every ``sample_spacing`` after burn-in
    (time average); ``n_ensemble`` independent short runs contribute their
    terminal states (ensemble average).  Agreement of the two is the
    ergodicity evidence: each functional carries a two-sample KS statistic
    against the 5% critical value.  The horizons follow from ``burn_in`` and
    the sampling, so ``cfg.T`` is not read.
    """
    if n_time_samples < 1:
        raise ValueError("n_time_samples must be >= 1")
    if sample_spacing <= 0:
        raise ValueError("sample_spacing must be positive")
    omega = params.derived().omega
    if burn_in is None:
        burn_in = 5.0 / omega
    dt = cfg.dt
    spacing_steps = _steps_from(sample_spacing, dt, "sample_spacing")
    if spacing_steps < 1:
        raise ValueError(f"sample_spacing={sample_spacing} is shorter than dt={dt}")
    spacing = spacing_steps * dt

    long_cfg = replace(cfg, T=burn_in + n_time_samples * spacing, record_every=spacing_steps)
    samples: list[np.ndarray] = []

    def on_step(i: int, t: float, state: np.ndarray) -> None:
        if _is_record_step(i, long_cfg.n_steps, long_cfg.record_every):
            samples.append(state[0].copy())

    n = basis.n_modes
    _simulate_batch(
        params,
        basis,
        spec,
        dt=dt,
        n_steps=long_cfg.n_steps,
        start_interval=long_cfg.start_interval,
        x0=np.broadcast_to(_x0_array(cfg, n), (1, n, 2)),
        drift=cfg.drift,
        eps_by_col=np.full(1, cfg.eps),
        master_seed=cfg.master_seed,
        path_ids=[cfg.path_id],
        on_step=on_step,
    )
    # the trailing n_time_samples samples all sit past the burn-in window
    states_t = np.stack(samples[-n_time_samples:])

    ens_cfg = replace(
        cfg,
        T=burn_in + spacing,
        record_every=RECORD_ENDPOINTS,
        path_id=cfg.path_id + 1,        # long run owns path 0 of this seed
    )
    states_e = run_ensemble(ens_cfg, params, basis, spec, n_ensemble).terminal

    if functionals is None:
        functionals = [h_norm_functional(params), v_norm_functional(params, basis)]
    out: dict[str, FunctionalHistogram] = {}
    n, m_sz = states_t.shape[0], states_e.shape[0]
    ks_crit = _KS_COEFF_5PCT * math.sqrt((n + m_sz) / (n * m_sz))
    for func in functionals:
        sa = np.asarray(func(states_t[..., 0], states_t[..., 1]), float)
        sb = np.asarray(func(states_e[..., 0], states_e[..., 1]), float)
        edges, mass_a, mass_b = _fd_histogram(sa, sb)
        if np.ptp(sa) == 0 and np.ptp(sb) == 0 and sa[0] == sb[0]:
            stat, pval = 0.0, 1.0
        else:
            res = ks_2samp(sa, sb)
            stat, pval = float(res.statistic), float(res.pvalue)
        out[func.name] = FunctionalHistogram(
            name=func.name,
            edges=edges,
            mass_time_avg=mass_a,
            mass_ensemble=mass_b,
            ks_stat=stat,
            ks_crit_5pct=ks_crit,
            ks_pvalue=pval,
            samples_time_avg=sa,
            samples_ensemble=sb,
        )
    return EmpiricalMeasure(
        burn_in=burn_in,
        spacing=spacing,
        functionals=out,
        states_time_avg=states_t,
        states_ensemble=states_e,
    )


def transition_semigroup(
    phis: Sequence[StateFunctional],
    n_paths: int,
    cfg: TrajectoryConfig,
    params: ModelParams,
    basis: EigenBasis,
    spec: NoiseSpec,
) -> list[tuple[float, float]]:
    """Monte Carlo P_t phi(x) = E phi(X(t,x)) and its standard error, per phi.

    x is ``cfg.x0`` and t is ``cfg.T``; every functional is reduced over the
    terminal states of one ensemble.
    """
    if cfg.n_steps == 0:
        x0 = _x0_array(cfg, basis.n_modes)[None]
        return [(float(phi(x0[..., 0], x0[..., 1])[0]), 0.0) for phi in phis]
    run_cfg = replace(cfg, record_every=RECORD_ENDPOINTS)
    terminals = run_ensemble(run_cfg, params, basis, spec, n_paths).terminal
    estimates = []
    for phi in phis:
        vals = np.asarray(phi(terminals[..., 0], terminals[..., 1]), float)
        estimates.append((float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_paths))))
    return estimates


@dataclass
class InvariantMomentReport:
    """Sample moments under the empirical invariant measure."""

    m: int
    state_moment: float               # mean |x|_H^{2m}
    state_moment_half: float          # same from the first half of the sample
    drift_moment: float               # mean |F_eta(x)|_H^2
    drift_moment_half: float
    n_samples: int


def invariant_moment_integral(
    m: int,
    measure: EmpiricalMeasure,
    params: ModelParams,
    basis: EigenBasis,
) -> InvariantMomentReport:
    """Empirical int |x|^{2m} dmu and int |F_eta(x)|^2 dmu with stability halves."""
    states = measure.states_time_avg
    hsq = norm_H_sq_arrays(states[..., 0], states[..., 1], params.gamma)
    vals = hsq**m
    dp = DriftParams.from_params(params)
    f_hat = apply_F_arrays(states[..., 0], dp, basis, kind="eta")
    f_sq = params.gamma * (f_hat * f_hat).sum(axis=-1)
    half = states.shape[0] // 2
    return InvariantMomentReport(
        m=m,
        state_moment=float(vals.mean()),
        state_moment_half=float(vals[:half].mean()) if half else math.nan,
        drift_moment=float(f_sq.mean()),
        drift_moment_half=float(f_sq[:half].mean()) if half else math.nan,
        n_samples=int(states.shape[0]),
    )
