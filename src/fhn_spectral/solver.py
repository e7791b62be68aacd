"""Exponential Euler-Maruyama integration of the truncated semilinear system.

One step composes the exact per-mode linear/stochastic transition with an
explicit, phi1-weighted nonlinear increment,

    x_k <- e^{M_k dt} x_k + dt phi1(M_k dt) Fhat_k(x) + xi_k,
    xi_k ~ N(0, Sigma_k(dt)),

mirroring the variation-of-constants form of the mild solution term by
term.  Fhat is the raw cubic for eps = 0 and f_{eta,eps} + eta*u for
eps > 0, so the simulated drift is always A x + F(x) or its
eps-approximation, never double-shifted.  Two extra drift modes disable
the nonlinearity entirely: ``linear`` (drift A) and ``linear_eta``
(drift A_eta, i.e. the stochastic convolution when started at zero);
these are the exactly solvable references used by the ergodic and
Kolmogorov test harnesses.

Paths are vectorized; each path owns a counter-based noise stream, and
ensembles run in fixed-size chunks, so an ensemble's output does not
depend on the worker count.  Every spectral<->grid transform goes through
``EigenBasis.to_grid``/``to_coeffs``.  A constant-c basis with at least
``DCT_MIN_MODES`` modes transforms by row-local DCTs, so there a path's
bits do not depend on the batch it runs in; smaller bases use matmuls,
whose rounding can depend on the batch shape.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .model import (
    EigenBasis,
    ModelParams,
    StateH,
    norm_H_sq_arrays,
    norm_V_sq_arrays,
)
from .nonlinearity import DriftParams, grid_drift
from .noise import NoiseSpec, OUKernel, PathStream, build_ou_kernel, trace_Q

DRIFT_MODES = ("fhn", "linear", "linear_eta")

# adaptive ceiling for the explicit cubic: dt <= _CEILING_SCALE/(1+max|u|^2)
_CEILING_SCALE = 0.1
_MAX_SUBSTEPS = 4096

# paths are always batched in fixed-size chunks so the array shapes seen by
# the BLAS kernels of a matmul basis (whose rounding can depend on batch
# size) are identical for every worker count
_ENSEMBLE_CHUNK = 32

WORKERS_ENV = "FHN_SPECTRAL_WORKERS"

# ``record_every`` of a run that keeps only its initial and terminal states
RECORD_ENDPOINTS = sys.maxsize


class BlowUpError(RuntimeError):
    """Trajectory left the finite range; carries the first offending step."""

    def __init__(self, message: str, time: float, step: int, path_id: int):
        super().__init__(message)
        self.time = time
        self.step = step
        self.path_id = path_id


def _steps_from(duration: float, dt: float, what: str) -> int:
    n = int(round(duration / dt))
    if abs(n * dt - duration) > 1e-9 * max(1.0, abs(duration)):
        raise ValueError(f"{what}={duration} is not an integer multiple of dt={dt}")
    return n


@dataclass
class TrajectoryConfig:
    """Run description: horizon, step, initial state, drift mode, and seeds.

    ``start_time`` may be negative (backward invariant-measure runs); both
    it and T must be integer multiples of dt so noise intervals align on
    the absolute time grid shared by all runs with the same master seed.
    """

    T: float
    dt: float = 1e-3
    x0: StateH | None = None
    eps: float = 0.0
    master_seed: int = 0
    path_id: int = 0
    record_every: int = 1
    start_time: float = 0.0
    drift: str = "fhn"

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.T < 0:
            raise ValueError("T must be >= 0")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.drift not in DRIFT_MODES:
            raise ValueError(f"drift must be one of {DRIFT_MODES}, got {self.drift!r}")
        self.n_steps = _steps_from(self.T, self.dt, "T")
        self.start_interval = _steps_from(self.start_time, self.dt, "start_time")


@dataclass
class Ensemble:
    """Path-major result of a run: recorded norms and terminal states of P paths."""

    path_ids: np.ndarray      # (P,)
    times: np.ndarray         # (R,)
    h_norm_sq: np.ndarray     # (P, R)
    v_norm_sq: np.ndarray     # (P, R)
    terminal: np.ndarray      # (P, N, 2), C-contiguous


def _is_record_step(i: int, n_steps: int, record_every: int) -> bool:
    """Steps whose state is recorded: every ``record_every``-th, plus the last."""
    return i % record_every == 0 or i == n_steps


def _simulate_batch(
    params: ModelParams,
    basis: EigenBasis,
    spec: NoiseSpec | None,
    *,
    dt: float,
    n_steps: int,
    start_interval: int,
    x0: np.ndarray,              # (B, N, 2)
    drift: str,
    eps_by_col: np.ndarray,      # (B,)
    master_seed: int,
    path_ids: Sequence[int],     # (B,) columns with equal ids share one noise path
    on_step: Callable[[int, float, np.ndarray], None] | None = None,
) -> np.ndarray:
    """The integrator: advance B columns for n_steps, return the terminal (B, N, 2) state.

    Each distinct path id owns one counter-based noise stream, drawn once
    per interval.  ``on_step(i, t, state)`` observes the state after step i
    (i = 0 is the initial state); it must not modify ``state``.
    """
    b, n = x0.shape[0], x0.shape[1]
    path_ids = np.asarray(path_ids)
    stream_keys, stream_ids = np.unique(path_ids, return_inverse=True)
    streams = [PathStream(n, master_seed, int(pid)) for pid in stream_keys]
    eta = params.derived().eta
    shifted = drift == "linear_eta"
    kernel = build_ou_kernel(params, basis, spec, dt, shifted=shifted)
    sub_kernels: dict[int, OUKernel] = {1: kernel}

    needs_remainder = not params.p_is_constant
    rem_grid = (params.p_min - params.p_grid) if needs_remainder else None
    nonlinear = drift == "fhn"
    eps_groups: list[tuple[np.ndarray, DriftParams, str, float]] = []
    if nonlinear:
        for eps in np.unique(eps_by_col):
            cols = np.nonzero(eps_by_col == eps)[0]
            dp = DriftParams(xi1=params.xi1, eps=float(eps))
            kind = "cubic" if eps == 0.0 else "eta_eps"
            shift = 0.0 if eps == 0.0 else eta
            eps_groups.append((cols, dp, kind, shift))

    def explicit_term(
        x: np.ndarray, u_grid: np.ndarray, eps_cols: np.ndarray
    ) -> np.ndarray | None:
        """Spectral coefficients of the explicit drift Fhat, or None if absent."""
        if not nonlinear and not needs_remainder:
            return None
        if nonlinear:
            g = np.empty_like(u_grid)
            for _, dp, kind, _ in eps_groups:
                sel = eps_cols == dp.eps
                if sel.any():
                    g[sel] = grid_drift(u_grid[sel], dp, kind)
            if needs_remainder:
                g += rem_grid * u_grid
        else:
            g = rem_grid * u_grid
        f_hat = basis.to_coeffs(g)
        if nonlinear:
            for _, dp, _, shift in eps_groups:
                if shift:
                    sel = eps_cols == dp.eps
                    if sel.any():
                        f_hat[sel] += shift * x[sel][:, :, 0]
        return f_hat

    def apply_update(x: np.ndarray, f_hat: np.ndarray | None, ker: OUKernel, h: float) -> np.ndarray:
        tr = ker.transition
        u, w = x[..., 0], x[..., 1]
        un = tr[:, 0, 0] * u + tr[:, 0, 1] * w
        wn = tr[:, 1, 0] * u + tr[:, 1, 1] * w
        if f_hat is not None:
            ph = ker.phi1
            un += h * (ph[:, 0, 0] * f_hat)
            wn += h * (ph[:, 1, 0] * f_hat)
        return np.stack([un, wn], axis=-1)

    # C order keeps every row's reductions in one layout, whatever x0's strides
    x = np.array(x0, dtype=float, order="C")
    if on_step is not None:
        on_step(0, start_interval * dt, x)

    n_streams = len(streams)
    z_block = np.empty((n_streams, 2 * n))
    factor = kernel.factor

    for i in range(n_steps):
        interval = start_interval + i
        for s_idx, stream in enumerate(streams):
            z_block[s_idx] = stream.normals(interval)
        z = z_block[stream_ids]
        zu, zw = z[:, :n], z[:, n:]
        noise_u = factor[:, 0, 0] * zu + factor[:, 0, 1] * zw
        noise_w = factor[:, 1, 0] * zu + factor[:, 1, 1] * zw

        u_grid = basis.to_grid(x[..., 0])
        m_col = None
        if nonlinear:
            umax_sq = np.max(u_grid * u_grid, axis=1)
            # the substep count only grows with umax_sq, so if the largest
            # needs one step every column takes one step
            if dt * (1.0 + umax_sq.max()) / _CEILING_SCALE > 1.0:
                m_col = np.ceil(dt * (1.0 + umax_sq) / _CEILING_SCALE).astype(int)
                np.clip(m_col, 1, None, out=m_col)
                if np.max(m_col) > _MAX_SUBSTEPS:
                    col = int(np.argmax(m_col))
                    raise BlowUpError(
                        f"step-size ceiling requested {int(m_col[col])} substeps"
                        f" at t={interval * dt:.6g}",
                        time=interval * dt,
                        step=i,
                        path_id=int(path_ids[col]),
                    )

        if m_col is None:
            f_hat = explicit_term(x, u_grid, eps_by_col)
            x = apply_update(x, f_hat, kernel, dt)
        else:
            # drift-only substeps; the interval's noise is applied once so the
            # absolute-time noise path is independent of the re-stepping choice
            x_new = np.empty_like(x)
            for m in np.unique(m_col):
                cols = np.nonzero(m_col == m)[0]
                ys = x[cols]
                eps_cols = eps_by_col[cols]
                if m == 1:
                    f_hat = explicit_term(ys, u_grid[cols], eps_cols)
                    x_new[cols] = apply_update(ys, f_hat, kernel, dt)
                    continue
                m = int(m)
                if m not in sub_kernels:
                    sub_kernels[m] = build_ou_kernel(params, basis, None, dt / m, shifted=shifted)
                ker = sub_kernels[m]
                for _ in range(m):
                    ug = basis.to_grid(ys[..., 0])
                    f_hat = explicit_term(ys, ug, eps_cols)
                    ys = apply_update(ys, f_hat, ker, dt / m)
                x_new[cols] = ys
            x = x_new

        x[..., 0] += noise_u
        x[..., 1] += noise_w

        if not np.isfinite(x).all():
            bad = np.nonzero(~np.isfinite(x).reshape(b, -1).all(axis=1))[0][0]
            raise BlowUpError(
                f"non-finite state at t={(interval + 1) * dt:.6g} (step {i})",
                time=(interval + 1) * dt,
                step=i,
                path_id=int(path_ids[bad]),
            )

        if on_step is not None:
            on_step(i + 1, (interval + 1) * dt, x)

    return x


def _x0_array(cfg: TrajectoryConfig, n_modes: int) -> np.ndarray:
    if cfg.x0 is None:
        return np.zeros((n_modes, 2))
    if cfg.x0.n_modes != n_modes:
        raise ValueError(f"x0 has {cfg.x0.n_modes} modes, basis has {n_modes}")
    return cfg.x0.as_array()


def integrate(
    cfg: TrajectoryConfig,
    params: ModelParams,
    basis: EigenBasis,
    spec: NoiseSpec | None,
) -> Ensemble:
    """Integrate a single path; a pure function of (config, master_seed, path_id)."""
    return run_ensemble(cfg, params, basis, spec, n_paths=1)


def _run_chunk(
    cfg: TrajectoryConfig,
    params: ModelParams,
    basis: EigenBasis,
    spec: NoiseSpec | None,
    path_ids: Sequence[int],
) -> Ensemble:
    """One chunk of ``run_ensemble``, with the H and V norms recorded at record steps."""
    n = basis.n_modes
    times: list[float] = []
    h: list[np.ndarray] = []
    v: list[np.ndarray] = []

    def record(i: int, t: float, x: np.ndarray) -> None:
        if _is_record_step(i, cfg.n_steps, cfg.record_every):
            times.append(t)
            h.append(norm_H_sq_arrays(x[..., 0], x[..., 1], params.gamma))
            v.append(norm_V_sq_arrays(x[..., 0], x[..., 1], params, basis))

    terminal = _simulate_batch(
        params,
        basis,
        spec,
        dt=cfg.dt,
        n_steps=cfg.n_steps,
        start_interval=cfg.start_interval,
        x0=np.broadcast_to(_x0_array(cfg, n), (len(path_ids), n, 2)),
        drift=cfg.drift,
        eps_by_col=np.full(len(path_ids), cfg.eps),
        master_seed=cfg.master_seed,
        path_ids=path_ids,
        on_step=record,
    )
    return Ensemble(
        path_ids=np.asarray(path_ids),
        times=np.array(times),
        h_norm_sq=np.stack(h, axis=1),
        v_norm_sq=np.stack(v, axis=1),
        terminal=terminal,
    )


def resolve_workers() -> int:
    """Process count: ``FHN_SPECTRAL_WORKERS``, else 1."""
    env = os.environ.get(WORKERS_ENV, "")
    if not env:
        return 1
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"{WORKERS_ENV}={env!r} is not a positive integer")
    return count


def run_ensemble(
    cfg: TrajectoryConfig,
    params: ModelParams,
    basis: EigenBasis,
    spec: NoiseSpec | None,
    n_paths: int,
) -> Ensemble:
    """Integrate ``n_paths`` paths with ids path_id..path_id+n_paths-1.

    Chunks are merged in path order and are bitwise independent of the
    worker count: every path's noise comes from its own counter-based
    stream.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    path_ids = list(range(cfg.path_id, cfg.path_id + n_paths))
    id_chunks = [
        path_ids[a : a + _ENSEMBLE_CHUNK] for a in range(0, n_paths, _ENSEMBLE_CHUNK)
    ]
    workers = resolve_workers()
    if workers == 1 or len(id_chunks) == 1:
        chunks = [_run_chunk(cfg, params, basis, spec, ids) for ids in id_chunks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(id_chunks))) as pool:
            futures = [
                pool.submit(_run_chunk, cfg, params, basis, spec, ids) for ids in id_chunks
            ]
            chunks = [fut.result() for fut in futures]
    return Ensemble(
        path_ids=np.concatenate([c.path_ids for c in chunks]),
        times=chunks[0].times,
        h_norm_sq=np.concatenate([c.h_norm_sq for c in chunks]),
        v_norm_sq=np.concatenate([c.v_norm_sq for c in chunks]),
        terminal=np.concatenate([c.terminal for c in chunks]),
    )


def _ols_line(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Least-squares fit ys ~ a + b xs; returns (a, b, r_squared)."""
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    a_mat = np.stack([np.ones_like(xs), xs], axis=1)
    coef, *_ = np.linalg.lstsq(a_mat, ys, rcond=None)
    fit = a_mat @ coef
    ss_res = float(((ys - fit) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


@dataclass
class CoupledDecayReport:
    """Synchronous-coupling decay of |X(t,x) - X(t,xbar)|_H^2."""

    times: np.ndarray
    delta_sq: np.ndarray         # (P, R)
    delta0_sq: float
    omega: float
    envelope_tol: float
    envelope_ok: bool
    max_envelope_ratio: float
    path_exponents: np.ndarray   # (P,)
    pooled_exponent: float
    pooled_r2: float


def coupled_run(
    x_bar: StateH,
    cfg: TrajectoryConfig,
    params: ModelParams,
    basis: EigenBasis,
    spec: NoiseSpec | None,
    n_paths: int = 1,
    envelope_tol: float = 0.05,
) -> CoupledDecayReport:
    """Drive ``cfg.x0`` and ``x_bar`` with the identical noise path per trajectory.

    The additive noise cancels exactly in the difference, whose squared
    H-norm must stay under e^{-2 omega t}|x - xbar|^2 (up to the stated
    tolerance) and is fitted for its decay exponent on [T/4, 3T/4].
    """
    n = basis.n_modes
    omega = params.derived().omega
    b = 2 * n_paths
    x0 = np.empty((b, n, 2))
    x0[:n_paths] = _x0_array(cfg, n)
    x0[n_paths:] = x_bar.as_array()

    rec_times: list[float] = []
    deltas: list[np.ndarray] = []

    def on_step(i: int, t: float, state: np.ndarray) -> None:
        if not _is_record_step(i, cfg.n_steps, cfg.record_every):
            return
        du = state[:n_paths, :, 0] - state[n_paths:, :, 0]
        dw = state[:n_paths, :, 1] - state[n_paths:, :, 1]
        rec_times.append(t)
        deltas.append(norm_H_sq_arrays(du, dw, params.gamma))

    _simulate_batch(
        params,
        basis,
        spec,
        dt=cfg.dt,
        n_steps=cfg.n_steps,
        start_interval=cfg.start_interval,
        x0=x0,
        drift=cfg.drift,
        eps_by_col=np.full(b, cfg.eps),
        master_seed=cfg.master_seed,
        path_ids=np.tile(cfg.path_id + np.arange(n_paths), 2),
        on_step=on_step,
    )
    times = np.array(rec_times)
    delta_sq = np.stack(deltas, axis=1)  # (P, R)
    delta0 = float(delta_sq[:, 0].max())
    envelope = np.exp(-2.0 * omega * (times - times[0])) * delta_sq[:, :1]
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(envelope > 0, delta_sq / envelope, 0.0)
    max_ratio = float(ratios.max()) if delta0 > 0 else 0.0

    lo, hi = times[0] + 0.25 * cfg.T, times[0] + 0.75 * cfg.T
    win = (times >= lo) & (times <= hi)
    exps = np.full(n_paths, np.nan)
    floor = 1e-300
    for p in range(n_paths):
        ys = delta_sq[p, win]
        if (ys > floor).all():
            _, slope, _ = _ols_line(times[win], np.log(ys))
            exps[p] = -slope
    pooled = delta_sq[:, win].mean(axis=0)
    if (pooled > floor).all() and win.sum() >= 2:
        _, slope, r2 = _ols_line(times[win], np.log(pooled))
        pooled_exp, pooled_r2 = -slope, r2
    else:
        pooled_exp, pooled_r2 = math.nan, math.nan
    return CoupledDecayReport(
        times=times,
        delta_sq=delta_sq,
        delta0_sq=delta0,
        omega=omega,
        envelope_tol=envelope_tol,
        envelope_ok=bool(max_ratio <= 1.0 + envelope_tol),
        max_envelope_ratio=max_ratio,
        path_exponents=exps,
        pooled_exponent=pooled_exp,
        pooled_r2=pooled_r2,
    )


@dataclass
class EpsConvergenceReport:
    """Shared-noise distances between regularization levels.

    distance[i] = mean over paths of sup_{t<=T} |X_{eps_i} - X_{eps_i/2}|_H^2.
    """

    eps_ladder: np.ndarray
    distance: np.ndarray
    distance_se: np.ndarray
    slope: float
    intercept: float
    r2: float
    f_eps_integral: dict[float, float]


def eps_convergence_study(
    eps_ladder: Sequence[float],
    cfg: TrajectoryConfig,
    params: ModelParams,
    basis: EigenBasis,
    spec: NoiseSpec | None,
    n_paths: int = 32,
) -> EpsConvergenceReport:
    """Co-simulate the regularized family under shared noise.

    All eps levels (each ladder value and its half) run in one batch per
    path, so differences contain no Monte Carlo noise beyond the shared
    trajectory itself.  Also accumulates the time integral of
    |F_{eta,eps}(X_eps)|_H^2, the a-priori bounded statistic from the
    existence proof.
    """
    ladder = np.asarray(sorted(set(float(e) for e in eps_ladder), reverse=True))
    if ladder.size == 0 or ladder.min() <= 0:
        raise ValueError("eps ladder must contain positive values")
    eps_values = np.asarray(sorted(set(ladder) | set(ladder / 2.0), reverse=True))
    e_count = eps_values.size
    n = basis.n_modes
    pair_idx = [
        (int(np.nonzero(eps_values == e)[0][0]), int(np.nonzero(eps_values == e / 2.0)[0][0]))
        for e in ladder
    ]

    x0 = np.broadcast_to(_x0_array(cfg, n), (n_paths * e_count, n, 2))
    eps_by_col = np.tile(eps_values, n_paths)

    sup_sq = np.zeros((n_paths, len(pair_idx)))
    f_int = np.zeros(e_count)
    dps = [DriftParams(params.xi1, float(e)) for e in eps_values]
    h = basis.quad_weight

    def on_step(i: int, t: float, state: np.ndarray) -> None:
        st = state.reshape(n_paths, e_count, n, 2)
        for j, (ia, ib) in enumerate(pair_idx):
            du = st[:, ia, :, 0] - st[:, ib, :, 0]
            dw = st[:, ia, :, 1] - st[:, ib, :, 1]
            d = norm_H_sq_arrays(du, dw, params.gamma)
            np.maximum(sup_sq[:, j], d, out=sup_sq[:, j])
        if i > 0:
            for e_i in range(e_count):
                ug = basis.to_grid(st[:, e_i, :, 0])
                fe = grid_drift(ug, dps[e_i], "eta_eps")
                f_int[e_i] += cfg.dt * params.gamma * h * float((fe * fe).sum()) / n_paths

    _simulate_batch(
        params,
        basis,
        spec,
        dt=cfg.dt,
        n_steps=cfg.n_steps,
        start_interval=cfg.start_interval,
        x0=x0,
        drift="fhn",
        eps_by_col=eps_by_col,
        master_seed=cfg.master_seed,
        path_ids=np.repeat(cfg.path_id + np.arange(n_paths), e_count),
        on_step=on_step,
    )
    dist = sup_sq.mean(axis=0)
    dist_se = sup_sq.std(axis=0, ddof=1) / math.sqrt(n_paths)
    good = dist > 0
    if good.sum() >= 2:
        intercept, slope, r2 = _ols_line(np.log(ladder[good]), np.log(dist[good]))
    else:
        intercept, slope, r2 = math.nan, math.nan, math.nan
    return EpsConvergenceReport(
        eps_ladder=ladder,
        distance=dist,
        distance_se=dist_se,
        slope=slope,
        intercept=intercept,
        r2=r2,
        f_eps_integral={float(e): float(v) for e, v in zip(eps_values, f_int)},
    )


@dataclass
class BackwardReport:
    """Backward-time construction of the invariant measure.

    ``terminal[l]`` holds the ensemble of X_lambda(0, x0) states started at
    -lambda_l under the shared absolute-time noise; distances between
    ladder levels must decay exponentially in the smaller offset.
    """

    ladder: np.ndarray
    terminal: dict[float, np.ndarray]       # lambda -> (P, N, 2)
    second_moment: dict[float, float]       # lambda -> E|X_lambda(0)|_H^2
    distances: dict[tuple[float, float], float]
    distance_se: dict[tuple[float, float], float]
    fit_rate: float
    fit_r2: float
    envelope: dict[float, float]            # (2 Tr Q lambda + |x0|^2) e^{-2 omega lambda}
    envelope_constant: float


def backward_run(
    lambda_ladder: Sequence[float],
    cfg: TrajectoryConfig,
    params: ModelParams,
    basis: EigenBasis,
    spec: NoiseSpec,
    n_paths: int = 64,
) -> BackwardReport:
    """Solve from t = -lambda to 0 for each ladder offset with shared noise.

    Every rung starts from ``cfg.x0``; the rungs set their own horizons, so
    ``cfg.T`` and ``cfg.start_time`` are not read.  Because increments are
    indexed by absolute interval, the runs for different lambda share every
    interval they have in common, which is exactly the coupling behind the
    Cauchy property of X_lambda(0).
    """
    ladder = sorted(set(float(l) for l in lambda_ladder))
    if not ladder or ladder[0] <= 0:
        raise ValueError("lambda ladder must contain positive offsets")
    terminal: dict[float, np.ndarray] = {}
    for lam in ladder:
        run_cfg = replace(cfg, T=lam, start_time=-lam, record_every=RECORD_ENDPOINTS)
        terminal[lam] = run_ensemble(run_cfg, params, basis, spec, n_paths).terminal

    second = {
        lam: float(norm_H_sq_arrays(t[..., 0], t[..., 1], params.gamma).mean())
        for lam, t in terminal.items()
    }
    distances: dict[tuple[float, float], float] = {}
    distance_se: dict[tuple[float, float], float] = {}
    for i, lam in enumerate(ladder):
        for gam in ladder[:i]:
            d = terminal[lam] - terminal[gam]
            vals = norm_H_sq_arrays(d[..., 0], d[..., 1], params.gamma)
            distances[(lam, gam)] = float(vals.mean())
            distance_se[(lam, gam)] = float(vals.std(ddof=1) / math.sqrt(n_paths))
    gammas = np.array([g for (_, g) in distances])
    dvals = np.array([distances[k] for k in distances])
    good = dvals > 0
    if good.sum() >= 2:
        _, slope, r2 = _ols_line(gammas[good], np.log(dvals[good]))
        fit_rate, fit_r2 = -slope, r2
    else:
        fit_rate, fit_r2 = math.nan, math.nan
    omega = params.derived().omega
    x0 = cfg.x0
    x0_sq = 0.0 if x0 is None else float(
        params.gamma * (x0.u_hat @ x0.u_hat) + x0.w_hat @ x0.w_hat
    )
    tq = trace_Q(spec)
    envelope = {lam: (2.0 * tq * lam + x0_sq) * math.exp(-2.0 * omega * lam) for lam in ladder}
    env_const = max(second[lam] - envelope[lam] for lam in ladder)
    return BackwardReport(
        ladder=np.array(ladder),
        terminal=terminal,
        second_moment=second,
        distances=distances,
        distance_se=distance_se,
        fit_rate=fit_rate,
        fit_r2=fit_r2,
        envelope=envelope,
        envelope_constant=env_const,
    )
