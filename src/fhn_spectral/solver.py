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
Kolmogorov test harnesses.  ``drift_split`` and ``explicit_term`` write
this split once; ``run_drift`` assembles the full drift b = M x + Fhat
from them for the generator and the dissipativity check.

Paths are vectorized; each path owns a counter-based noise stream, and
ensembles run in fixed-size chunks, so an ensemble's output does not
depend on the worker count.  The chunk is the unit of bits: up to
``_GROUP_CHUNKS`` chunks share one batch side by side, and the integrator
transforms each chunk as a batch of its own.  ``_batch_columns`` is the
one place a run description becomes the integrator's columns: every caller of
``_simulate_batch`` takes its step, horizon, start, drift, seed, initial
states and eps column from there.

Every spectral<->grid transform goes through ``EigenBasis.to_grid``/
``to_coeffs``.  A constant-c basis with at least ``DCT_MIN_MODES`` modes
transforms by row-local DCTs, so there a path's bits do not depend on
the batch it runs in; smaller bases use matmuls, whose rounding can
depend on the batch shape.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .model import (
    EigenBasis,
    ModelParams,
    StateH,
    mode_matrices,
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
# chunks that share one batch at most: 256 paths, the widest batch any
# other caller runs
_GROUP_CHUNKS = 8

WORKERS_ENV = "FHN_SPECTRAL_WORKERS"

# ``record_every`` of a run that keeps only its initial and terminal states
RECORD_ENDPOINTS = sys.maxsize


class BlowUpError(RuntimeError):
    """Trajectory left the finite range; carries the first offending step.

    ``h_norm_sq`` is the offending column's |x|_H^2 before that step and
    ``substeps`` the substep count the step-size ceiling asked for there.
    """

    def __init__(
        self, what: str, time: float, step: int, path_id: int, h_norm_sq: float, substeps: int
    ):
        super().__init__(f"{what} at t={time:.6g} (step {step})")
        self.what = what
        self.time = time
        self.step = step
        self.path_id = path_id
        self.h_norm_sq = h_norm_sq
        self.substeps = substeps

    def __reduce__(self):
        # a worker process sends its blow-up back by pickle
        return type(self), (
            self.what, self.time, self.step, self.path_id, self.h_norm_sq, self.substeps
        )


def _earliest(errors: Sequence[BlowUpError]) -> BlowUpError:
    """The blow-up at the earliest (step, path id)."""
    return min(errors, key=lambda e: (e.step, e.path_id))


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


def _mode_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode (N, 2, 2) blocks as (2, N) rows: diagonal [a00; a11], off-diagonal [a01; a10]."""
    return tuple(np.ascontiguousarray(a[:, [0, 1], cols].T) for cols in ([0, 1], [1, 0]))


def _update_rows(ker: OUKernel) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """A step of size h as rows: e^{M h} by ``_mode_rows``, the phi1 column [p00; p10], and h."""
    return (*_mode_rows(ker.transition), np.ascontiguousarray(ker.phi1[:, :, 0].T), ker.dt)


def drift_split(
    drift: str, xi1: float, eps_cols: np.ndarray
) -> tuple[bool, list[tuple[DriftParams, slice | np.ndarray]]]:
    """How the integrator splits the drift of mode ``drift`` into b(x) = M x + Fhat(x).

    Returns whether M, the ``mode_matrices`` block at min p, is shifted by
    eta (A_eta, mode ``linear_eta``), and Fhat's cubic once per distinct eps
    of ``eps_cols`` with its columns; a single eps takes them all by slice.
    Only ``fhn`` has a cubic: the raw f at eps = 0, f_{eta,eps} + eta u above.
    """
    if drift not in DRIFT_MODES:
        raise ValueError(f"drift must be one of {DRIFT_MODES}, got {drift!r}")
    if drift != "fhn":
        return drift == "linear_eta", []
    values = np.unique(eps_cols)
    return False, [
        (DriftParams(xi1=xi1, eps=float(e)),
         slice(None) if values.size == 1 else np.nonzero(eps_cols == e)[0])
        for e in values
    ]


def explicit_term(
    params: ModelParams,
    basis: EigenBasis,
    u: np.ndarray,               # (..., N)
    groups: list[tuple[DriftParams, slice | np.ndarray]],
    u_grid: np.ndarray | None = None,
) -> np.ndarray | None:
    """Spectral coefficients (..., N) of the explicit drift Fhat at u, or None if absent.

    Fhat is the cubic of each of ``drift_split``'s groups on its columns
    plus, for variable p, the remainder (min p - p) u that the block at
    min p leaves out.  ``u_grid`` is u on the grid, if at hand.
    """
    rem_grid = None if params.p_is_constant else params.p_min - params.p_grid
    if not groups and rem_grid is None:
        return None
    if u_grid is None:
        u_grid = basis.to_grid(u)
    if groups:
        g = np.empty_like(u_grid)
        for dp, cols in groups:
            g[cols] = grid_drift(u_grid[cols], dp, "cubic" if dp.eps == 0.0 else "eta_eps")
        if rem_grid is not None:
            g += rem_grid * u_grid
    else:
        g = rem_grid * u_grid
    f_hat = basis.to_coeffs(g)
    for dp, cols in groups:
        if dp.eps != 0.0:
            f_hat[cols] += dp.eta * u[cols]
    return f_hat


def run_drift(
    params: ModelParams, basis: EigenBasis, drift: str = "fhn", eps: float = 0.0
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The drift b(x) = M x + Fhat(x) that the integrator steps in mode ``drift`` at ``eps``.

    Returns b mapping coefficients (u, w) of shape (..., N) to b's (u, w)
    rows, with M's rows built here once: A x + F(x) for ``fhn``
    (f_{eta,eps} + eta u in place of f when eps > 0), A x for ``linear``
    and A_eta x for ``linear_eta``.
    """
    shifted, groups = drift_split(drift, params.xi1, np.array([eps]))
    (a00, a11), (a01, a10) = _mode_rows(mode_matrices(params, basis, shifted=shifted))

    def b(u: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        bu = a00 * u + a01 * w
        f_hat = explicit_term(params, basis, u, groups)
        if f_hat is not None:
            bu += f_hat
        return bu, a10 * u + a11 * w

    return b


class _ChunkTransforms:
    """``basis``'s transforms applied to every run of ``rows`` consecutive rows alone.

    The full runs go through one stacked matmul, whose gemms each have the
    shape of one run, and a shorter last run through one call of its own,
    so a run's bits do not depend on the runs beside it.
    """

    def __init__(self, basis: EigenBasis, rows: int):
        self.basis, self.rows = basis, rows

    def _each(self, transform: Callable[[np.ndarray], np.ndarray], a: np.ndarray) -> np.ndarray:
        full = a.shape[0] - a.shape[0] % self.rows
        head = transform(a[:full].reshape(-1, self.rows, a.shape[1])).reshape(full, -1)
        return head if full == a.shape[0] else np.concatenate([head, transform(a[full:])])

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        return self._each(self.basis.to_grid, coeffs)

    def to_coeffs(self, values: np.ndarray) -> np.ndarray:
        return self._each(self.basis.to_coeffs, values)


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
    record_every: int = 1,
    chunk: int | None = None,
) -> np.ndarray:
    """The integrator: advance B columns for n_steps, return the terminal (B, N, 2) state.

    The state is a C-ordered (B, 2, N) array, row 0 the u and row 1 the w
    coefficients, updated from (2, N) per-mode coefficient rows built once
    per kernel.  Every product keeps the operands of the per-mode 2x2 form
    and every sum at most swaps its two terms, so the bits do not depend on
    the layout.  Each distinct path id owns one counter-based noise stream,
    and one ``PathStream`` draws them all, one (S, 2N) block per interval.
    ``on_step(i, t, state)`` observes the state after step i (i = 0 is the
    initial state) through a read-only (B, N, 2) view, at the record steps
    of ``record_every`` (every step by default).

    ``chunk`` splits the rows into runs of that many (the last may be
    shorter) that each step as if alone: every transform and substep group
    acts per run, and a blow-up is the earliest (step, path id) over the
    errors the runs raise alone.  By default the batch is one run.
    """
    b, n = x0.shape[0], x0.shape[1]
    path_ids = np.asarray(path_ids)
    stream_keys, stream_ids = np.unique(path_ids, return_inverse=True)
    streams = PathStream(n, master_seed, stream_keys)
    # distinct ids in ascending order: the stream rows are the batch rows, no gather
    in_order = np.array_equal(stream_ids, np.arange(b))
    shifted, batch_groups = drift_split(drift, params.xi1, eps_by_col)
    kernel = build_ou_kernel(params, basis, spec, dt, shifted=shifted)
    noise_diag, noise_off = _mode_rows(kernel.factor)
    kernels = {1: _update_rows(kernel)}
    # only the cubic asks for substeps and reads u on the grid; a variable-p
    # remainder alone transforms inside explicit_term
    nonlinear = bool(batch_groups)
    run_len = chunk or b or 1
    run_starts = range(0, b, run_len)
    transforms = basis if b <= run_len else _ChunkTransforms(basis, run_len)

    def apply_update(x: np.ndarray, f_hat: np.ndarray | None, rows: tuple) -> np.ndarray:
        diag, off, phi, h = rows
        xn = diag * x
        xn += off * x[:, ::-1]
        if f_hat is not None:
            xn += (phi * f_hat[:, None]) * h
        return xn

    def draw_noise(interval: int) -> np.ndarray:
        # the block's view dies here, so the next refill can drop its buffer
        z = streams.normals(interval).reshape(-1, 2, n)
        if not in_order:
            z = z[stream_ids]
        noise = noise_diag * z
        noise += noise_off * z[:, ::-1]
        return noise

    def observe(i: int, x: np.ndarray) -> None:
        if on_step is not None and _is_record_step(i, n_steps, record_every):
            view = x.transpose(0, 2, 1)
            view.flags.writeable = False
            on_step(i, (start_interval + i) * dt, view)

    def blow_up(what: str, time: float, i: int, x: np.ndarray, col: int, m: int) -> BlowUpError:
        return BlowUpError(
            what, time=time, step=i, path_id=int(path_ids[col]),
            h_norm_sq=float(norm_H_sq_arrays(x[col, 0], x[col, 1], params.gamma)), substeps=m,
        )

    def blow_ups(i: int, x: np.ndarray, x_new: np.ndarray, m_col: np.ndarray | None) -> list:
        """The blow-up each run that fails step i raises alone: the ceiling's before the step."""
        interval = start_interval + i
        finite = np.isfinite(x_new).reshape(b, -1).all(axis=1)
        errors = []
        for a in run_starts:
            run = slice(a, a + run_len)
            if m_col is not None and m_col[run].max() > _MAX_SUBSTEPS:
                col = a + int(np.argmax(m_col[run]))
                what = f"step-size ceiling requested more than {_MAX_SUBSTEPS} substeps"
                errors.append(blow_up(what, interval * dt, i, x, col, int(m_col[col])))
            elif not finite[run].all():
                col = a + int(np.argmin(finite[run]))
                m = 1 if m_col is None else int(m_col[col])
                errors.append(blow_up("non-finite state", (interval + 1) * dt, i, x, col, m))
        return errors

    # C order keeps every row's reductions in one layout, whatever x0's strides
    x = np.array(np.swapaxes(x0, 1, 2), dtype=float, order="C")
    observe(0, x)

    for i in range(n_steps):
        interval = start_interval + i
        noise = draw_noise(interval)

        u_grid = transforms.to_grid(x[:, 0]) if nonlinear else None
        m_col = None
        over = False
        if nonlinear:
            u_sq = u_grid * u_grid
            # the substep count only grows with max|u|^2, so if the largest
            # needs one step every column takes one step
            if dt * (1.0 + u_sq.max()) / _CEILING_SCALE > 1.0:
                m_col = np.ceil(dt * (1.0 + u_sq.max(axis=1)) / _CEILING_SCALE).astype(int)
                np.clip(m_col, 1, None, out=m_col)
                over = bool(m_col.max() > _MAX_SUBSTEPS)

        x_new = apply_update(
            x, explicit_term(params, transforms, x[:, 0], batch_groups, u_grid), kernels[1]
        )
        if m_col is not None:
            # the columns above the ceiling retake the step as drift-only
            # substeps, one group per substep count and run; the interval's
            # noise is applied once so the absolute-time noise path is
            # independent of the re-stepping choice
            for m in np.unique(m_col[(m_col > 1) & (m_col <= _MAX_SUBSTEPS)]).tolist():
                at_m = np.nonzero(m_col == m)[0]
                if m not in kernels:
                    sub = build_ou_kernel(params, basis, None, dt / m, shifted=shifted)
                    kernels[m] = _update_rows(sub)
                for cols in np.split(at_m, np.searchsorted(at_m, run_starts[1:])):
                    if not cols.size:
                        continue
                    ys = x[cols]
                    groups = drift_split(drift, params.xi1, eps_by_col[cols])[1]
                    for _ in range(m):
                        f_hat = explicit_term(params, basis, ys[:, 0], groups)
                        ys = apply_update(ys, f_hat, kernels[m])
                    x_new[cols] = ys

        x_new += noise
        if over or not np.isfinite(x_new).all():
            raise _earliest(blow_ups(i, x, x_new, m_col))
        x = x_new
        observe(i + 1, x)

    return np.ascontiguousarray(x.transpose(0, 2, 1))


def _x0_array(cfg: TrajectoryConfig, n_modes: int) -> np.ndarray:
    if cfg.x0 is None:
        return np.zeros((n_modes, 2))
    if cfg.x0.n_modes != n_modes:
        raise ValueError(f"x0 has {cfg.x0.n_modes} modes, basis has {n_modes}")
    return cfg.x0.as_array()


def _batch_columns(
    cfg: TrajectoryConfig,
    basis: EigenBasis,
    path_ids: Sequence[int],
    *,
    x0: np.ndarray | None = None,
    eps_by_col: np.ndarray | None = None,
) -> dict:
    """``_simulate_batch`` keywords that run ``cfg`` with one column per entry of ``path_ids``.

    Every column starts from ``cfg.x0`` at ``cfg.eps`` unless ``x0`` (B, N, 2)
    or ``eps_by_col`` (B,) says otherwise.
    """
    path_ids = np.asarray(path_ids)
    b, n = path_ids.size, basis.n_modes
    return dict(
        dt=cfg.dt, n_steps=cfg.n_steps, start_interval=cfg.start_interval, drift=cfg.drift,
        master_seed=cfg.master_seed, path_ids=path_ids,
        x0=np.broadcast_to(_x0_array(cfg, n), (b, n, 2)) if x0 is None else x0,
        eps_by_col=np.full(b, cfg.eps) if eps_by_col is None else eps_by_col,
    )


def _run_group(
    cfg: TrajectoryConfig,
    params: ModelParams,
    basis: EigenBasis,
    spec: NoiseSpec | None,
    path_ids: Sequence[int],
) -> Ensemble:
    """Chunks of ``run_ensemble`` side by side in one batch, norms recorded at record steps."""
    times: list[float] = []
    h: list[np.ndarray] = []
    v: list[np.ndarray] = []
    # the V norm of a variable-c basis transforms u to the grid, so chunk by chunk
    chunks = [slice(a, a + _ENSEMBLE_CHUNK) for a in range(0, len(path_ids), _ENSEMBLE_CHUNK)]

    def record(i: int, t: float, x: np.ndarray) -> None:
        times.append(t)
        h.append(norm_H_sq_arrays(x[..., 0], x[..., 1], params.gamma))
        v.append(np.concatenate([
            norm_V_sq_arrays(x[c, :, 0], x[c, :, 1], params, basis) for c in chunks
        ]))

    terminal = _simulate_batch(
        params, basis, spec, **_batch_columns(cfg, basis, path_ids), on_step=record,
        record_every=cfg.record_every, chunk=_ENSEMBLE_CHUNK,
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


def _outcome(fn: Callable, args: tuple):
    """``fn(*args)``, or the blow-up it raised."""
    try:
        return fn(*args)
    except BlowUpError as exc:
        return exc


def _run_jobs(fn: Callable, jobs: list[tuple], workers: int) -> list:
    """``fn(*job)`` for every job, in job order, on up to ``workers`` processes.

    Every job runs to its end; if any blew up, the earliest (step, path id)
    of their blow-ups is raised, so the error does not depend on how the
    paths were split into jobs.
    """
    if workers == 1 or len(jobs) == 1:
        outcomes = [_outcome(fn, job) for job in jobs]
    else:
        # a single-worker run never loads the pool machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            outcomes = list(pool.map(_outcome, [fn] * len(jobs), jobs))
    errors = [o for o in outcomes if isinstance(o, BlowUpError)]
    if errors:
        raise _earliest(errors)
    return outcomes


def run_ensemble(
    cfg: TrajectoryConfig,
    params: ModelParams,
    basis: EigenBasis,
    spec: NoiseSpec | None,
    n_paths: int,
) -> Ensemble:
    """Integrate ``n_paths`` paths with ids path_id..path_id+n_paths-1.

    The paths run in chunks of ``_ENSEMBLE_CHUNK``, dealt to groups of at
    most ``_GROUP_CHUNKS`` chunks, so that each worker runs one or more
    groups, each as one batch.  A chunk's bits do not depend on its group
    or the worker count: every path's noise comes from its own
    counter-based stream, and the integrator transforms each chunk alone.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    workers = resolve_workers()
    n_chunks = -(-n_paths // _ENSEMBLE_CHUNK)
    span = _ENSEMBLE_CHUNK * min(_GROUP_CHUNKS, -(-n_chunks // workers))
    path_ids = range(cfg.path_id, cfg.path_id + n_paths)
    jobs = [(cfg, params, basis, spec, path_ids[a : a + span]) for a in range(0, n_paths, span)]
    groups = _run_jobs(_run_group, jobs, workers)
    return Ensemble(
        path_ids=np.concatenate([g.path_ids for g in groups]),
        times=groups[0].times,
        h_norm_sq=np.concatenate([g.h_norm_sq for g in groups]),
        v_norm_sq=np.concatenate([g.v_norm_sq for g in groups]),
        terminal=np.concatenate([g.terminal for g in groups]),
    )


def _require_se_paths(n_paths: int) -> None:
    if n_paths < 2:
        raise ValueError("need at least 2 paths for standard errors")


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
    omega: float
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
    omega = params.derived().omega1
    x0 = np.empty((2 * n_paths, n, 2))
    x0[:n_paths] = _x0_array(cfg, n)
    x0[n_paths:] = x_bar.as_array()

    rec_times: list[float] = []
    deltas: list[np.ndarray] = []

    def on_step(i: int, t: float, state: np.ndarray) -> None:
        du = state[:n_paths, :, 0] - state[n_paths:, :, 0]
        dw = state[:n_paths, :, 1] - state[n_paths:, :, 1]
        rec_times.append(t)
        deltas.append(norm_H_sq_arrays(du, dw, params.gamma))

    path_ids = np.tile(cfg.path_id + np.arange(n_paths), 2)
    _simulate_batch(
        params, basis, spec, **_batch_columns(cfg, basis, path_ids, x0=x0), on_step=on_step,
        record_every=cfg.record_every,
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
    # a line through fewer than two window records fits nothing: NaN, as for the pool
    fits = win.sum() >= 2
    exps = np.full(n_paths, np.nan)
    floor = 1e-300
    for p in range(n_paths):
        ys = delta_sq[p, win]
        if fits and (ys > floor).all():
            _, slope, _ = _ols_line(times[win], np.log(ys))
            exps[p] = -slope
    pooled = delta_sq[:, win].mean(axis=0)
    if fits and (pooled > floor).all():
        _, slope, r2 = _ols_line(times[win], np.log(pooled))
        pooled_exp, pooled_r2 = -slope, r2
    else:
        pooled_exp, pooled_r2 = math.nan, math.nan
    return CoupledDecayReport(
        times=times,
        delta_sq=delta_sq,
        omega=omega,
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
    existence proof.  Only the cubic drift ``fhn`` has an eps family, and
    the ladder sets every column's eps, so ``cfg.eps`` must stay 0.
    """
    if cfg.drift != "fhn":
        raise ValueError(f"run.drift={cfg.drift!r}: only the cubic drift 'fhn' has an eps family")
    if cfg.eps != 0:
        raise ValueError(f"run.eps={cfg.eps!r}: convergence.eps_ladder sets every eps; use 0")
    _require_se_paths(n_paths)
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

    path_ids = np.repeat(cfg.path_id + np.arange(n_paths), e_count)
    eps_by_col = np.tile(eps_values, n_paths)
    _simulate_batch(
        params, basis, spec, **_batch_columns(cfg, basis, path_ids, eps_by_col=eps_by_col),
        on_step=on_step,
    )
    dist = sup_sq.mean(axis=0)
    dist_se = sup_sq.std(axis=0, ddof=1) / math.sqrt(n_paths)
    good = dist > 0
    if good.sum() >= 2:
        _, slope, r2 = _ols_line(np.log(ladder[good]), np.log(dist[good]))
    else:
        slope, r2 = math.nan, math.nan
    return EpsConvergenceReport(
        eps_ladder=ladder,
        distance=dist,
        distance_se=dist_se,
        slope=slope,
        r2=r2,
        f_eps_integral={float(e): float(v) for e, v in zip(eps_values, f_int)},
    )


def _backward_pass(
    starts: Sequence[int],
    cfg: TrajectoryConfig,
    params: ModelParams,
    basis: EigenBasis,
    spec: NoiseSpec,
    path_ids: Sequence[int],
) -> dict[int, np.ndarray]:
    """Terminals (P, N, 2) at t = 0 of one chunk's runs from ``cfg.x0``, by start interval.

    The deepest rung starts alone; each shallower rung joins as one more
    block of columns at its own start interval, so the pass draws every
    interval once per path, and every block transforms as a chunk of its own.
    A blow-up counts its step from the deepest start.
    """
    n, rows = basis.n_modes, len(path_ids)
    block = np.broadcast_to(_x0_array(cfg, n), (rows, n, 2))
    x = np.empty((0, n, 2))
    bounds = sorted(starts) + [0]
    for k, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        x = np.concatenate([x, block])
        seg = replace(cfg, T=(stop - start) * cfg.dt, start_time=start * cfg.dt)
        try:
            x = _simulate_batch(
                params, basis, spec, **_batch_columns(seg, basis, np.tile(path_ids, k + 1), x0=x),
                chunk=rows,
            )
        except BlowUpError as exc:
            raise BlowUpError(
                exc.what, exc.time, exc.step + start - bounds[0], exc.path_id, exc.h_norm_sq,
                exc.substeps,
            ) from None
    return {start: x[k * rows : (k + 1) * rows] for k, start in enumerate(bounds[:-1])}


@dataclass
class BackwardReport:
    """Backward-time construction of the invariant measure.

    ``terminal[l]`` holds the ensemble of X_lambda(0, x0) states started at
    -lambda_l under the shared absolute-time noise; distances between
    ladder levels must decay exponentially in the smaller offset.
    """

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
    Cauchy property of X_lambda(0).  Each chunk of paths runs all rungs in
    one pass (``_backward_pass``), which draws every interval once per path.
    """
    _require_se_paths(n_paths)
    ladder = sorted(set(float(l) for l in lambda_ladder))
    if not ladder or ladder[0] <= 0:
        raise ValueError("lambda ladder must contain positive offsets")
    starts = [replace(cfg, T=lam, start_time=-lam).start_interval for lam in ladder]
    path_ids = range(cfg.path_id, cfg.path_id + n_paths)
    jobs = [
        (starts, cfg, params, basis, spec, path_ids[a : a + _ENSEMBLE_CHUNK])
        for a in range(0, n_paths, _ENSEMBLE_CHUNK)
    ]
    passes = _run_jobs(_backward_pass, jobs, resolve_workers())
    terminal = {lam: np.concatenate([p[s] for p in passes]) for lam, s in zip(ladder, starts)}

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
    omega = params.derived().omega1
    x0 = cfg.x0
    x0_sq = 0.0 if x0 is None else float(norm_H_sq_arrays(x0.u_hat, x0.w_hat, params.gamma))
    tq = trace_Q(spec)
    envelope = {lam: (2.0 * tq * lam + x0_sq) * math.exp(-2.0 * omega * lam) for lam in ladder}
    env_const = max(second[lam] - envelope[lam] for lam in ladder)
    return BackwardReport(
        terminal=terminal,
        second_moment=second,
        distances=distances,
        distance_se=distance_se,
        fit_rate=fit_rate,
        fit_r2=fit_r2,
        envelope=envelope,
        envelope_constant=env_const,
    )
