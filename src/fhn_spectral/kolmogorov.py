"""Cylindrical exponentials, the generator N0, and the Dynkin identity.

Test functions are phi(x) = exp(<x,h>_H) for a direction h with finitely
many active modes.  In the weighted-gradient convention D phi = phi h and
Tr[Q D^2 phi] = phi <Qh,h>_H, so on these functions the generator has the
closed form

    N0 phi(x) = phi(x) [ 1/2 <Qh,h>_H + <Ax,h>_H + <F(x),h>_H ],

whose first two terms are the Ornstein-Uhlenbeck part L.  The drift
pairing uses <Ax, Dphi> (well defined on the truncation) rather than the
formal <x, A Dphi>.  The drift is b(x) = A x + F(x) (or its linear or
eps-regularized form) exactly as the integrator steps it: the
``mode_matrices`` block M plus the explicit term Fhat, assembled by
``solver.run_drift``.  The Dynkin residual

    E phi(X_t) - phi(x) - E int_0^t N0 phi(X_s) ds

is accumulated pathwise by trapezoidal quadrature at every step, with the
generator matched to the simulated drift mode; with gamma = 1 the
quadratic-variation term of the plain-noise simulation equals <Qh,h>_H
exactly, so the identity is testable without convention mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .model import EigenBasis, ModelParams, StateH, inner_H, norm_H_sq_arrays
from .noise import NoiseSpec, build_ou_kernel
from .solver import (
    TrajectoryConfig,
    _batch_columns,
    _deal,
    _require_se_paths,
    _simulate_batch,
    _x0_array,
    run_drift,
)

# reject paths whose exponent would push phi (or its variance) out of the
# floating range
_LOG_GUARD = 250.0


@dataclass
class CylinderFunction:
    """Direction h of a cylindrical exponential phi(x) = exp(<x,h>_H).

    The H-norm of h and the quadratic form <Qh,h>_H are cached at
    construction.
    """

    h: StateH
    params: ModelParams
    spec: NoiseSpec | None = None
    q_form: float = field(init=False)
    h_norm: float = field(init=False)

    def __post_init__(self) -> None:
        hu, hw = self.h.u_hat, self.h.w_hat
        q = 0.0
        if self.spec is not None:
            if self.spec.n_modes != self.h.n_modes:
                raise ValueError("noise spectrum and direction h disagree on mode count")
            q = float(self.pairing(self.spec.lambda1 * hu, self.spec.lambda2 * hw))
        object.__setattr__(self, "q_form", q)
        object.__setattr__(
            self, "h_norm", math.sqrt(float(norm_H_sq_arrays(hu, hw, self.params.gamma)))
        )

    @classmethod
    def from_modes(
        cls,
        n_modes: int,
        params: ModelParams,
        spec: NoiseSpec | None = None,
        u_modes: Sequence[tuple[int, float]] = (),
        w_modes: Sequence[tuple[int, float]] = (),
    ) -> "CylinderFunction":
        return cls(h=StateH.from_modes(n_modes, u_modes, w_modes), params=params, spec=spec)

    def pairing(self, u_hat: np.ndarray, w_hat: np.ndarray) -> np.ndarray:
        """<x,h>_H for batched coefficients (..., N); batch-size independent."""
        return inner_H(u_hat, w_hat, self.h.u_hat, self.h.w_hat, self.params.gamma)

    def phi(self, u_hat: np.ndarray, w_hat: np.ndarray) -> np.ndarray:
        """exp(<x,h>_H) for batched coefficients (..., N); NaN where |<x,h>_H| > ``_LOG_GUARD``."""
        lp = self.pairing(u_hat, w_hat)
        return np.exp(np.where(np.abs(lp) > _LOG_GUARD, np.nan, lp))


def generator_values(
    h: CylinderFunction,
    u_hat: np.ndarray,
    w_hat: np.ndarray,
    b: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """N0 phi and phi at batched states (..., N), for the drift ``b`` of ``solver.run_drift``.

    N0 phi(x) = phi(x) (1/2 <Qh,h>_H + <b(x),h>_H), where b is the drift
    the solver integrates in one run mode.  Where phi is NaN (the exponent
    is out of range), so is N0 phi.
    """
    bu, bw = b(u_hat, w_hat)
    phi = h.phi(u_hat, w_hat)
    return phi * (0.5 * h.q_form + h.pairing(bu, bw)), phi


@dataclass
class DynkinReport:
    """Monte Carlo residual of E phi(X_t) = phi(x) + E int_0^t N0 phi ds."""

    t: float
    dt: float
    n_paths: int
    n_rejected: int
    phi_start: float
    phi_terminal_mean: float
    integral_mean: float
    residual: float
    se: float


def _dynkin_pass(
    h: CylinderFunction,
    cfg: TrajectoryConfig,
    params: ModelParams,
    basis: EigenBasis,
    spec: NoiseSpec,
    path_ids: Sequence[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi(X_t), int_0^t N0 phi ds and an overflow flag per path of one ``dynkin_residual`` batch.

    The integral is the trapezoidal sum over every step; the flag marks a
    path whose exponent left the floating range at some step.
    """
    n_paths = len(path_ids)
    integral = np.zeros(n_paths)
    prev = np.zeros(n_paths)
    terminal_phi = np.zeros(n_paths)
    overflow = np.zeros(n_paths, dtype=bool)
    b = run_drift(params, basis, cfg.drift, cfg.eps)

    def on_step(i: int, t_abs: float, state: np.ndarray) -> None:
        nonlocal prev
        vals, phi = generator_values(h, state[..., 0], state[..., 1], b)
        overflow[np.isnan(phi)] = True
        if i == 0:
            prev = vals
            return
        integral[:] += 0.5 * cfg.dt * (prev + vals)
        prev = vals
        if i == cfg.n_steps:
            terminal_phi[:] = phi

    _simulate_batch(params, basis, spec, **_batch_columns(cfg, basis, path_ids), on_step=on_step)
    return terminal_phi, integral, overflow


def dynkin_residual(
    h: CylinderFunction,
    n_paths: int,
    cfg: TrajectoryConfig,
    params: ModelParams,
    basis: EigenBasis,
    spec: NoiseSpec,
) -> DynkinReport:
    """Accumulate the Dynkin identity along paths from ``cfg.x0`` over t = ``cfg.T``.

    The generator matches the drift mode of ``cfg`` (full cubic, eps-family,
    or either linear reference).  The paths are dealt by ``_deal``.  Paths
    whose exponent leaves the floating range are rejected and counted, and
    fewer than two kept is a ValueError; the residual's standard error
    combines the per-path fluctuation of phi(X_t) - int N0 phi ds.
    """
    _require_se_paths(n_paths)
    x0 = _x0_array(cfg, basis.n_modes)
    phi0 = float(h.phi(x0[:, 0], x0[:, 1]))
    if cfg.n_steps == 0:
        return DynkinReport(
            t=0.0, dt=cfg.dt, n_paths=n_paths, n_rejected=0, phi_start=phi0,
            phi_terminal_mean=phi0, integral_mean=0.0, residual=0.0, se=0.0,
        )

    passes = _deal(_dynkin_pass, (h, cfg, params, basis, spec), cfg.path_id, n_paths)
    terminal_phi, integral, overflow = (np.concatenate(parts) for parts in zip(*passes))
    ok = ~overflow
    n_ok = int(ok.sum())
    if n_ok < 2:
        raise ValueError(
            f"dynkin.h_u/h_w: only {n_ok} of {n_paths} paths kept |<x,h>_H| within"
            f" {_LOG_GUARD}; shrink |h|"
        )
    martingale = terminal_phi[ok] - integral[ok]
    residual = float(martingale.mean() - phi0)
    se = float(martingale.std(ddof=1) / math.sqrt(n_ok))
    return DynkinReport(
        t=cfg.T,
        dt=cfg.dt,
        n_paths=n_ok,
        n_rejected=int(overflow.sum()),
        phi_start=phi0,
        phi_terminal_mean=float(terminal_phi[ok].mean()),
        integral_mean=float(integral[ok].mean()),
        residual=residual,
        se=se,
    )


def ou_expectation_exact(
    h: CylinderFunction,
    x: StateH,
    t: float,
    params: ModelParams,
    basis: EigenBasis,
    spec: NoiseSpec,
    shifted: bool = False,
) -> float:
    """Closed-form E phi(X_t) for the linear dynamics.

    <X_t, h>_H is Gaussian with mean <e^{tM}x, h>_H and variance
    sum_k g_k^T Sigma_k(t) g_k where g_k weights the plain-coordinate
    noise by the H-pairing; the expectation is exp(mean + var/2).
    """
    kernel = build_ou_kernel(params, basis, spec, t, shifted=shifted)
    x_arr = x.as_array()
    mean_state = np.einsum("kij,kj->ki", kernel.transition, x_arr)
    mean = h.pairing(mean_state[:, 0], mean_state[:, 1])
    g = np.stack([params.gamma * h.h.u_hat, h.h.w_hat], axis=-1)  # (N, 2)
    var = float(np.einsum("ki,kij,kj->", g, kernel.cov, g))
    return math.exp(float(mean) + 0.5 * var)
