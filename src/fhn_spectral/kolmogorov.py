"""Cylindrical exponentials, the generator N0, and the Dynkin identity.

Test functions are phi(x) = exp(<x,h>_H) for a direction h with finitely
many active modes.  In the weighted-gradient convention D phi = phi h and
Tr[Q D^2 phi] = phi <Qh,h>_H, so on these functions the generator has the
closed form

    N0 phi(x) = phi(x) [ 1/2 <Qh,h>_H + <Ax,h>_H + <F(x),h>_H ],

whose first two terms are the Ornstein-Uhlenbeck part L.  The drift
pairing uses <Ax, Dphi> (well defined on the truncation) rather than the
formal <x, A Dphi>.  The Dynkin residual

    E phi(X_t) - phi(x) - E int_0^t N0 phi(X_s) ds

is accumulated pathwise by trapezoidal quadrature at every step, with the
generator matched to the simulated drift mode; with gamma = 1 the
quadratic-variation term of the plain-noise simulation equals <Qh,h>_H
exactly, so the identity is testable without convention mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import (
    EigenBasis,
    ModelParams,
    StateH,
    _apply_A_arrays,
    inner_product_H,
    norm_H_sq_arrays,
)
from .nonlinearity import DriftParams, apply_F_arrays
from .noise import NoiseSpec, build_ou_kernel
from .solver import DRIFT_MODES, TrajectoryConfig, _simulate_batch, _x0_array

# reject paths whose exponent would push phi (or its variance) out of the
# floating range
_LOG_GUARD = 250.0


@dataclass
class CylinderFunction:
    """Direction h of a cylindrical exponential phi(x) = exp(<x,h>_H).

    Built from sparse (mode, coefficient) lists per channel; the H-norm of
    h and the quadratic form <Qh,h>_H are cached at construction.
    """

    h: StateH
    params: ModelParams
    spec: NoiseSpec | None = None
    q_form: float = field(init=False)
    h_norm: float = field(init=False)

    def __post_init__(self) -> None:
        q = 0.0
        if self.spec is not None:
            if self.spec.n_modes != self.h.n_modes:
                raise ValueError("noise spectrum and direction h disagree on mode count")
            q = float(
                self.params.gamma * (self.spec.lambda1 * self.h.u_hat * self.h.u_hat).sum()
                + (self.spec.lambda2 * self.h.w_hat * self.h.w_hat).sum()
            )
        object.__setattr__(self, "q_form", q)
        object.__setattr__(
            self, "h_norm", math.sqrt(inner_product_H(self.h, self.h, self.params))
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
        hu = np.zeros(n_modes)
        hw = np.zeros(n_modes)
        for k, c in u_modes:
            if not (0 <= k < n_modes):
                raise ValueError(f"u-channel mode {k} outside the truncation")
            hu[k] = c
        for k, c in w_modes:
            if not (0 <= k < n_modes):
                raise ValueError(f"w-channel mode {k} outside the truncation")
            hw[k] = c
        return cls(h=StateH(hu, hw), params=params, spec=spec)

    def pairing(self, u_hat: np.ndarray, w_hat: np.ndarray) -> np.ndarray:
        """<x,h>_H for batched coefficients (..., N); batch-size independent."""
        return (
            self.params.gamma * (u_hat * self.h.u_hat).sum(axis=-1)
            + (w_hat * self.h.w_hat).sum(axis=-1)
        )


def log_phi(h: CylinderFunction, x: StateH) -> float:
    """log phi(x) = <x,h>_H; the overflow-safe companion of phi_eval."""
    return float(h.pairing(x.u_hat[None], x.w_hat[None])[0])


def phi_eval(h: CylinderFunction, x: StateH) -> float:
    """phi(x) = exp(<x,h>_H); may overflow to inf for extreme states."""
    return float(np.exp(log_phi(h, x)))


def _drift_pairing_arrays(
    h: CylinderFunction,
    u_hat: np.ndarray,
    w_hat: np.ndarray,
    params: ModelParams,
    basis: EigenBasis,
    drift: str,
    eps: float,
) -> np.ndarray:
    """<b(x), h>_H for the effective drift b of the given simulation mode."""
    if drift not in DRIFT_MODES:
        raise ValueError(f"unknown drift mode {drift!r}")
    eta_shift = params.derived().eta if drift == "linear_eta" else 0.0
    au, aw = _apply_A_arrays(u_hat, w_hat, params, basis, eta_shift=eta_shift)
    if drift == "fhn":
        dp = DriftParams(params.xi1, eps)
        if eps == 0.0:
            au = au + apply_F_arrays(u_hat, dp, basis, kind="cubic")
        else:
            au = au + apply_F_arrays(u_hat, dp, basis, kind="eta_eps") + dp.eta * u_hat
    return params.gamma * (au @ h.h.u_hat) + aw @ h.h.w_hat


def apply_L(h: CylinderFunction, x: StateH, params: ModelParams, basis: EigenBasis) -> float:
    """Ornstein-Uhlenbeck part L phi(x) = phi(x)(1/2 <Qh,h>_H + <Ax,h>_H)."""
    lp = log_phi(h, x)
    drift_term = _drift_pairing_arrays(
        h, x.u_hat[None], x.w_hat[None], params, basis, "linear", 0.0
    )[0]
    return float(np.exp(lp) * (0.5 * h.q_form + drift_term))


def apply_N0(
    h: CylinderFunction,
    x: StateH,
    params: ModelParams,
    basis: EigenBasis,
) -> float:
    """Full generator N0 phi(x) = phi(x)(1/2 <Qh,h>_H + <Ax,h>_H + <F(x),h>_H)."""
    lp = log_phi(h, x)
    drift_term = _drift_pairing_arrays(
        h, x.u_hat[None], x.w_hat[None], params, basis, "fhn", 0.0
    )[0]
    return float(np.exp(lp) * (0.5 * h.q_form + drift_term))


def gradient_pairing(h: CylinderFunction, x: StateH, v: StateH, params: ModelParams) -> float:
    """<D phi(x), v>_H = phi(x) <h, v>_H; oracle target for finite differences."""
    return float(np.exp(log_phi(h, x)) * inner_product_H(h.h, v, params))


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
    or either linear reference).  Paths whose exponent leaves the floating
    range are rejected and counted; the residual's standard error combines
    the per-path fluctuation of phi(X_t) - int N0 phi ds.
    """
    n = basis.n_modes
    x0 = _x0_array(cfg, n)
    phi0 = float(np.exp(h.pairing(x0[None, :, 0], x0[None, :, 1])[0]))
    if cfg.n_steps == 0:
        return DynkinReport(
            t=0.0, dt=cfg.dt, n_paths=n_paths, n_rejected=0, phi_start=phi0,
            phi_terminal_mean=phi0, integral_mean=0.0, residual=0.0, se=0.0,
        )

    integral = np.zeros(n_paths)
    prev = np.zeros(n_paths)
    terminal_phi = np.zeros(n_paths)
    overflow = np.zeros(n_paths, dtype=bool)

    def generator_values(state: np.ndarray) -> np.ndarray:
        lp = h.pairing(state[..., 0], state[..., 1])
        bad = np.abs(lp) > _LOG_GUARD
        if bad.any():
            overflow[bad] = True
            lp = np.where(bad, 0.0, lp)
        drift_term = _drift_pairing_arrays(
            h, state[..., 0], state[..., 1], params, basis, cfg.drift, cfg.eps
        )
        return np.exp(lp) * (0.5 * h.q_form + drift_term)

    def on_step(i: int, t_abs: float, state: np.ndarray) -> None:
        nonlocal prev
        vals = generator_values(state)
        if i == 0:
            prev = vals
            return
        integral[:] += 0.5 * cfg.dt * (prev + vals)
        prev = vals
        if i == cfg.n_steps:
            lp = h.pairing(state[..., 0], state[..., 1])
            bad = np.abs(lp) > _LOG_GUARD
            overflow[bad] = True
            terminal_phi[:] = np.exp(np.where(bad, 0.0, lp))

    _simulate_batch(
        params,
        basis,
        spec,
        dt=cfg.dt,
        n_steps=cfg.n_steps,
        start_interval=cfg.start_interval,
        x0=np.broadcast_to(x0, (n_paths, n, 2)),
        drift=cfg.drift,
        eps_by_col=np.full(n_paths, cfg.eps),
        master_seed=cfg.master_seed,
        path_ids=cfg.path_id + np.arange(n_paths),
        on_step=on_step,
    )
    ok = ~overflow
    n_ok = int(ok.sum())
    if n_ok < 2:
        raise RuntimeError(f"only {n_ok} paths stayed in range; shrink |h|")
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
    mean = params.gamma * (mean_state[:, 0] @ h.h.u_hat) + mean_state[:, 1] @ h.h.w_hat
    g = np.stack([params.gamma * h.h.u_hat, h.h.w_hat], axis=-1)  # (N, 2)
    var = float(np.einsum("ki,kij,kj->", g, kernel.cov, g))
    return math.exp(float(mean) + 0.5 * var)


@dataclass
class GrowthEnvelope:
    """Envelope |L phi(x)| <= a + b |x|_H fitted and validated on fresh states."""

    a: float
    b: float
    fit_violation: float
    fresh_violation: float
    n_fit: int
    n_fresh: int


def _adjoint_direction_norm(h: CylinderFunction, params: ModelParams, basis: EigenBasis) -> float:
    """|A* h|_H through the per-mode weighted adjoints [[mu-p, 1], [-gamma, -alpha]]."""
    mu = basis.mu
    hu, hw = h.h.u_hat, h.h.w_hat
    au = (mu - params.p_min) * hu + hw
    aw = -params.gamma * hu - params.alpha * hw
    return math.sqrt(float(params.gamma * (au @ au) + aw @ aw))


def linear_growth_check_L(
    h: CylinderFunction,
    params: ModelParams,
    basis: EigenBasis,
    rng: np.random.Generator,
    n_fit: int = 2000,
    n_fresh: int = 2000,
    max_norm: float = 100.0,
) -> GrowthEnvelope:
    """Fit a linear-in-|x| envelope for |L phi| and validate it out of sample.

    The least-squares line through (|x|_H, |L phi|) is raised, where
    necessary, to the chord of the uniform bound
    e^{|h| r} (<Qh,h>/2 + r |A* h|) over [0, max_norm]; the bound is convex
    in r, so the chord dominates every state with |x|_H <= max_norm and the
    envelope carries zero violations on any sample, fresh or not.
    """

    def sample(n_states: int) -> tuple[np.ndarray, np.ndarray]:
        n = basis.n_modes
        raw = rng.standard_normal((n_states, n, 2))
        norms = np.maximum(
            np.sqrt(norm_H_sq_arrays(raw[..., 0], raw[..., 1], params.gamma)), 1e-12
        )
        target = max_norm * rng.random(n_states) ** 2
        states = raw * (target / norms)[:, None, None]
        xs = np.sqrt(norm_H_sq_arrays(states[..., 0], states[..., 1], params.gamma))
        lp = h.pairing(states[..., 0], states[..., 1])
        drift_term = _drift_pairing_arrays(
            h, states[..., 0], states[..., 1], params, basis, "linear", 0.0
        )
        vals = np.abs(np.exp(lp) * (0.5 * h.q_form + drift_term))
        return xs, vals

    xs_fit, vals_fit = sample(n_fit)
    a_mat = np.stack([np.ones_like(xs_fit), xs_fit], axis=1)
    coef, *_ = np.linalg.lstsq(a_mat, vals_fit, rcond=None)
    a0, b0 = abs(float(coef[0])), abs(float(coef[1]))
    bound0 = 0.5 * h.q_form
    bound_top = math.exp(h.h_norm * max_norm) * (
        0.5 * h.q_form + max_norm * _adjoint_direction_norm(h, params, basis)
    )
    chord_b = (bound_top - bound0) / max_norm
    a = max(a0, bound0)
    b = max(b0, chord_b)
    fit_violation = float(np.max(vals_fit - (a + b * xs_fit)))
    xs_new, vals_new = sample(n_fresh)
    fresh_violation = float(np.max(vals_new - (a + b * xs_new)))
    return GrowthEnvelope(
        a=a,
        b=b,
        fit_violation=fit_violation,
        fresh_violation=fresh_violation,
        n_fit=n_fit,
        n_fresh=n_fresh,
    )
