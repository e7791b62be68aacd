"""Q-Wiener increments, counter-based noise streams, and exact OU transitions.

The noise is diagonal trace-class: independent channels on the u and w
components with per-mode variances lambda_k^1, lambda_k^2.  Increments are
indexed by absolute time: the draws for the interval [j*dt, (j+1)*dt) are a
fixed counter block of a Philox stream keyed by (master_seed, path_id), so
runs that start at different times (the backward invariant-measure
construction) see the same noise path on overlapping intervals, and
ensembles are reproducible independently of scheduling.

For constant p the linear-plus-noise part of the dynamics is integrated
exactly per mode: the transition matrix e^{M dt}, the phi1 weight for the
explicit nonlinearity, and the increment covariance

    Sigma(dt) = int_0^dt e^{sM} Q_k e^{sM^T} ds

are all evaluated in closed form (matrix exponentials plus a per-mode
Lyapunov solve), which removes all time-discretization error from the
linear and stochastic terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.linalg import expm, solve_continuous_lyapunov
from scipy.special import ndtri

from .model import EigenBasis, ModelParams, mode_matrices

# interval index offset so backward starts stay in unsigned counter range
_INTERVAL_OFFSET = 1 << 40
_MASK64 = (1 << 64) - 1
# uniforms drawn per generator call; a stream refills max(1, this // block)
# intervals at a time, which changes no draw because interval j is counter block j
_REFILL_UNIFORMS = 2048


@dataclass(frozen=True)
class NoiseSpec:
    """Diagonal covariance spectra of the two noise channels.

    The default generator is the summable power law
    lambda_k^i = sigma2 * (1+k)^(-2s); explicit tables are accepted via
    :meth:`from_tables`.
    """

    lambda1: np.ndarray
    lambda2: np.ndarray
    sigma2: float | None = None
    s: float | None = None

    def __post_init__(self) -> None:
        l1 = np.asarray(self.lambda1, dtype=float)
        l2 = np.asarray(self.lambda2, dtype=float)
        object.__setattr__(self, "lambda1", l1)
        object.__setattr__(self, "lambda2", l2)
        if l1.ndim != 1 or l1.shape != l2.shape:
            raise ValueError("lambda1 and lambda2 must be equal-length vectors")
        if np.any(l1 < 0) or np.any(l2 < 0):
            raise ValueError("noise spectra must be nonnegative")

    @classmethod
    def power_law(cls, n_modes: int, sigma2: float = 0.01, s: float = 1.0) -> "NoiseSpec":
        if sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")
        if s <= 0.5 and sigma2 > 0:
            raise ValueError(f"decay exponent s={s} <= 1/2 gives a non-summable spectrum")
        lam = sigma2 * (1.0 + np.arange(n_modes)) ** (-2.0 * s)
        return cls(lambda1=lam, lambda2=lam.copy(), sigma2=sigma2, s=s)

    @classmethod
    def from_tables(cls, lambda1: np.ndarray, lambda2: np.ndarray) -> "NoiseSpec":
        return cls(lambda1=np.asarray(lambda1, float), lambda2=np.asarray(lambda2, float))

    @property
    def n_modes(self) -> int:
        return self.lambda1.shape[0]

    def mode_cov(self) -> np.ndarray:
        """Per-mode diagonal covariance blocks Q_k = diag(lambda_k^1, lambda_k^2)."""
        q = np.zeros((self.n_modes, 2, 2))
        q[:, 0, 0] = self.lambda1
        q[:, 1, 1] = self.lambda2
        return q


def trace_Q(spec: NoiseSpec) -> float:
    """Tr Q = sum of both spectra; independent of the inner-product weight."""
    return float(spec.lambda1.sum() + spec.lambda2.sum())


class PathStream:
    """Counter-based Gaussian stream for one trajectory.

    ``normals(j)`` returns the 2N standard normals driving interval j
    (u-channel draws first, then w-channel), generated from a fixed
    counter block of a Philox stream keyed by (master_seed, path_id).
    Identical (seed, path, interval) triples give bitwise identical
    draws in any run order.  The stream keeps the normals of a run of
    consecutive intervals from one generator call and returns read-only
    rows of that buffer.
    """

    def __init__(self, n_modes: int, master_seed: int, path_id: int):
        if path_id < 0:
            raise ValueError("path_id must be >= 0")
        self.n_modes = int(n_modes)
        self.master_seed = int(master_seed) & _MASK64
        self.path_id = int(path_id) & _MASK64
        self._n_draws = 2 * self.n_modes
        # counter blocks must be whole Philox ticks (4 uint64 draws each)
        self._block = 4 * ((self._n_draws + 3) // 4)
        self._per_refill = max(1, _REFILL_UNIFORMS // self._block)
        self._gen: Generator | None = None
        self._pos = -1
        # normals of the offset intervals [_first, _first + len(_cache))
        self._first = 0
        self._cache = np.empty((0, self._n_draws))

    def _seek(self, target: int) -> Generator:
        if self._gen is None or target < self._pos:
            bg = Philox(key=np.array([self.master_seed, self.path_id], dtype=np.uint64))
            if target:
                bg.advance(target // 4)
            self._gen = Generator(bg)
        elif target > self._pos:
            self._gen.bit_generator.advance((target - self._pos) // 4)
        self._pos = target
        return self._gen

    def normals(self, interval: int) -> np.ndarray:
        """Standard normals for the absolute interval index (may be negative)."""
        j = interval + _INTERVAL_OFFSET
        if j < 0:
            raise ValueError(f"interval index {interval} below the supported backward range")
        row = j - self._first
        if not 0 <= row < self._cache.shape[0]:
            # one generator call for intervals j .. j + _per_refill - 1
            gen = self._seek(j * self._block)
            u = gen.random(self._per_refill * self._block).reshape(self._per_refill, self._block)
            self._pos += u.size
            # uniforms -> normals by inverse CDF keeps consumption fixed per interval
            self._cache = ndtri(np.fmax(u[:, : self._n_draws], 2.0**-64))
            self._cache.flags.writeable = False
            self._first, row = j, 0
        return self._cache[row]


@dataclass
class OUKernel:
    """Precomputed per-mode exact transition data for a fixed step size.

    transition  e^{M_k dt}                      (N,2,2)
    phi1        (e^{M_k dt} - I)(M_k dt)^{-1}   (N,2,2)
    cov         int_0^dt e^{sM} Q_k e^{sM^T} ds (N,2,2)
    factor      symmetric PSD square root of cov
    """

    dt: float
    shifted: bool
    transition: np.ndarray
    phi1: np.ndarray
    cov: np.ndarray
    factor: np.ndarray


def _psd_sqrt(cov: np.ndarray) -> np.ndarray:
    """Symmetric square roots of a batch of (2,2) PSD matrices."""
    sym = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    w, v = np.linalg.eigh(sym)
    w = np.sqrt(np.clip(w, 0.0, None))
    return np.einsum("...ij,...j,...kj->...ik", v, w, v)


def build_ou_kernel(
    params: ModelParams,
    basis: EigenBasis,
    spec: NoiseSpec | None,
    dt: float,
    shifted: bool = False,
) -> OUKernel:
    """Exact per-mode transition, phi1 weight, and noise covariance for step dt.

    The increment covariance comes from the stationary Lyapunov solution,
    Sigma(dt) = S - e^{M dt} S e^{M^T dt}, which involves only decaying
    exponentials and so stays finite for arbitrarily stiff modes and long
    steps.  With variable p the minimum of p enters the linear block; the
    remainder is handled explicitly by the integrator.
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    mats = mode_matrices(params, basis, shifted=shifted)
    n = mats.shape[0]
    if spec is not None and spec.n_modes != n:
        raise ValueError(f"noise spectrum has {spec.n_modes} modes, basis has {n}")
    qk = spec.mode_cov() if spec is not None else np.zeros((n, 2, 2))
    eye2 = np.eye(2)
    transition = np.empty((n, 2, 2))
    phi1 = np.empty((n, 2, 2))
    cov = np.empty((n, 2, 2))
    aug_phi = np.zeros((4, 4))
    for k in range(n):
        m = mats[k]
        aug_phi[:2, :2] = m * dt
        aug_phi[:2, 2:] = eye2
        e_phi = expm(aug_phi)
        transition[k] = e_phi[:2, :2]
        phi1[k] = e_phi[:2, 2:]
        if qk[k, 0, 0] == 0.0 and qk[k, 1, 1] == 0.0:
            cov[k] = 0.0
        else:
            s_inf = solve_continuous_lyapunov(m, -qk[k])
            cov[k] = s_inf - transition[k] @ s_inf @ transition[k].T
    factor = _psd_sqrt(cov)
    return OUKernel(dt=dt, shifted=shifted, transition=transition, phi1=phi1, cov=cov, factor=factor)


def stationary_mode_covariances(
    params: ModelParams, basis: EigenBasis, spec: NoiseSpec, shifted: bool = True
) -> np.ndarray:
    """Per-mode stationary covariances: solutions of M S + S M^T + Q = 0."""
    mats = mode_matrices(params, basis, shifted=shifted)
    qk = spec.mode_cov()
    out = np.empty_like(mats)
    for k in range(mats.shape[0]):
        out[k] = solve_continuous_lyapunov(mats[k], -qk[k])
        residual = mats[k] @ out[k] + out[k] @ mats[k].T + qk[k]
        if np.abs(residual).max() > 1e-10 * max(1.0, np.abs(qk[k]).max()):
            raise RuntimeError(f"Lyapunov solve for mode {k} left residual {residual}")
    return out


def htrace_mode_cov(cov: np.ndarray, gamma: float) -> float:
    """H-trace of stacked per-mode covariances: sum gamma*S_uu + S_ww."""
    return float(gamma * cov[..., 0, 0].sum() + cov[..., 1, 1].sum())


def convolution_trace_integrand(
    s: float, params: ModelParams, basis: EigenBasis, spec: NoiseSpec
) -> float:
    """Tr_H[e^{sA_eta} Q e^{sA_eta^*}] assembled from the per-mode blocks."""
    mats = mode_matrices(params, basis, shifted=True)
    qk = spec.mode_cov()
    total = 0.0
    for k in range(mats.shape[0]):
        e = expm(mats[k] * s)
        t = e @ qk[k] @ e.T
        total += params.gamma * t[0, 0] + t[1, 1]
    return total


def convolution_trace_integral(
    params: ModelParams,
    basis: EigenBasis,
    spec: NoiseSpec,
    horizon: float | None = None,
) -> float:
    """int_0^T Tr_H[e^{sA_eta} Q e^{sA_eta^*}] ds in closed form.

    ``horizon=None`` gives the infinite-horizon value via the stationary
    Lyapunov solutions; it is bounded by Tr(Q)/(2 omega).
    """
    if horizon is None or math.isinf(horizon):
        cov = stationary_mode_covariances(params, basis, spec, shifted=True)
        return htrace_mode_cov(cov, params.gamma)
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    kernel = build_ou_kernel(params, basis, spec, horizon, shifted=True)
    return htrace_mode_cov(kernel.cov, params.gamma)
