"""Q-Wiener increments, counter-based noise streams, and exact OU transitions.

The noise is diagonal trace-class: independent channels on the u and w
components with per-mode variances lambda_k^1, lambda_k^2.  Increments are
indexed by absolute time: the draws for the interval [j*dt, (j+1)*dt) are a
fixed counter block of a Philox stream keyed by (master_seed, path_id), so
runs that start at different times (the backward invariant-measure
construction) see the same noise path on overlapping intervals, and
ensembles are reproducible independently of scheduling.  A batch's streams
are drawn together: one refill fills every stream's counter blocks into one
buffer and converts the whole buffer with one ``ndtri``, which moves no draw
because each element is still a function of its own counter alone.

For constant p the linear-plus-noise part of the dynamics is integrated
exactly per mode: the transition matrix e^{M dt}, the phi1 weight for the
explicit nonlinearity, and the increment covariance

    Sigma(dt) = int_0^dt e^{sM} Q_k e^{sM^T} ds

are all evaluated in closed form for every mode at once (e^{M dt} and
phi1 from the two eigenvalues of the 2x2 block, the covariance from the
stationary Lyapunov solution of a 3-unknown linear system), which removes
all time-discretization error from the linear and stochastic terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .model import EigenBasis, ModelParams, mode_matrices

# interval index offset so backward starts stay in unsigned counter range
_INTERVAL_OFFSET = 1 << 40
_MASK64 = (1 << 64) - 1
# uniforms drawn per stream per refill: every stream of a batch refills
# max(1, this // block) intervals into one shared buffer, which changes no draw
# because interval j is counter block j whatever the batch or the block size
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
        return cls(lambda1=lam, lambda2=lam.copy())

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
    """Counter-based Gaussian streams for a batch of trajectories.

    ``path_ids`` is a sequence of S ids.  ``normals(j)`` returns the 2N
    standard normals driving interval j for every stream, a read-only
    (S, 2N) block in the order of ``path_ids`` (u-channel draws first, then
    w-channel).  Each stream's draws are a fixed counter block of a Philox
    stream keyed by (master_seed, path_id), so identical (seed, path,
    interval) triples give bitwise identical draws in any run order and in
    any batch.  A refill draws a run of consecutive intervals for every
    stream into one buffer and returns views of it.
    """

    def __init__(self, n_modes: int, master_seed: int, path_ids: Sequence[int]):
        ids = [int(p) for p in path_ids]
        if any(p < 0 for p in ids):
            raise ValueError("path_id must be >= 0")
        self.n_modes = int(n_modes)
        self.master_seed = int(master_seed) & _MASK64
        self._keys = [p & _MASK64 for p in ids]
        self._n_draws = 2 * self.n_modes
        # counter blocks must be whole Philox ticks (4 uint64 draws each)
        self._block = 4 * ((self._n_draws + 3) // 4)
        self._per_refill = max(1, _REFILL_UNIFORMS // self._block)
        self._gens: list[Generator] = []
        self._pos = -1
        # normals of the offset intervals [_first, _first + _per_refill), (S, R, block)
        self._first = 0
        self._cache: np.ndarray | None = None

    def _seek(self, target: int) -> None:
        """Put every stream's generator at uniform ``target``; a backward jump re-seeds all."""
        if not self._gens or target < self._pos:
            self._gens = []
            for key in self._keys:
                bg = Philox(key=np.array([self.master_seed, key], dtype=np.uint64))
                if target:
                    bg.advance(target // 4)
                self._gens.append(Generator(bg))
        elif target > self._pos:
            for gen in self._gens:
                gen.bit_generator.advance((target - self._pos) // 4)
        self._pos = target

    def normals(self, interval: int) -> np.ndarray:
        """Standard normals for the absolute interval index (may be negative)."""
        j = interval + _INTERVAL_OFFSET
        if j < 0:
            raise ValueError(f"interval index {interval} below the supported backward range")
        row = j - self._first
        if self._cache is None or not 0 <= row < self._per_refill:
            # drop the old buffer first, so a refill holds one buffer at a time
            self._cache = None
            buf = np.empty((len(self._keys), self._per_refill, self._block))
            self._seek(j * self._block)
            for gen, rows in zip(self._gens, buf):
                gen.random(out=rows)
            self._pos += self._per_refill * self._block
            # uniforms -> normals by inverse CDF keeps consumption fixed per interval
            np.fmax(buf, 2.0**-64, out=buf)
            ndtri(buf, out=buf)
            buf.flags.writeable = False
            self._cache, self._first, row = buf, j, 0
        return self._cache[:, row, : self._n_draws]


@dataclass
class OUKernel:
    """Precomputed per-mode exact transition data for a fixed step size.

    transition  e^{M_k dt}                      (N,2,2)
    phi1        (e^{M_k dt} - I)(M_k dt)^{-1}   (N,2,2)
    cov         int_0^dt e^{sM} Q_k e^{sM^T} ds (N,2,2)
    factor      symmetric PSD square root of cov
    """

    dt: float
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


def _mode_exponentials(
    a: np.ndarray, alpha: float, gamma: float, t: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e^{Mt}, e^{Mt} - I and phi1 = (e^{Mt} - I)(Mt)^{-1} of M = [[a, -1], [gamma, -alpha]].

    Broadcasts over a and t; each result has shape ``broadcast(a, t) + (2, 2)``.
    A function g of M is g(l) I + g[l+, l-] (M - l I) for either eigenvalue
    l, with g[l+, l-] the divided difference.  Modes split two ways:

    * Well-separated real eigenvalues (stiff, or half gap z = gap t / 2 > 1)
      give each diagonal entry the eigenvalue l_near or l_far that keeps its
      correction g[l+, l-] (a - l_near) small.  a - l_near comes from
      (a - l-)(a - l+) = gamma, both eigenvalues from it (l_near = a -
      (a - l_near), l_far = (a - l_near) - alpha), and the exponential's
      divided difference is e^{l+ t} (-expm1(-gap t))/gap, so a stiff mode
      neither cancels nor overflows.
    * Complex and near-repeated eigenvalues use e^{mu t} [C I + t S (M - mu I)]
      with C, S = cos z, sin(z)/z (or cosh z, sinh(z)/z), which depend on
      the gap only through its square and so stay exact through a double
      eigenvalue; phi1 there is (e^{Mt} - I) adj(M) / (det M t).

    At t = 0 the blocks are I, 0 and I.
    """
    a, t = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(t, dtype=float))
    s = a + alpha                        # a - mu = s / 2 for the mean eigenvalue mu
    det = gamma - a * alpha              # l+ l-, positive when a <= 0
    disc = s * s - 4.0 * gamma           # (l+ - l-)^2
    gap = np.sqrt(np.abs(disc))
    z = 0.5 * gap * t
    # stiff (gap^2 > 4 gamma) or long-step real modes; the rest have |s| <= sqrt(8 gamma)
    sep = (disc > 4.0 * gamma) | ((disc > 0.0) & (z > 1.0))
    out = np.empty(a.shape + (3, 4))     # rows E, E - I, phi1; columns 11, 12, 21, 22

    # well-separated real eigenvalues
    a_s, t_s, s_s, r = a[sep], t[sep], s[sep], gap[sep]
    # a - l_far = (s +- gap) / 2 with no cancellation; l_near lies on s's side of l_far
    a_near = gamma / (0.5 * (s_s + np.copysign(r, s_s)))
    # l_near + l_far = a - alpha; for a <= 0 neither sum cancels
    near, far = a_s - a_near, a_near - alpha
    lam_plus = np.maximum(near, far)
    d_exp = np.exp(lam_plus * t_s) * (-np.expm1(-r * t_s)) / r
    # phi(l) = expm1(l t) / (l t), 1 at t = 0
    phi_near, phi_far = (
        np.divide(np.expm1(lam * t_s), lam * t_s, out=np.ones_like(t_s), where=t_s != 0.0)
        for lam in (near, far)
    )
    d_phi = (phi_near - phi_far) / np.where(s_s < 0.0, -r, r)
    # each row: g(l_near) + dd (a - l_near), -dd, gamma dd, g(l_far) - dd (a - l_near)
    out[sep] = np.stack([
        np.stack([g_near + dd * a_near, -dd, gamma * dd, g_far - dd * a_near], -1)
        for g_near, g_far, dd in (
            (np.exp(near * t_s), np.exp(far * t_s), d_exp),
            (np.expm1(near * t_s), np.expm1(far * t_s), d_exp),
            (phi_near, phi_far, d_phi),
        )
    ], -2)

    # complex or near-repeated eigenvalues
    sym = ~sep
    a_c, t_c, s_c, z_c, real = a[sym], t[sym], s[sym], z[sym], disc[sym] > 0.0
    mu_t = 0.5 * (a_c - alpha) * t_c
    # real gaps here have z <= 1; the hyperbolic functions see only those
    z_h, z_t = np.where(real, z_c, 0.0), np.where(real, 0.0, z_c)
    half = np.where(real, np.sinh(0.5 * z_h), np.sin(0.5 * z_t))
    cos_z = np.where(real, np.cosh(z_h), np.cos(z_t))
    sin_z = np.where(real, np.sinh(z_h), np.sin(z_t))
    sinc = np.divide(sin_z, z_c, out=np.ones_like(z_c), where=z_c > 0.0)
    d = np.exp(mu_t) * t_c * sinc
    diag = np.exp(mu_t) * cos_z
    diag_m1 = np.expm1(mu_t) * cos_z + np.where(real, 2.0, -2.0) * half * half
    f11, f22 = diag_m1 + 0.5 * s_c * d, diag_m1 - 0.5 * s_c * d
    # phi1 = (e^{Mt} - I) adj M / (det M t) with adj M = [[-alpha, 1], [-gamma, a]]
    scale = np.divide(1.0, det[sym] * t_c, out=np.zeros_like(t_c), where=t_c != 0.0)
    p11 = np.where(t_c != 0.0, -(alpha * f11 - gamma * d) * scale, 1.0)
    p22 = np.where(t_c != 0.0, (gamma * d + a_c * f22) * scale, 1.0)
    p12 = (f11 - a_c * d) * scale
    p21 = -gamma * (alpha * d + f22) * scale
    out[sym] = np.stack([
        np.stack([diag + 0.5 * s_c * d, -d, gamma * d, diag - 0.5 * s_c * d], -1),
        np.stack([f11, -d, gamma * d, f22], -1),
        np.stack([p11, p12, p21, p22], -1),
    ], -2)
    out = out.reshape(a.shape + (3, 2, 2))
    return out[..., 0, :, :], out[..., 1, :, :], out[..., 2, :, :]


def _stationary_blocks(
    a: np.ndarray, alpha: float, gamma: float, q1: np.ndarray, q2: np.ndarray
) -> np.ndarray:
    """Solutions S of M S + S M^T + diag(q1, q2) = 0, from the 3-unknown system.

    For a <= 0 every term of s11, s22 and the common denominator is
    nonnegative, so a stiff mode loses no digits.
    """
    det = gamma - a * alpha
    scale = 0.5 / ((alpha - a) * det)
    s11 = (q2 + (gamma + alpha * (alpha - a)) * q1) * scale
    s12 = (a * q2 + alpha * gamma * q1) * scale
    s22 = ((det + a * a) * q2 + gamma * gamma * q1) * scale
    return np.stack([np.stack([s11, s12], -1), np.stack([s12, s22], -1)], -2)


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
    steps.  It is evaluated as -(F S + S F^T + F S F^T) with F = e^{M dt} - I,
    the same identity with no O(1) terms to cancel at small steps.  With
    variable p the minimum of p enters the linear block; the remainder is
    handled explicitly by the integrator.
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    a = mode_matrices(params, basis, shifted=shifted)[:, 0, 0]
    n = a.shape[0]
    if spec is not None and spec.n_modes != n:
        raise ValueError(f"noise spectrum has {spec.n_modes} modes, basis has {n}")
    alpha, gamma = params.alpha, params.gamma
    transition, em1, phi1 = _mode_exponentials(a, alpha, gamma, dt)
    if spec is None:
        cov = np.zeros((n, 2, 2))
    else:
        s_inf = _stationary_blocks(a, alpha, gamma, spec.lambda1, spec.lambda2)
        fs = em1 @ s_inf
        cov = -(fs + np.swapaxes(fs, -1, -2) + fs @ np.swapaxes(em1, -1, -2))
        cov[:, 1, 0] = cov[:, 0, 1]
    factor = _psd_sqrt(cov)
    return OUKernel(dt=dt, transition=transition, phi1=phi1, cov=cov, factor=factor)


def stationary_mode_covariances(
    params: ModelParams, basis: EigenBasis, spec: NoiseSpec, shifted: bool = True
) -> np.ndarray:
    """Per-mode stationary covariances: solutions of M S + S M^T + Q = 0."""
    mats = mode_matrices(params, basis, shifted=shifted)
    out = _stationary_blocks(mats[:, 0, 0], params.alpha, params.gamma, spec.lambda1, spec.lambda2)
    qk = spec.mode_cov()
    residual = np.abs(mats @ out + out @ np.swapaxes(mats, -1, -2) + qk).max(axis=(1, 2))
    bad = np.flatnonzero(residual > 1e-10 * np.maximum(1.0, np.abs(qk).max(axis=(1, 2))))
    if bad.size:
        k = int(bad[0])
        raise RuntimeError(f"Lyapunov solve for mode {k} left residual {residual[k]:.3e}")
    return out


def htrace_mode_cov(cov: np.ndarray, gamma: float) -> float:
    """H-trace of stacked per-mode covariances: sum gamma*S_uu + S_ww."""
    return float(gamma * cov[..., 0, 0].sum() + cov[..., 1, 1].sum())


def convolution_trace_integrand(
    s: float | np.ndarray, params: ModelParams, basis: EigenBasis, spec: NoiseSpec
) -> float | np.ndarray:
    """Tr_H[e^{sA_eta} Q e^{sA_eta^*}] assembled from the per-mode blocks.

    ``s`` may be an array of times; the result then has its shape.
    """
    a = mode_matrices(params, basis, shifted=True)[:, 0, 0]
    times = np.asarray(s, dtype=float)
    e = _mode_exponentials(a, params.alpha, params.gamma, times[..., None])[0]
    q1, q2 = spec.lambda1, spec.lambda2
    # diagonal of E Q E^T, weighted by (gamma, 1), summed over the modes
    uu = e[..., 0, 0] ** 2 * q1 + e[..., 0, 1] ** 2 * q2
    ww = e[..., 1, 0] ** 2 * q1 + e[..., 1, 1] ** 2 * q2
    total = (params.gamma * uu + ww).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def convolution_trace_integral(params: ModelParams, basis: EigenBasis, spec: NoiseSpec) -> float:
    """int_0^inf Tr_H[e^{sA_eta} Q e^{sA_eta^*}] ds in closed form.

    The H-trace of the stationary Lyapunov solutions; it is bounded by
    Tr(Q)/(2 omega).  A finite horizon T is the H-trace of the shifted OU
    kernel's covariance at step T.
    """
    cov = stationary_mode_covariances(params, basis, spec, shifted=True)
    return htrace_mode_cov(cov, params.gamma)
