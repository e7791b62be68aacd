"""State space, Neumann eigenbasis, and the linear drift block.

The state lives in H = L2(0,1) x L2(0,1) with the weighted inner product

    <(u1,w1),(u2,w2)>_H = gamma <u1,u2>_{L2} + <w1,w2>_{L2}

and is truncated to the leading ``n_modes`` eigenfunctions of the
Sturm-Liouville operator  u -> (c(xi) u')'  with Neumann conditions.
The linear drift acts blockwise per mode,

    A (u, w) = (A0 u - p u - w,  gamma u - alpha w),

which for constant p reduces to an exactly integrable 2x2 system per mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
import scipy.fft
from scipy.linalg import eigh_tridiagonal

ProfileLike = Union[float, int, np.ndarray, list, Callable[[np.ndarray], np.ndarray]]

# constant-c bases with at least this many modes transform by DCT; below it
# the fixed per-call cost of scipy.fft makes the dense matmul faster
DCT_MIN_MODES = 256


class EigenbasisError(RuntimeError):
    """Eigen-solve failed or a mode table violates orthonormality."""


def _collocation_grid(n_grid: int) -> tuple[np.ndarray, float]:
    """Midpoint grid on [0,1]; its uniform weight makes cosine tables exactly orthonormal."""
    h = 1.0 / n_grid
    xi = (np.arange(n_grid) + 0.5) * h
    return xi, h


def _evaluate_profile(profile: ProfileLike, xi: np.ndarray, name: str) -> tuple[np.ndarray, bool]:
    """Tabulate a coefficient profile on the grid; returns (values, is_constant)."""
    if callable(profile):
        values = np.asarray(profile(xi), dtype=float)
        if values.shape != xi.shape:
            raise ValueError(f"{name} profile callable must return {xi.shape} values")
        is_const = bool(np.all(values == values[0]))
        return values, is_const
    if np.isscalar(profile):
        return np.full_like(xi, float(profile)), True
    values = np.asarray(profile, dtype=float)
    if values.shape != xi.shape:
        raise ValueError(
            f"{name} profile table has {values.shape[0] if values.ndim == 1 else values.shape} "
            f"entries, expected n_grid={xi.shape[0]}"
        )
    return values.copy(), bool(np.all(values == values[0]))


@dataclass(frozen=True)
class ModelParams:
    """Phenomenological coefficients of the FitzHugh-Nagumo system.

    ``c_profile`` and ``p_profile`` may be scalars, tables of ``n_grid``
    values on the collocation grid, or callables of xi.  The constructor
    rejects parameter sets that break the dissipativity condition
    3 min p >= xi1^2 - xi1 + 1.
    """

    alpha: float = 1.0
    gamma: float = 0.5
    xi1: float = 0.5
    c_profile: ProfileLike = 1.0
    p_profile: ProfileLike = 0.3
    n_modes: int = 32
    n_grid: int = 64

    # tabulated on the collocation grid in __post_init__
    xi: np.ndarray = field(init=False, repr=False, compare=False)
    quad_weight: float = field(init=False, repr=False, compare=False)
    c_grid: np.ndarray = field(init=False, repr=False, compare=False)
    p_grid: np.ndarray = field(init=False, repr=False, compare=False)
    c_is_constant: bool = field(init=False, repr=False, compare=False)
    p_is_constant: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.alpha > 0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not (self.gamma > 0):
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not (0.0 < self.xi1 < 1.0):
            raise ValueError(f"xi1 must lie in (0,1), got {self.xi1}")
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if self.n_grid < 2 * self.n_modes:
            raise ValueError(
                f"n_grid={self.n_grid} < 2*n_modes={2 * self.n_modes}: "
                "the cubic drift needs dealiasing headroom"
            )
        xi, h = _collocation_grid(self.n_grid)
        c_grid, c_const = _evaluate_profile(self.c_profile, xi, "c")
        p_grid, p_const = _evaluate_profile(self.p_profile, xi, "p")
        if c_grid.min() <= 0:
            raise ValueError(f"c(xi) must be positive, min is {c_grid.min()}")
        if p_grid.min() <= 0:
            raise ValueError(f"p(xi) must be positive, min is {p_grid.min()}")
        shift = self.xi1 * self.xi1 - self.xi1 + 1.0
        if 3.0 * p_grid.min() - shift < 0:
            raise ValueError(
                f"dissipativity condition violated: 3*min p = {3.0 * p_grid.min():.6g} "
                f"< xi1^2 - xi1 + 1 = {shift:.6g}"
            )
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "quad_weight", h)
        object.__setattr__(self, "c_grid", c_grid)
        object.__setattr__(self, "p_grid", p_grid)
        object.__setattr__(self, "c_is_constant", c_const)
        object.__setattr__(self, "p_is_constant", p_const)

    @property
    def c_min(self) -> float:
        return float(self.c_grid.min())

    @property
    def p_min(self) -> float:
        return float(self.p_grid.min())

    def derived(self) -> "DerivedConstants":
        return DerivedConstants.from_params(self)


@dataclass(frozen=True)
class DerivedConstants:
    """Dissipativity constants derived from the model coefficients.

    eta is the global maximum of f', attained at the inflection point xi0;
    subtracting eta*u from the drift makes the cubic monotone decreasing.
    omega/omega1 govern contraction in the H-norm, omega2 in the V-norm.
    """

    eta: float
    xi0: float
    omega: float
    omega1: float
    omega2: float

    @classmethod
    def from_params(cls, params: ModelParams) -> "DerivedConstants":
        eta = (params.xi1 * params.xi1 - params.xi1 + 1.0) / 3.0
        xi0 = (1.0 + params.xi1) / 3.0
        p = params.p_min
        c = params.c_min
        omega1 = min(p - eta, params.alpha)
        omega2 = min(c, p - eta, params.alpha)
        return cls(eta=eta, xi0=xi0, omega=omega1, omega1=omega1, omega2=omega2)


@dataclass
class EigenBasis:
    """Tabulated Neumann eigenpairs of u -> (c u')' on the collocation grid.

    ``modes[k]`` holds e_k at the grid points, orthonormal under the
    midpoint quadrature; ``mu`` are the (nonpositive, nonincreasing)
    eigenvalues.  For constant c the analytic cosine family is used and
    ``deriv_sq`` carries the exact spectral derivative factors (k*pi)^2;
    otherwise ``dmodes`` tabulates face differences for the H1 seminorm.

    A constant-c basis with at least :data:`DCT_MIN_MODES` modes (``dct``)
    transforms by a DCT-III to the grid and a truncated DCT-II back, both
    O(M log M) and row-local, so a row's bits do not depend on the batch it
    sits in; otherwise the transforms are matmuls against the mode table.
    """

    mu: np.ndarray                   # (N,)
    modes: np.ndarray                # (N, M)
    xi: np.ndarray                   # (M,)
    quad_weight: float
    sup_bound: float
    constant_c: bool
    deriv_sq: np.ndarray | None      # (N,) spectral |e_k'|^2 factors, constant c only
    dmodes: np.ndarray | None        # (N, M-1) face differences / h, variable c only
    _proj: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # adjoint of evaluation under the quadrature weight
        self._proj = None if self.dct else self.modes.T * self.quad_weight

    @property
    def n_modes(self) -> int:
        return self.modes.shape[0]

    @property
    def n_grid(self) -> int:
        return self.modes.shape[1]

    @property
    def dct(self) -> bool:
        """Whether the transforms run by DCT instead of matmul."""
        return self.constant_c and self.n_modes >= DCT_MIN_MODES

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate spectral coefficients (..., N) on the grid -> (..., M)."""
        if self.dct:
            m = self.n_grid
            return math.sqrt(m) * scipy.fft.idct(coeffs, type=2, n=m, norm="ortho", axis=-1)
        return np.asarray(coeffs) @ self.modes

    def to_coeffs(self, values: np.ndarray) -> np.ndarray:
        """Project grid values (..., M) onto the modes -> (..., N)."""
        if self.dct:
            full = scipy.fft.dct(values, type=2, norm="ortho", axis=-1)
            return full[..., : self.n_modes] / math.sqrt(self.n_grid)
        return np.asarray(values) @ self._proj

    def du_sq(self, u_hat: np.ndarray) -> np.ndarray:
        """L2 norm squared of du/dxi for coefficients (..., N)."""
        u_hat = np.asarray(u_hat)
        if self.constant_c:
            # row-local pairwise sum keeps the result independent of batching
            return (u_hat * u_hat * self.deriv_sq).sum(axis=-1)
        du = u_hat @ self.dmodes
        return (du * du).sum(axis=-1) * self.quad_weight


def build_eigenbasis(params: ModelParams) -> EigenBasis:
    """Construct the Neumann eigenbasis of u -> (c u')' truncated to n_modes.

    Constant c uses the analytic cosine family (mu_k = -c k^2 pi^2), with
    DCT transforms from ``DCT_MIN_MODES`` modes up; a variable profile is
    discretized by the symmetric second-order finite-difference
    Sturm-Liouville scheme with zero-flux closure and solved with a
    tridiagonal symmetric eigensolver.
    """
    n, m = params.n_modes, params.n_grid
    xi, h = params.xi, params.quad_weight
    if params.c_is_constant:
        c = params.c_min
        k = np.arange(n)
        mu = -c * (k * np.pi) ** 2
        modes = np.cos(np.outer(k * np.pi, xi))
        modes[1:] *= math.sqrt(2.0)
        deriv_sq = (k * np.pi) ** 2
        basis = EigenBasis(
            mu=mu,
            modes=modes,
            xi=xi,
            quad_weight=h,
            # analytic sup of the cosine family; the grid max undershoots by O(h^2)
            sup_bound=math.sqrt(2.0) if n > 1 else 1.0,
            constant_c=True,
            deriv_sq=deriv_sq,
            dmodes=None,
        )
    else:
        mu, vecs = _sturm_liouville_modes(params.c_grid, m, n, h)
        modes = vecs.T / math.sqrt(h)   # h * sum e_k^2 = 1
        # deterministic sign: largest-magnitude entry positive
        for row in modes:
            j = int(np.argmax(np.abs(row)))
            if row[j] < 0:
                row *= -1.0
        dmodes = np.diff(modes, axis=1) / h
        basis = EigenBasis(
            mu=mu,
            modes=modes,
            xi=xi,
            quad_weight=h,
            sup_bound=float(np.abs(modes).max()),
            constant_c=False,
            deriv_sq=None,
            dmodes=dmodes,
        )
    _check_basis(basis)
    return basis


def _sturm_liouville_modes(
    c_grid: np.ndarray, m: int, n: int, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Top-n eigenpairs of the FD Neumann Sturm-Liouville matrix on m midpoints."""
    # face coefficients at the interior cell boundaries j*h, j=1..m-1,
    # interpolated from the midpoint tabulation
    faces = 0.5 * (c_grid[:-1] + c_grid[1:])
    off = faces / (h * h)
    diag = np.zeros(m)
    diag[0] = -off[0]
    diag[-1] = -off[-1]
    diag[1:-1] = -(off[:-1] + off[1:])
    try:
        w, v = eigh_tridiagonal(diag, off, select="i", select_range=(m - n, m - 1))
    except Exception as exc:  # pragma: no cover - LAPACK failure is exotic
        raise EigenbasisError(f"tridiagonal eigensolve failed: {exc}") from exc
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    # zero-row-sum construction makes the constant vector an exact kernel mode;
    # clamp eigensolver noise so mu stays nonpositive
    tol = 1e-8 * max(1.0, float(np.abs(w).max()))
    if w[0] > tol:
        raise EigenbasisError(f"leading eigenvalue {w[0]:.3e} is not zero within tolerance")
    w = np.minimum(w, 0.0)
    if np.any(np.diff(w) > tol):
        raise EigenbasisError("eigenvalues are not nonincreasing")
    return w, v


def _check_basis(basis: EigenBasis) -> None:
    gram = (basis.modes @ basis.modes.T) * basis.quad_weight
    dev = np.abs(gram - np.eye(basis.n_modes))
    worst = float(dev.max())
    if worst > 1e-8:
        i, j = np.unravel_index(int(dev.argmax()), dev.shape)
        raise EigenbasisError(
            f"mode table not orthonormal: |<e_{i}, e_{j}> - delta| = {worst:.3e}"
        )
    if not np.isfinite(basis.sup_bound):
        raise EigenbasisError("sup bound of the mode table is not finite")


@dataclass
class StateH:
    """Element of the truncated state space: spectral coefficients of (u, w)."""

    u_hat: np.ndarray
    w_hat: np.ndarray

    def __post_init__(self) -> None:
        self.u_hat = np.asarray(self.u_hat, dtype=float)
        self.w_hat = np.asarray(self.w_hat, dtype=float)
        if self.u_hat.shape != self.w_hat.shape or self.u_hat.ndim != 1:
            raise ValueError(
                f"u_hat and w_hat must be equal-length vectors, got "
                f"{self.u_hat.shape} and {self.w_hat.shape}"
            )
        if not (np.isfinite(self.u_hat).all() and np.isfinite(self.w_hat).all()):
            raise ValueError("state coefficients must be finite")

    @classmethod
    def zero(cls, n_modes: int) -> "StateH":
        return cls(np.zeros(n_modes), np.zeros(n_modes))

    @classmethod
    def from_grid(cls, u_values: np.ndarray, w_values: np.ndarray, basis: EigenBasis) -> "StateH":
        return cls(basis.to_coeffs(u_values), basis.to_coeffs(w_values))

    @property
    def n_modes(self) -> int:
        return self.u_hat.shape[0]

    def copy(self) -> "StateH":
        return StateH(self.u_hat.copy(), self.w_hat.copy())

    def as_array(self) -> np.ndarray:
        """Stack into the (N, 2) layout used by the batched kernels."""
        return np.stack([self.u_hat, self.w_hat], axis=-1)


def _check_dims(x: StateH, y: StateH) -> None:
    if x.n_modes != y.n_modes:
        raise ValueError(f"dimension mismatch: {x.n_modes} vs {y.n_modes} modes")


def inner_product_H(x: StateH, y: StateH, params: ModelParams) -> float:
    """Weighted inner product gamma <u_x,u_y> + <w_x,w_y> in spectral coordinates."""
    _check_dims(x, y)
    return float(params.gamma * (x.u_hat @ y.u_hat) + x.w_hat @ y.w_hat)


def norm_H_sq(x: StateH, params: ModelParams) -> float:
    return inner_product_H(x, x, params)


def norm_H_sq_arrays(u_hat: np.ndarray, w_hat: np.ndarray, gamma: float) -> np.ndarray:
    """Batched |x|_H^2 for coefficient arrays of shape (..., N)."""
    return gamma * (u_hat * u_hat).sum(axis=-1) + (w_hat * w_hat).sum(axis=-1)


def norm_H_sq_quadrature(x: StateH, params: ModelParams, basis: EigenBasis) -> float:
    """|x|_H^2 through grid values; Parseval counterpart of :func:`norm_H_sq`."""
    u = basis.to_grid(x.u_hat)
    w = basis.to_grid(x.w_hat)
    h = basis.quad_weight
    return float(params.gamma * h * (u * u).sum() + h * (w * w).sum())


def norm_V_sq(x: StateH, params: ModelParams, basis: EigenBasis) -> float:
    """V-norm squared gamma(|u|^2 + |u'|^2) + |w|^2.

    The derivative term is spectral for constant c and face-difference
    quadrature otherwise, matching the discrete integration by parts used
    in the dissipativity estimates.
    """
    _check_dims(x, StateH(np.zeros(basis.n_modes), np.zeros(basis.n_modes)))
    du_sq = float(basis.du_sq(x.u_hat))
    return float(params.gamma * (x.u_hat @ x.u_hat + du_sq) + x.w_hat @ x.w_hat)


def norm_V_sq_arrays(
    u_hat: np.ndarray, w_hat: np.ndarray, params: ModelParams, basis: EigenBasis
) -> np.ndarray:
    du_sq = basis.du_sq(u_hat)
    return params.gamma * ((u_hat * u_hat).sum(axis=-1) + du_sq) + (w_hat * w_hat).sum(axis=-1)


def _apply_A_arrays(
    u_hat: np.ndarray,
    w_hat: np.ndarray,
    params: ModelParams,
    basis: EigenBasis,
    eta_shift: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched drift block (A0 u - p u + eta_shift u - w, gamma u - alpha w)."""
    if params.p_is_constant:
        pu = params.p_min * u_hat
    else:
        u_grid = basis.to_grid(u_hat)
        pu = basis.to_coeffs(params.p_grid * u_grid)
    u_out = basis.mu * u_hat - pu - w_hat
    if eta_shift:
        u_out = u_out + eta_shift * u_hat
    w_out = params.gamma * u_hat - params.alpha * w_hat
    return u_out, w_out


def apply_A(x: StateH, params: ModelParams, basis: EigenBasis) -> StateH:
    """Linear drift A x = (A0 u - p u - w, gamma u - alpha w)."""
    u_out, w_out = _apply_A_arrays(x.u_hat, x.w_hat, params, basis)
    return StateH(u_out, w_out)


def apply_A_eta(x: StateH, params: ModelParams, basis: EigenBasis) -> StateH:
    """Shifted drift A_eta x = A x + eta * (u, 0); the monotone-splitting companion."""
    eta = params.derived().eta
    u_out, w_out = _apply_A_arrays(x.u_hat, x.w_hat, params, basis, eta_shift=eta)
    return StateH(u_out, w_out)


def mode_matrix(k: int, params: ModelParams, basis: EigenBasis) -> np.ndarray:
    """Per-mode 2x2 drift block [[mu_k - p, -1], [gamma, -alpha]] (constant p only)."""
    if not params.p_is_constant:
        raise ValueError("per-mode matrices need constant p; this configuration has p(xi)")
    if not (0 <= k < basis.n_modes):
        raise ValueError(f"mode index {k} out of range [0, {basis.n_modes})")
    return np.array(
        [
            [basis.mu[k] - params.p_min, -1.0],
            [params.gamma, -params.alpha],
        ]
    )


def mode_matrix_eta(k: int, params: ModelParams, basis: EigenBasis) -> np.ndarray:
    """Shifted per-mode block [[mu_k - p + eta, -1], [gamma, -alpha]]."""
    m = mode_matrix(k, params, basis)
    m[0, 0] += params.derived().eta
    return m


def mode_matrices(params: ModelParams, basis: EigenBasis, shifted: bool = False) -> np.ndarray:
    """All per-mode blocks stacked to (N, 2, 2); uses min p when p varies."""
    n = basis.n_modes
    out = np.zeros((n, 2, 2))
    out[:, 0, 0] = basis.mu - params.p_min
    if shifted:
        out[:, 0, 0] += params.derived().eta
    out[:, 0, 1] = -1.0
    out[:, 1, 0] = params.gamma
    out[:, 1, 1] = -params.alpha
    return out


def random_coeff_states(
    n_states: int,
    params: ModelParams,
    rng: np.random.Generator,
    scale: float = 1.0,
    spectral_decay: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Random spectral states (u_hat, w_hat) of shape (n_states, N) for property tests.

    Each state gets its own magnitude (log-uniform around ``scale``) and,
    unless fixed, its own spectral decay exponent, so samples probe both
    smooth and rough directions of the truncated space.
    """
    n = params.n_modes
    mags = scale * np.exp(rng.uniform(-2.0, 2.0, size=(n_states, 1)))
    if spectral_decay is None:
        decays = rng.uniform(0.0, 2.0, size=(n_states, 1))
    else:
        decays = np.full((n_states, 1), float(spectral_decay))
    profile = (1.0 + np.arange(n)) ** -decays
    u_hat = rng.standard_normal((n_states, n)) * profile * mags
    w_hat = rng.standard_normal((n_states, n)) * profile * mags
    return u_hat, w_hat
