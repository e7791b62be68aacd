"""Cubic drift, its monotone shift, and the Lipschitz regularization.

The raw drift is f(u) = -u(u-1)(u-xi1).  Subtracting eta*u with
eta = (xi1^2 - xi1 + 1)/3 (the global maximum of f', attained at
xi0 = (1+xi1)/3) yields the decreasing cubic

    f_eta(u) = f(u) - eta u = -(u - xi0)^3 - xi0^3,

and dividing by 1 + eps*(1 - xi0(u-xi0) + (u-xi0)^2) gives the globally
Lipschitz family f_{eta,eps} used by the regularized integrator.  With
v = u - xi0 the denominator's quadratic 1 - xi0 v + v^2 is at least
1 - xi0^2/4 > 0, so the denominator is at least 1 for every eps >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ArrayLike = np.ndarray | float


@dataclass(frozen=True)
class DriftParams:
    """Threshold and regularization knobs of the cubic drift.

    eta and xi0 are recomputed from xi1 on access so they can never be
    stored inconsistently.
    """

    xi1: float
    eps: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.xi1 < 1.0):
            raise ValueError(f"xi1 must lie in (0,1), got {self.xi1}")
        if self.eps < 0.0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")

    @property
    def eta(self) -> float:
        return (self.xi1 * self.xi1 - self.xi1 + 1.0) / 3.0

    @property
    def xi0(self) -> float:
        return (1.0 + self.xi1) / 3.0


def f(u: ArrayLike, xi1: float) -> ArrayLike:
    """FitzHugh-Nagumo cubic -u(u-1)(u-xi1)."""
    return -u * (u - 1.0) * (u - xi1)


def _denominator(u: ArrayLike, dp: DriftParams) -> ArrayLike:
    v = u - dp.xi0
    return 1.0 + dp.eps * (1.0 - dp.xi0 * v + v * v)


def f_eta(u: ArrayLike, dp: DriftParams) -> ArrayLike:
    """Shifted drift f(u) - eta*u; equals -(u-xi0)^3 - xi0^3."""
    return f(u, dp.xi1) - dp.eta * u


def f_eta_eps(u: ArrayLike, dp: DriftParams) -> ArrayLike:
    """Lipschitz regularization of the shifted drift; eps = 0 returns f_eta."""
    if dp.eps == 0.0:
        return f_eta(u, dp)
    return f_eta(u, dp) / _denominator(u, dp)


def f_eta_eps_prime(u: ArrayLike, dp: DriftParams) -> ArrayLike:
    """Derivative of f_eta_eps; nonpositive for every u and eps >= 0.

    Quotient rule on the closed forms N = -(v^3 + xi0^3),
    D = 1 + eps(1 - xi0 v + v^2) with v = u - xi0.
    """
    xi0 = dp.xi0
    v = u - xi0
    den = _denominator(u, dp)
    n_val = -(v * v * v + xi0 * xi0 * xi0)
    n_prime = -3.0 * v * v
    d_prime = dp.eps * (2.0 * v - xi0)
    return (n_prime * den - n_val * d_prime) / (den * den)


def grid_drift(u_grid: np.ndarray, dp: DriftParams, kind: str = "cubic") -> np.ndarray:
    """Pointwise drift values on grid data.

    kind: 'cubic' -> f, 'eta_eps' -> f_{eta,eps} (f_eta at eps = 0).
    """
    if kind == "cubic":
        return f(u_grid, dp.xi1)
    if kind == "eta_eps":
        return f_eta_eps(u_grid, dp)
    raise ValueError(f"unknown drift kind {kind!r}")
