"""Spectral-Galerkin simulation of the stochastic FitzHugh-Nagumo system.

The package simulates the two-component excitable-media model

    du = (d/dxi (c(xi) du/dxi) - p(xi) u + f(u) - w) dt + dB1
    dw = (gamma u - alpha w) dt + dB2

on [0, 1] with Neumann boundary conditions for u, cubic drift
f(u) = -u(u-1)(u-xi1), and trace-class diagonal noise, truncated to the
leading Neumann eigenmodes of the diffusion operator.  On top of the
integrator it provides verification harnesses for the structural
properties of the system: drift monotonicity, operator dissipativity,
pathwise contraction under synchronous coupling, moment bounds,
invariant-measure estimation, and the Kolmogorov-operator/Dynkin
identity on cylindrical exponentials.
"""

__version__ = "0.1.0"

from .model import (
    DerivedConstants,
    EigenBasis,
    EigenbasisError,
    ModelParams,
    StateH,
    apply_A,
    apply_A_eta,
    build_eigenbasis,
    inner_product_H,
    mode_matrix,
    mode_matrix_eta,
    norm_H_sq,
    norm_V_sq,
)
from .nonlinearity import (
    DriftParams,
    apply_F,
    f,
    f_eta,
    f_eta_eps,
    f_eta_eps_prime,
    h_eps,
    monotonicity_gap,
)
from .noise import (
    NoiseSpec,
    PathStream,
    convolution_sup_statistics,
    convolution_trace_integral,
    trace_Q,
)
from .solver import (
    BlowUpError,
    Ensemble,
    TrajectoryConfig,
    backward_run,
    coupled_run,
    eps_convergence_study,
    integrate,
    run_ensemble,
)

__all__ = [
    "__version__",
    "ModelParams",
    "DerivedConstants",
    "EigenBasis",
    "EigenbasisError",
    "StateH",
    "build_eigenbasis",
    "inner_product_H",
    "norm_H_sq",
    "norm_V_sq",
    "apply_A",
    "apply_A_eta",
    "mode_matrix",
    "mode_matrix_eta",
    "DriftParams",
    "f",
    "f_eta",
    "f_eta_eps",
    "f_eta_eps_prime",
    "h_eps",
    "apply_F",
    "monotonicity_gap",
    "NoiseSpec",
    "PathStream",
    "trace_Q",
    "convolution_trace_integral",
    "convolution_sup_statistics",
    "TrajectoryConfig",
    "Ensemble",
    "BlowUpError",
    "integrate",
    "run_ensemble",
    "coupled_run",
    "eps_convergence_study",
    "backward_run",
]
