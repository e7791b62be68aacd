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
identity on cylindrical exponentials.  The command line (``cli``) is its
front end; the modules hold the pieces it runs.
"""

__version__ = "0.1.0"
