import math

import numpy as np
import pytest
from pytest import approx

from fhn_spectral.kolmogorov import (
    _LOG_GUARD,
    CylinderFunction,
    dynkin_residual,
    generator_values,
    ou_expectation_exact,
)
from fhn_spectral.model import (
    ModelParams,
    StateH,
    _collocation_grid,
    build_eigenbasis,
    inner_H,
    random_coeff_states,
)
from fhn_spectral.noise import NoiseSpec
from fhn_spectral.nonlinearity import DriftParams, f, f_eta_eps
from fhn_spectral.solver import TrajectoryConfig, _simulate_batch, run_drift


def phi_eval(h, x):
    """phi(x) = exp(<x,h>_H) for one state."""
    return float(h.phi(x.u_hat, x.w_hat))


@pytest.fixture(scope="module")
def gamma1():
    params = ModelParams(gamma=1.0)
    basis = build_eigenbasis(params)
    spec = NoiseSpec.power_law(params.n_modes)
    return params, basis, spec


class TestCylinderFunction:
    def test_phi_at_zero_direction(self, params, basis, spec, rng):
        h = CylinderFunction.from_modes(basis.n_modes, params, spec)
        u, w = random_coeff_states(5, params, rng)
        _, phi = generator_values(h, u, w, run_drift(params, basis))
        assert np.all(phi == 1.0)

    def test_phi_at_zero_state(self, params, basis, spec):
        h = CylinderFunction.from_modes(
            basis.n_modes, params, spec, u_modes=[(0, 2.0), (3, -1.0)], w_modes=[(1, 0.7)]
        )
        assert phi_eval(h, StateH.zero(basis.n_modes)) == 1.0

    def test_weighted_pairing_example(self, params, basis, spec):
        # gamma = 0.5: h = e0 on u, x = 2 e0 on u -> <x,h>_H = 1, phi = e
        h = CylinderFunction.from_modes(basis.n_modes, params, spec, u_modes=[(0, 1.0)])
        x = StateH.zero(basis.n_modes)
        x.u_hat[0] = 2.0
        assert h.pairing(x.u_hat, x.w_hat) == approx(1.0)
        assert phi_eval(h, x) == approx(math.e)
        assert h.h_norm == approx(math.sqrt(params.gamma))

    def test_q_form_identity(self, params, basis, spec):
        h = CylinderFunction.from_modes(
            basis.n_modes, params, spec, u_modes=[(0, 0.5), (2, -0.2)], w_modes=[(1, 0.3)]
        )
        qh = StateH(spec.lambda1 * h.h.u_hat, spec.lambda2 * h.h.w_hat)
        assert h.q_form == approx(h.pairing(qh.u_hat, qh.w_hat), rel=1e-14)


class TestBatchIndependence:
    """A row's phi, N0 phi, cubic drift and <x,h>_H do not depend on the batch it sits in.

    The direction is dense, so a pairing by matrix-vector product, whose
    summation order may follow the batch size, would show.  The generator
    runs on the linear drift and on the cubic, whose transforms are row-local.
    """

    @pytest.fixture(scope="class")
    def dense(self, params, spec):
        rng = np.random.default_rng(19)
        n = params.n_modes
        h = CylinderFunction(
            StateH(0.05 * rng.standard_normal(n), 0.05 * rng.standard_normal(n)), params, spec
        )
        assert np.all(h.h.u_hat != 0.0) and np.all(h.h.w_hat != 0.0)
        u, w = 0.3 * np.array(random_coeff_states(256, params, rng))
        return h, u, w

    @pytest.mark.parametrize(
        "form", ["generator", "generator_fhn", "drift_fhn", "phi", "pairing", "inner_H"]
    )
    def test_row_bits_at_every_batch_size(self, params, basis, dense, form):
        h, u, w = dense
        b = run_drift(params, basis, "linear")
        b_fhn = run_drift(params, basis, "fhn")
        fn = {
            "generator": lambda u, w: generator_values(h, u, w, b)[0],
            "generator_fhn": lambda u, w: generator_values(h, u, w, b_fhn)[0],
            "drift_fhn": lambda u, w: b_fhn(u, w)[0],
            "phi": lambda u, w: generator_values(h, u, w, b)[1],
            "pairing": h.pairing,
            "inner_H": lambda u, w: inner_H(u, w, h.h.u_hat, h.h.w_hat, params.gamma),
        }[form]
        alone = fn(u[:1], w[:1])[0]
        assert np.isfinite(alone).all()
        moved = [
            size for size in range(2, 257) if not np.array_equal(fn(u[:size], w[:size])[0], alone)
        ]
        assert not moved, f"row 0 changed bits at batch sizes {moved[:8]}"


class TestGradients:
    """The batched generator that criterion 11 integrates, against closed forms."""

    def test_N0_zero_direction(self, params, basis, spec, rng):
        h = CylinderFunction.from_modes(basis.n_modes, params, spec)
        u, w = random_coeff_states(3, params, rng)
        n0, _ = generator_values(h, u, w, run_drift(params, basis, "fhn"))
        assert np.all(n0 == 0.0)

    def test_out_of_range_exponent_is_nan(self, params, basis, spec):
        h = CylinderFunction.from_modes(basis.n_modes, params, spec, u_modes=[(0, 1.0)])
        u = np.zeros((2, basis.n_modes))
        u[1, 0] = 4.0 * _LOG_GUARD / params.gamma     # <x,h>_H = 4 _LOG_GUARD
        n0, phi = generator_values(h, u, np.zeros_like(u), run_drift(params, basis, "linear"))
        assert phi[0] == 1.0 and np.isfinite(n0[0])
        assert np.isnan(phi[1]) and np.isnan(n0[1])

    def test_N0_decomposes_into_L_plus_F_pairing(self, params, basis, spec, rng):
        h = CylinderFunction.from_modes(basis.n_modes, params, spec, u_modes=[(1, 0.5)])
        u, w = 0.5 * np.array(random_coeff_states(4, params, rng))
        f_hat = basis.to_coeffs(f(basis.to_grid(u), params.xi1))
        f_pair = h.pairing(f_hat, np.zeros_like(f_hat))
        n0, phi = generator_values(h, u, w, run_drift(params, basis, "fhn"))
        l_phi, _ = generator_values(h, u, w, run_drift(params, basis, "linear"))
        assert n0 == approx(l_phi + phi * f_pair, rel=1e-12)

    def test_N0_eps_matches_hand_assembled_drift(self, params, basis, spec, rng):
        # eps > 0 simulates A x + f_{eta,eps}(u) + eta u; assemble it per mode and
        # on the grid without the package's drift kernels
        eps = 0.3
        dp = DriftParams(params.xi1, eps)
        h = CylinderFunction.from_modes(
            basis.n_modes, params, spec, u_modes=[(0, 0.4), (2, -0.3)], w_modes=[(1, 0.2)]
        )
        u, w = 0.5 * np.array(random_coeff_states(6, params, rng))
        ax_u = (basis.mu - params.p_min) * u - w
        ax_w = params.gamma * u - params.alpha * w
        f_hat = f_eta_eps(u @ basis.modes, dp) @ (basis.modes.T * basis.quad_weight)
        b_u = ax_u + f_hat + dp.eta * u
        pair = params.gamma * (b_u @ h.h.u_hat) + ax_w @ h.h.w_hat
        phi = np.exp(params.gamma * (u @ h.h.u_hat) + w @ h.h.w_hat)
        expected = phi * (0.5 * h.q_form + pair)
        n0, _ = generator_values(h, u, w, run_drift(params, basis, "fhn", eps))
        assert n0 == approx(expected, rel=1e-12)
        assert not np.allclose(n0, generator_values(h, u, w, run_drift(params, basis, "fhn"))[0])

    @pytest.mark.parametrize(
        "drift,eps", [("fhn", 0.0), ("fhn", 0.3), ("linear", 0.0), ("linear_eta", 0.0)]
    )
    def test_drift_is_one_integrator_step(self, drift, eps):
        # (X_dt - x)/dt of one noise-free step pairs with h like <b(x),h>_H up to O(dt),
        # with c and p variable so the drift carries the remainder (min p - p) u
        xi = _collocation_grid(64)[0]
        params = ModelParams(
            c_profile=1.0 + 0.5 * xi, p_profile=0.3 + 0.2 * xi * xi, n_modes=16, n_grid=64
        )
        basis = build_eigenbasis(params)
        h = CylinderFunction.from_modes(
            basis.n_modes, params, u_modes=[(0, 0.4), (2, -0.3)], w_modes=[(1, 0.2)]
        )
        # smooth states: coefficients decay like (1 + k)^-2
        decay = (1.0 + np.arange(16)) ** -2.0
        u, w = np.random.default_rng(5).standard_normal((2, 4, 16)) * decay
        x0 = np.stack([u, w], axis=-1)
        dt = 1e-7
        x_dt = _simulate_batch(
            params, basis, None, dt=dt, n_steps=1, start_interval=0, x0=x0, drift=drift,
            eps_by_col=np.full(4, eps), master_seed=0, path_ids=np.arange(4),
        )
        rate = (x_dt - x0) / dt
        n0, phi = generator_values(h, u, w, run_drift(params, basis, drift, eps))
        drift_pair = n0 / phi  # <Qh,h>_H = 0 without a noise spectrum
        assert np.abs(drift_pair).max() > 0.05
        err = np.abs(h.pairing(rate[..., 0], rate[..., 1]) - drift_pair)
        assert err.max() <= 100.0 * dt * np.abs(drift_pair).max()

    def test_L_matches_ou_time_derivative(self, gamma1, rng):
        # d/dt E phi(X_t) at t = 0 for the F-disabled dynamics equals L phi(x)
        params, basis, spec = gamma1
        h = CylinderFunction.from_modes(basis.n_modes, params, spec, u_modes=[(0, 0.4)])
        u, w = 0.3 * np.array(random_coeff_states(3, params, rng))
        l_phi, phi = generator_values(h, u, w, run_drift(params, basis, "linear"))
        dt = 1e-5
        for i in range(3):
            fwd = ou_expectation_exact(h, StateH(u[i], w[i]), dt, params, basis, spec)
            assert l_phi[i] == approx((fwd - phi[i]) / dt, rel=1e-4)

    def test_L_eta_matches_shifted_ou_time_derivative(self, gamma1, rng):
        # the same for the shifted block A_eta, the drift of mode linear_eta
        params, basis, spec = gamma1
        h = CylinderFunction.from_modes(
            basis.n_modes, params, spec, u_modes=[(0, 0.4), (1, 0.2)], w_modes=[(0, 0.3)]
        )
        u, w = 0.3 * np.array(random_coeff_states(3, params, rng))
        l_phi, phi = generator_values(h, u, w, run_drift(params, basis, "linear_eta"))
        plain, _ = generator_values(h, u, w, run_drift(params, basis, "linear"))
        dt = 1e-5
        for i in range(3):
            x = StateH(u[i], w[i])
            fwd = ou_expectation_exact(h, x, dt, params, basis, spec, shifted=True)
            assert l_phi[i] == approx((fwd - phi[i]) / dt, rel=1e-4)
        assert not np.allclose(l_phi, plain)


class TestOUExpectation:
    def test_t_zero(self, gamma1, rng):
        params, basis, spec = gamma1
        h = CylinderFunction.from_modes(basis.n_modes, params, spec, u_modes=[(0, 0.5)])
        u, w = random_coeff_states(1, params, rng)
        x = StateH(u[0], w[0])
        assert ou_expectation_exact(h, x, 0.0, params, basis, spec) == approx(phi_eval(h, x))

    def test_monte_carlo_agreement(self, gamma1):
        params, basis, spec = gamma1
        from fhn_spectral.solver import RECORD_ENDPOINTS, run_ensemble

        h = CylinderFunction.from_modes(basis.n_modes, params, spec, u_modes=[(0, 0.4)])
        x = StateH.zero(basis.n_modes)
        x.u_hat[0] = 0.7
        t = 0.5
        cfg = TrajectoryConfig(
            T=t, dt=1e-3, x0=x, drift="linear", record_every=RECORD_ENDPOINTS, master_seed=44
        )
        arr = run_ensemble(cfg, params, basis, spec, 128).terminal
        vals = h.phi(arr[..., 0], arr[..., 1])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - ou_expectation_exact(h, x, t, params, basis, spec)) <= 3 * se


class TestDynkin:
    def test_t_zero_trivial(self, gamma1):
        params, basis, spec = gamma1
        h = CylinderFunction.from_modes(basis.n_modes, params, spec, u_modes=[(0, 0.4)])
        x = StateH.zero(basis.n_modes)
        x.u_hat[0] = 0.5
        cfg = TrajectoryConfig(T=0.0, dt=1e-3, x0=x)
        rep = dynkin_residual(h, 16, cfg, params, basis, spec)
        assert rep.residual == 0.0 and rep.se == 0.0
        assert rep.phi_start == approx(phi_eval(h, x), rel=1e-15)

    def test_ou_residual_within_se(self, gamma1):
        params, basis, spec = gamma1
        h = CylinderFunction.from_modes(basis.n_modes, params, spec, u_modes=[(0, 0.4)])
        cfg = TrajectoryConfig(T=0.5, dt=1e-3, drift="linear", master_seed=3)
        rep = dynkin_residual(h, 96, cfg, params, basis, spec)
        assert rep.n_rejected == 0
        assert abs(rep.residual) <= 3.0 * rep.se

    def test_cubic_residual_within_se(self, gamma1):
        params, basis, spec = gamma1
        h = CylinderFunction.from_modes(
            basis.n_modes, params, spec, u_modes=[(0, 0.4), (1, 0.3)]
        )
        x = StateH.zero(basis.n_modes)
        x.u_hat[0] = 0.5
        cfg = TrajectoryConfig(T=0.5, dt=1e-3, x0=x, drift="fhn", master_seed=5)
        rep = dynkin_residual(h, 96, cfg, params, basis, spec)
        assert rep.n_rejected == 0
        assert abs(rep.residual) <= 3.0 * rep.se

    def test_overflow_paths_rejected(self, gamma1):
        params, basis, spec = gamma1
        h = CylinderFunction.from_modes(basis.n_modes, params, spec, u_modes=[(0, 4000.0)])
        cfg = TrajectoryConfig(T=1.0, dt=2e-3, drift="linear", master_seed=6)
        rep = dynkin_residual(h, 64, cfg, params, basis, spec)
        assert 0 < rep.n_rejected < 64
        assert rep.n_paths == 64 - rep.n_rejected
