import math

import numpy as np
import pytest
from pytest import approx

from fhn_spectral import ModelParams, NoiseSpec, StateH, TrajectoryConfig, build_eigenbasis
from fhn_spectral.kolmogorov import (
    CylinderFunction,
    DynkinReport,
    apply_L,
    apply_N0,
    dynkin_residual,
    gradient_pairing,
    linear_growth_check_L,
    log_phi,
    ou_expectation_exact,
    phi_eval,
)
from fhn_spectral.model import inner_product_H, random_coeff_states


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
        for i in range(5):
            assert phi_eval(h, StateH(u[i], w[i])) == 1.0

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
        assert log_phi(h, x) == approx(1.0)
        assert phi_eval(h, x) == approx(math.e)

    def test_q_form_identity(self, params, basis, spec):
        h = CylinderFunction.from_modes(
            basis.n_modes, params, spec, u_modes=[(0, 0.5), (2, -0.2)], w_modes=[(1, 0.3)]
        )
        qh = StateH(spec.lambda1 * h.h.u_hat, spec.lambda2 * h.h.w_hat)
        assert h.q_form == approx(inner_product_H(qh, h.h, params), rel=1e-14)

    def test_mode_out_of_range(self, params, spec):
        with pytest.raises(ValueError):
            CylinderFunction.from_modes(8, params, spec, u_modes=[(8, 1.0)])


class TestGradients:
    def test_gradient_matches_finite_difference(self, params, basis, spec, rng):
        h = CylinderFunction.from_modes(
            basis.n_modes, params, spec, u_modes=[(0, 0.4), (1, -0.3)], w_modes=[(0, 0.2)]
        )
        u, w = random_coeff_states(5, params, rng, scale=0.5)
        for i in range(5):
            x = StateH(u[i], w[i])
            uv, wv = random_coeff_states(1, params, rng, scale=0.5)
            v = StateH(uv[0], wv[0])
            eps = 1e-6
            xp = StateH(x.u_hat + eps * v.u_hat, x.w_hat + eps * v.w_hat)
            xm = StateH(x.u_hat - eps * v.u_hat, x.w_hat - eps * v.w_hat)
            fd = (phi_eval(h, xp) - phi_eval(h, xm)) / (2 * eps)
            assert gradient_pairing(h, x, v, params) == approx(fd, rel=1e-6)

    def test_N0_zero_direction(self, params, basis, spec, rng):
        h = CylinderFunction.from_modes(basis.n_modes, params, spec)
        u, w = random_coeff_states(3, params, rng)
        for i in range(3):
            assert apply_N0(h, StateH(u[i], w[i]), params, basis) == 0.0

    def test_N0_decomposes_into_L_plus_F_pairing(self, params, basis, spec, rng):
        from fhn_spectral.nonlinearity import DriftParams, apply_F

        h = CylinderFunction.from_modes(basis.n_modes, params, spec, u_modes=[(1, 0.5)])
        u, w = random_coeff_states(4, params, rng, scale=0.5)
        dp = DriftParams.from_params(params)
        for i in range(4):
            x = StateH(u[i], w[i])
            f_pair = inner_product_H(apply_F(x, dp, basis), h.h, params)
            expected = apply_L(h, x, params, basis) + phi_eval(h, x) * f_pair
            assert apply_N0(h, x, params, basis) == approx(expected, rel=1e-12)

    def test_L_matches_ou_time_derivative(self, gamma1, rng):
        # d/dt E phi(X_t) at t = 0 for the F-disabled dynamics equals L phi(x)
        params, basis, spec = gamma1
        h = CylinderFunction.from_modes(basis.n_modes, params, spec, u_modes=[(0, 0.4)])
        u, w = random_coeff_states(3, params, rng, scale=0.3)
        for i in range(3):
            x = StateH(u[i], w[i])
            dt = 1e-5
            fwd = ou_expectation_exact(h, x, dt, params, basis, spec)
            deriv = (fwd - phi_eval(h, x)) / dt
            assert apply_L(h, x, params, basis) == approx(deriv, rel=1e-4)


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
        vals = np.exp(h.pairing(arr[..., 0], arr[..., 1]))
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


class TestGrowthEnvelope:
    def test_zero_direction_trivial(self, params, basis, spec, rng):
        h = CylinderFunction.from_modes(basis.n_modes, params, spec)
        env = linear_growth_check_L(h, params, basis, rng, n_fit=200, n_fresh=200)
        assert env.a == 0.0 and env.b == 0.0
        assert env.fit_violation <= 0.0 and env.fresh_violation <= 0.0

    def test_small_direction_envelope_holds(self, params, basis, spec):
        rng = np.random.default_rng(2024)
        h = CylinderFunction.from_modes(basis.n_modes, params, spec, u_modes=[(0, 0.05)])
        env = linear_growth_check_L(h, params, basis, rng, n_fit=1500, n_fresh=1500)
        assert np.isfinite(env.a) and np.isfinite(env.b)
        assert env.fit_violation <= 0.0
        assert env.fresh_violation <= 0.0

    def test_doubled_direction_refit_finite(self, params, basis, spec):
        rng = np.random.default_rng(7)
        h2 = CylinderFunction.from_modes(basis.n_modes, params, spec, u_modes=[(0, 0.1)])
        env = linear_growth_check_L(h2, params, basis, rng, n_fit=800, n_fresh=800)
        assert np.isfinite(env.a) and np.isfinite(env.b)
        assert env.b > 0.0
