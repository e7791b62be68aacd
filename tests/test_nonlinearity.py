import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from fhn_spectral import (
    DriftParams,
    ModelParams,
    StateH,
    apply_A,
    apply_F,
    build_eigenbasis,
    f,
    f_eta,
    f_eta_eps,
    f_eta_eps_prime,
    h_eps,
    inner_product_H,
    monotonicity_gap,
)
from fhn_spectral.model import norm_H_sq_arrays, random_coeff_states
from fhn_spectral.nonlinearity import apply_F_arrays

DP = DriftParams(xi1=0.5)


class TestScalarDrift:
    def test_roots(self):
        assert f(0.0, 0.5) == 0.0
        assert f(1.0, 0.5) == 0.0
        assert f(0.5, 0.5) == 0.0

    @pytest.mark.parametrize("u,expected", [(2.0, -3.0), (0.25, -0.046875)])
    def test_values(self, u, expected):
        assert f(u, 0.5) == approx(expected)

    def test_f_eta_zero(self):
        assert f_eta(0.0, DP) == 0.0

    def test_f_eta_both_forms(self):
        # f(2) - eta*2 and -(2-xi0)^3 - xi0^3 agree at -3.5
        assert f_eta(2.0, DP) == approx(-3.5)
        assert -(2.0 - DP.xi0) ** 3 - DP.xi0**3 == approx(-3.5)

    @settings(max_examples=300, deadline=None)
    @given(u=st.floats(-10, 10), xi1=st.floats(0.01, 0.99))
    def test_f_eta_identity(self, u, xi1):
        dp = DriftParams(xi1)
        v = u - dp.xi0
        closed = -(v * v * v) - dp.xi0**3
        assert abs(f_eta(u, dp) - closed) <= 1e-12 * (1.0 + abs(u) ** 3)

    def test_sup_f_prime_is_eta(self):
        # the window contains xi0 for every xi1 and the spacing keeps the
        # grid-resolution error ~3 delta^2 well under the tolerance
        rng = np.random.default_rng(11)
        u = np.linspace(-2.0, 3.0, 2_000_001)
        for xi1 in rng.uniform(0.02, 0.98, 20):
            dp = DriftParams(xi1)
            fp = -3.0 * u * u + 2.0 * (1.0 + xi1) * u - xi1
            assert abs(fp.max() - dp.eta) < 1e-8


class TestRegularization:
    def test_eps_zero_degenerate(self):
        u = np.linspace(-5, 5, 101)
        assert np.array_equal(f_eta_eps(u, DP), f_eta(u, DP))

    def test_direct_value(self):
        dp = DriftParams(0.5, eps=0.1)
        assert f_eta_eps(2.0, dp) == approx(-3.5 / 1.25)

    @pytest.mark.parametrize("eps", [0.0, 0.01, 1.0, 50.0])
    def test_shared_root_at_zero(self, eps):
        assert f_eta_eps(0.0, DriftParams(0.5, eps)) == 0.0

    def test_denominator_positive_everywhere(self):
        # discriminant of the quadratic is xi0^2 - 4 < 0, so this never trips
        u = np.linspace(-1e4, 1e4, 100001)
        for xi1 in (0.05, 0.5, 0.95):
            for eps in (0.0, 1.0, 100.0):
                dp = DriftParams(xi1, eps)
                den = 1.0 + eps * (1.0 - dp.xi0 * (u - dp.xi0) + (u - dp.xi0) ** 2)
                assert den.min() >= 1.0

    def test_prime_matches_finite_difference(self):
        dp = DriftParams(0.5, eps=0.1)
        h = 1e-5
        for u in (2.0, -3.0, 0.5, 10.0):
            fd = (f_eta_eps(u + h, dp) - f_eta_eps(u - h, dp)) / (2 * h)
            an = f_eta_eps_prime(u, dp)
            assert an == approx(fd, rel=1e-6, abs=1e-8)

    def test_prime_nonpositive_scan(self):
        u = np.linspace(-50, 50, 400001)
        for eps in (1e-3, 1e-1, 1.0):
            vals = f_eta_eps_prime(u, DriftParams(0.5, eps))
            assert vals.max() <= 1e-12

    def test_prime_at_inflection(self):
        dp = DriftParams(0.5, eps=0.2)
        assert f_eta_eps_prime(dp.xi0, dp) <= 0.0

    def test_eps_convergence_order(self):
        # |f_eta_eps - f_eta| = |f_eta| eps q/(1 + eps q) is linear in eps once
        # eps q < 1; the uniform bound eps |f_eta| q holds for every eps
        for u in (2.0, -1.5, 0.3):
            v = u - DP.xi0
            q = 1.0 - DP.xi0 * v + v * v
            k_u = abs(f_eta(u, DP)) * q
            eps = 2.0 ** -np.arange(4, 13)
            diffs = np.array(
                [abs(f_eta_eps(u, DriftParams(0.5, e)) - f_eta(u, DP)) for e in eps]
            )
            assert np.all(diffs <= eps * k_u + 1e-15)
            slope = np.polyfit(np.log(eps), np.log(diffs), 1)[0]
            assert slope >= 0.95

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DriftParams(0.5, eps=-1.0)
        with pytest.raises(ValueError):
            DriftParams(1.5)


class TestHEps:
    def test_root_at_inflection(self):
        assert h_eps(DP.xi0, DriftParams(0.5, 1.0)) == 0.0

    def test_eps_zero_value(self):
        assert h_eps(2.0, DP) == approx(-3.375)

    def test_cbrt_shift_bound(self):
        # |u - xi0 + h_eps^{1/3}| <= (eps/3) |u - xi0| (1 - xi0(u-xi0) + (u-xi0)^2);
        # the sharp elementary form of the regularization-displacement bound
        u = np.linspace(-10, 10, 40001)
        for xi1 in (0.2, 0.5, 0.8):
            for eps in (0.01, 0.3, 1.0):
                dp = DriftParams(xi1, eps)
                v = u - dp.xi0
                h_val = h_eps(u, dp)
                lhs = np.abs(v + np.cbrt(h_val))
                q = 1.0 - dp.xi0 * v + v * v
                assert (lhs <= (eps / 3.0) * np.abs(v) * q + 1e-12).all()

    def test_one_sided_pair_estimate(self):
        # (f_eps(u) - f_lam(v))(u - v) <= C (eps+lam) (|h_eps(u)|^2 + |h_lam(v)|^2
        #   + |u-v| + |u-xi0|^2 + |v-xi0|^2 + |u-xi0|^3 + |v-xi0|^3) with C = 1
        rng = np.random.default_rng(5)
        for xi1 in (0.1, 0.5, 0.9):
            dp0 = DriftParams(xi1)
            for _ in range(40):
                eps, lam = rng.uniform(0.0, 1.0, 2)
                u = rng.uniform(-10, 10, 500)
                v = rng.uniform(-10, 10, 500)
                lhs = (f_eta_eps(u, DriftParams(xi1, eps)) - f_eta_eps(v, DriftParams(xi1, lam))) * (u - v)
                xu, xv = u - dp0.xi0, v - dp0.xi0
                rhs = (eps + lam) * (
                    h_eps(u, DriftParams(xi1, eps)) ** 2
                    + h_eps(v, DriftParams(xi1, lam)) ** 2
                    + np.abs(u - v)
                    + xu * xu
                    + xv * xv
                    + np.abs(xu) ** 3
                    + np.abs(xv) ** 3
                )
                assert (lhs <= rhs + 1e-12).all()


class TestApplyF:
    def test_zero_state(self, params, basis):
        out = apply_F(StateH.zero(basis.n_modes), DP, basis)
        assert np.all(out.u_hat == 0.0) and np.all(out.w_hat == 0.0)

    def test_constant_field_reduces_to_scalar(self, params, basis):
        ubar = 0.7
        x = StateH.zero(basis.n_modes)
        x.u_hat[0] = ubar  # e_0 = 1 on [0,1]
        out = apply_F(x, DP, basis)
        assert out.u_hat[0] == approx(f(ubar, 0.5), abs=1e-10)
        assert np.abs(out.u_hat[1:]).max() < 1e-10

    def test_growth_envelope(self, params, basis, rng):
        # |F_eta(x)|_H <= C (1 + |u|_{L6}^3): fit C on one sample, hold on a fresh one
        def sample(n):
            u, _ = random_coeff_states(n, params, rng, scale=2.0)
            f_hat = apply_F_arrays(u, DP, basis, kind="eta")
            f_norm = np.sqrt(params.gamma * (f_hat * f_hat).sum(axis=1))
            u_grid = basis.to_grid(u)
            l6 = (basis.quad_weight * (u_grid**6).sum(axis=1)) ** (1.0 / 6.0)
            return f_norm / (1.0 + l6**3)

        c_fit = sample(400).max()
        assert np.isfinite(c_fit)
        assert sample(400).max() <= 1.2 * c_fit

    def test_unknown_kind(self, params, basis):
        with pytest.raises(ValueError):
            apply_F(StateH.zero(basis.n_modes), DP, basis, kind="quartic")


class TestMonotonicity:
    def test_gap_zero_for_equal_states(self, params, basis, rng):
        u, w = random_coeff_states(1, params, rng)
        x = StateH(u[0], w[0])
        assert monotonicity_gap(x, x, DP, params, basis) == 0.0

    def test_gap_nonpositive_random_pairs(self, params, basis, rng):
        dp = DriftParams.from_params(params)
        ux, wx = random_coeff_states(1000, params, rng)
        uy, wy = random_coeff_states(1000, params, rng)
        fx = apply_F_arrays(ux, dp, basis, kind="eta")
        fy = apply_F_arrays(uy, dp, basis, kind="eta")
        gap = params.gamma * ((fx - fy) * (ux - uy)).sum(axis=1)
        diff = norm_H_sq_arrays(ux - uy, wx - wy, params.gamma)
        assert np.all(gap <= 1e-9 * (1.0 + diff))

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(-8, 8), b=st.floats(-8, 8), xi1=st.floats(0.05, 0.95))
    def test_scalar_reduction(self, a, b, xi1):
        dp = DriftParams(xi1)
        assert (f_eta(a, dp) - f_eta(b, dp)) * (a - b) <= 1e-12 * (1 + (a - b) ** 2)

    def test_combined_dissipativity(self, params, basis, rng):
        # <(A+F)x - (A+F)y, x - y>_H <= -omega |x-y|_H^2 on random pairs
        dc = params.derived()
        ux, wx = random_coeff_states(300, params, rng)
        uy, wy = random_coeff_states(300, params, rng)
        for i in range(0, 300, 7):
            x = StateH(ux[i], wx[i])
            y = StateH(uy[i], wy[i])
            ax, ay = apply_A(x, params, basis), apply_A(y, params, basis)
            fx, fy = apply_F(x, DP, basis), apply_F(y, DP, basis)
            d = StateH(x.u_hat - y.u_hat, x.w_hat - y.w_hat)
            total = StateH(
                ax.u_hat - ay.u_hat + fx.u_hat - fy.u_hat,
                ax.w_hat - ay.w_hat + fx.w_hat - fy.w_hat,
            )
            lhs = inner_product_H(total, d, params)
            d_sq = inner_product_H(d, d, params)
            assert lhs <= -dc.omega * d_sq + 1e-9 * d_sq

