import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from fhn_spectral import (
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
from fhn_spectral.model import (
    DCT_MIN_MODES,
    DerivedConstants,
    _apply_A_arrays,
    norm_H_sq_arrays,
    norm_H_sq_quadrature,
    norm_V_sq_arrays,
    random_coeff_states,
)


class TestModelParams:
    def test_defaults_valid(self, params):
        assert params.c_is_constant and params.p_is_constant
        assert params.c_min == 1.0 and params.p_min == approx(0.3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": -1.0},
            {"gamma": 0.0},
            {"xi1": 0.0},
            {"xi1": 1.0},
            {"n_grid": 40},                      # < 2*n_modes
            {"p_profile": 0.2},                  # 3p < xi1^2-xi1+1
            {"c_profile": -1.0},
            {"p_profile": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_profile_table_wrong_length(self):
        with pytest.raises(ValueError):
            ModelParams(c_profile=np.ones(10))

    def test_derived_constants_defaults(self, params):
        dc = params.derived()
        assert dc.eta == approx(0.25)
        assert dc.xi0 == approx(0.5)
        assert dc.omega == approx(0.05)
        assert dc.omega1 == approx(0.05)
        assert dc.omega2 == approx(0.05)
        assert dc.omega2 <= dc.omega1

    def test_eta_is_max_of_f_prime(self):
        # numeric max of f' on a fine grid hits eta at xi0
        rng = np.random.default_rng(7)
        for xi1 in rng.uniform(0.05, 0.95, 5):
            dc = DerivedConstants.from_params(ModelParams(xi1=xi1, p_profile=0.5))
            u = np.linspace(-1.0, 2.0, 1_000_001)
            fprime = -3.0 * u * u + 2.0 * (1.0 + xi1) * u - xi1
            k = int(np.argmax(fprime))
            assert fprime[k] == approx(dc.eta, abs=1e-10)
            assert abs(u[k] - dc.xi0) < 5e-6


class TestEigenbasis:
    def test_constant_c_cosine_family(self, params, basis):
        assert basis.mu[0] == 0.0
        assert basis.mu[1] == approx(-math.pi**2, rel=1e-12)
        assert np.allclose(basis.modes[0], 1.0)
        assert basis.sup_bound == approx(math.sqrt(2.0))
        assert np.all(np.diff(basis.mu) < 0)

    def test_constant_c_scales_with_c(self):
        p = ModelParams(c_profile=2.5)
        b = build_eigenbasis(p)
        assert b.mu[3] == approx(-2.5 * 9 * math.pi**2, rel=1e-12)

    def test_gram_orthonormal(self, basis):
        gram = basis.modes @ basis.modes.T * basis.quad_weight
        assert np.abs(gram - np.eye(basis.n_modes)).max() < 1e-12

    def test_variable_c_basis(self):
        p = ModelParams(c_profile=lambda x: 1.0 + 0.5 * x, n_modes=8, n_grid=64)
        b = build_eigenbasis(p)
        assert not b.constant_c
        gram = b.modes @ b.modes.T * b.quad_weight
        assert np.abs(gram - np.eye(8)).max() < 1e-8
        assert b.mu[0] == approx(0.0, abs=1e-6)
        assert np.all(np.diff(b.mu) <= 1e-12)
        assert np.all(b.mu <= 0.0)

    def test_variable_c_grid_refinement(self):
        # eigenvalues of the leading modes are grid-converged: the M-point and
        # 2M-point discretizations agree to 1e-6 relative on a fine mesh
        mus = {}
        for m_grid in (8192, 16384):
            p = ModelParams(c_profile=lambda x: 1.0 + 0.5 * x, n_modes=8, n_grid=m_grid)
            mus[m_grid] = build_eigenbasis(p).mu
        coarse, fine = mus[8192], mus[16384]
        # mode 0 sits at the eigensolver's floating-point floor, which scales
        # with the matrix norm ~ c/h^2
        assert abs(coarse[0] - fine[0]) < 1e-7
        rel = np.abs(coarse[1:] - fine[1:]) / np.abs(fine[1:])
        assert rel.max() < 1e-6

    def test_variable_c_matches_constant_limit(self):
        p = ModelParams(c_profile=np.full(2048, 1.0) + 0.0, n_modes=4, n_grid=2048)
        pv = ModelParams(c_profile=lambda x: 1.0 + 1e-12 * x, n_modes=4, n_grid=2048)
        b = build_eigenbasis(pv)
        assert b.mu[1] == approx(-math.pi**2, rel=1e-5)


class TestDctTransforms:
    """The DCT path of a wide cosine basis against the mode-table matmul."""

    @pytest.mark.parametrize("n", [DCT_MIN_MODES, 1024])
    def test_matches_mode_table(self, n, rng):
        b = build_eigenbasis(ModelParams(n_modes=n, n_grid=2 * n))
        assert b.dct
        x = rng.standard_normal((5, n, 2))
        g = rng.standard_normal((5, 2 * n, 2))
        proj = b.modes.T * b.quad_weight
        cases = [
            (x[0, :, 0], g[0, :, 0]),                  # 1-D
            (x[..., 0].copy(), g[..., 0].copy()),      # contiguous (B, N)
            (x[..., 0], g[..., 0]),                    # strided view
        ]
        for coeffs, values in cases:
            want_grid = coeffs @ b.modes
            got_grid = b.to_grid(coeffs)
            assert got_grid.shape == want_grid.shape
            assert np.abs(got_grid - want_grid).max() <= 1e-12 * np.abs(want_grid).max()
            want_coeffs = values @ proj
            got_coeffs = b.to_coeffs(values)
            assert got_coeffs.shape == want_coeffs.shape
            assert np.abs(got_coeffs - want_coeffs).max() <= 1e-12 * np.abs(want_coeffs).max()
            round_trip = b.to_coeffs(b.to_grid(coeffs))
            assert np.abs(round_trip - coeffs).max() <= 1e-12 * np.abs(coeffs).max()

    def test_matmul_below_threshold_and_for_variable_c(self):
        narrow = build_eigenbasis(ModelParams())
        assert narrow.constant_c and not narrow.dct
        varying = build_eigenbasis(
            ModelParams(c_profile=lambda x: 1.0 + 0.5 * x, n_modes=DCT_MIN_MODES,
                        n_grid=2 * DCT_MIN_MODES)
        )
        assert not varying.constant_c and not varying.dct


class TestStateAndNorms:
    def test_zero_inner_product(self, params, basis):
        x = StateH.zero(basis.n_modes)
        assert inner_product_H(x, x, params) == 0.0
        assert norm_V_sq(x, params, basis) == 0.0

    def test_mode0_inner_product(self, params, basis):
        # gamma = 0.5, x = y = (e0, 0) -> 0.5
        x = StateH.zero(basis.n_modes)
        x.u_hat[0] = 1.0
        assert inner_product_H(x, x, params) == approx(0.5)

    def test_symmetry_random(self, params, basis, rng):
        u1, w1 = random_coeff_states(10, params, rng)
        u2, w2 = random_coeff_states(10, params, rng)
        for i in range(10):
            x = StateH(u1[i], w1[i])
            y = StateH(u2[i], w2[i])
            assert inner_product_H(x, y, params) == approx(
                inner_product_H(y, x, params), rel=1e-12
            )

    def test_dimension_mismatch(self, params):
        with pytest.raises(ValueError):
            inner_product_H(StateH.zero(4), StateH.zero(8), params)

    def test_norm_V_mode1(self, params, basis):
        # gamma(|e1|^2 + |e1'|^2) = 0.5 (1 + pi^2)
        x = StateH.zero(basis.n_modes)
        x.u_hat[1] = 1.0
        assert norm_V_sq(x, params, basis) == approx(0.5 * (1.0 + math.pi**2), rel=1e-12)

    def test_norm_V_dominates_H(self, params, basis, rng):
        u, w = random_coeff_states(200, params, rng)
        v_sq = norm_V_sq_arrays(u, w, params, basis)
        h_sq = norm_H_sq_arrays(u, w, params.gamma)
        assert np.all(v_sq >= h_sq * (1.0 - 1e-12))

    def test_parseval(self, params, basis, rng):
        u, w = random_coeff_states(50, params, rng)
        for i in range(50):
            x = StateH(u[i], w[i])
            spectral = norm_H_sq(x, params)
            quadrature = norm_H_sq_quadrature(x, params, basis)
            assert quadrature == approx(spectral, rel=1e-8)

    def test_parseval_variable_c(self, rng):
        p = ModelParams(c_profile=lambda x: 1.0 + 0.3 * np.sin(2 * np.pi * x), n_modes=8, n_grid=32)
        b = build_eigenbasis(p)
        u, w = random_coeff_states(20, p, rng)
        for i in range(20):
            x = StateH(u[i], w[i])
            assert norm_H_sq_quadrature(x, p, b) == approx(norm_H_sq(x, p), rel=1e-8)

    def test_cross_term_cancellation(self, params, basis, rng):
        # gamma<-w,u> + <gamma u, w> = 0: the weighted product kills the coupling
        u, w = random_coeff_states(100, params, rng)
        cross = params.gamma * (-w * u).sum(axis=1) + (params.gamma * u * w).sum(axis=1)
        scale = np.abs(params.gamma * u * w).sum(axis=1) + 1e-300
        assert np.abs(cross / scale).max() < 1e-13

    def test_state_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            StateH(np.array([1.0, np.nan]), np.zeros(2))


class TestDriftOperator:
    def test_apply_A_zero(self, params, basis):
        out = apply_A(StateH.zero(basis.n_modes), params, basis)
        assert np.all(out.u_hat == 0) and np.all(out.w_hat == 0)

    def test_apply_A_mode1(self, params, basis):
        # u = e1, w = 0 -> ((mu_1 - p) e1, gamma e1)
        x = StateH.zero(basis.n_modes)
        x.u_hat[1] = 1.0
        out = apply_A(x, params, basis)
        assert out.u_hat[1] == approx(-math.pi**2 - 0.3, rel=1e-12)
        assert out.w_hat[1] == approx(0.5)
        mask = np.ones(basis.n_modes, bool)
        mask[1] = False
        assert np.abs(out.u_hat[mask]).max() == 0.0

    def test_dissipativity_H_norm(self, params, basis, rng):
        dc = params.derived()
        u, w = random_coeff_states(1000, params, rng)
        au, aw = _apply_A_arrays(u, w, params, basis, eta_shift=dc.eta)
        lhs = params.gamma * (au * u).sum(axis=1) + (aw * w).sum(axis=1)
        h_sq = norm_H_sq_arrays(u, w, params.gamma)
        assert np.all(lhs <= -dc.omega1 * h_sq + 1e-9 * h_sq)

    def test_dissipativity_V_norm_variable_coeffs(self, rng):
        p = ModelParams(
            c_profile=lambda x: 1.0 + 0.5 * x,
            p_profile=lambda x: 0.3 + 0.2 * x * x,
            n_modes=16,
            n_grid=64,
        )
        b = build_eigenbasis(p)
        dc = p.derived()
        u, w = random_coeff_states(1000, p, rng)
        au, aw = _apply_A_arrays(u, w, p, b, eta_shift=dc.eta)
        lhs = p.gamma * (au * u).sum(axis=1) + (aw * w).sum(axis=1)
        v_sq = norm_V_sq_arrays(u, w, p, b)
        h_sq = norm_H_sq_arrays(u, w, p.gamma)
        assert np.all(lhs <= -dc.omega2 * v_sq + 1e-9 * v_sq)
        assert np.all(lhs <= -dc.omega1 * h_sq + 1e-9 * h_sq)

    def test_apply_A_eta_shift(self, params, basis, rng):
        u, w = random_coeff_states(5, params, rng)
        x = StateH(u[0], w[0])
        eta = params.derived().eta
        plain = apply_A(x, params, basis)
        shifted = apply_A_eta(x, params, basis)
        assert shifted.u_hat == approx(plain.u_hat + eta * x.u_hat)
        assert shifted.w_hat == approx(plain.w_hat)


class TestModeMatrix:
    def test_mode0_matrix(self, params, basis):
        m = mode_matrix(0, params, basis)
        assert m == approx(np.array([[-0.3, -1.0], [0.5, -1.0]]))

    def test_mode0_matrix_eta(self, params, basis):
        m = mode_matrix_eta(0, params, basis)
        assert m == approx(np.array([[-0.05, -1.0], [0.5, -1.0]]))

    def test_all_modes_hurwitz(self, params, basis):
        abscissa = []
        dominant = []
        for k in range(basis.n_modes):
            eigs = np.linalg.eigvals(mode_matrix(k, params, basis))
            abscissa.append(eigs.real.max())
            dominant.append(eigs.real.min())
        # stability, with the numerical-range bound Re <= -min(p, alpha)
        assert max(abscissa) < 0.0
        assert max(abscissa) <= -min(params.p_min, params.alpha) + 1e-12
        # the dominant (diffusion-driven) rate only deepens with the mode index
        assert np.all(np.diff(dominant) <= 1e-12)

    def test_variable_p_rejected(self):
        p = ModelParams(p_profile=lambda x: 0.3 + 0.1 * x, n_modes=4, n_grid=16)
        b = build_eigenbasis(p)
        with pytest.raises(ValueError):
            mode_matrix(0, p, b)

    def test_out_of_range(self, params, basis):
        with pytest.raises(ValueError):
            mode_matrix(basis.n_modes, params, basis)


@settings(max_examples=50, deadline=None)
@given(
    gamma=st.floats(0.01, 10.0),
    uw=st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
)
def test_inner_product_bilinear_symmetric(gamma, uw):
    p = ModelParams(gamma=gamma, n_modes=2, n_grid=4)
    x = StateH(np.array([uw[0], uw[1]]), np.array([uw[2], uw[3]]))
    y = StateH(np.array([uw[3], uw[2]]), np.array([uw[1], uw[0]]))
    assert inner_product_H(x, y, p) == approx(inner_product_H(y, x, p), rel=1e-12, abs=1e-12)
