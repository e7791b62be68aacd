import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from fhn_spectral.model import (
    DCT_MIN_MODES,
    DerivedConstants,
    EigenbasisError,
    ModelParams,
    StateH,
    _check_basis,
    _collocation_grid,
    build_eigenbasis,
    inner_H,
    mode_matrices,
    norm_H_sq_arrays,
    norm_V_sq_arrays,
    random_coeff_states,
)
from fhn_spectral.solver import run_drift

# profiles are scalars or grid tables; these tabulate c(xi) = 1 + xi/2 and
# p(xi) = 0.3 + 0.2 xi^2 on the midpoint grids of 64 and 512 points
_XI64, _XI512 = _collocation_grid(64)[0], _collocation_grid(512)[0]


def norm_H_sq_quadrature(u_hat, w_hat, params, basis):
    """|x|_H^2 through grid values: the Parseval counterpart of ``norm_H_sq_arrays``."""
    u = basis.to_grid(u_hat)
    w = basis.to_grid(w_hat)
    h = basis.quad_weight
    return params.gamma * h * (u * u).sum(axis=-1) + h * (w * w).sum(axis=-1)


def pairing_H(x, y, params):
    """<x, y>_H as the program forms it: ``model.inner_H``."""
    return float(inner_H(x.u_hat, x.w_hat, y.u_hat, y.w_hat, params.gamma))


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
        p = ModelParams(c_profile=1.0 + 0.5 * _XI64, n_modes=8, n_grid=64)
        b = build_eigenbasis(p)
        assert not b.constant_c
        gram = b.modes @ b.modes.T * b.quad_weight
        assert np.abs(gram - np.eye(8)).max() < 1e-8
        assert b.mu[0] == approx(0.0, abs=1e-6)
        assert np.all(np.diff(b.mu) <= 1e-12)
        assert np.all(b.mu <= 0.0)

    # modes past the first row block of the check must be named by their own index
    @pytest.mark.parametrize(
        "n,k", [(32, 3), (128, 100), (DCT_MIN_MODES, 3), (DCT_MIN_MODES, 200)]
    )
    def test_check_rejects_a_scaled_mode(self, n, k):
        # the defect is planted in an explicit table, which the check reads
        # instead of the cosines a DCT basis evaluates
        b = build_eigenbasis(ModelParams(n_modes=n, n_grid=2 * n))
        modes = b.mode_rows(0, n).copy()
        modes[k] *= 1.0 + 1e-6
        planted = replace(b, modes=modes)
        assert planted.dct == b.dct == (n >= DCT_MIN_MODES)
        with pytest.raises(EigenbasisError, match=rf"<e_{k}, e_{k}>"):
            _check_basis(planted)

    @pytest.mark.parametrize("n", [32, DCT_MIN_MODES])
    def test_check_rejects_a_nan_mode_entry(self, n):
        # a NaN Gram entry never exceeds the bound, so the check must look for it
        b = build_eigenbasis(ModelParams(n_modes=n, n_grid=2 * n))
        modes = b.mode_rows(0, n).copy()
        modes[3, 5] = np.nan
        planted = replace(b, modes=modes)
        assert planted.dct == b.dct == (n >= DCT_MIN_MODES)
        with pytest.raises(EigenbasisError, match=r"<e_\d+, e_\d+> - delta\| = nan"):
            _check_basis(planted)

    def test_wide_cosine_build_holds_no_table(self):
        # a DCT basis stores no (N, M) table and the Gram check evaluates its
        # rows in blocks, so an N = 1024 build peaks at a quarter of the 16 MiB table
        params = ModelParams(n_modes=1024, n_grid=2048)
        tracemalloc.start()
        try:
            b = build_eigenbasis(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
        assert b.dct and b.modes is None

    def test_variable_c_build_peaks_at_two_tables(self):
        # LAPACK's eigenvectors and the scaled table are the only two (N, M)
        # arrays alive at once; a reversed copy of the eigenvectors, a table
        # kept beside its scaled copy or a table-sized |modes| makes three
        params = ModelParams(c_profile=1.0 + 0.5 * _XI512, n_modes=256, n_grid=512)
        build_eigenbasis(ModelParams(c_profile=1.0 + 0.5 * _XI64, n_modes=8))  # loads scipy.linalg
        tracemalloc.start()
        try:
            b = build_eigenbasis(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table_bytes = b.modes.nbytes
        assert table_bytes == 2**20
        assert peak < 2.5 * table_bytes
        # the table keeps the layout its matmuls have always seen
        assert b.modes.flags.f_contiguous and b.sup_bound == np.abs(b.modes).max()

    @pytest.mark.parametrize("n", [DCT_MIN_MODES, 300, 1024])
    def test_mode_rows_are_the_cosine_table(self, n):
        # bitwise the full-table expression, in the check's 64-row blocks
        # (300 ends on a partial block), in one call
        params = ModelParams(n_modes=n, n_grid=2 * n)
        b = build_eigenbasis(params)
        k = np.arange(n)
        table = np.outer(k * np.pi, params.xi)
        np.cos(table, out=table)
        table[1:] *= math.sqrt(2.0)
        blocks = np.concatenate([b.mode_rows(s, s + 64) for s in range(0, n, 64)])
        assert blocks.shape == table.shape
        assert np.array_equal(blocks.view(np.int64), table.view(np.int64))
        assert np.array_equal(b.mode_rows(0, n).view(np.int64), table.view(np.int64))
        # and in `eigen`'s blocks of 64 grid points
        columns = [b.mode_rows(0, n, slice(s, s + 64)) for s in range(0, 2 * n, 64)]
        assert np.array_equal(np.hstack(columns).view(np.int64), table.view(np.int64))

    def test_only_a_dct_basis_omits_its_table(self):
        # replace() recomputes dct, so a variable-c basis can never take the
        # DCT path, and without a table it cannot be built at all
        wide = build_eigenbasis(ModelParams(n_modes=DCT_MIN_MODES, n_grid=2 * DCT_MIN_MODES))
        table = wide.mode_rows(0, wide.n_modes)
        varying = replace(wide, constant_c=False, modes=table, deriv_sq=None)
        assert not varying.dct
        with pytest.raises(ValueError, match="mode table"):
            replace(varying, modes=None)
        with pytest.raises(ValueError, match="mode table"):
            replace(build_eigenbasis(ModelParams()), modes=None)

    def test_variable_c_grid_refinement(self):
        # eigenvalues of the leading modes are grid-converged: the M-point and
        # 2M-point discretizations agree to 1e-6 relative on a fine mesh
        mus = {}
        for m_grid in (8192, 16384):
            xi = _collocation_grid(m_grid)[0]
            p = ModelParams(c_profile=1.0 + 0.5 * xi, n_modes=8, n_grid=m_grid)
            mus[m_grid] = build_eigenbasis(p).mu
        coarse, fine = mus[8192], mus[16384]
        # mode 0 sits at the eigensolver's floating-point floor, which scales
        # with the matrix norm ~ c/h^2
        assert abs(coarse[0] - fine[0]) < 1e-7
        rel = np.abs(coarse[1:] - fine[1:]) / np.abs(fine[1:])
        assert rel.max() < 1e-6

    def test_variable_c_matches_constant_limit(self):
        p = ModelParams(c_profile=np.full(2048, 1.0) + 0.0, n_modes=4, n_grid=2048)
        xi = _collocation_grid(2048)[0]
        pv = ModelParams(c_profile=1.0 + 1e-12 * xi, n_modes=4, n_grid=2048)
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
        table = b.mode_rows(0, n)
        proj = table.T * b.quad_weight
        cases = [
            (x[0, :, 0], g[0, :, 0]),                  # 1-D
            (x[..., 0].copy(), g[..., 0].copy()),      # contiguous (B, N)
            (x[..., 0], g[..., 0]),                    # strided view
        ]
        for coeffs, values in cases:
            want_grid = coeffs @ table
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
            ModelParams(c_profile=1.0 + 0.5 * _XI512, n_modes=DCT_MIN_MODES,
                        n_grid=2 * DCT_MIN_MODES)
        )
        assert not varying.constant_c and not varying.dct


class TestMatmulTransforms:
    """A matmul basis holds one table; its projection and V-norm read it alone."""

    _BASES = {
        "default": {},
        "n8": dict(n_modes=8, n_grid=16),
        "n64": dict(n_modes=64, n_grid=128),
        "variable-c": dict(n_modes=32, n_grid=64, c_profile=1.0 + 0.5 * _XI64),
    }

    @pytest.mark.parametrize("name", list(_BASES))
    def test_projection_is_the_scaled_table_product(self, name, rng):
        # on a power-of-two grid the weight 1/M scales exactly, so projecting
        # a row by the table's transpose and scaling after has the bits of
        # that row's product with the pre-scaled transpose, at any batch shape
        b = build_eigenbasis(ModelParams(**self._BASES[name]))
        assert not b.dct and b.n_grid & (b.n_grid - 1) == 0
        proj = b.modes.T * b.quad_weight
        for shape in [(b.n_grid,), (5, b.n_grid), (3, 4, b.n_grid)]:
            values = rng.standard_normal(shape)
            got = b.to_coeffs(values)
            assert got.shape == shape[:-1] + (b.n_modes,)
            rows = got.reshape(-1, b.n_modes)
            for r, row in enumerate(values.reshape(-1, b.n_grid)):
                assert np.array_equal(rows[r], row @ proj)

    def test_variable_c_du_sq_matches_the_face_difference_table(self, rng):
        b = build_eigenbasis(ModelParams(**self._BASES["variable-c"]))
        assert not b.constant_c
        face_diffs = np.diff(b.modes, axis=1) / b.quad_weight
        u_hat = rng.standard_normal((7, b.n_modes)) / (1.0 + np.arange(b.n_modes))
        du = u_hat @ face_diffs
        want = (du * du).sum(axis=-1) * b.quad_weight
        assert np.abs(b.du_sq(u_hat) - want).max() <= 1e-12 * np.abs(want).max()
        assert b.du_sq(u_hat[0]) == approx(want[0], rel=1e-12)

    def test_variable_c_basis_holds_one_table(self):
        b = build_eigenbasis(ModelParams(**self._BASES["variable-c"]))
        arrays = [k for k, v in vars(b).items() if isinstance(v, np.ndarray) and v.ndim > 1]
        assert arrays == ["modes"]


class TestStateAndNorms:
    def test_zero_inner_product(self, params, basis):
        x = StateH.zero(basis.n_modes)
        assert pairing_H(x, x, params) == 0.0
        assert norm_H_sq_arrays(x.u_hat, x.w_hat, params.gamma) == 0.0
        assert norm_V_sq_arrays(x.u_hat, x.w_hat, params, basis) == 0.0

    def test_mode0_inner_product(self, params, basis):
        # gamma = 0.5, x = y = (e0, 0) -> 0.5
        x = StateH.zero(basis.n_modes)
        x.u_hat[0] = 1.0
        assert pairing_H(x, x, params) == approx(0.5)
        assert norm_H_sq_arrays(x.u_hat, x.w_hat, params.gamma) == approx(0.5)

    def test_symmetry_random(self, params, basis, rng):
        u1, w1 = random_coeff_states(10, params, rng)
        u2, w2 = random_coeff_states(10, params, rng)
        for i in range(10):
            x = StateH(u1[i], w1[i])
            y = StateH(u2[i], w2[i])
            assert pairing_H(x, y, params) == approx(pairing_H(y, x, params), rel=1e-12)

    def test_norm_V_mode1(self, params, basis):
        # gamma(|e1|^2 + |e1'|^2) = 0.5 (1 + pi^2)
        x = StateH.zero(basis.n_modes)
        x.u_hat[1] = 1.0
        assert norm_V_sq_arrays(x.u_hat, x.w_hat, params, basis) == approx(
            0.5 * (1.0 + math.pi**2), rel=1e-12
        )

    def test_norm_V_dominates_H(self, params, basis, rng):
        u, w = random_coeff_states(200, params, rng)
        v_sq = norm_V_sq_arrays(u, w, params, basis)
        h_sq = norm_H_sq_arrays(u, w, params.gamma)
        assert np.all(v_sq >= h_sq * (1.0 - 1e-12))

    def test_parseval(self, params, basis, rng):
        u, w = random_coeff_states(50, params, rng)
        spectral = norm_H_sq_arrays(u, w, params.gamma)
        quadrature = norm_H_sq_quadrature(u, w, params, basis)
        assert quadrature == approx(spectral, rel=1e-8)

    def test_parseval_variable_c(self, rng):
        xi = _collocation_grid(32)[0]
        p = ModelParams(c_profile=1.0 + 0.3 * np.sin(2 * np.pi * xi), n_modes=8, n_grid=32)
        b = build_eigenbasis(p)
        u, w = random_coeff_states(20, p, rng)
        assert norm_H_sq_quadrature(u, w, p, b) == approx(norm_H_sq_arrays(u, w, p.gamma), rel=1e-8)

    def test_cross_term_cancellation(self, params, basis, rng):
        # gamma<-w,u> + <gamma u, w> = 0: the weighted product kills the coupling
        u, w = random_coeff_states(100, params, rng)
        cross = params.gamma * (-w * u).sum(axis=1) + (params.gamma * u * w).sum(axis=1)
        scale = np.abs(params.gamma * u * w).sum(axis=1) + 1e-300
        assert np.abs(cross / scale).max() < 1e-13

    def test_from_modes_places_entries(self):
        x = StateH.from_modes(4, u_modes=[(0, 2.0), (3, -1.0)], w_modes=[(1, 0.5)])
        assert x.u_hat.tolist() == [2.0, 0.0, 0.0, -1.0]
        assert x.w_hat.tolist() == [0.0, 0.5, 0.0, 0.0]

    @pytest.mark.parametrize("channel", ["u", "w"])
    @pytest.mark.parametrize("k", [-1, 8])
    def test_from_modes_rejects_mode_out_of_range(self, channel, k):
        with pytest.raises(ValueError, match=f"{channel}-channel mode {k} outside"):
            StateH.from_modes(8, **{f"{channel}_modes": [(k, 1.0)]})

    def test_state_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            StateH(np.array([1.0, np.nan]), np.zeros(2))


class TestDriftOperator:
    def test_linear_drift_zero(self, params, basis):
        zero = np.zeros((3, basis.n_modes))
        au, aw = run_drift(params, basis, "linear")(zero, zero)
        assert np.all(au == 0) and np.all(aw == 0)

    def test_linear_drift_mode1(self, params, basis):
        # u = e1, w = 0 -> ((mu_1 - p) e1, gamma e1)
        x = StateH.zero(basis.n_modes)
        x.u_hat[1] = 1.0
        au, aw = run_drift(params, basis, "linear")(x.u_hat, x.w_hat)
        assert au[1] == approx(-math.pi**2 - 0.3, rel=1e-12)
        assert aw[1] == approx(0.5)
        mask = np.ones(basis.n_modes, bool)
        mask[1] = False
        assert np.abs(au[mask]).max() == 0.0

    def test_dissipativity_H_norm(self, params, basis, rng):
        dc = params.derived()
        u, w = random_coeff_states(1000, params, rng)
        au, aw = run_drift(params, basis, "linear_eta")(u, w)
        lhs = params.gamma * (au * u).sum(axis=1) + (aw * w).sum(axis=1)
        h_sq = norm_H_sq_arrays(u, w, params.gamma)
        assert np.all(lhs <= -dc.omega1 * h_sq + 1e-9 * h_sq)

    def test_dissipativity_V_norm_variable_coeffs(self, rng):
        p = ModelParams(
            c_profile=1.0 + 0.5 * _XI64,
            p_profile=0.3 + 0.2 * _XI64 * _XI64,
            n_modes=16,
            n_grid=64,
        )
        b = build_eigenbasis(p)
        dc = p.derived()
        u, w = random_coeff_states(1000, p, rng)
        au, aw = run_drift(p, b, "linear_eta")(u, w)
        lhs = p.gamma * (au * u).sum(axis=1) + (aw * w).sum(axis=1)
        v_sq = norm_V_sq_arrays(u, w, p, b)
        h_sq = norm_H_sq_arrays(u, w, p.gamma)
        assert np.all(lhs <= -dc.omega2 * v_sq + 1e-9 * v_sq)
        assert np.all(lhs <= -dc.omega1 * h_sq + 1e-9 * h_sq)

    def test_linear_eta_drift_shift(self, params, basis, rng):
        u, w = random_coeff_states(5, params, rng)
        eta = params.derived().eta
        plain_u, plain_w = run_drift(params, basis, "linear")(u, w)
        shifted_u, shifted_w = run_drift(params, basis, "linear_eta")(u, w)
        assert shifted_u == approx(plain_u + eta * u)
        assert np.array_equal(shifted_w, plain_w)


class TestModeMatrix:
    def test_mode0_matrix(self, params, basis):
        m = mode_matrices(params, basis)[0]
        assert m == approx(np.array([[-0.3, -1.0], [0.5, -1.0]]))

    def test_mode0_matrix_eta(self, params, basis):
        m = mode_matrices(params, basis, shifted=True)[0]
        assert m == approx(np.array([[-0.05, -1.0], [0.5, -1.0]]))

    def test_all_modes_hurwitz(self, params, basis):
        eigs = np.linalg.eigvals(mode_matrices(params, basis))
        abscissa = eigs.real.max(axis=1)
        dominant = eigs.real.min(axis=1)
        # stability, with the numerical-range bound Re <= -min(p, alpha)
        assert abscissa.max() < 0.0
        assert abscissa.max() <= -min(params.p_min, params.alpha) + 1e-12
        # the dominant (diffusion-driven) rate only deepens with the mode index
        assert np.all(np.diff(dominant) <= 1e-12)


@settings(max_examples=50, deadline=None)
@given(
    gamma=st.floats(0.01, 10.0),
    uw=st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
)
def test_inner_product_bilinear_symmetric(gamma, uw):
    p = ModelParams(gamma=gamma, n_modes=2, n_grid=4)
    x = StateH(np.array([uw[0], uw[1]]), np.array([uw[2], uw[3]]))
    y = StateH(np.array([uw[3], uw[2]]), np.array([uw[1], uw[0]]))
    assert pairing_H(x, y, p) == approx(pairing_H(y, x, p), rel=1e-12, abs=1e-12)
    two_x = StateH(2.0 * x.u_hat, 2.0 * x.w_hat)
    assert pairing_H(two_x, y, p) == approx(2.0 * pairing_H(x, y, p), rel=1e-12, abs=1e-12)
