import math

import numpy as np
import pytest
from numpy.random import Generator, Philox
from pytest import approx
from scipy.integrate import quad, solve_ivp
from scipy.special import ndtri

from fhn_spectral import (
    ModelParams,
    NoiseSpec,
    PathStream,
    build_eigenbasis,
    convolution_trace_integral,
    trace_Q,
)
from fhn_spectral.model import mode_matrices
from fhn_spectral.noise import (
    _INTERVAL_OFFSET,
    _REFILL_UNIFORMS,
    build_ou_kernel,
    convolution_trace_integrand,
    htrace_mode_cov,
    stationary_mode_covariances,
)


class TestNoiseSpec:
    def test_power_law_values(self):
        spec = NoiseSpec.power_law(4, sigma2=0.01, s=1.0)
        assert spec.lambda1 == approx(0.01 * np.array([1, 1 / 4, 1 / 9, 1 / 16]))

    def test_nonsummable_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec.power_law(4, sigma2=0.01, s=0.4)

    def test_negative_table_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec.from_tables([-1.0, 1.0], [1.0, 1.0])

    def test_trace_partial_sum(self):
        spec = NoiseSpec.power_law(4, sigma2=0.01, s=1.0)
        assert trace_Q(spec) == approx(2 * 0.01 * (1 + 1 / 4 + 1 / 9 + 1 / 16))
        assert trace_Q(spec) == approx(0.02847222, abs=1e-8)

    def test_trace_zero_noise(self):
        spec = NoiseSpec.from_tables(np.zeros(3), np.zeros(3))
        assert trace_Q(spec) == 0.0

    def test_trace_weight_independent(self, basis):
        # Tr_H Q over the H-orthonormal basis {(e_k/sqrt(gamma),0)} u {(0,e_k)}
        # collapses to the plain sum of the spectra for every gamma
        spec = NoiseSpec.power_law(4)
        for gamma in (0.25, 1.0, 4.0):
            total = sum(
                gamma * lam * (1 / math.sqrt(gamma)) ** 2 for lam in spec.lambda1
            ) + sum(spec.lambda2)
            assert total == approx(trace_Q(spec))


def _reference_normals(n_modes: int, master_seed: int, path_id: int, interval: int) -> np.ndarray:
    """Interval j's normals drawn alone: a fresh generator advanced to counter block j."""
    block = 4 * ((2 * n_modes + 3) // 4)
    bg = Philox(key=np.array([master_seed, path_id], dtype=np.uint64))
    bg.advance((interval + _INTERVAL_OFFSET) * block // 4)
    return ndtri(np.fmax(Generator(bg).random(block)[: 2 * n_modes], 2.0**-64))


class TestPathStream:
    @pytest.mark.parametrize("n_modes", [3, 8, 32, 1024])
    def test_matches_independent_draws(self, n_modes):
        # a stream refills several intervals per generator call; every row must
        # still equal the interval drawn on its own
        per_refill = max(1, _REFILL_UNIFORMS // (4 * ((2 * n_modes + 3) // 4)))
        sequential = range(-per_refill - 2, 2 * per_refill + 3)     # crosses refill edges
        jumps = [5, -1000, 7 * per_refill - 1, 7 * per_refill, 0, -1, 3 * per_refill + 1]
        scattered = np.random.default_rng(n_modes).integers(-50 * per_refill, 50 * per_refill, 20)
        stream = PathStream(n_modes, 11, 4)
        for j in [*sequential, *jumps, *scattered.tolist()]:
            assert np.array_equal(stream.normals(j), _reference_normals(n_modes, 11, 4, j)), j

    def test_rows_are_read_only(self):
        row = PathStream(8, 1, 1).normals(0)
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 0.0

    def test_reproducible(self):
        a = PathStream(8, master_seed=3, path_id=5)
        b = PathStream(8, master_seed=3, path_id=5)
        assert np.array_equal(a.normals(0), b.normals(0))
        assert np.array_equal(a.normals(100), b.normals(100))

    def test_distinct_paths_and_seeds(self):
        base = PathStream(8, 3, 5).normals(7)
        assert not np.array_equal(base, PathStream(8, 3, 6).normals(7))
        assert not np.array_equal(base, PathStream(8, 4, 5).normals(7))

    def test_random_access_matches_sequential(self):
        seq = PathStream(8, 1, 1)
        blocks = {j: seq.normals(j).copy() for j in range(5)}
        jumpy = PathStream(8, 1, 1)
        for j in (3, 0, 4, 2, 1):
            assert np.array_equal(jumpy.normals(j), blocks[j])

    def test_negative_intervals_shared_across_starts(self):
        # the backward construction relies on runs started at different
        # offsets seeing identical draws on overlapping intervals
        deep = PathStream(8, 9, 2)
        shallow = PathStream(8, 9, 2)
        deep_blocks = {j: deep.normals(j).copy() for j in range(-10, 0)}
        for j in range(-5, 0):
            assert np.array_equal(shallow.normals(j), deep_blocks[j])

    def test_normal_moments(self):
        stream = PathStream(64, 0, 0)
        draws = np.concatenate([stream.normals(j) for j in range(200)])
        assert draws.mean() == approx(0.0, abs=3.0 / math.sqrt(draws.size))
        assert draws.std() == approx(1.0, rel=0.02)


class TestExactOUStep:
    def test_dt_zero_kernel(self, params, basis, spec):
        kernel = build_ou_kernel(params, basis, spec, 0.0)
        assert kernel.transition == approx(np.broadcast_to(np.eye(2), (basis.n_modes, 2, 2)))
        assert np.abs(kernel.cov).max() == 0.0

    def test_small_dt_mean_and_cov(self, params, basis, spec):
        dt = 1e-8
        kernel = build_ou_kernel(params, basis, spec, dt)
        # transition deviates from I by at most |M| dt, dominated by the
        # stiffest retained mode
        m_scale = abs(basis.mu[-1]) + 2.0
        assert np.abs(kernel.transition - np.eye(2)).max() < 1.1 * m_scale * dt
        assert np.abs(kernel.cov).max() < 2e-10
        # increment covariance at leading order is Q dt
        assert kernel.cov[0, 0, 0] == approx(spec.lambda1[0] * dt, rel=1e-3)

    def test_deterministic_step_matches_ode(self, params, basis, rng):
        dt = 0.37
        transition = build_ou_kernel(params, basis, None, dt).transition
        for k in (0, 1, 7):
            m = np.array([[basis.mu[k] - params.p_min, -1.0], [params.gamma, -params.alpha]])
            x0 = rng.standard_normal(2)
            out = transition[k] @ x0
            sol = solve_ivp(lambda t, y: m @ y, (0, dt), x0, rtol=1e-12, atol=1e-14)
            assert out == approx(sol.y[:, -1], abs=1e-10)

    def test_stationary_covariance_example(self, basis):
        # mode 0 with the eta shift applied: M = [[-0.05,-1],[0.5,-1]],
        # Q = diag(0.01, 0.01) -> the hand-solved 3x3 linear system
        params = ModelParams()
        spec = NoiseSpec.from_tables(np.full(32, 0.01), np.full(32, 0.01))
        target = np.array([[0.022078, 0.0038961], [0.0038961, 0.0069481]])
        cov = stationary_mode_covariances(params, basis, spec, shifted=True)
        assert cov[0] == approx(target, abs=5e-7)
        assert mode_matrices(params, basis, shifted=True)[0] == approx(
            np.array([[-0.05, -1.0], [0.5, -1.0]])
        )
        kernel = build_ou_kernel(params, basis, spec, 200.0, shifted=True)
        assert kernel.cov[0] == approx(target, abs=5e-7)

    def test_semigroup_property(self, params, basis, spec):
        # Sigma(2 dt) = F Sigma(dt) F^T + Sigma(dt) exactly
        dt = 0.05
        k1 = build_ou_kernel(params, basis, spec, dt)
        k2 = build_ou_kernel(params, basis, spec, 2 * dt)
        for k in range(basis.n_modes):
            f_mat = k1.transition[k]
            lhs = f_mat @ k1.cov[k] @ f_mat.T + k1.cov[k]
            assert np.abs(lhs - k2.cov[k]).max() < 1e-12

    def test_factor_squares_to_cov(self, params, basis, spec):
        kernel = build_ou_kernel(params, basis, spec, 0.1)
        recon = np.einsum("kij,klj->kil", kernel.factor, kernel.factor)
        assert np.abs(recon - kernel.cov).max() < 1e-14

    def test_stiff_modes_finite_at_long_horizon(self, params, basis, spec):
        kernel = build_ou_kernel(params, basis, spec, 50.0, shifted=True)
        assert np.isfinite(kernel.cov).all()
        assert np.isfinite(kernel.transition).all()


class TestTraceIntegral:
    def test_zero_horizon(self, params, basis, spec):
        assert convolution_trace_integral(params, basis, spec, horizon=0.0) == 0.0

    def test_quadrature_matches_closed_form(self, params, basis, spec):
        closed = convolution_trace_integral(params, basis, spec, horizon=5.0)
        val, _ = quad(
            lambda s: convolution_trace_integrand(s, params, basis, spec),
            0.0,
            5.0,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=200,
        )
        assert val == approx(closed, rel=1e-8)

    def test_infinite_horizon_bound(self, params, basis, spec):
        closed = convolution_trace_integral(params, basis, spec)
        bound = trace_Q(spec) / (2.0 * params.derived().omega)
        assert closed <= bound * (1.0 + 1e-9)
        finite = convolution_trace_integral(params, basis, spec, horizon=200.0)
        assert finite == approx(closed, rel=1e-10)

    def test_htrace_gamma_weighting(self, params, basis, spec):
        cov = stationary_mode_covariances(params, basis, spec)
        expected = params.gamma * cov[:, 0, 0].sum() + cov[:, 1, 1].sum()
        assert htrace_mode_cov(cov, params.gamma) == approx(expected)
