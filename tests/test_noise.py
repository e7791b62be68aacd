import math

import mpmath as mp
import numpy as np
import pytest
from numpy.random import Generator, Philox
from pytest import approx
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm, solve_continuous_lyapunov
from scipy.special import ndtri

from fhn_spectral.model import ModelParams, build_eigenbasis, mode_matrices
import fhn_spectral.noise as noise
from fhn_spectral.noise import (
    _INTERVAL_OFFSET,
    _REFILL_UNIFORMS,
    NoiseSpec,
    PathStream,
    build_ou_kernel,
    convolution_trace_integral,
    convolution_trace_integrand,
    htrace_mode_cov,
    stationary_mode_covariances,
    trace_Q,
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
        # a stream refills several intervals of every path at once; each row
        # must still equal its path's interval drawn on its own
        per_refill = max(1, _REFILL_UNIFORMS // (4 * ((2 * n_modes + 3) // 4)))
        sequential = range(-per_refill - 2, 2 * per_refill + 3)     # crosses refill edges
        jumps = [5, -1000, 7 * per_refill - 1, 7 * per_refill, 0, -1, 3 * per_refill + 1]
        scattered = np.random.default_rng(n_modes).integers(-50 * per_refill, 50 * per_refill, 20)
        for path_ids in ([4], [9, 2, 40, 0]):
            stream = PathStream(n_modes, 11, path_ids)
            for j in [*sequential, *jumps, *scattered.tolist()]:
                expect = [_reference_normals(n_modes, 11, p, j) for p in path_ids]
                assert np.array_equal(stream.normals(j), expect), (path_ids, j)

    def test_rows_are_read_only(self):
        for path_ids in ([1], [9, 2, 40, 0]):
            row = PathStream(8, 1, path_ids).normals(0)
            assert row.shape == (len(path_ids), 16)
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[..., 0] = 0.0

    def test_reproducible(self):
        a = PathStream(8, master_seed=3, path_ids=[5])
        b = PathStream(8, master_seed=3, path_ids=[5])
        assert np.array_equal(a.normals(0), b.normals(0))
        assert np.array_equal(a.normals(100), b.normals(100))

    def test_distinct_paths_and_seeds(self):
        base = PathStream(8, 3, [5]).normals(7)
        assert not np.array_equal(base, PathStream(8, 3, [6]).normals(7))
        assert not np.array_equal(base, PathStream(8, 4, [5]).normals(7))

    def test_random_access_matches_sequential(self):
        seq = PathStream(8, 1, [1])
        blocks = {j: seq.normals(j).copy() for j in range(5)}
        jumpy = PathStream(8, 1, [1])
        for j in (3, 0, 4, 2, 1):
            assert np.array_equal(jumpy.normals(j), blocks[j])

    def test_negative_intervals_shared_across_starts(self):
        # the backward construction relies on runs started at different
        # offsets seeing identical draws on overlapping intervals
        deep = PathStream(8, 9, [2])
        shallow = PathStream(8, 9, [2])
        deep_blocks = {j: deep.normals(j).copy() for j in range(-10, 0)}
        for j in range(-5, 0):
            assert np.array_equal(shallow.normals(j), deep_blocks[j])

    def test_normal_moments(self):
        stream = PathStream(64, 0, [0])
        draws = np.concatenate([stream.normals(j)[0] for j in range(200)])
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


def _finite_horizon_trace(params, basis, spec, horizon):
    """int_0^T Tr_H[e^{sA_eta} Q e^{sA_eta^*}] ds: the H-trace of the shifted kernel at step T."""
    return htrace_mode_cov(build_ou_kernel(params, basis, spec, horizon, shifted=True).cov, params.gamma)


class TestTraceIntegral:
    def test_zero_horizon(self, params, basis, spec):
        assert _finite_horizon_trace(params, basis, spec, 0.0) == 0.0

    def test_quadrature_matches_closed_form(self, params, basis, spec):
        closed = _finite_horizon_trace(params, basis, spec, 5.0)
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
        bound = trace_Q(spec) / (2.0 * params.derived().omega1)
        assert closed <= bound * (1.0 + 1e-9)
        finite = _finite_horizon_trace(params, basis, spec, 200.0)
        assert finite == approx(closed, rel=1e-10)

    def test_htrace_gamma_weighting(self, params, basis, spec):
        cov = stationary_mode_covariances(params, basis, spec)
        expected = params.gamma * cov[:, 0, 0].sum() + cov[:, 1, 1].sum()
        assert htrace_mode_cov(cov, params.gamma) == approx(expected)


def _oracle_blocks(a, alpha, gamma, q1, q2, t):
    """E, phi1, S and Sigma of one block at 40 digits: mp.expm and the exact 3-unknown solve."""
    with mp.workdps(40):
        a, alpha, gamma, q1, q2, t = (mp.mpf(float(x)) for x in (a, alpha, gamma, q1, q2, t))
        m = mp.matrix([[a, -1], [gamma, -alpha]])
        eye = mp.eye(2)
        e = eye if t == 0 else mp.expm(m * t)
        phi1 = eye if t == 0 else (e - eye) * mp.inverse(m * t)
        # M S + S M^T + Q = 0 in the unknowns (s11, s12, s22)
        lhs = mp.matrix([[2 * a, -2, 0], [gamma, a - alpha, -1], [0, 2 * gamma, -2 * alpha]])
        x = [+v for v in mp.lu_solve(lhs, mp.matrix([-q1, 0, -q2]))]
        s = mp.matrix([[x[0], x[1]], [x[1], x[2]]])
        cov = s - e * s * e.T
        return [np.array(mat.tolist(), dtype=float) for mat in (e, phi1, s, cov)]


def _scipy_blocks(a, alpha, gamma, q1, q2, t):
    """The same blocks by the per-mode scipy path: a 4x4 expm and a Lyapunov solve."""
    m = np.array([[a, -1.0], [gamma, -alpha]])
    aug = np.zeros((4, 4))
    aug[:2, :2] = m * t
    aug[:2, 2:] = np.eye(2)
    e_aug = expm(aug)
    e = e_aug[:2, :2]
    s = solve_continuous_lyapunov(m, -np.diag([q1, q2]))
    return [e, e_aug[:2, 2:], s, s - e @ s @ e.T]


def _near_repeated(disc: float):
    """Parameters whose mode-0 block has (a + alpha)^2 - 4 gamma = disc, up to rounding."""
    def make(shifted: bool) -> ModelParams:
        base = ModelParams()
        a0 = -base.p_min + (base.derived().eta if shifted else 0.0)
        return ModelParams(gamma=((a0 + base.alpha) ** 2 - disc) / 4.0)

    return make


# criterion 9's slow-mixing set, gamma = 40 for complex eigenvalues on modes 0 and 1,
# and mode 0 next to a double eigenvalue, its discriminant +-1e-11
_PARAM_SETS = {
    "default": lambda shifted: ModelParams(),
    "criterion9": lambda shifted: ModelParams(alpha=0.12, p_profile=0.26),
    "complex": lambda shifted: ModelParams(gamma=40.0),
    "near_repeated_real": _near_repeated(1e-11),
    "near_repeated_complex": _near_repeated(-1e-11),
}


class TestClosedFormBlocks:
    """E, phi1, S and Sigma against a 40-digit oracle, block by block."""

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("name", sorted(_PARAM_SETS))
    def test_blocks_match_oracle(self, name, shifted):
        small = _PARAM_SETS[name](shifted)
        large = ModelParams(
            alpha=small.alpha, gamma=small.gamma, p_profile=small.p_profile,
            n_modes=1024, n_grid=2048,
        )
        if name.startswith("near_repeated"):
            a0 = mode_matrices(small, build_eigenbasis(small), shifted=shifted)[0, 0, 0]
            assert 0.0 < abs((a0 + small.alpha) ** 2 - 4.0 * small.gamma) < 1e-10
        eps = np.finfo(float).eps
        for params, modes in ((small, (0, 1, 31)), (large, (1023,))):
            basis = build_eigenbasis(params)
            spec = NoiseSpec.power_law(params.n_modes)
            a = mode_matrices(params, basis, shifted=shifted)[:, 0, 0]
            stationary = stationary_mode_covariances(params, basis, spec, shifted=shifted)
            for t in (0.0, 1e-6, 1e-3, 1.0, 80.0):
                kernel = build_ou_kernel(params, basis, spec, t, shifted=shifted)
                for k in modes:
                    args = (a[k], params.alpha, params.gamma, spec.lambda1[k], spec.lambda2[k], t)
                    oracle = _oracle_blocks(*args)
                    parent = _scipy_blocks(*args)
                    # e^{l t} formed from a double l t carries |l t| eps of rounding, l the
                    # slowest eigenvalue's real part; the scipy path can land closer by luck
                    slow = np.linalg.eigvals(np.array([[a[k], -1.0], [params.gamma, -params.alpha]]))
                    floor = eps * max(1.0, t * np.abs(slow.real).min())
                    ours = (kernel.transition[k], kernel.phi1[k], stationary[k], kernel.cov[k])
                    for what, got, ref, old in zip(("E", "phi1", "S", "Sigma"), ours, oracle, parent):
                        where = f"{name} shifted={shifted} N={params.n_modes} k={k} t={t} {what}"
                        scale = np.abs(ref).max()
                        if scale == 0.0:
                            assert np.array_equal(got, ref), where
                            continue
                        err = np.abs(got - ref).max() / scale
                        old_err = np.abs(old - ref).max() / scale
                        assert err <= 1e-12, f"{where}: {err:.2e}"
                        assert err <= 10.0 * max(old_err, floor), f"{where}: {err:.2e} vs {old_err:.2e}"

    def test_vectorised_integrand_matches_scalar_calls(self, params, basis, spec):
        times = np.array([0.0, 1e-5, 0.3, 2.0, 40.0, 1e6])
        values = convolution_trace_integrand(times, params, basis, spec)
        assert values.shape == times.shape
        for t, value in zip(times, values):
            assert value == convolution_trace_integrand(float(t), params, basis, spec)
        assert values[0] == approx(params.gamma * spec.lambda1.sum() + spec.lambda2.sum())
        assert values[-1] == 0.0

    def test_stationary_residual_check(self, params, basis, spec, monkeypatch):
        good = noise._stationary_blocks

        def off_in_mode_3(*args):
            out = good(*args)
            out[3, 0, 0] *= 1.0 + 1e-6
            return out

        monkeypatch.setattr(noise, "_stationary_blocks", off_in_mode_3)
        with pytest.raises(RuntimeError, match="mode 3"):
            stationary_mode_covariances(params, basis, spec)
