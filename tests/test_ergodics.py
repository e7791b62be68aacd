import math

import numpy as np
import pytest
from pytest import approx
from scipy.stats import ks_2samp, kstest

from fhn_spectral.ergodics import (
    StateFunctional,
    bounded_ramp_functional,
    empirical_mode_covariances,
    estimate_invariant_measure,
    estimate_moments,
    h_norm_functional,
    invariant_moment_integral,
    ks_statistic,
    v_norm_functional,
)
from fhn_spectral.kolmogorov import CylinderFunction
from fhn_spectral.model import ModelParams, StateH, build_eigenbasis
from fhn_spectral.noise import NoiseSpec, convolution_trace_integral, stationary_mode_covariances
from fhn_spectral.solver import TrajectoryConfig, _simulate_batch, run_ensemble


def _norms(params, basis):
    """The functionals ``invariant`` always estimates: the H- and V-norms."""
    return [h_norm_functional(params), v_norm_functional(params, basis)]

class TestMoments:
    def test_zero_noise_zero_start(self, params, basis, zero_spec):
        cfg = TrajectoryConfig(T=0.5, dt=1e-3, record_every=50)
        ens = run_ensemble(cfg, params, basis, zero_spec, 4)
        rep = estimate_moments(1, ens, cfg, params)
        assert rep.estimate.max() == 0.0
        assert rep.envelope_constant == 0.0

    def test_invalid_order(self, params, basis, spec):
        cfg = TrajectoryConfig(T=0.01, dt=1e-3)
        ens = run_ensemble(cfg, params, basis, spec, 2)
        with pytest.raises(ValueError):
            estimate_moments(3, ens, cfg, params)
        with pytest.raises(ValueError):
            estimate_moments(1, run_ensemble(cfg, params, basis, spec, 1), cfg, params)

    def test_linear_long_run_matches_lyapunov(self, params, basis, spec):
        target = convolution_trace_integral(params, basis, spec)
        cfg = TrajectoryConfig(T=60.0, dt=0.05, drift="linear_eta", record_every=1200, master_seed=10)
        rep = estimate_moments(1, run_ensemble(cfg, params, basis, spec, 64), cfg, params)
        gap = abs(rep.estimate[-1] - target)
        assert gap <= 3.0 * rep.se[-1]

    def test_transient_decay_from_large_start(self, params, basis, spec):
        n = basis.n_modes
        u = np.zeros(n)
        u[0] = 10.0 / math.sqrt(params.gamma)
        cfg = TrajectoryConfig(
            T=8.0, dt=1e-3, x0=StateH(u, np.zeros(n)), record_every=20, master_seed=3
        )
        ens = run_ensemble(cfg, params, basis, spec, 16)
        rep = estimate_moments(1, ens, cfg, params)
        assert ens.h_norm_sq[:, 0] == approx(100.0)
        assert rep.transient_exponent >= 0.7 * rep.omega1


class TestLinearOracle:
    def test_zero_noise_covariance(self, params, basis):
        zero = NoiseSpec.from_tables(np.zeros(basis.n_modes), np.zeros(basis.n_modes))
        cov = stationary_mode_covariances(params, basis, zero)
        assert np.abs(cov).max() == 0.0

    def test_mode0_example(self, params, basis):
        spec = NoiseSpec.from_tables(np.full(32, 0.01), np.full(32, 0.01))
        cov = stationary_mode_covariances(params, basis, spec, shifted=True)
        assert cov[0] == approx(
            np.array([[0.022078, 0.0038961], [0.0038961, 0.0069481]]), abs=5e-7
        )

    def test_residual_defect(self, params, basis, spec):
        from fhn_spectral.model import mode_matrices

        cov = stationary_mode_covariances(params, basis, spec, shifted=True)
        mats = mode_matrices(params, basis, shifted=True)
        qk = spec.mode_cov()
        for k in range(basis.n_modes):
            res = mats[k] @ cov[k] + cov[k] @ mats[k].T + qk[k]
            assert np.abs(res).max() < 1e-12

    def test_empirical_covariances_converge(self, params, basis, spec):
        cfg = TrajectoryConfig(T=60.0, dt=0.05, drift="linear_eta", master_seed=77)
        emp = empirical_mode_covariances(cfg, params, basis, spec, n_paths=96, burn_in=20.0)
        target = stationary_mode_covariances(params, basis, spec, shifted=True)
        rel = np.abs(emp[:4] - target[:4]) / np.abs(target[:4])
        assert rel.max() < 0.15

    def test_samples_every_step_past_burn_in(self, params, basis, spec):
        # the accumulator averages the outer products of every state at t >= burn-in
        cfg = TrajectoryConfig(T=2.0, dt=0.1, drift="linear_eta", master_seed=12)
        emp = empirical_mode_covariances(cfg, params, basis, spec, n_paths=3, burn_in=1.0)
        snaps = []
        _simulate_batch(
            params, basis, spec, dt=cfg.dt, n_steps=cfg.n_steps, start_interval=0,
            x0=np.zeros((3, basis.n_modes, 2)), drift=cfg.drift, eps_by_col=np.zeros(3),
            master_seed=cfg.master_seed, path_ids=np.arange(3),
            on_step=lambda i, t, x: snaps.append(x.copy()) if t >= 1.0 else None,
        )
        states = np.stack(snaps)
        u, w = states[..., 0], states[..., 1]
        assert emp[:, 0, 0] == approx((u * u).mean(axis=(0, 1)), rel=1e-12)
        assert emp[:, 0, 1] == approx((u * w).mean(axis=(0, 1)), rel=1e-12)
        assert emp[:, 1, 1] == approx((w * w).mean(axis=(0, 1)), rel=1e-12)
        with pytest.raises(TypeError):
            empirical_mode_covariances(cfg, params, basis, spec, n_paths=3, sample_stride=2)

    def test_burn_in_too_long_rejected(self, params, basis, spec):
        cfg = TrajectoryConfig(T=1.0, dt=0.1, drift="linear_eta")
        with pytest.raises(ValueError):
            empirical_mode_covariances(cfg, params, basis, spec, n_paths=2, burn_in=5.0)


class TestInvariantMeasure:
    def test_zero_noise_degenerate(self, params, basis, zero_spec):
        cfg = TrajectoryConfig(T=1.0, dt=1e-3, master_seed=5)
        measure = estimate_invariant_measure(
            cfg,
            params,
            basis,
            zero_spec,
            functionals=_norms(params, basis),
            burn_in=1.0,
            n_time_samples=32,
            sample_spacing=0.1,
            n_ensemble=16,
        )
        assert measure.states_time_avg.shape == (32, basis.n_modes, 2)
        assert measure.states_ensemble.shape == (16, basis.n_modes, 2)
        hist = measure.functionals["h_norm"]
        # all mass in a single bin at the deterministic attractor
        assert hist.mass_time_avg.max() == approx(1.0)
        assert hist.mass_ensemble.max() == approx(1.0)
        assert hist.ks_stat == 0.0

    def test_no_time_samples_rejected(self, params, basis, zero_spec):
        cfg = TrajectoryConfig(T=1.0, dt=1e-3)
        with pytest.raises(ValueError):
            estimate_invariant_measure(
                cfg, params, basis, zero_spec, _norms(params, basis), burn_in=0.5, n_time_samples=0
            )

    @pytest.mark.parametrize("spacing", [0.0, -1.0])
    def test_nonpositive_sample_spacing_rejected(self, params, basis, zero_spec, spacing):
        cfg = TrajectoryConfig(T=1.0, dt=1e-3)
        with pytest.raises(ValueError):
            estimate_invariant_measure(
                cfg, params, basis, zero_spec, _norms(params, basis), sample_spacing=spacing
            )

    @pytest.mark.parametrize("spacing", [0.0004, 1e-12])
    def test_off_grid_sample_spacing_rejected(self, params, basis, zero_spec, spacing):
        cfg = TrajectoryConfig(T=1.0, dt=1e-3)
        with pytest.raises(ValueError, match="sample_spacing"):
            estimate_invariant_measure(
                cfg, params, basis, zero_spec, _norms(params, basis), sample_spacing=spacing
            )

    def test_default_burn_in_on_the_grid_is_kept_exact(self, params, basis, zero_spec):
        # the default model's 5 / omega1 = 100.00000000000003 lies on the grid
        # of dt 0.01 within _steps_from's tolerance, so it is not moved up a step
        cfg = TrajectoryConfig(T=1.0, dt=0.01)
        measure = estimate_invariant_measure(
            cfg, params, basis, zero_spec, _norms(params, basis),
            n_time_samples=1, sample_spacing=0.01, n_ensemble=2,
        )
        assert measure.burn_in == 5.0 / params.derived().omega1

    def test_linear_pairing_gaussian(self, params, basis, spec):
        # <x,h>_H under the F-disabled stationary law is centered Gaussian with
        # variance g^T Sigma g; one-sample KS at the 5% level
        h = CylinderFunction.from_modes(basis.n_modes, params, u_modes=[(0, 1.0)])
        func = StateFunctional("pair0", h.pairing)
        cfg = TrajectoryConfig(T=1.0, dt=0.05, drift="linear_eta", master_seed=31)
        measure = estimate_invariant_measure(
            cfg,
            params,
            basis,
            spec,
            functionals=[func],
            burn_in=25.0,
            n_time_samples=220,
            sample_spacing=3.0,
            n_ensemble=64,
        )
        cov = stationary_mode_covariances(params, basis, spec, shifted=True)
        g = np.array([params.gamma * 1.0, 0.0])
        sigma = math.sqrt(g @ cov[0] @ g)
        states = measure.states_time_avg
        samples = func(states[..., 0], states[..., 1])
        res = kstest(samples, "norm", args=(0.0, sigma))
        assert res.statistic < 1.358 / math.sqrt(samples.size)

    def test_two_source_agreement(self, params, basis, spec):
        strong = ModelParams(p_profile=0.85)
        sbasis = build_eigenbasis(strong)
        cfg = TrajectoryConfig(T=1.0, dt=2e-3, master_seed=8)
        measure = estimate_invariant_measure(
            cfg,
            strong,
            sbasis,
            spec,
            functionals=_norms(strong, sbasis),
            burn_in=10.0,
            n_time_samples=150,
            sample_spacing=2.0,
            n_ensemble=96,
        )
        for hist in measure.functionals.values():
            assert hist.ks_stat < hist.ks_crit_5pct
            assert hist.mass_time_avg.sum() == approx(1.0)
            assert hist.mass_ensemble.sum() == approx(1.0)


class TestKSStatistic:
    # compared with ==: criterion 9 and the invariant artifacts carry these floats

    @pytest.mark.parametrize("n1,n2", [(64, 64), (200, 128), (10_001, 300)])
    def test_matches_scipy_on_seeded_samples(self, n1, n2):
        rng = np.random.default_rng(n1 * n2)
        for shift in (0.0, 0.1, 0.5):
            a = rng.normal(size=n1)
            b = rng.normal(shift, 1.0, size=n2)
            assert ks_statistic(a, b) == ks_2samp(a, b).statistic

    def test_matches_scipy_with_heavy_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.integers(0, 5, size=150)
            b = rng.integers(1, 6, size=90)
            assert ks_statistic(a, b) == ks_2samp(a, b).statistic

    def test_identical_samples(self):
        a = np.random.default_rng(12).normal(size=50)
        assert ks_statistic(a, a.copy()) == ks_2samp(a, a.copy()).statistic == 0.0

    def test_disjoint_samples(self):
        a = np.random.default_rng(13).normal(size=40)
        assert ks_statistic(a, a + 100.0) == ks_2samp(a, a + 100.0).statistic == 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic(np.zeros(3), np.zeros(0))


class TestTransitionSemigroup:
    def test_constant_functional_conserved(self, params, basis, spec):
        from fhn_spectral.ergodics import transition_semigroup

        # several functionals reduce the terminal states of one ensemble
        phis = [StateFunctional("one", lambda u, w: np.ones(u.shape[0])), h_norm_functional(params)]
        cfg = TrajectoryConfig(T=0.5, dt=1e-3, master_seed=12)
        (est, se), h_norm = transition_semigroup(phis, 8, cfg, params, basis, spec)
        assert est == 1.0
        assert se == 0.0
        assert transition_semigroup(phis[1:], 8, cfg, params, basis, spec) == [h_norm]

    def test_functional_builders(self, params, basis, rng):
        n = basis.n_modes
        u = rng.standard_normal((3, n))
        w = rng.standard_normal((3, n))
        ramp = bounded_ramp_functional(params)
        assert np.all((ramp(u, w) >= 0) & (ramp(u, w) < 1))
        cyl = CylinderFunction.from_modes(n, params, u_modes=[(0, 0.1)])
        assert np.all(cyl.phi(u, w) > 0)
        vf = v_norm_functional(params, basis)
        hf = h_norm_functional(params)
        assert np.all(vf(u, w) >= hf(u, w) * (1 - 1e-12))


@pytest.fixture(scope="module")
def linear_measure(params, basis, spec):
    cfg = TrajectoryConfig(T=1.0, dt=0.05, drift="linear_eta", master_seed=21)
    return estimate_invariant_measure(
        cfg,
        params,
        basis,
        spec,
        functionals=_norms(params, basis),
        burn_in=25.0,
        n_time_samples=300,
        sample_spacing=2.0,
        n_ensemble=32,
    )


class TestInvariantMoments:

    def test_jensen(self, params, basis, linear_measure):
        m1 = invariant_moment_integral(1, linear_measure, params, basis)
        m2 = invariant_moment_integral(2, linear_measure, params, basis)
        assert m2.state_moment >= m1.state_moment**2

    def test_matches_gaussian_trace(self, params, basis, spec, linear_measure):
        m1 = invariant_moment_integral(1, linear_measure, params, basis)
        target = convolution_trace_integral(params, basis, spec)
        samples = linear_measure.states_time_avg
        from fhn_spectral.model import norm_H_sq_arrays

        hsq = norm_H_sq_arrays(samples[..., 0], samples[..., 1], params.gamma)
        se = hsq.std(ddof=1) / math.sqrt(hsq.size / 3.0)  # spacing leaves mild correlation
        assert abs(m1.state_moment - target) <= 3.0 * se

    def test_half_sample_stability(self, params, basis, linear_measure):
        rep = invariant_moment_integral(1, linear_measure, params, basis)
        assert rep.state_moment_half == approx(rep.state_moment, rel=0.15)
        assert rep.drift_moment_half == approx(rep.drift_moment, rel=0.15)
