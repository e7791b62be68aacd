import math
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

from fhn_spectral import (
    BlowUpError,
    ModelParams,
    NoiseSpec,
    PathStream,
    StateH,
    TrajectoryConfig,
    backward_run,
    build_eigenbasis,
    coupled_run,
    eps_convergence_study,
    integrate,
    run_ensemble,
)
from fhn_spectral import solver
from fhn_spectral.model import norm_H_sq, norm_H_sq_arrays
from fhn_spectral.noise import build_ou_kernel
from fhn_spectral.solver import RECORD_ENDPOINTS, _ols_line, _simulate_batch, resolve_workers


class TestTrajectoryConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"T": 1.0, "dt": 0.0},
            {"T": -1.0},
            {"T": 1.0, "eps": -0.1},
            {"T": 1.0, "record_every": 0},
            {"T": 1.0, "drift": "banana"},
            {"T": 0.00037, "dt": 1e-3},            # not a multiple of dt
            {"T": 1.0, "start_time": 0.0005, "dt": 1e-3},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrajectoryConfig(**kwargs)

    def test_steps_and_intervals(self):
        cfg = TrajectoryConfig(T=2.0, dt=1e-3, start_time=-1.0)
        assert cfg.n_steps == 2000
        assert cfg.start_interval == -1000


class TestStepAndIntegrate:
    def test_zero_horizon_records_initial(self, params, basis, spec):
        x0 = StateH.zero(basis.n_modes)
        x0.u_hat[0] = 1.0
        rec = integrate(TrajectoryConfig(T=0.0, x0=x0), params, basis, spec)
        assert rec.times.shape == (1,)
        assert rec.h_norm_sq.shape == (1, 1)
        assert rec.h_norm_sq[0, 0] == approx(norm_H_sq(x0, params))
        assert np.array_equal(rec.terminal[0], x0.as_array())

    def test_equilibrium_preserved(self, params, basis, zero_spec):
        rec = integrate(TrajectoryConfig(T=0.1, dt=1e-3), params, basis, zero_spec)
        assert rec.h_norm_sq.max() == 0.0
        assert np.all(rec.terminal == 0.0)

    def test_bitweise_deterministic(self, params, basis, spec):
        cfg = TrajectoryConfig(T=0.3, dt=1e-3, master_seed=99)
        r1 = integrate(cfg, params, basis, spec)
        r2 = integrate(cfg, params, basis, spec)
        assert np.array_equal(r1.h_norm_sq, r2.h_norm_sq)
        assert np.array_equal(r1.terminal, r2.terminal)

    def test_linear_step_matches_kernel(self, params, basis, zero_spec, rng):
        # noise off, F off: one step is exactly e^{M dt} per mode
        n = basis.n_modes
        x = StateH(rng.standard_normal(n), rng.standard_normal(n))
        dt = 0.05
        cfg = TrajectoryConfig(T=dt, dt=dt, x0=x, drift="linear")
        out = integrate(cfg, params, basis, zero_spec).terminal[0]
        kernel = build_ou_kernel(params, basis, None, dt, shifted=False)
        expect = np.einsum("kij,kj->ki", kernel.transition, x.as_array())
        assert out == approx(expect, abs=1e-13)

    def test_record_times_strictly_increasing(self, params, basis, spec):
        cfg = TrajectoryConfig(T=0.1, dt=1e-3, record_every=7, master_seed=3)
        rec = integrate(cfg, params, basis, spec)
        assert np.all(np.diff(rec.times) > 0)
        assert rec.times[-1] == approx(0.1)
        assert rec.h_norm_sq.shape == rec.v_norm_sq.shape == (1, rec.times.size)
        assert np.isfinite(rec.h_norm_sq).all() and np.isfinite(rec.v_norm_sq).all()

    def test_blow_up_raises(self, params, basis, zero_spec):
        n = basis.n_modes
        x0 = StateH(np.full(n, 1e6), np.zeros(n))
        cfg = TrajectoryConfig(T=0.01, dt=1e-3, x0=x0)
        with pytest.raises(BlowUpError) as err:
            integrate(cfg, params, basis, zero_spec)
        assert err.value.step == 0

    def test_blow_up_names_offset_path(self, params, basis, zero_spec):
        # only the middle column of a batch keyed 7, 8, 9 starts out of range
        n = basis.n_modes
        x0 = np.zeros((3, n, 2))
        x0[1, :, 0] = 1e6
        with pytest.raises(BlowUpError) as err:
            _simulate_batch(
                params, basis, zero_spec, dt=1e-3, n_steps=5, start_interval=0, x0=x0,
                drift="fhn", eps_by_col=np.zeros(3), master_seed=0,
                path_ids=np.array([7, 8, 9]),
            )
        assert err.value.path_id == 8

    def test_substepped_run_converges(self, params, basis, zero_spec, monkeypatch):
        # u = 10 puts every dt here above the ceiling 0.1/(1 + max|u|^2), so the
        # run takes drift substeps until it decays; noise off, the terminal
        # state must still converge to a fine-dt reference as dt shrinks
        x0 = StateH.from_grid(np.full(basis.n_grid, 10.0), np.zeros(basis.n_grid), basis)
        cfg = TrajectoryConfig(T=0.2, dt=1.5625e-5, x0=x0, record_every=RECORD_ENDPOINTS)
        ref = integrate(cfg, params, basis, zero_spec).terminal[0]
        kernel_steps = []
        monkeypatch.setattr(
            solver, "build_ou_kernel", lambda *a, **kw: kernel_steps.append(a[3]) or build_ou_kernel(*a, **kw)
        )
        dts, errs = (4e-3, 2e-3, 1e-3), []
        for dt in dts:
            kernel_steps.clear()
            diff = integrate(replace(cfg, dt=dt), params, basis, zero_spec).terminal[0] - ref
            assert min(kernel_steps) < dt  # substep kernels were built
            errs.append(math.sqrt(norm_H_sq(StateH(*diff.T), params)))
        assert errs[0] > errs[1] > errs[2]
        assert np.polyfit(np.log(dts), np.log(errs), 1)[0] >= 0.6

    @pytest.mark.parametrize("u_starts,substeps", [((1.0, 10.0, 1.0), True), ((1.0, 2.0, 1.0), False)])
    def test_substep_kernels_only_above_the_ceiling(
        self, params, basis, zero_spec, monkeypatch, u_starts, substeps
    ):
        # at dt = 1e-3 the ceiling 0.1/(1 + max|u|^2) is crossed by u = 10 and not
        # by u <= 2; only a batch with a column above it builds a kernel for dt/m
        dt = 1e-3
        x0 = np.zeros((3, basis.n_modes, 2))
        x0[:, 0, 0] = u_starts  # e_0 is the constant mode
        kernel_steps = []
        monkeypatch.setattr(
            solver, "build_ou_kernel", lambda *a, **kw: kernel_steps.append(a[3]) or build_ou_kernel(*a, **kw)
        )
        _simulate_batch(
            params, basis, zero_spec, dt=dt, n_steps=3, start_interval=0, x0=x0,
            drift="fhn", eps_by_col=np.zeros(3), master_seed=0, path_ids=np.arange(3),
        )
        assert (min(kernel_steps) < dt) == substeps
        assert kernel_steps[0] == dt


class TestEnsembles:
    def test_worker_independence(self, params, basis, spec, monkeypatch):
        cfg = TrajectoryConfig(T=0.05, dt=1e-3, master_seed=5)
        monkeypatch.setenv("FHN_SPECTRAL_WORKERS", "1")
        serial = run_ensemble(cfg, params, basis, spec, 40)
        monkeypatch.setenv("FHN_SPECTRAL_WORKERS", "3")
        parallel = run_ensemble(cfg, params, basis, spec, 40)
        assert parallel.terminal.shape == (40, basis.n_modes, 2)
        assert parallel.terminal.flags.c_contiguous
        for name in ("path_ids", "times", "h_norm_sq", "v_norm_sq", "terminal"):
            assert np.array_equal(getattr(serial, name), getattr(parallel, name))

    def test_path_ids_offset(self, params, basis, spec):
        cfg = TrajectoryConfig(T=0.01, dt=1e-3, path_id=7)
        ens = run_ensemble(cfg, params, basis, spec, 3)
        assert ens.path_ids.tolist() == [7, 8, 9]

    def test_invalid_path_count(self, params, basis, spec):
        with pytest.raises(ValueError):
            run_ensemble(TrajectoryConfig(T=0.01), params, basis, spec, 0)

    def test_dct_path_is_batch_independent(self):
        # a DCT basis is row-local end to end: path 5 has the same bits alone,
        # in a batch of 7 and in a batch of 100, at different column offsets
        params = ModelParams(n_modes=256, n_grid=512)
        basis = build_eigenbasis(params)
        assert basis.dct
        spec = NoiseSpec.power_law(params.n_modes)
        x0 = np.zeros((params.n_modes, 2))
        x0[:4, 0] = [1.5, -0.8, 0.4, 0.2]
        x0[0, 1] = 0.3

        def run(path_ids):
            norms = []
            terminal = _simulate_batch(
                params,
                basis,
                spec,
                dt=1e-3,
                n_steps=50,
                start_interval=0,
                x0=np.broadcast_to(x0, (len(path_ids), params.n_modes, 2)),
                drift="fhn",
                eps_by_col=np.zeros(len(path_ids)),
                master_seed=11,
                path_ids=path_ids,
                on_step=lambda i, t, x: norms.append(
                    norm_H_sq_arrays(x[..., 0], x[..., 1], params.gamma)
                ),
            )
            col = list(path_ids).index(5)
            return terminal[col], np.array([h[col] for h in norms])

        alone = run([5])
        for ids in (range(7), range(2, 102)):
            terminal, norms = run(list(ids))
            assert np.array_equal(terminal, alone[0])
            assert np.array_equal(norms, alone[1])

    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.setenv("FHN_SPECTRAL_WORKERS", "4")
        assert resolve_workers() == 4
        for bad in ("junk", "0", "-3"):
            monkeypatch.setenv("FHN_SPECTRAL_WORKERS", bad)
            with pytest.raises(ValueError):
                resolve_workers()


class TestSelfConvergence:
    def test_deterministic_order_one(self, params, basis, zero_spec):
        # noise off: the exponential Euler step has weak/strong order >= 1
        n = basis.n_modes
        x0 = StateH.zero(n)
        x0.u_hat[0] = 2.0
        x0.u_hat[1] = 1.0
        terminal = {}
        for dt in (4e-3, 2e-3, 1e-3, 5e-4):
            cfg = TrajectoryConfig(T=1.0, dt=dt, x0=x0, record_every=RECORD_ENDPOINTS)
            terminal[dt] = integrate(cfg, params, basis, zero_spec).terminal[0]
        ref = terminal[5e-4]
        errs = [
            math.sqrt(
                norm_H_sq_arrays(
                    (terminal[dt] - ref)[None, :, 0], (terminal[dt] - ref)[None, :, 1], params.gamma
                )[0]
            )
            for dt in (4e-3, 2e-3, 1e-3)
        ]
        slope = np.polyfit(np.log([4e-3, 2e-3, 1e-3]), np.log(errs), 1)[0]
        assert slope >= 1.0 - 0.1

    def test_strong_order_with_noise(self, params, basis, spec):
        # coarse steps driven by exactly aggregated fine-interval noise:
        # xi_coarse = sum_i e^{M (r-1-i) h} xi_i reproduces the same Brownian
        # path, so the dt-refinement measures the strong error alone
        n = basis.n_modes
        h = 5e-4
        x0 = StateH.zero(n)
        x0.u_hat[0] = 1.0
        base_cfg = TrajectoryConfig(T=0.5, dt=h, x0=x0, master_seed=31)
        n_paths = 16
        fine_terms = run_ensemble(base_cfg, params, basis, spec, n_paths).terminal
        kernel_h = build_ou_kernel(params, basis, spec, h)
        errs = []
        ratios = (8, 4, 2)
        from fhn_spectral.nonlinearity import DriftParams, grid_drift

        dp = DriftParams.from_params(params)
        for r in ratios:
            dt = r * h
            kernel = build_ou_kernel(params, basis, None, dt)
            n_steps = base_cfg.n_steps // r
            err_sq = 0.0
            for p in range(n_paths):
                stream = PathStream(n, base_cfg.master_seed, p)
                x = x0.as_array().copy()
                for i in range(n_steps):
                    # aggregate the r fine noise increments exactly
                    xi = np.zeros((n, 2))
                    for j in range(r):
                        z = stream.normals(i * r + j).reshape(2, n).T
                        inc = np.einsum("kij,kj->ki", kernel_h.factor, z)
                        steps_left = r - 1 - j
                        for k in range(n):
                            m_pow = np.linalg.matrix_power(kernel_h.transition[k], steps_left)
                            xi[k] += m_pow @ inc[k]
                    u_grid = x[:, 0] @ basis.modes
                    fh = grid_drift(u_grid, dp, "cubic") @ (basis.modes.T * basis.quad_weight)
                    fvec = np.stack([fh, np.zeros(n)], axis=-1)
                    x = (
                        np.einsum("kij,kj->ki", kernel.transition, x)
                        + dt * np.einsum("kij,kj->ki", kernel.phi1, fvec)
                        + xi
                    )
                diff = x - fine_terms[p]
                err_sq += norm_H_sq_arrays(diff[None, :, 0], diff[None, :, 1], params.gamma)[0]
            errs.append(math.sqrt(err_sq / n_paths))
        slope = np.polyfit(np.log([r * h for r in ratios]), np.log(errs), 1)[0]
        assert slope >= 0.5


class TestCoupledRun:
    def test_identical_states_zero_gap(self, params, basis, spec):
        x = StateH.zero(basis.n_modes)
        cfg = TrajectoryConfig(T=0.05, dt=1e-3, x0=x, record_every=10, master_seed=2)
        rep = coupled_run(x.copy(), cfg, params, basis, spec, n_paths=2)
        assert rep.delta_sq.max() == 0.0

    def test_decay_envelope_and_fit(self, params, basis, spec):
        u = np.zeros(basis.n_modes)
        u[0] = 1.0 / math.sqrt(params.gamma)
        y = StateH(u, np.zeros(basis.n_modes))
        cfg = TrajectoryConfig(T=6.0, dt=1e-3, record_every=50, master_seed=14)
        rep = coupled_run(y, cfg, params, basis, spec, n_paths=6)
        assert rep.delta0_sq == approx(1.0)
        assert rep.envelope_ok
        assert rep.max_envelope_ratio <= 1.05
        assert rep.pooled_exponent >= 2.0 * rep.omega * 0.8
        assert np.all(rep.path_exponents >= 2.0 * rep.omega - 0.05)

    def test_times_match_integrate(self, params, basis, spec):
        # record_every = 30 does not divide n_steps = 100: both keep the last step
        x = StateH.zero(basis.n_modes)
        cfg = TrajectoryConfig(T=0.1, dt=1e-3, record_every=30, master_seed=8)
        rep = coupled_run(x, cfg, params, basis, spec)
        assert np.array_equal(rep.times, integrate(cfg, params, basis, spec).times)
        assert rep.times.size == 5

    def test_noise_free_difference_is_seed_free(self, params, basis, zero_spec):
        # with lambda = 0 the coupled difference profile cannot depend on the
        # master seed at all
        u = np.zeros(basis.n_modes)
        u[1] = 1.0
        y = StateH(u, np.zeros(basis.n_modes))
        cfg1 = TrajectoryConfig(T=1.0, dt=1e-3, record_every=100, master_seed=1)
        cfg2 = replace(cfg1, master_seed=999)
        rep1 = coupled_run(y, cfg1, params, basis, zero_spec, n_paths=2)
        rep2 = coupled_run(y, cfg2, params, basis, zero_spec, n_paths=2)
        assert np.array_equal(rep1.delta_sq, rep2.delta_sq)


class TestEpsStudy:
    def test_invalid_ladder(self, params, basis, spec):
        cfg = TrajectoryConfig(T=0.01, dt=1e-3)
        with pytest.raises(ValueError):
            eps_convergence_study([], cfg, params, basis, spec)
        with pytest.raises(ValueError):
            eps_convergence_study([0.0], cfg, params, basis, spec)

    def test_distances_shrink_down_ladder(self, params, basis, spec):
        xi = basis.xi
        x0 = StateH.from_grid(1.5 * np.cos(math.pi * xi), np.zeros_like(xi), basis)
        cfg = TrajectoryConfig(T=0.25, dt=1e-3, x0=x0, master_seed=4)
        rep = eps_convergence_study([0.2, 0.05], cfg, params, basis, spec, n_paths=8)
        assert rep.distance[0] > rep.distance[1] > 0.0
        assert rep.f_eps_integral[0.2] > 0.0

    def test_shared_noise_same_eps_is_identical(self, params, basis, spec):
        # the same eps column co-simulated twice under one stream is bitwise
        # equal, so D(eps, eps) = 0; realized here through determinism of the
        # engine under a fixed (seed, path, interval) indexing
        cfg = TrajectoryConfig(T=0.1, dt=1e-3, eps=0.1, master_seed=6)
        r1 = integrate(cfg, params, basis, spec)
        r2 = integrate(cfg, params, basis, spec)
        assert np.array_equal(r1.terminal, r2.terminal)


class TestBackwardRun:
    def test_distances_and_envelope_fields(self, params, basis, spec, monkeypatch):
        rungs = []
        monkeypatch.setattr(solver, "run_ensemble", lambda *a: rungs.append(run_ensemble(*a)) or rungs[-1])
        cfg = TrajectoryConfig(T=1.0, dt=2e-3, master_seed=21)
        rep = backward_run([1.0, 2.0, 4.0], cfg, params, basis, spec, n_paths=6)
        assert [ens.times.size for ens in rungs] == [2, 2, 2]  # endpoints only
        assert set(rep.distances) == {(2.0, 1.0), (4.0, 1.0), (4.0, 2.0)}
        assert all(v > 0 for v in rep.distances.values())
        # deeper shared-noise overlap means smaller distance
        assert rep.distances[(4.0, 2.0)] < rep.distances[(4.0, 1.0)]
        assert rep.distances[(4.0, 2.0)] < rep.distances[(2.0, 1.0)]
        assert set(rep.envelope) == {1.0, 2.0, 4.0}
        assert np.isfinite(rep.envelope_constant)

    def test_ladder_validation(self, params, basis, spec):
        cfg = TrajectoryConfig(T=1.0, dt=1e-3)
        with pytest.raises(ValueError):
            backward_run([-1.0], cfg, params, basis, spec)


def test_ols_line_perfect_fit():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    a, b, r2 = _ols_line(xs, 2.0 - 0.5 * xs)
    assert a == approx(2.0) and b == approx(-0.5) and r2 == approx(1.0)
