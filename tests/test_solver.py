import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

from fhn_spectral import noise, solver
from fhn_spectral.kolmogorov import CylinderFunction, dynkin_residual
from fhn_spectral.model import EigenBasis, ModelParams, StateH, build_eigenbasis, norm_H_sq_arrays
from fhn_spectral.noise import NoiseSpec, PathStream, build_ou_kernel
from fhn_spectral.nonlinearity import DriftParams, grid_drift
from fhn_spectral.solver import (
    RECORD_ENDPOINTS,
    BlowUpError,
    TrajectoryConfig,
    _ols_line,
    _simulate_batch,
    backward_run,
    coupled_run,
    eps_convergence_study,
    resolve_workers,
    run_ensemble,
)


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
        rec = run_ensemble(TrajectoryConfig(T=0.0, x0=x0), params, basis, spec, 1)
        assert rec.times.shape == (1,)
        assert rec.h_norm_sq.shape == (1, 1)
        assert rec.h_norm_sq[0, 0] == approx(params.gamma)
        assert np.array_equal(rec.terminal[0], x0.as_array())

    def test_equilibrium_preserved(self, params, basis, zero_spec):
        rec = run_ensemble(TrajectoryConfig(T=0.1, dt=1e-3), params, basis, zero_spec, 1)
        assert rec.h_norm_sq.max() == 0.0
        assert np.all(rec.terminal == 0.0)

    def test_bitweise_deterministic(self, params, basis, spec):
        cfg = TrajectoryConfig(T=0.3, dt=1e-3, master_seed=99)
        r1 = run_ensemble(cfg, params, basis, spec, 1)
        r2 = run_ensemble(cfg, params, basis, spec, 1)
        assert np.array_equal(r1.h_norm_sq, r2.h_norm_sq)
        assert np.array_equal(r1.terminal, r2.terminal)

    def test_linear_step_matches_kernel(self, params, basis, zero_spec, rng):
        # noise off, F off: one step is exactly e^{M dt} per mode
        n = basis.n_modes
        x = StateH(rng.standard_normal(n), rng.standard_normal(n))
        dt = 0.05
        cfg = TrajectoryConfig(T=dt, dt=dt, x0=x, drift="linear")
        out = run_ensemble(cfg, params, basis, zero_spec, 1).terminal[0]
        kernel = build_ou_kernel(params, basis, None, dt, shifted=False)
        expect = np.einsum("kij,kj->ki", kernel.transition, x.as_array())
        assert out == approx(expect, abs=1e-13)

    def test_record_times_strictly_increasing(self, params, basis, spec):
        cfg = TrajectoryConfig(T=0.1, dt=1e-3, record_every=7, master_seed=3)
        rec = run_ensemble(cfg, params, basis, spec, 1)
        assert np.all(np.diff(rec.times) > 0)
        assert rec.times[-1] == approx(0.1)
        assert rec.h_norm_sq.shape == rec.v_norm_sq.shape == (1, rec.times.size)
        assert np.isfinite(rec.h_norm_sq).all() and np.isfinite(rec.v_norm_sq).all()

    @pytest.mark.parametrize(
        "record_every,steps",
        [(7, [0, 7, 14, 20]), (RECORD_ENDPOINTS, [0, 20]), (None, list(range(21)))],
    )
    def test_observer_sees_only_record_steps(self, params, basis, spec, record_every, steps):
        # the integrator applies the record rule; None leaves the default of every step
        seen = []
        kwargs = {} if record_every is None else {"record_every": record_every}
        _simulate_batch(
            params, basis, spec, dt=1e-3, n_steps=20, start_interval=0,
            x0=np.zeros((2, basis.n_modes, 2)), drift="fhn", eps_by_col=np.zeros(2),
            master_seed=0, path_ids=np.arange(2),
            on_step=lambda i, t, state: seen.append((i, t)), **kwargs,
        )
        assert seen == [(i, i * 1e-3) for i in steps]

    def test_blow_up_raises(self, params, basis, zero_spec):
        n = basis.n_modes
        x0 = StateH(np.full(n, 1e6), np.zeros(n))
        cfg = TrajectoryConfig(T=0.01, dt=1e-3, x0=x0)
        with pytest.raises(BlowUpError) as err:
            run_ensemble(cfg, params, basis, zero_spec, 1)
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
        # the column's state before the step, and the ceiling's substep count for it
        assert err.value.h_norm_sq == approx(params.gamma * n * 1e12)
        umax_sq = (basis.to_grid(x0[1, :, 0]) ** 2).max()
        assert err.value.substeps == approx(np.ceil(1e-3 * (1.0 + umax_sq) / 0.1), rel=1e-12)
        assert err.value.substeps > solver._MAX_SUBSTEPS

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_blow_up_is_the_earliest_over_chunks(self, monkeypatch, workers):
        # a transition scaled by 1.5 overflows every path near step 1764; at
        # seed 9 paths 0-31 fail one step after paths 32-63, so the error must
        # name the later block's path however the paths are dealt to workers
        params = ModelParams(n_modes=8, n_grid=16)
        basis = build_eigenbasis(params)
        spec = NoiseSpec.power_law(params.n_modes)
        real = solver.build_ou_kernel

        def growing(*args, **kwargs):
            ker = real(*args, **kwargs)
            return replace(ker, transition=1.5 * ker.transition)

        monkeypatch.setattr(solver, "build_ou_kernel", growing)
        cfg = TrajectoryConfig(T=2.0, dt=1e-3, drift="linear", master_seed=9)

        def blow_up(cfg, n_paths):
            with pytest.raises(BlowUpError) as err, np.errstate(over="ignore", invalid="ignore"):
                run_ensemble(cfg, params, basis, spec, n_paths)
            return err.value.step, err.value.path_id, err.value.time

        monkeypatch.setenv("FHN_SPECTRAL_WORKERS", "1")
        alone = [blow_up(replace(cfg, path_id=a), 32) for a in (0, 32)]
        assert [a[:2] for a in alone] == [(1765, 4), (1764, 49)]
        monkeypatch.setenv("FHN_SPECTRAL_WORKERS", workers)
        assert blow_up(cfg, 64) == alone[1]

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_blow_up_names_the_smallest_failing_path_id(self, params, basis, spec, monkeypatch, workers):
        # paths 5 and 9 of 70 start at u = 1e3 and 2e3, both above the substep
        # ceiling at step 0 and path 9 with the larger m; the error is path 5's
        # own, as it raises alone, however the paths share batches and workers
        real = solver._batch_columns

        def raised(cfg, basis, path_ids, **kwargs):
            cols = real(cfg, basis, path_ids, **kwargs)
            cols["x0"] = np.array(cols["x0"])
            for path_id, u in ((5, 1e3), (9, 2e3)):
                cols["x0"][cols["path_ids"] == path_id, 0, 0] = u  # e_0 is the constant mode
            return cols

        monkeypatch.setattr(solver, "_batch_columns", raised)
        cfg = TrajectoryConfig(T=0.01, dt=1e-3, master_seed=4)

        def blow_up(cfg, n_paths):
            with pytest.raises(BlowUpError) as err:
                run_ensemble(cfg, params, basis, spec, n_paths)
            e = err.value
            return e.what, e.time, e.step, e.path_id, e.h_norm_sq, e.substeps

        monkeypatch.setenv("FHN_SPECTRAL_WORKERS", "1")
        alone = [blow_up(replace(cfg, path_id=a), 1) for a in (5, 9)]
        assert [a[2:4] for a in alone] == [(0, 5), (0, 9)]
        assert solver._MAX_SUBSTEPS < alone[0][5] < alone[1][5]
        monkeypatch.setenv("FHN_SPECTRAL_WORKERS", workers)
        assert blow_up(cfg, 70) == alone[0]

    def test_substepped_run_converges(self, params, basis, zero_spec, monkeypatch):
        # u = 10 puts every dt here above the ceiling 0.1/(1 + max|u|^2), so the
        # run takes drift substeps until it decays; noise off, the terminal
        # state must still converge to a fine-dt reference as dt shrinks
        x0 = StateH.from_grid(np.full(basis.n_grid, 10.0), np.zeros(basis.n_grid), basis)
        cfg = TrajectoryConfig(T=0.2, dt=1.5625e-5, x0=x0, record_every=RECORD_ENDPOINTS)
        ref = run_ensemble(cfg, params, basis, zero_spec, 1).terminal[0]
        kernel_steps = []
        monkeypatch.setattr(
            solver, "build_ou_kernel", lambda *a, **kw: kernel_steps.append(a[3]) or build_ou_kernel(*a, **kw)
        )
        dts, errs = (4e-3, 2e-3, 1e-3), []
        for dt in dts:
            kernel_steps.clear()
            diff = run_ensemble(replace(cfg, dt=dt), params, basis, zero_spec, 1).terminal[0] - ref
            assert min(kernel_steps) < dt  # substep kernels were built
            errs.append(math.sqrt(norm_H_sq_arrays(diff[:, 0], diff[:, 1], params.gamma)))
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

    @pytest.mark.parametrize("drift", ["linear", "linear_eta"])
    def test_constant_p_linear_run_makes_no_grid_transform(
        self, params, basis, spec, monkeypatch, drift
    ):
        # without the cubic or a variable-p remainder nothing reads u on the grid
        calls = []
        to_grid = EigenBasis.to_grid
        monkeypatch.setattr(EigenBasis, "to_grid", lambda *a: calls.append(a) or to_grid(*a))
        x0 = np.zeros((2, basis.n_modes, 2))
        x0[:, 0, 0] = 1.0
        _simulate_batch(
            params, basis, spec, dt=1e-3, n_steps=4, start_interval=0, x0=x0,
            drift=drift, eps_by_col=np.zeros(2), master_seed=0, path_ids=np.arange(2),
        )
        assert calls == []


def _step_per_mode(params, basis, spec, dt, x0, drift, eps_by_col, path_ids, seed, interval):
    """One exponential Euler-Maruyama step written per mode on a (B, N, 2) state.

    Same operand order as e^{M dt} x + dt phi1(M dt) Fhat + factor z: products
    of a kernel entry and a coefficient, summed u-term first.  Each column
    asks the ceiling for its own substep count m.  The m = 1 columns take
    the step with the whole batch's Fhat; the columns of each m > 1 take m
    drift-only substeps on their own rows.  Returns the state and the m of
    every column.
    """
    n = basis.n_modes
    shifted = drift == "linear_eta"
    kernel = build_ou_kernel(params, basis, spec, dt, shifted=shifted)
    all_dps = [DriftParams(params.xi1, float(e)) for e in eps_by_col]

    def f_hat(x, cols):
        """Fhat of the columns ``cols``, or None for a linear drift with constant p."""
        dps = [all_dps[c] for c in cols]
        u_grid = basis.to_grid(x[..., 0])
        rem = (params.p_min - params.p_grid) * u_grid
        if drift == "fhn":
            # the raw cubic at eps = 0, f_{eta,eps} + eta u above it
            kinds = ["cubic" if dp.eps == 0.0 else "eta_eps" for dp in dps]
            g = np.stack([grid_drift(u_grid[b], dp, kinds[b]) for b, dp in enumerate(dps)])
            g = g if params.p_is_constant else g + rem
        elif not params.p_is_constant:
            g = rem
        else:
            return None
        fh = basis.to_coeffs(g)
        for b, dp in enumerate(dps):
            if drift == "fhn" and dp.eps != 0.0:
                fh[b] = fh[b] + dp.eta * x[b, :, 0]
        return fh

    def update(x, ker, h, fh):
        tr, ph = ker.transition, ker.phi1
        out = np.empty_like(x)
        for k in range(n):
            u, w = x[:, k, 0], x[:, k, 1]
            un = tr[k, 0, 0] * u + tr[k, 0, 1] * w
            wn = tr[k, 1, 0] * u + tr[k, 1, 1] * w
            if fh is not None:
                un = un + h * (ph[k, 0, 0] * fh[:, k])
                wn = wn + h * (ph[k, 1, 0] * fh[:, k])
            out[:, k, 0], out[:, k, 1] = un, wn
        return out

    x0 = np.array(x0, dtype=float)
    b = x0.shape[0]
    m_cols = np.ones(b, dtype=int)
    if drift == "fhn":
        u_grid = basis.to_grid(x0[..., 0])
        ceiling = np.ceil(dt * (1.0 + (u_grid * u_grid).max(axis=1)) / solver._CEILING_SCALE)
        m_cols = np.maximum(1, ceiling.astype(int))
    x = update(x0, kernel, dt, f_hat(x0, range(b)))
    for m in set(m_cols.tolist()) - {1}:
        cols = np.nonzero(m_cols == m)[0]
        sub = build_ou_kernel(params, basis, None, dt / m, shifted=shifted)
        ys = x0[cols]
        for _ in range(m):
            ys = update(ys, sub, dt / m, f_hat(ys, cols))
        x[cols] = ys
    fa = kernel.factor
    for b, pid in enumerate(path_ids):
        z = PathStream(n, seed, [pid]).normals(interval)[0]
        zu, zw = z[:n], z[n:]
        for k in range(n):
            x[b, k, 0] += fa[k, 0, 0] * zu[k] + fa[k, 0, 1] * zw[k]
            x[b, k, 1] += fa[k, 1, 0] * zu[k] + fa[k, 1, 1] * zw[k]
    return x, m_cols


_VARIABLE_P = ModelParams(p_profile=0.3 + 0.2 * ModelParams().xi ** 2)


class TestFusedStepOracle:
    @pytest.mark.parametrize(
        "drift,eps,variable_p,start,substeps",
        [
            ("fhn", (0.0,) * 6, False, "random", 1),
            ("linear", (0.0,) * 6, False, "random", 1),
            ("linear_eta", (0.0,) * 6, False, "random", 1),
            ("fhn", (0.0, 0.1, 0.05, 0.1, 0.0, 0.05), False, "random", 1),
            ("fhn", (0.1,) * 6, False, "random", 1),
            ("fhn", (0.0, 0.1, 0.05, 0.1, 0.0, 0.05), True, "random", 1),
            ("linear", (0.0,) * 6, True, "random", 1),
            ("fhn", (0.0,) * 6, False, "u10", 5),
            ("fhn", (0.0, 0.1, 0.05, 0.1, 0.0, 0.05), False, "mixed", (5, 1, 1, 5, 1, 5)),
        ],
    )
    @pytest.mark.parametrize("path_ids", [(0, 1, 2, 3, 4, 5), (9, 2, 2, 40, 0, 7)])
    def test_one_step_is_bitwise_the_per_mode_scheme(
        self, params, spec, rng, drift, eps, variable_p, start, substeps, path_ids
    ):
        params = _VARIABLE_P if variable_p else params
        basis = build_eigenbasis(params)
        n, b, dt = basis.n_modes, len(path_ids), 4e-3
        x0 = 0.4 * rng.standard_normal((b, n, 2)) / (1.0 + np.arange(n))[:, None]
        if start != "random":
            # u = 10 everywhere is above the ceiling 0.1/(1 + max|u|^2): in every
            # column, or in those the substep counts mark with 5
            u10 = StateH.from_grid(np.full(basis.n_grid, 10.0), np.zeros(basis.n_grid), basis)
            x0[np.broadcast_to(substeps, b) == 5] = u10.as_array()
        expect, m = _step_per_mode(
            params, basis, spec, dt, x0, drift, eps, path_ids, seed=21, interval=-3
        )
        assert np.array_equal(m, np.broadcast_to(substeps, b))
        got = _simulate_batch(
            params, basis, spec, dt=dt, n_steps=1, start_interval=-3, x0=x0, drift=drift,
            eps_by_col=np.array(eps), master_seed=21, path_ids=np.array(path_ids),
        )
        assert got.shape == (b, n, 2) and got.flags.c_contiguous
        assert np.array_equal(got, expect)

    def test_steps_across_refills_are_each_id_alone(self, rng):
        # a linear drift with constant p is row-local, so every column of a
        # batch with repeated and unsorted ids must have the bits of its id
        # run alone, over noise blocks that cross two refill edges
        params = ModelParams(n_modes=8, n_grid=16)
        basis = build_eigenbasis(params)
        spec = NoiseSpec.power_law(params.n_modes)
        per_refill = noise._REFILL_UNIFORMS // (2 * params.n_modes)
        path_ids = (9, 2, 2, 40, 0, 7)
        x0 = 0.4 * rng.standard_normal((len(path_ids), params.n_modes, 2))

        def run(cols):
            return _simulate_batch(
                params, basis, spec, dt=4e-3, n_steps=2 * per_refill + 5,
                start_interval=-(per_refill + 2), x0=x0[cols], drift="linear",
                eps_by_col=np.zeros(len(cols)), master_seed=21,
                path_ids=np.array(path_ids)[cols],
            )

        batch = run(list(range(len(path_ids))))
        assert per_refill == 128
        for col in range(len(path_ids)):
            assert np.array_equal(batch[col], run([col])[0]), path_ids[col]

    def test_observers_get_a_read_only_view(self, params, basis, spec):
        seen = []

        def observer(i, t, state):
            seen.append(state.shape)
            state[0, 0, 0] = 1.0

        with pytest.raises(ValueError, match="read-only"):
            _simulate_batch(
                params, basis, spec, dt=1e-3, n_steps=2, start_interval=0,
                x0=np.zeros((2, basis.n_modes, 2)), drift="fhn", eps_by_col=np.zeros(2),
                master_seed=0, path_ids=np.arange(2), on_step=observer,
            )
        assert seen == [(2, basis.n_modes, 2)]


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

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_chunks_side_by_side_keep_their_bits(self, params, basis, spec, monkeypatch, workers):
        # 136 = 4 x 32 + 8 paths from u = 10, above the substep ceiling: the
        # first step substeps every column at one m, and each block of 32
        # paths must keep the bits it has when run alone
        x0 = StateH.from_grid(np.full(basis.n_grid, 10.0), np.zeros(basis.n_grid), basis)
        cfg = TrajectoryConfig(T=0.02, dt=1e-3, x0=x0, record_every=3, master_seed=3)
        monkeypatch.setenv("FHN_SPECTRAL_WORKERS", "1")
        alone = [
            run_ensemble(replace(cfg, path_id=a), params, basis, spec, min(32, 136 - a))
            for a in range(0, 136, 32)
        ]
        kernel_steps = []
        monkeypatch.setattr(
            solver, "build_ou_kernel", lambda *a, **kw: kernel_steps.append(a[3]) or build_ou_kernel(*a, **kw)
        )
        monkeypatch.setenv("FHN_SPECTRAL_WORKERS", workers)
        fused = run_ensemble(cfg, params, basis, spec, 136)
        if workers == "1":
            assert kernel_steps == [1e-3, 5e-4]  # one batch, and its step at m = 2
        assert np.array_equal(fused.times, alone[0].times)
        for name in ("path_ids", "h_norm_sq", "v_norm_sq", "terminal"):
            assert np.array_equal(
                getattr(fused, name), np.concatenate([getattr(e, name) for e in alone])
            ), name

    def test_path_ids_offset(self, params, basis, spec):
        cfg = TrajectoryConfig(T=0.01, dt=1e-3, path_id=7)
        ens = run_ensemble(cfg, params, basis, spec, 3)
        assert ens.path_ids.tolist() == [7, 8, 9]

    def test_invalid_path_count(self, params, basis, spec):
        with pytest.raises(ValueError):
            run_ensemble(TrajectoryConfig(T=0.01), params, basis, spec, 0)

    @pytest.mark.parametrize("kwargs", [
        dict(n_modes=256, n_grid=512),
        dict(n_modes=32, n_grid=64),
        dict(n_modes=128, n_grid=256),
        dict(n_modes=32, n_grid=64, c_profile=1.0 + 0.5 * (np.arange(64) + 0.5) / 64),
    ], ids=["dct-256", "matmul-32", "matmul-128", "variable-c"])
    def test_path_bits_are_batch_independent(self, kwargs):
        # every basis is row-local end to end, by DCT or by one product per
        # row: path 5 has the same bits alone, in a batch of 7 and in a batch
        # of 100, at different column offsets
        params = ModelParams(**kwargs)
        basis = build_eigenbasis(params)
        assert basis.dct == (params.n_modes >= 256)
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

    def test_wide_run_holds_no_mode_table(self):
        # an N = 1024 cosine basis and a short run beside it stay well below
        # the 16 MiB (N, M) table the DCT transforms never read
        params = ModelParams(n_modes=1024, n_grid=2048)
        spec = NoiseSpec.power_law(params.n_modes)
        tracemalloc.start()
        try:
            basis = build_eigenbasis(params)
            tracemalloc.reset_peak()
            ens = run_ensemble(TrajectoryConfig(T=5e-3, dt=1e-3), params, basis, spec, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.terminal.shape == (3, params.n_modes, 2)
        assert peak <= 4 * 2**20

    def test_noise_refill_holds_one_buffer(self, params, basis, spec):
        # 256 columns at N = 32 over two refills: one (S, R, block) noise buffer
        # is 256 * 32 * 64 doubles = 4 MiB, and a step's state, update, noise
        # and temporaries are a few (B, 2, N) arrays; a refill that kept the
        # previous buffer, or a step that held a view of it, peaks near 8 MiB
        b, n = 256, params.n_modes
        per_refill = noise._REFILL_UNIFORMS // (2 * n)
        x0 = np.zeros((b, n, 2))
        refill_bytes = b * per_refill * 2 * n * 8
        state_bytes = x0.nbytes
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _simulate_batch(
                params, basis, spec, dt=1e-3, n_steps=2 * per_refill, start_interval=0,
                x0=x0, drift="linear", eps_by_col=np.zeros(b), master_seed=0,
                path_ids=np.arange(b),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert refill_bytes == 4 * 2**20
        assert peak < 1.5 * refill_bytes + 6 * state_bytes

    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.setenv("FHN_SPECTRAL_WORKERS", "4")
        assert resolve_workers() == 4
        for bad in ("junk", "0", "-3"):
            monkeypatch.setenv("FHN_SPECTRAL_WORKERS", bad)
            with pytest.raises(ValueError):
                resolve_workers()

    @pytest.mark.parametrize("n_paths,workers,sizes", [
        (72, 2, [36, 36]), (72, 3, [24, 24, 24]), (600, 1, [256, 256, 88]), (2, 3, [1, 1]),
    ])
    def test_deal_spans_are_the_one_rule(self, monkeypatch, n_paths, workers, sizes):
        # consecutive ranges of ceil(n_paths / workers) ids, at most 256 each
        monkeypatch.setenv("FHN_SPECTRAL_WORKERS", str(workers))
        jobs = solver._deal(list, (), 5, n_paths)
        assert [len(ids) for ids in jobs] == sizes
        assert [i for ids in jobs for i in ids] == list(range(5, 5 + n_paths))

    @pytest.mark.parametrize("caller", ["backward", "couple", "dynkin"])
    def test_dealt_callers_are_worker_independent(self, params, basis, spec, monkeypatch, caller):
        # 40 paths are one job at 1 worker, 20 + 20 at 2 and 14 + 14 + 12 at 3
        x0 = StateH.from_modes(basis.n_modes, u_modes=[(0, 1.0)])
        x_bar = StateH.from_modes(basis.n_modes, u_modes=[(1, 0.8)], w_modes=[(0, 0.3)])
        h = CylinderFunction.from_modes(basis.n_modes, params, spec, u_modes=[(0, 0.4), (1, 0.3)])
        cfg = TrajectoryConfig(T=0.1, dt=1e-3, x0=x0, record_every=10, master_seed=17)

        def run():
            if caller == "backward":
                rep = backward_run([0.05, 0.1, 0.2], cfg, params, basis, spec, n_paths=40)
            elif caller == "couple":
                rep = coupled_run(x_bar, cfg, params, basis, spec, n_paths=40)
            else:
                rep = dynkin_residual(h, 40, cfg, params, basis, spec)
            return rep.__dict__

        def same(a, b):
            if isinstance(a, dict):
                return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
            return np.array_equal(a, b)

        runs = []
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("FHN_SPECTRAL_WORKERS", workers)
            runs.append(run())
        assert same(runs[1], runs[0]) and same(runs[2], runs[0])


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
            terminal[dt] = run_ensemble(cfg, params, basis, zero_spec, 1).terminal[0]
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

        dp = DriftParams(params.xi1)
        for r in ratios:
            dt = r * h
            kernel = build_ou_kernel(params, basis, None, dt)
            n_steps = base_cfg.n_steps // r
            err_sq = 0.0
            for p in range(n_paths):
                stream = PathStream(n, base_cfg.master_seed, [p])
                x = x0.as_array().copy()
                for i in range(n_steps):
                    # aggregate the r fine noise increments exactly
                    xi = np.zeros((n, 2))
                    for j in range(r):
                        z = stream.normals(i * r + j)[0].reshape(2, n).T
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
        rep = coupled_run(StateH.zero(basis.n_modes), cfg, params, basis, spec, n_paths=2)
        assert rep.delta_sq.max() == 0.0

    @pytest.mark.parametrize("record_every,n_window", [(500, 0), (250, 1)])
    def test_exponents_need_two_window_records(self, params, basis, spec, record_every, n_window):
        # T = 0.5 records t = 0, 0.5 or t = 0, 0.25, 0.5: the window [T/4, 3T/4] holds
        # no record or one, so no line is fitted, per path as for the pool
        y = StateH.from_modes(basis.n_modes, u_modes=[(0, 1.0)])
        cfg = TrajectoryConfig(T=0.5, dt=1e-3, record_every=record_every, master_seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = coupled_run(y, cfg, params, basis, spec, n_paths=2)
        assert ((rep.times >= 0.125) & (rep.times <= 0.375)).sum() == n_window
        assert math.isnan(rep.pooled_exponent)
        assert np.isnan(rep.path_exponents).all()

    def test_decay_envelope_and_fit(self, params, basis, spec):
        u = np.zeros(basis.n_modes)
        u[0] = 1.0 / math.sqrt(params.gamma)
        y = StateH(u, np.zeros(basis.n_modes))
        cfg = TrajectoryConfig(T=6.0, dt=1e-3, record_every=50, master_seed=14)
        rep = coupled_run(y, cfg, params, basis, spec, n_paths=6)
        assert rep.delta_sq[:, 0] == approx(1.0)
        assert rep.envelope_ok
        assert rep.max_envelope_ratio <= 1.05
        assert rep.pooled_exponent >= 2.0 * rep.omega * 0.8
        assert np.all(rep.path_exponents >= 2.0 * rep.omega - 0.05)

    def test_times_match_integrate(self, params, basis, spec):
        # record_every = 30 does not divide n_steps = 100: both keep the last step
        x = StateH.zero(basis.n_modes)
        cfg = TrajectoryConfig(T=0.1, dt=1e-3, record_every=30, master_seed=8)
        rep = coupled_run(x, cfg, params, basis, spec)
        assert np.array_equal(rep.times, run_ensemble(cfg, params, basis, spec, 1).times)
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
        r1 = run_ensemble(cfg, params, basis, spec, 1)
        r2 = run_ensemble(cfg, params, basis, spec, 1)
        assert np.array_equal(r1.terminal, r2.terminal)


class TestBackwardRun:
    def test_distances_and_envelope_fields(self, params, basis, spec, monkeypatch):
        batches = []

        def spy(*args, **kwargs):
            batches.append((kwargs["x0"].shape[0], kwargs["n_steps"], kwargs.get("on_step")))
            return _simulate_batch(*args, **kwargs)

        monkeypatch.setattr(solver, "_simulate_batch", spy)
        cfg = TrajectoryConfig(T=1.0, dt=2e-3, master_seed=21)
        rep = backward_run([1.0, 2.0, 4.0], cfg, params, basis, spec, n_paths=6)
        # one pass: the rungs join from the deepest down, and nothing is recorded
        assert batches == [(6, 1000, None), (12, 500, None), (18, 500, None)]
        assert set(rep.distances) == {(2.0, 1.0), (4.0, 1.0), (4.0, 2.0)}
        assert all(v > 0 for v in rep.distances.values())
        # deeper shared-noise overlap means smaller distance
        assert rep.distances[(4.0, 2.0)] < rep.distances[(4.0, 1.0)]
        assert rep.distances[(4.0, 2.0)] < rep.distances[(2.0, 1.0)]
        assert set(rep.envelope) == {1.0, 2.0, 4.0}
        assert np.isfinite(rep.envelope_constant)

    def test_one_pass_draws_each_interval_once_per_path(self, params, basis, spec, monkeypatch):
        # jobs of at most 16 paths, so 40 paths take several passes: every
        # (path id, interval) of [-4, 0) is drawn exactly once, whatever the
        # jobs, and each rung ends bitwise where a run from -lambda alone ends
        cfg = TrajectoryConfig(T=1.0, dt=4e-3, x0=StateH.from_modes(32, u_modes=[(0, 1.5)]),
                               master_seed=7)
        monkeypatch.setattr(solver, "_MAX_SPAN", 16)
        draws = Counter()
        normals = PathStream.normals
        monkeypatch.setattr(
            PathStream, "normals",
            lambda self, j: draws.update((int(k), j) for k in self._keys) or normals(self, j),
        )
        rep = backward_run([1.0, 2.0, 4.0], cfg, params, basis, spec, n_paths=40)
        assert draws == Counter({(p, j): 1 for p in range(40) for j in range(-1000, 0)})
        monkeypatch.setattr(PathStream, "normals", normals)
        for lam in (1.0, 2.0, 4.0):
            rung = replace(cfg, T=lam, start_time=-lam, record_every=RECORD_ENDPOINTS)
            assert np.array_equal(rep.terminal[lam], run_ensemble(rung, params, basis, spec, 40).terminal)
            assert rep.terminal[lam].flags.c_contiguous

    def test_ladder_validation(self, params, basis, spec):
        cfg = TrajectoryConfig(T=1.0, dt=1e-3)
        with pytest.raises(ValueError):
            backward_run([-1.0], cfg, params, basis, spec)


def test_ols_line_perfect_fit():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    a, b, r2 = _ols_line(xs, 2.0 - 0.5 * xs)
    assert a == approx(2.0) and b == approx(-0.5) and r2 == approx(1.0)
