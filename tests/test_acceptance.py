"""Acceptance gate: every criterion at its stated tolerance, one line each.

These are the exit criteria of the package.  Each ``test_criterion``
executes one criterion at full (non-quick) scale with the pinned master
seed and asserts the pass flag; the measured quantities are printed so a
log of this module doubles as the acceptance report.  ``TestTraceQuadrature``
checks that criterion 4's quadrature has the power to fail, and
``TestReproducibility`` that criterion 12's comparison does.
"""

import os

import numpy as np
import pytest
from scipy.integrate import quad

from fhn_spectral import ModelParams, NoiseSpec, acceptance, build_eigenbasis, cli
from fhn_spectral.acceptance import CRITERIA, _exp_sinh_integral, run_criterion
from fhn_spectral.noise import build_ou_kernel, convolution_trace_integrand, htrace_mode_cov

MASTER_SEED = 0


@pytest.mark.parametrize("cid,name", [(c, n) for c, n, _ in CRITERIA], ids=lambda v: str(v))
def test_criterion(cid, name):
    result = run_criterion(cid, quick=False, master_seed=MASTER_SEED)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {cid:2d}: {result.name} ({result.elapsed:.1f}s)")
    for key, value in result.details.items():
        print(f"         {key} = {value}")
    assert result.passed, f"criterion {cid} ({name}) failed: {result.details}"


class TestTraceQuadrature:
    """Criterion 4's exp-sinh rule against quad, finite horizons and a wrong closed form."""

    @pytest.mark.parametrize(
        "overrides", [{}, {"alpha": 0.12, "p_profile": 0.26}], ids=["default", "criterion9"]
    )
    def test_rule_matches_quad(self, overrides):
        params = ModelParams(**overrides)
        basis = build_eigenbasis(params)
        spec = NoiseSpec.power_law(params.n_modes)
        rule, gap = _exp_sinh_integral(lambda s: convolution_trace_integrand(s, params, basis, spec))
        reference, _ = quad(
            lambda s: convolution_trace_integrand(s, params, basis, spec),
            0.0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=500,
        )
        assert abs(rule - reference) <= 1e-12 * abs(reference)
        assert gap <= 1e-13 * abs(rule)

    def test_node_blocks_change_no_bit(self, params, basis, spec, monkeypatch):
        # the integrand treats each node on its own, so handing it the nodes in
        # blocks gives the rule and its gap exactly as one call per pass does
        f = lambda s: convolution_trace_integrand(s, params, basis, spec)
        blocked = _exp_sinh_integral(f)
        monkeypatch.setattr(acceptance, "_NODE_BLOCK", 10**9)
        assert _exp_sinh_integral(f) == blocked

    @pytest.mark.parametrize("horizon", [1.0, 40.0])
    def test_finite_horizon_matches_closed_form(self, params, basis, spec, horizon):
        # int_0^T f = int_0^inf [f(s) - f(s + T)] ds, both on the exp-sinh nodes
        f = lambda s: convolution_trace_integrand(s, params, basis, spec)
        rule, _ = _exp_sinh_integral(lambda s: f(s) - f(s + horizon))
        closed = htrace_mode_cov(
            build_ou_kernel(params, basis, spec, horizon, shifted=True).cov, params.gamma
        )
        assert rule == pytest.approx(closed, rel=1e-12)

    def test_closed_form_off_by_1e7_fails(self, monkeypatch):
        true_closed = acceptance.convolution_trace_integral
        assert acceptance.criterion_4_trace(True, MASTER_SEED)["passed"]
        monkeypatch.setattr(
            acceptance, "convolution_trace_integral",
            lambda *a, **kw: true_closed(*a, **kw) * (1.0 + 1e-7),
        )
        assert not acceptance.criterion_4_trace(True, MASTER_SEED)["passed"]


class TestReproducibility:
    """Criterion 12 fails when one worker count's artifacts differ from the others'."""

    def _run_with(self, monkeypatch, alter):
        # alter(path, workers) runs after path_0001.csv is written; an alter
        # that never runs leaves the criterion passing, which both tests refuse
        write_csv = cli.write_csv

        def writer(path, header, rows):
            write_csv(path, header, rows)
            if path.name == "path_0001.csv":
                alter(path, os.environ["FHN_SPECTRAL_WORKERS"])

        monkeypatch.setattr(cli, "write_csv", writer)
        return acceptance.criterion_12_reproducibility(True, MASTER_SEED)

    def test_one_byte_off_at_two_workers_fails(self, monkeypatch):
        def flip_last_digit(path, workers):
            if workers == "2":
                text = path.read_bytes()
                path.write_bytes(text[:-2] + bytes([text[-2] ^ 1]) + text[-1:])

        result = self._run_with(monkeypatch, flip_last_digit)
        assert result["passed"] is False
        assert "path_0001.csv" in result["files"]

    def test_file_missing_at_one_worker_count_fails(self, monkeypatch):
        def drop_at_three(path, workers):
            if workers == "3":
                path.unlink()

        result = self._run_with(monkeypatch, drop_at_three)
        assert result["passed"] is False
