"""Acceptance gate: every criterion at its stated tolerance, one line each.

These are the exit criteria of the package.  Each ``test_criterion``
executes one criterion at full (non-quick) scale with the pinned master
seed, on two workers, and asserts the pass flag and that no ``details``
key repeats a check's name; the measured quantities and the checks are
printed so a log of this module doubles as the acceptance report.
``TestCheckDerivation`` checks that the pass flag is derived from the
checks alone, ``TestPinnedCubic`` that criterion 1 fails on a planted
defect of the cubic, ``test_nan_f_prime_fails_criterion_2`` that a NaN
scan value reaches its check, ``TestTraceQuadrature`` that criterion 4's
quadrature has the power to fail, and ``TestReproducibility`` that
criterion 12's comparison does.  ``test_quick_record_survives_tracing``
holds the quick checks of a run to the same bits plain and under the
benchmark's layer tracer.
"""

import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from fhn_spectral import acceptance, cli, nonlinearity
from fhn_spectral.model import ModelParams, build_eigenbasis
from fhn_spectral.noise import NoiseSpec
from fhn_spectral.acceptance import CRITERIA, Check, _exp_sinh_integral, run_criterion
from fhn_spectral.noise import build_ou_kernel, convolution_trace_integrand, htrace_mode_cov

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import layertrace  # noqa: E402

MASTER_SEED = 0


@pytest.mark.parametrize("cid,name", [(c, n) for c, n, _ in CRITERIA], ids=lambda v: str(v))
def test_criterion(cid, name, monkeypatch):
    # the solver deals paths to two worker processes; no byte depends on it
    monkeypatch.setenv("FHN_SPECTRAL_WORKERS", "2")
    result = run_criterion(cid, quick=False, master_seed=MASTER_SEED)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {cid:2d}: {result.name} ({result.elapsed:.1f}s)")
    for key, value in result.details.items():
        print(f"         {key} = {value}")
    for check in result.checks:
        print(f"         check {check.name}: {check.value} {check.op} {check.bound} -> {check.passed}")
    assert result.passed, f"criterion {cid} ({name}) failed: {result.details}"
    # each gated statistic is recorded once, in its check; this catches a
    # details key named like a check, not a copy of a check's field kept
    # under another name
    assert not result.details.keys() & {check.name for check in result.checks}


def _record(result) -> str:
    """A criterion's checks and details, every float by its exact repr."""
    checks = [{**dataclasses.asdict(c), "passed": c.passed} for c in result.checks]
    return json.dumps({"checks": checks, "details": result.details}, sort_keys=True, default=str)


@pytest.mark.parametrize("cid", [1, 2, 3, 6, 7, 10])
def test_quick_record_survives_tracing(cid):
    # the `verify` benchmark's determinism digest hashes `details` alone, and
    # these criteria keep only sizes there: their gated statistics are held to
    # the same bits here, in a second run and under the layer tracer
    plain = _record(run_criterion(cid, quick=True, master_seed=MASTER_SEED))
    with layertrace.installed(layertrace.Tracer()):
        traced = _record(run_criterion(cid, quick=True, master_seed=MASTER_SEED))
    assert traced == plain


# one check per comparison, each passing at its bound where the bound is not
# strict, with a value that fails it
PASSING_AND_FAILING = [
    (Check("upper", 1.0, 1.0), np.nextafter(1.0, 2.0)),
    (Check("strict_upper", 0.5, 1.0, op="<"), 1.0),
    (Check("lower", 2.0, 2.0, op=">="), np.nextafter(2.0, 0.0)),
    (Check("strict_lower", 3.0, 2.0, op=">"), 2.0),
    (Check("two_sided", 1.2, (0.8, 1.2)), 0.79),
    (Check("two_sided_low", 0.8, (0.8, 1.2)), 1.21),
    (Check("with_se", 0.3, 0.9, se=0.3), 0.91),
]


class TestCheckDerivation:
    """run_criterion derives a criterion's pass flag from its checks alone."""

    def _run(self, monkeypatch, checks):
        fake = lambda quick, master_seed: ({"statistic": 1.0}, checks)
        monkeypatch.setattr(acceptance, "CRITERIA", [(99, "fake", fake)])
        return run_criterion(99, quick=True)

    def test_passing_checks_pass(self, monkeypatch):
        checks = [check for check, _ in PASSING_AND_FAILING]
        result = self._run(monkeypatch, checks)
        assert result.passed is True
        assert result.checks == checks and result.details == {"statistic": 1.0}

    @pytest.mark.parametrize("index", range(len(PASSING_AND_FAILING)))
    @pytest.mark.parametrize("bad", ["out_of_bound", "nan"])
    def test_one_failing_check_fails(self, monkeypatch, index, bad):
        checks = [check for check, _ in PASSING_AND_FAILING]
        value = PASSING_AND_FAILING[index][1] if bad == "out_of_bound" else math.nan
        checks[index] = dataclasses.replace(checks[index], value=value)
        assert not checks[index].passed
        assert self._run(monkeypatch, checks).passed is False

    @pytest.mark.parametrize("op,bound", [("<", 1.0), (">", 1.0), ("<", (0.0, 1.0)), ("<", (1.0, 2.0))])
    def test_strict_bound_fails_at_equality(self, op, bound):
        assert Check("at_bound", 1.0, bound, op=op).passed is False

    @pytest.mark.parametrize("names", [[], ["a", "b", "a"]], ids=["empty", "repeated"])
    def test_no_or_repeated_checks_raise(self, monkeypatch, names):
        with pytest.raises(ValueError, match="distinct names"):
            self._run(monkeypatch, [Check(name, 0.0, 1.0) for name in names])


class TestPinnedCubic:
    """Criterion 1 fails when the library's cubic is not the paper's -u(u - 1)(u - xi1)."""

    LIBRARY = {"f_ratio", "f_eta_ratio", "f_eta_eps0_ratio", "grid_drift_cubic_ratio",
               "grid_drift_eta_eps_ratio", "explicit_term_ratio"}

    @pytest.mark.parametrize(
        "defect",
        [lambda f: lambda u, xi1: 0.9 * f(u, xi1), lambda f: lambda u, xi1: f(u, xi1 + 0.05)],
        ids=["scaled-0.9", "xi1-plus-0.05"],
    )
    def test_planted_defect_fails(self, monkeypatch, defect):
        planted = defect(nonlinearity.f)
        # both names, as the same defect in nonlinearity.py's source would
        monkeypatch.setattr(nonlinearity, "f", planted)
        monkeypatch.setattr(acceptance, "f", planted)
        result = run_criterion(1, quick=True, master_seed=MASTER_SEED)
        assert result.passed is False
        assert {c.name for c in result.checks if not c.passed} == self.LIBRARY


def test_nan_f_prime_fails_criterion_2(monkeypatch):
    # the scan folds its maximum by np.maximum, which keeps the NaN
    monkeypatch.setattr(acceptance, "f_eta_eps_prime", lambda u, dp: np.full_like(u, np.nan))
    result = run_criterion(2, quick=True, master_seed=MASTER_SEED)
    assert math.isnan(next(c.value for c in result.checks if c.name == "max_f_prime"))
    assert result.passed is False
    assert [c.name for c in result.checks if not c.passed] == ["max_f_prime"]


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
        assert run_criterion(4, quick=True, master_seed=MASTER_SEED).passed
        monkeypatch.setattr(
            acceptance, "convolution_trace_integral",
            lambda *a, **kw: true_closed(*a, **kw) * (1.0 + 1e-7),
        )
        assert not run_criterion(4, quick=True, master_seed=MASTER_SEED).passed


class TestReproducibility:
    """Criterion 12 fails when one worker count's artifacts differ from the others'."""

    def _run_with(self, monkeypatch, alter, name="path_0001.csv"):
        # alter(path, workers) runs after the file ``name`` is written; an alter
        # that never runs leaves the criterion passing, which the tests refuse
        write_csv = cli.write_csv

        def writer(path, header, rows):
            write_csv(path, header, rows)
            if path.name == name:
                alter(path, os.environ["FHN_SPECTRAL_WORKERS"])

        monkeypatch.setattr(cli, "write_csv", writer)
        return run_criterion(12, quick=True, master_seed=MASTER_SEED)

    @staticmethod
    def _flip_last_digit_at(at):
        def flip(path, workers):
            if workers == at:
                text = path.read_bytes()
                path.write_bytes(text[:-2] + bytes([text[-2] ^ 1]) + text[-1:])

        return flip

    def test_one_byte_off_at_two_workers_fails(self, monkeypatch):
        result = self._run_with(monkeypatch, self._flip_last_digit_at("2"))
        assert result.passed is False
        assert "simulate/path_0001.csv" in result.details["files"]

    def test_one_coupled_byte_off_at_three_workers_fails(self, monkeypatch):
        # couple deals its paths like simulate, so its bytes are compared too
        result = self._run_with(monkeypatch, self._flip_last_digit_at("3"), name="decay.csv")
        assert result.passed is False
        assert {"couple/decay.csv", "couple/summary.json"} <= set(result.details["files"])

    def test_file_missing_at_one_worker_count_fails(self, monkeypatch):
        def drop_at_three(path, workers):
            if workers == "3":
                path.unlink()

        result = self._run_with(monkeypatch, drop_at_three)
        assert result.passed is False

    def test_simulate_exit_code_fails(self, monkeypatch):
        monkeypatch.setattr(cli, "main", lambda argv: cli.EXIT_CONFIG)
        result = run_criterion(12, quick=True, master_seed=MASTER_SEED)
        assert result.passed is False
        assert [(c.name, c.value) for c in result.checks] == [("simulate_exit_code", cli.EXIT_CONFIG)]
