import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from fhn_spectral import build_eigenbasis
from fhn_spectral.cli import EXIT_BLOWUP, EXIT_CONFIG, build_parser, main
from fhn_spectral.config import (
    ConfigError,
    build_noise,
    build_params,
    build_run_config,
    build_x0,
    load_config,
    merge_config,
)


class TestConfigValidation:
    def test_defaults_merge(self):
        cfg = merge_config({})
        assert cfg["model"]["alpha"] == 1.0
        assert cfg["noise"]["sigma2"] == 0.01
        assert cfg["paths"] == 64

    @pytest.mark.parametrize(
        "raw,path",
        [
            ({"bogus": 1}, "bogus"),
            ({"model": {"alphaa": 1.0}}, "model.alphaa"),
            ({"run": {"dt": -1.0}}, "run.dt"),
            ({"run": {"drift": "nope"}}, "run.drift"),
            ({"run": {"x0": {"kind": "wavelet"}}}, "run.x0.kind"),
            ({"run": {"x0": {"kind": "zero", "u": 1}}}, "run.x0.u"),
            ({"master_seed": -3}, "master_seed"),
            ({"paths": 0}, "paths"),
            ({"model": {"alpha": "one"}}, "model.alpha"),
            ({"noise": {"lambda1": [1.0]}}, "noise.lambda1"),
            ({"moments": {"m": 2}}, "moments.m"),
            ({"backward": {"lambda_ladder": 5.0}}, "backward.lambda_ladder"),
            ({"run": {"record_every": None}}, "run.record_every"),
            ({"run": {"record_every": 2.7}}, "run.record_every"),
            ({"run": {"record_every": True}}, "run.record_every"),
            ({"run": {"start_time": None}}, "run.start_time"),
            ({"run": {"eps": "x"}}, "run.eps"),
            ({"run": {"eps": -0.1}}, "run.eps"),
            ({"couple": {"x0_b": {"kind": "constant", "u": 1, "bogus": 3}}}, "couple.x0_b.bogus"),
            ({"couple": {"x0_b": {"kind": "wavelet"}}}, "couple.x0_b.kind"),
            ({"couple": {"envelope_tol": "x"}}, "couple.envelope_tol"),
            ({"dynkin": {"t": 0.2}}, "dynkin.t"),
            ({"couple": {"x0_a": {"kind": "zero"}}}, "couple.x0_a"),
            ({"invariant": {"n_ensemble": 36}}, "invariant.n_ensemble"),
            ({"invariant": {"burn_in": "x"}}, "invariant.burn_in"),
            ({"invariant": {"sample_spacing": None}}, "invariant.sample_spacing"),
            ({"invariant": {"n_time_samples": "x"}}, "invariant.n_time_samples"),
            ({"invariant": {"n_time_samples": 0}}, "invariant.n_time_samples"),
            ({"invariant": {"pairing_mode": 99}}, "invariant.pairing_mode"),
            ({"invariant": {"pairing_mode": -1}}, "invariant.pairing_mode"),
            ({"invariant": {"pairing_channel": "v"}}, "invariant.pairing_channel"),
            ({"linear_oracle": {"burn_in": "x"}}, "linear_oracle.burn_in"),
            ({"dynkin": {"h_u": [[0, "a"]]}}, "dynkin.h_u"),
            ({"dynkin": {"h_w": [[32, 0.1]]}}, "dynkin.h_w"),
            (
                {"couple": {"x0_b": {"kind": "scaled", "base": {"kind": "zero"}, "h_norm": 1}}},
                "couple.x0_b.base",
            ),
            ({"run": {"x0": {"kind": "cosine", "u_mode": "a"}}}, "run.x0.u_mode"),
            ({"run": {"T": 0.00037}}, "run.T"),
            ({"run": {"start_time": 0.0005}}, "run.start_time"),
            ({"run": {"T": float("nan")}}, "run.T"),
            ({"run": {"x0": {"kind": "coeffs", "u_hat": [0.1] * 33}}}, "run.x0.u_hat"),
            (
                {"couple": {"x0_b": {"kind": "scaled", "h_norm": 1,
                                     "base": {"kind": "coeffs", "w_hat": [0.1] * 33}}}},
                "couple.x0_b.base.w_hat",
            ),
            ({"invariant": {"sample_spacing": 0.0}}, "invariant.sample_spacing"),
            ({"invariant": {"sample_spacing": -1.0}}, "invariant.sample_spacing"),
            (
                {"run": {"dt": 1e-3}, "invariant": {"sample_spacing": 0.0004}},
                "invariant.sample_spacing",
            ),
            (
                {"run": {"dt": 1e-3}, "invariant": {"sample_spacing": 1e-12}},
                "invariant.sample_spacing",
            ),
        ],
    )
    def test_rejections_carry_path(self, raw, path):
        with pytest.raises(ConfigError) as err:
            merge_config(raw)
        assert path in str(err.value)

    def test_noise_tables_accepted(self):
        n = 32
        cfg = merge_config(
            {"noise": {"lambda1": [0.1] * n, "lambda2": [0.2] * n}}
        )
        spec = build_noise(cfg)
        assert spec.lambda1[0] == 0.1 and spec.lambda2[0] == 0.2

    def test_profile_tables(self):
        cfg = merge_config({"model": {"c": [1.0] * 64, "p": [0.4] * 64}})
        params = build_params(cfg)
        assert params.c_is_constant and params.p_min == approx(0.4)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "line" in str(err.value)


# a valid config with an object at every nesting depth the schema has
_NESTED = {
    "run": {"x0": {"kind": "scaled", "base": {"kind": "constant", "u": 1.0}, "h_norm": 2.0}},
    "couple": {"x0_b": {"kind": "cosine", "u_amplitude": 1.0, "u_mode": 2}},
}
_BLOCKS = [
    (), ("model",), ("noise",), ("run",), ("run", "x0"), ("run", "x0", "base"),
    ("couple",), ("couple", "x0_b"), ("convergence",), ("backward",), ("moments",),
    ("invariant",), ("linear_oracle",), ("dynkin",), ("eigen",), ("acceptance",),
]
_NOT_A_NUMBER = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.just(float("inf")), st.just(float("nan")),
)
_NOT_AN_INT = st.one_of(_NOT_A_NUMBER, st.floats())
_NOT_NUMBERS = st.one_of(
    _NOT_A_NUMBER.filter(lambda v: not isinstance(v, list)),
    st.lists(_NOT_A_NUMBER, min_size=1, max_size=3),
)
_X0_FIELDS = {
    "constant": {"u": _NOT_A_NUMBER, "w": _NOT_A_NUMBER},
    "cosine": {
        "u_amplitude": _NOT_A_NUMBER, "w_amplitude": _NOT_A_NUMBER,
        "u_mode": _NOT_AN_INT, "w_mode": _NOT_AN_INT,
    },
    "coeffs": {"u_hat": _NOT_NUMBERS, "w_hat": _NOT_NUMBERS},
    "scaled": {"h_norm": _NOT_A_NUMBER},
}


def _merge_error(raw) -> ConfigError:
    with pytest.raises(ConfigError) as err:
        merge_config(raw)
    return err.value


class TestConfigProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        block=st.sampled_from(_BLOCKS),
        suffix=st.text(alphabet="abcdefghijklmnopqrstuvwxyz_0123456789", max_size=8),
    )
    def test_unknown_key_at_any_depth(self, block, suffix):
        raw = json.loads(json.dumps(_NESTED))
        node = raw
        for name in block:
            node = node.setdefault(name, {})
        key = "bogus" + suffix
        node[key] = 1
        assert _merge_error(raw).path == ".".join(block + (key,))

    @settings(max_examples=60, deadline=None)
    @given(
        field=st.sampled_from(["T", "dt", "eps", "start_time", "record_every", "drift", "x0"]),
        data=st.data(),
    )
    def test_wrong_typed_run_field(self, field, data):
        bad = data.draw(
            {
                "record_every": _NOT_AN_INT,
                "drift": _NOT_A_NUMBER.filter(lambda v: v not in ("fhn", "linear", "linear_eta")),
                "x0": _NOT_A_NUMBER,
            }.get(field, _NOT_A_NUMBER)
        )
        assert _merge_error({"run": {field: bad}}).path == f"run.{field}"

    @settings(max_examples=60, deadline=None)
    @given(
        where=st.sampled_from([("run", "x0"), ("couple", "x0_b")]),
        kind_field=st.sampled_from([(k, f) for k, fs in _X0_FIELDS.items() for f in fs]),
        data=st.data(),
    )
    def test_wrong_typed_x0_field(self, where, kind_field, data):
        kind, field = kind_field
        x0 = {"kind": kind}
        if kind == "scaled":
            x0["base"] = {"kind": "constant", "u": 1.0}
        x0[field] = data.draw(_X0_FIELDS[kind][field])
        raw = {where[0]: {where[1]: x0}}
        assert _merge_error(raw).path == f"{where[0]}.{where[1]}.{field}"

    @settings(max_examples=60, deadline=None)
    @given(
        key=st.sampled_from(["T", "start_time"]),
        dt=st.sampled_from([1e-3, 2e-3, 0.05, 0.1]),
        steps=st.integers(0, 5000),
        frac=st.floats(0.01, 0.99),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_time_off_the_dt_grid(self, key, dt, steps, frac, sign):
        value = (steps + frac) * dt * (sign if key == "start_time" else 1.0)
        assert _merge_error({"run": {"dt": dt, key: value}}).path == f"run.{key}"


class TestX0Builders:
    def test_zero(self, params, basis):
        assert build_x0({"kind": "zero"}, params, basis, "run.x0") is None

    def test_constant(self, params, basis):
        x = build_x0({"kind": "constant", "u": 2.0, "w": -1.0}, params, basis, "run.x0")
        assert x.u_hat[0] == approx(2.0)
        assert x.w_hat[0] == approx(-1.0)
        assert np.abs(x.u_hat[1:]).max() < 1e-12

    def test_cosine(self, params, basis):
        x = build_x0({"kind": "cosine", "u_amplitude": 3.0, "u_mode": 2}, params, basis, "run.x0")
        assert x.u_hat[2] == approx(3.0 / math.sqrt(2.0))
        assert np.all(x.w_hat == 0.0)

    def test_coeffs(self, params, basis):
        x = build_x0({"kind": "coeffs", "u_hat": [1.0, 2.0], "w_hat": [0.5]}, params, basis, "run.x0")
        assert x.u_hat[1] == 2.0 and x.w_hat[0] == 0.5

    def test_scaled(self, params, basis):
        x = build_x0(
            {"kind": "scaled", "base": {"kind": "constant", "u": 1.0}, "h_norm": 5.0},
            params,
            basis,
            "run.x0",
        )
        norm = math.sqrt(params.gamma * x.u_hat @ x.u_hat + x.w_hat @ x.w_hat)
        assert norm == approx(5.0)

    def test_run_config_build(self):
        cfg = merge_config({"run": {"T": 2.0, "dt": 0.01, "eps": 0.1}})
        params = build_params(cfg)
        basis = build_eigenbasis(params)
        run_cfg = build_run_config(cfg, params, basis)
        assert run_cfg.n_steps == 200 and run_cfg.eps == 0.1


class TestCLI:
    def test_paths_zero_is_config_error(self, tmp_path, capsys):
        rc = main(["simulate", "--paths", "0", "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "paths" in capsys.readouterr().err

    def test_unread_settings_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"moments": {"m": 2}}))
        rc = main(["moments", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "moments.m" in capsys.readouterr().err
        # the deleted duplicates of run.T, run.x0 and paths are unknown keys
        for command, raw, path in (
            ("dynkin", {"dynkin": {"t": 0.2}}, "dynkin.t"),
            ("couple", {"couple": {"x0_a": {"kind": "zero"}}}, "couple.x0_a"),
            ("invariant", {"invariant": {"n_ensemble": 36}}, "invariant.n_ensemble"),
        ):
            cfg.write_text(json.dumps(raw))
            rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
            assert rc == EXIT_CONFIG
            assert path in capsys.readouterr().err
        assert build_parser().parse_args(["acceptance", "--quick"]).quick
        for argv in (
            ["simulate", "--quick"],
            ["dynkin", "--h-modes", "0,1"],
            ["dynkin", "--t", "0.5"],
            ["dynkin", "--dt", "1e-3"],
        ):
            with pytest.raises(SystemExit) as err:
                main(argv + ["--out", str(tmp_path / "o")])
            assert err.value.code == EXIT_CONFIG

    def test_scaled_zero_state_base_is_config_error(self, tmp_path, capsys):
        # the base is not of kind zero but builds to the zero state
        zero_base = {"kind": "scaled", "base": {"kind": "constant", "u": 0}, "h_norm": 1.0}
        cfg = tmp_path / "cfg.json"
        for command, raw, path in (
            ("simulate", {"run": {"T": 0.01, "x0": zero_base}}, "run.x0.base"),
            ("couple", {"run": {"T": 0.01}, "couple": {"x0_b": zero_base}}, "couple.x0_b.base"),
        ):
            cfg.write_text(json.dumps(raw))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = main([command, "--config", str(cfg), "--paths", "1", "--out", str(tmp_path / "o")])
            assert rc == EXIT_CONFIG
            assert path in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["backward", "convergence", "dynkin", "moments"])
    def test_single_path_standard_errors_are_config_errors(self, tmp_path, capsys, command):
        # a standard error needs two paths; one path must not give se = nan or a traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"run": {"T": 0.05, "dt": 1e-3}, "backward": {"lambda_ladder": [0.02, 0.04]}}
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, "--config", str(cfg), "--paths", "1", "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "need at least 2 paths" in err
        assert "Traceback" not in err

    def test_bad_workers_env_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FHN_SPECTRAL_WORKERS", "junk")
        rc = main(["simulate", "--paths", "1", "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "FHN_SPECTRAL_WORKERS" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"alphaa": 2}}))
        rc = main(["eigen", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_eigen_outputs(self, tmp_path):
        out = tmp_path / "eig"
        rc = main(["eigen", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mu"][1] == approx(-math.pi**2)
        assert summary["version"]
        assert summary["config"]["model"]["alpha"] == 1.0
        header = (out / "eigenbasis.csv").read_text().splitlines()[0]
        assert header.split(",")[:2] == ["xi", "e_0"]

    def test_simulate_and_reproducibility(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"run": {"T": 0.05, "dt": 1e-3, "record_every": 10}, "paths": 3}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("path_0000.csv", "path_0002.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_default_sample_spacing_allows_any_dt(self, tmp_path):
        # the spacing's grid check applies only to a spacing the config sets
        raw = {"run": {"dt": 3e-3, "T": 0.3}, "paths": 2}
        assert merge_config(raw)["run"]["dt"] == 3e-3
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_seed_changes_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"run": {"T": 0.05, "dt": 1e-3}, "paths": 1}))
        main(["simulate", "--config", str(cfg), "--seed", "1", "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--seed", "2", "--out", str(out2)])
        assert (out1 / "path_0000.csv").read_bytes() != (out2 / "path_0000.csv").read_bytes()

    def test_blowup_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "run": {"T": 0.01, "dt": 1e-3, "x0": {"kind": "constant", "u": 1e7}},
                    "noise": {"sigma2": 0.0, "s": 1.0},
                    "paths": 1,
                }
            )
        )
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_BLOWUP
        # exit 3 names the state norm before the step and the substeps the ceiling asked for
        err = capsys.readouterr().err
        found = re.search(r"\|x\|_H\^2 before the step (\S+), substeps requested (\d+)", err)
        assert float(found[1]) == approx(0.5 * 1e14)  # gamma |u_hat_0|^2 at the default gamma
        assert int(found[2]) > 4096
        assert "Traceback" not in err

    def test_dynkin_direction_out_of_range_is_config_error(self, tmp_path, capsys):
        # |<x,h>_H| leaves the exponent's range on every path
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"model": {"gamma": 1.0}, "run": {"T": 0.05, "dt": 2e-3}, "dynkin": {"h_u": [[0, 1e6]]}}
        ))
        rc = main(["dynkin", "--config", str(cfg), "--paths", "4", "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "dynkin.h_u" in err
        assert "Traceback" not in err

    def test_dynkin_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": {"gamma": 1.0},
                    "run": {"T": 0.1, "dt": 1e-3, "drift": "linear"},
                    "dynkin": {"h_u": [[0, 0.4]]},
                    "paths": 16,
                }
            )
        )
        out = tmp_path / "dyn"
        rc = main(["dynkin", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["residual"]) <= 5 * summary["se"] + 1e-3
        assert summary["n_rejected"] == 0

    def test_couple_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"run": {"T": 0.5, "dt": 1e-3, "record_every": 50}, "paths": 2}))
        out = tmp_path / "couple"
        rc = main(["couple", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["envelope_ok"] is True
        decay_lines = (out / "decay.csv").read_text().splitlines()
        assert decay_lines[0] == "t,delta_sq_0,delta_sq_1"

    def test_convergence_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "run": {"T": 0.1, "dt": 1e-3, "x0": {"kind": "cosine", "u_amplitude": 1.5, "u_mode": 1}},
                    "convergence": {"eps_ladder": [0.2, 0.1]},
                    "paths": 4,
                }
            )
        )
        out = tmp_path / "conv"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "slope" in summary

    def test_backward_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "run": {"dt": 2e-3},
                    "backward": {"lambda_ladder": [1.0, 2.0, 4.0]},
                    "paths": 6,
                }
            )
        )
        out = tmp_path / "bwd"
        assert main(["backward", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "distances.csv").read_text().splitlines()
        assert lines[0] == "lambda,gamma,distance,se"
        assert len(lines) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["second_moments"]) == {"1", "2", "4"}
        assert summary["fit_rate"] > 0.0

    def test_moments_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "run": {"T": 2.0, "dt": 2e-3, "record_every": 20,
                            "x0": {"kind": "constant", "u": 2.0}},
                    "paths": 8,
                }
            )
        )
        out = tmp_path / "mom"
        assert main(["moments", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["envelope_constants"]) == {"1", "2"}
        header = (out / "moments.csv").read_text().splitlines()[0]
        assert header == "t,m1,m1_se,m2,m2_se"

    def test_invariant_subcommand_with_pairing(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": {"p": 0.85},
                    "run": {"T": 1.0, "dt": 2e-3},
                    "invariant": {
                        "burn_in": 9.0,
                        "n_time_samples": 40,
                        "sample_spacing": 1.0,
                        "pairing_mode": 0,
                    },
                    "paths": 16,
                }
            )
        )
        out = tmp_path / "inv"
        assert main(["invariant", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["ks"]) == {"h_norm", "v_norm", "pairing_0"}
        assert (out / "hist_pairing_0.csv").exists()

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "fhn_spectral", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip()

    def test_simulate_does_not_import_stats_or_acceptance(self, tmp_path):
        # scipy.stats is most of the CLI's start-up; only the KS comparison needs it
        import os
        import subprocess
        import sys
        from pathlib import Path

        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"model": {"n_modes": 8, "n_grid": 16}, "run": {"T": 0.01}, "paths": 2})
        )
        script = (
            "import sys\n"
            "from fhn_spectral.cli import main\n"
            f"code = main(['simulate', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'sim')!r}])\n"
            "heavy = ('scipy.stats', 'scipy.integrate', 'fhn_spectral.acceptance')\n"
            "print(code, sorted(m for m in heavy if m in sys.modules))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"
        assert (tmp_path / "sim" / "summary.json").exists()

    def test_linear_oracle_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "run": {"T": 30.0, "dt": 0.05, "drift": "linear_eta"},
                    "linear_oracle": {"burn_in": 10.0},
                    "paths": 32,
                }
            )
        )
        out = tmp_path / "lo"
        assert main(["linear-oracle", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_rel_error_leading"] < 0.5
        first = (out / "covariances.csv").read_text().splitlines()[1].split(",")
        assert float(first[1]) == approx(0.0220779, abs=1e-5)
