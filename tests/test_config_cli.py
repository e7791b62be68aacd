import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from fhn_spectral.model import build_eigenbasis
from fhn_spectral.cli import EXIT_BLOWUP, EXIT_CONFIG, build_parser, main
from fhn_spectral.config import (
    SCHEMA,
    ConfigError,
    build_noise,
    build_params,
    build_run_config,
    build_x0,
    load_config,
    merge_config,
)
from fhn_spectral.model import DCT_MIN_MODES


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
            ({"master_seed": 2**64}, "master_seed"),
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
            ({"invariant": {"pairing_channel": "w"}}, "invariant.pairing_channel"),
            ({"linear_oracle": {"burn_in": "x"}}, "linear_oracle.burn_in"),
            ({"dynkin": {"h_u": [[0, "a"]]}}, "dynkin.h_u"),
            ({"dynkin": {"h_w": [[32, 0.1]]}}, "dynkin.h_w"),
            (
                {"couple": {"x0_b": {"kind": "scaled", "base": {"kind": "zero"}, "h_norm": 1}}},
                "couple.x0_b.base",
            ),
            ({"run": {"x0": {"kind": "cosine", "u_mode": "a"}}}, "run.x0.u_mode"),
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
            # every entry of a table is a finite number, not a bool or null
            ({"model": {"n_modes": 8, "n_grid": 16, "c": [1.0] * 15 + [None]}}, "model.c"),
            ({"model": {"n_modes": 8, "n_grid": 16, "p": [0.4] * 15 + [None]}}, "model.p"),
            (
                {"model": {"n_modes": 8, "n_grid": 16},
                 "noise": {"lambda1": [0.1] * 7 + [True], "lambda2": [0.1] * 8}},
                "noise.lambda1",
            ),
            (
                {"model": {"n_modes": 8, "n_grid": 16},
                 "noise": {"lambda1": [0.1] * 7 + [None], "lambda2": [0.1] * 8}},
                "noise.lambda1",
            ),
            # the tables replace the power law, so its parameters would go unread
            (
                {"model": {"n_modes": 8, "n_grid": 16},
                 "noise": {"lambda1": [0.1] * 8, "lambda2": [0.1] * 8, "sigma2": 0.01}},
                "noise.sigma2",
            ),
            (
                {"model": {"n_modes": 8, "n_grid": 16},
                 "noise": {"lambda1": [0.1] * 8, "lambda2": [0.1] * 8, "s": 2.0}},
                "noise.s",
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
        # run.start_time is checked on merging, run.T where a run description is built
        value = (steps + frac) * dt * (sign if key == "start_time" else 1.0)
        with pytest.raises(ConfigError) as err:
            cfg = merge_config({"run": {"dt": dt, key: value}})
            params = build_params(cfg)
            build_run_config(cfg, params, build_eigenbasis(params))
        assert err.value.path == f"run.{key}"


class _Captured(Exception):
    pass


# the experiment function each subcommand calls, and the module that holds it
_EXPERIMENT_FUNCTIONS = {
    "couple": ("solver", "coupled_run"),
    "convergence": ("solver", "eps_convergence_study"),
    "backward": ("solver", "backward_run"),
    "invariant": ("ergodics", "estimate_invariant_measure"),
    "linear-oracle": ("ergodics", "empirical_mode_covariances"),
    "dynkin": ("kolmogorov", "dynkin_residual"),
}


class TestExperimentDefaults:
    """What each subcommand passes on when the config leaves its block out."""

    def _capture(self, command, tmp_path, monkeypatch, horizon=None):
        import importlib

        import fhn_spectral.cli as cli

        module, name = _EXPERIMENT_FUNCTIONS[command]
        captured = {}

        def fake(*args, **kwargs):
            captured.update(args=args, kwargs=kwargs)
            raise _Captured

        # the CLI imports some experiment functions at its top and some inside the command
        monkeypatch.setattr(importlib.import_module(f"fhn_spectral.{module}"), name, fake)
        monkeypatch.setattr(cli, name, fake, raising=False)
        cfg = tmp_path / "cfg.json"
        run = {} if horizon is None else {"T": horizon}
        cfg.write_text(json.dumps({"model": {"n_modes": 8, "n_grid": 16}, "run": run}))
        with pytest.raises(_Captured):
            main([command, "--config", str(cfg), "--paths", "2", "--out", str(tmp_path / "o")])
        return captured["args"], captured["kwargs"]

    def test_couple(self, tmp_path, monkeypatch):
        args, kwargs = self._capture("couple", tmp_path, monkeypatch)
        params = build_params(merge_config({"model": {"n_modes": 8, "n_grid": 16}}))
        basis = build_eigenbasis(params)
        scaled = {"kind": "scaled", "base": {"kind": "constant", "u": 1.0}, "h_norm": 1.0}
        expected = build_x0(scaled, params, basis, "couple.x0_b")
        assert np.array_equal(args[0].u_hat, expected.u_hat)
        assert np.array_equal(args[0].w_hat, expected.w_hat)
        assert kwargs["envelope_tol"] == 0.05

    def test_convergence(self, tmp_path, monkeypatch):
        args, _ = self._capture("convergence", tmp_path, monkeypatch)
        assert list(args[0]) == [0.2, 0.1, 0.05, 0.025]

    def test_backward(self, tmp_path, monkeypatch):
        args, _ = self._capture("backward", tmp_path, monkeypatch)
        assert list(args[0]) == [5, 10, 20, 40]

    def test_invariant(self, tmp_path, monkeypatch):
        _, kwargs = self._capture("invariant", tmp_path, monkeypatch)
        assert kwargs["burn_in"] is None
        assert kwargs["n_time_samples"] == 200
        assert kwargs["sample_spacing"] == 2.0
        assert [f.name for f in kwargs["functionals"]] == ["h_norm", "v_norm"]

    def test_linear_oracle(self, tmp_path, monkeypatch):
        # a horizon short of the default burn-in is rejected before the call
        _, kwargs = self._capture("linear-oracle", tmp_path, monkeypatch, horizon=60.0)
        assert kwargs["burn_in"] == 50.0

    def test_dynkin(self, tmp_path, monkeypatch):
        args, _ = self._capture("dynkin", tmp_path, monkeypatch)
        h = args[0].h
        assert h.u_hat.tolist() == [0.4] + [0.0] * 7
        assert not h.w_hat.any()

    def test_merged_defaults(self):
        # every summary.json echoes this block set; a default added to it would show there
        assert merge_config({}) == {
            "model": {
                "alpha": 1.0, "gamma": 0.5, "xi1": 0.5, "c": 1.0, "p": 0.3,
                "n_modes": 32, "n_grid": 64,
            },
            "noise": {"sigma2": 0.01, "s": 1.0},
            "run": {
                "T": 1.0, "dt": 1e-3, "eps": 0.0, "record_every": 1, "start_time": 0.0,
                "drift": "fhn", "x0": {"kind": "zero"},
            },
            "master_seed": 0,
            "paths": 64,
        }


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


# what each subcommand reads: top-level keys and whole blocks, less the run
# keys it leaves alone.  Each experiment reads its own block and no other.
_SIMULATION = {"master_seed", "paths", "model", "noise", "run"}
_READ_TABLE = {
    "eigen": ({"model.c", "model.n_modes", "model.n_grid"}, set()),
    "simulate": (_SIMULATION, set()),
    "couple": (_SIMULATION | {"couple"}, set()),
    "convergence": (_SIMULATION | {"convergence"}, {"record_every"}),
    "backward": (_SIMULATION | {"backward"}, {"record_every", "T", "start_time"}),
    "moments": (_SIMULATION, set()),
    "invariant": (_SIMULATION | {"invariant"}, {"record_every", "T"}),
    "linear-oracle": (_SIMULATION | {"linear_oracle"}, {"record_every"}),
    "dynkin": (_SIMULATION | {"dynkin"}, {"record_every"}),
    "acceptance": ({"master_seed"}, set()),
}
# a valid value off its default for every SCHEMA key; the noise tables need
# each other and a table length of n_modes
_OFF_DEFAULT = {
    "master_seed": 9, "paths": 5,
    "model.alpha": 1.5, "model.gamma": 1.0, "model.xi1": 0.4, "model.c": 2.0, "model.p": 0.5,
    "model.n_modes": 16, "model.n_grid": 32,
    "noise.sigma2": 0.02, "noise.s": 2.0, "noise.lambda1": [0.01] * 16, "noise.lambda2": [0.02] * 16,
    "run.T": 0.5, "run.dt": 2e-3, "run.eps": 0.1, "run.record_every": 2, "run.start_time": -0.2,
    "run.drift": "linear", "run.x0": {"kind": "constant", "u": 1.0},
    "couple.x0_b": {"kind": "constant", "u": 0.5}, "couple.envelope_tol": 0.1,
    "convergence.eps_ladder": [0.2, 0.1], "backward.lambda_ladder": [1.0, 2.0],
    "invariant.burn_in": 3.0, "invariant.n_time_samples": 10, "invariant.sample_spacing": 1.0,
    "invariant.pairing_mode": 0, "invariant.pairing_channel": "w",
    "linear_oracle.burn_in": 5.0, "dynkin.h_u": [[1, 0.2]], "dynkin.h_w": [[0, 0.1]],
}
_NEEDS = {
    "noise.lambda1": ["noise.lambda2", "model.n_modes"],
    "noise.lambda2": ["noise.lambda1", "model.n_modes"],
    "invariant.pairing_channel": ["invariant.pairing_mode"],
}


# every SCHEMA key: (block, key, dotted name)
_SCHEMA_NAMES = [
    (block, key, f"{block}.{key}" if block else key) for block, keys in SCHEMA.items() for key in keys
]


def _reads(command: str, block: str, key: str) -> bool:
    blocks, unread_run = _READ_TABLE[command]
    read = {block or key, f"{block}.{key}"} & blocks
    return bool(read) and not (block == "run" and key in unread_run)


def _off_default_config(names) -> dict:
    raw: dict = {}
    for name in names:
        block, _, key = name.rpartition(".")
        (raw.setdefault(block, {}) if block else raw)[key] = _OFF_DEFAULT[name]
    return raw


class TestReadSets:
    """Each subcommand refuses every setting it does not read, unless it is at its default."""

    @pytest.mark.parametrize("command,name", [
        (command, name)
        for command in _READ_TABLE
        for block, key, name in _SCHEMA_NAMES
        if not _reads(command, block, key)
    ])
    def test_unread_setting_exits_2_before_anything_runs(
        self, command, name, tmp_path, capsys, monkeypatch
    ):
        import fhn_spectral.cli as cli
        from fhn_spectral import acceptance, ergodics, kolmogorov, solver

        block, _, key = name.rpartition(".")
        assert _OFF_DEFAULT[name] != SCHEMA[block][key][1]

        def never(*args, **kwargs):
            raise AssertionError("ran past the read check")

        for module in (solver, ergodics, kolmogorov):
            monkeypatch.setattr(module, "_simulate_batch", never)
        monkeypatch.setattr(cli, "build_eigenbasis", never)
        monkeypatch.setattr(acceptance, "run_acceptance", never)
        cfg, out = tmp_path / "cfg.json", tmp_path / "o"
        cfg.write_text(json.dumps(_off_default_config([name, *_NEEDS.get(name, [])])))
        quick = ["--quick"] if command == "acceptance" else []
        assert main([command, *quick, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"not read by {command}" in err
        assert re.search(rf"[ (]{re.escape(name)}[:,)]", err), err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(_READ_TABLE))
    @pytest.mark.parametrize("noise", [("sigma2", "s"), ("lambda1", "lambda2")])
    def test_every_setting_read_passes_the_check(self, command, noise):
        # the noise is given as a power law or as tables, not both
        from fhn_spectral.cli import _check_reads

        names = [
            name for block, key, name in _SCHEMA_NAMES
            if _reads(command, block, key) and not (block == "noise" and key not in noise)
        ]
        _check_reads(merge_config(_off_default_config(names)), command)

    @pytest.mark.parametrize("command,block", [
        ("invariant", {"invariant": {"burn_in": 0.6, "n_time_samples": 2, "sample_spacing": 0.3}}),
        ("backward", {"backward": {"lambda_ladder": [0.3, 0.6]}}),
    ])
    def test_unread_horizon_is_not_held_to_the_dt_grid(self, command, block, tmp_path):
        # run.T's default 1 is off the grid of dt 0.3; these commands set their own horizons
        cfg, out = tmp_path / "cfg.json", tmp_path / "o"
        cfg.write_text(json.dumps({"run": {"dt": 0.3}, "paths": 2, **block}))
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["config"]["run"]["T"] == 1.0

    def test_read_horizon_off_the_dt_grid_exits_2(self, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "o"
        cfg.write_text(json.dumps({"run": {"T": 0.00037}, "paths": 1}))
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "run.T" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--paths", "--seed"])
    def test_eigen_takes_no_paths_or_seed(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["eigen", flag, "5", "--out", str(tmp_path / "o")])
        assert err.value.code == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestCLI:
    def test_paths_zero_is_config_error(self, tmp_path, capsys):
        rc = main(["simulate", "--paths", "0", "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "paths" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_is_config_error(self, tmp_path, capsys, seed):
        # PathStream keeps the low 64 bits, so these would alias seeds 2**64 - 1 and 0
        rc = main(["simulate", "--seed", seed, "--paths", "1", "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "master_seed" in capsys.readouterr().err
        assert not (tmp_path / "o" / "path_0000.csv").exists()

    def test_config_seed_out_of_range_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"master_seed": 2**64, "paths": 1}))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "master_seed" in capsys.readouterr().err

    def test_rejected_eigenbasis_is_config_error(self, tmp_path, capsys):
        # finite and positive, but 300 orders of magnitude apart: the eigensolve fails
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"c": [1e-150] * 32 + [1e150] * 32}, "paths": 1}))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "eigensolve failed" in err
        assert "Traceback" not in err

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

    def test_acceptance_refuses_settings_it_does_not_read(self, tmp_path, capsys, monkeypatch):
        # every criterion runs its own fixed setup: a setting other than the seed is
        # refused by name before any criterion runs, and leaves no --out behind
        from fhn_spectral import acceptance

        calls = []
        monkeypatch.setattr(acceptance, "run_acceptance", lambda **kw: calls.append(kw) or [])
        cfg, out = tmp_path / "cfg.json", tmp_path / "o"
        for raw, key in (
            ({"model": {"n_modes": 64, "n_grid": 128}, "run": {"dt": 0.5}}, "model.n_modes"),
            ({"paths": 5}, "paths"),
            ({"couple": {"envelope_tol": 0.1}}, "couple.envelope_tol"),
        ):
            cfg.write_text(json.dumps(raw))
            rc = main(["acceptance", "--quick", "--config", str(cfg), "--out", str(out)])
            assert rc == EXIT_CONFIG
            assert f"{key}: " in capsys.readouterr().err
        with pytest.raises(SystemExit) as err:
            main(["acceptance", "--quick", "--paths", "5", "--out", str(out)])
        assert err.value.code == EXIT_CONFIG
        assert "--paths" in capsys.readouterr().err
        assert not calls and not out.exists()
        # the seed, and settings at their defaults, pass
        cfg.write_text(json.dumps({"master_seed": 3, "model": {"n_modes": 32}, "acceptance": {}}))
        argv = ["acceptance", "--quick", "--seed", "5", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        assert calls == [{"quick": True, "master_seed": 5}]
        assert json.loads((out / "acceptance.json").read_text())["master_seed"] == 5

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
        # a standard error needs two paths; one path must not give se = nan or a traceback.
        # backward takes its horizons from its ladder, the others run to run.T
        raw = {"run": {"T": 0.05}}
        if command == "backward":
            raw = {"backward": {"lambda_ladder": [0.02, 0.04]}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
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

    def test_path_bytes_do_not_depend_on_the_path_count(self, tmp_path):
        # at 33 paths path 32 is the last column of its batch, at 34 it has a
        # neighbour; its file depends on (config, seed, path id) alone
        cfg = tmp_path / "cfg.json"
        x0 = {"kind": "cosine", "u_amplitude": 2.0, "u_mode": 1}
        cfg.write_text(json.dumps({"run": {"T": 1.0, "x0": x0}}))
        files = []
        for paths in ("33", "34"):
            out = tmp_path / paths
            argv = ["simulate", "--config", str(cfg), "--paths", paths, "--seed", "7"]
            assert main(argv + ["--out", str(out)]) == 0
            files.append((out / "path_0032.csv").read_bytes())
        assert files[0] == files[1]

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
        assert not (tmp_path / "o").exists()

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

    def test_invariant_default_burn_in_moves_onto_the_dt_grid(self, tmp_path):
        # 5 / omega1 = 5 / 0.6 lies off the grid of dt 1e-3; the run takes the
        # first grid point after it instead of refusing its own horizon
        cfg, out = tmp_path / "cfg.json", tmp_path / "o"
        cfg.write_text(json.dumps({
            "model": {"p": 0.85}, "paths": 2,
            "invariant": {"n_time_samples": 2, "sample_spacing": 0.01},
        }))
        assert main(["invariant", "--config", str(cfg), "--out", str(out)]) == 0
        burn_in = json.loads((out / "summary.json").read_text())["burn_in"]
        assert burn_in == math.ceil(5.0 / 0.6 / 1e-3) * 1e-3
        assert 5.0 / 0.6 <= burn_in < 5.0 / 0.6 + 1e-3

    def test_invariant_burn_in_off_the_dt_grid_is_config_error(self, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "o"
        cfg.write_text(json.dumps({
            "paths": 2, "invariant": {"burn_in": 0.0104, "n_time_samples": 2, "sample_spacing": 0.01},
        }))
        assert main(["invariant", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "invariant.burn_in" in err and "run.T" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,config,key,message", [
        # a rung off the dt grid, and the default ladder at a dt it is off the grid of
        ("backward", {"run": {"dt": 1e-3}, "backward": {"lambda_ladder": [0.0015, 0.003]}},
         "backward.lambda_ladder", "lambda_ladder=0.0015 is not an integer multiple of dt=0.001"),
        ("backward", {"run": {"dt": 0.3}},
         "backward.lambda_ladder", "lambda_ladder=5.0 is not an integer multiple of dt=0.3"),
        ("backward", {"backward": {"lambda_ladder": [0.01, 0.0]}},
         "backward.lambda_ladder", "expected positive values, got 0"),
        ("convergence", {"run": {"T": 0.01}, "convergence": {"eps_ladder": [0.1, -0.05]}},
         "convergence.eps_ladder", "expected positive values, got -0.05"),
    ], ids=["backward-off-grid", "backward-default-off-grid", "backward-zero",
            "convergence-negative"])
    def test_ladder_error_names_its_key(self, command, config, key, message, tmp_path, capsys,
                                        monkeypatch):
        from fhn_spectral import solver

        simulated = []
        monkeypatch.setattr(solver, "_simulate_batch", lambda *a, **kw: simulated.append(a))
        cfg, out = tmp_path / "cfg.json", tmp_path / "o"
        cfg.write_text(json.dumps({**config, "paths": 2}))
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {key}: {message}" in err and "Traceback" not in err
        assert not simulated
        assert not out.exists()

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

    @staticmethod
    def _run_fresh(script: str):
        """Run ``script`` in a fresh interpreter on this tree's src; returns its last stdout line."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def _simulate_modules(self, tmp_path, model: dict) -> str:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model, "run": {"T": 0.01}, "paths": 2}))
        return self._run_fresh(
            "import sys\n"
            "from fhn_spectral.cli import main\n"
            f"code = main(['simulate', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'sim')!r}])\n"
            "subpackages = {m for m, mod in sys.modules.items() if m.count('.') == 1\n"
            "               and m.startswith('scipy.') and '._' not in m and hasattr(mod, '__path__')}\n"
            "print(code, sorted(subpackages | {'fhn_spectral.acceptance'} & set(sys.modules)))\n"
        )

    @pytest.mark.parametrize(
        "n_modes,loaded",
        [(8, "['scipy.special']"), (DCT_MIN_MODES, "['scipy.fft', 'scipy.special']")],
    )
    def test_simulate_does_not_import_stats_or_acceptance(self, tmp_path, n_modes, loaded):
        # scipy.stats is most of the CLI's start-up; only the KS comparison needs it.
        # A constant-c run needs ndtri, and scipy.fft only from DCT_MIN_MODES modes:
        # no scipy.linalg or scipy.integrate
        line = self._simulate_modules(tmp_path, {"n_modes": n_modes, "n_grid": 2 * n_modes})
        assert line == f"0 {loaded}"
        assert (tmp_path / "sim" / "summary.json").exists()

    def test_variable_c_simulate_runs(self, tmp_path):
        # the tridiagonal eigensolve loads scipy.linalg on demand
        c = [1.0 + 0.5 * math.sin(3.0 * (j + 0.5) / 16) for j in range(16)]
        line = self._simulate_modules(tmp_path, {"n_modes": 8, "n_grid": 16, "c": c})
        assert line.startswith("0 [") and "'scipy.linalg'" in line
        assert "scipy.stats" not in line and "fhn_spectral.acceptance" not in line
        summary = json.loads((tmp_path / "sim" / "summary.json").read_text())
        assert math.isfinite(summary["terminal_h_norm_sq_mean"])

    def test_acceptance_does_not_import_stats(self):
        # criterion 9 takes its KS statistic from ergodics.ks_statistic and criterion 4
        # integrates by its own exp-sinh rule, so none of these heavy subpackages loads;
        # scipy.fft and the process pool load on first use
        heavy = ("scipy.integrate", "scipy.linalg", "scipy.sparse", "scipy.optimize", "scipy.stats",
                 "scipy.fft", "concurrent.futures.process")
        line = self._run_fresh(
            f"import sys\nimport fhn_spectral.acceptance\nprint([m for m in {heavy!r} if m in sys.modules])\n"
        )
        assert line == "[]"

    def test_linear_oracle_burn_in_past_T_is_config_error(self, tmp_path, capsys, monkeypatch):
        # the defaults, linear_oracle.burn_in 50 and run.T 1, leave no samples: the
        # error names both keys and comes before any path is simulated
        from fhn_spectral import ergodics

        simulated = []
        monkeypatch.setattr(ergodics, "_simulate_batch", lambda *a, **kw: simulated.append(a))
        rc = main(["linear-oracle", "--paths", "2", "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "linear_oracle.burn_in: 50 " in err and "run.T=1;" in err
        assert "Traceback" not in err
        assert not simulated
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("drift", ["linear", "linear_eta"])
    def test_convergence_without_cubic_drift_is_config_error(
        self, tmp_path, capsys, monkeypatch, drift
    ):
        # only the cubic has an eps family: another drift must not run the cubic
        # under its name, and is refused before any path is simulated
        from fhn_spectral import solver

        simulated = []
        monkeypatch.setattr(solver, "_simulate_batch", lambda *a, **kw: simulated.append(a))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"run": {"T": 0.01, "drift": drift}, "paths": 2}))
        rc = main(["convergence", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"run.drift={drift!r}" in err
        assert "Traceback" not in err
        assert not simulated
        assert not (tmp_path / "o").exists()

    def test_convergence_with_run_eps_is_config_error(self, tmp_path, capsys, monkeypatch):
        # the ladder sets every column's eps: a run.eps the study would not read is refused
        from fhn_spectral import solver

        simulated = []
        monkeypatch.setattr(solver, "_simulate_batch", lambda *a, **kw: simulated.append(a))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"run": {"T": 0.01, "eps": 0.3}, "paths": 2}))
        rc = main(["convergence", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "run.eps=0.3" in err and "convergence.eps_ladder" in err
        assert "Traceback" not in err
        assert not simulated
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("out", ["o", "o/sub"])
    def test_out_under_a_file_is_config_error(self, tmp_path, capsys, monkeypatch, out):
        # the directory is made at the first write, so a file in its way is refused up front
        from fhn_spectral import solver

        simulated = []
        monkeypatch.setattr(solver, "_simulate_batch", lambda *a, **kw: simulated.append(a))
        (tmp_path / "o").write_text("kept")
        rc = main(["simulate", "--paths", "1", "--out", str(tmp_path / out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{tmp_path / 'o'} is not a directory" in err and "Traceback" not in err
        assert not simulated
        assert (tmp_path / "o").read_text() == "kept"

    def test_failed_run_keeps_an_existing_out(self, tmp_path, capsys):
        # a run that fails after its config loads leaves a directory it did not make as it was
        out = tmp_path / "o"
        out.mkdir()
        (out / "earlier.txt").write_text("kept")
        rc = main(["linear-oracle", "--paths", "2", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert [p.name for p in out.iterdir()] == ["earlier.txt"]

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
