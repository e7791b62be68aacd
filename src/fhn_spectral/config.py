"""JSON experiment configuration: strict schema, builders, echoing.

Every run is described by one JSON document with blocks ``model``,
``noise``, ``run`` plus experiment-specific blocks keyed by subcommand.
Unknown keys anywhere are rejected with the offending path, and the fully
resolved configuration is echoed into each output summary so results are
reproducible from the artifact alone.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from .model import EigenBasis, ModelParams, StateH
from .noise import NoiseSpec
from .solver import DRIFT_MODES, TrajectoryConfig


class ConfigError(ValueError):
    """Invalid configuration; carries the dotted path of the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


_MODEL_KEYS = {"alpha", "gamma", "xi1", "c", "p", "n_modes", "n_grid"}
_NOISE_KEYS = {"sigma2", "s", "lambda1", "lambda2"}
_RUN_KEYS = {"T", "dt", "eps", "record_every", "start_time", "drift", "x0"}
_X0_KINDS = {"zero", "constant", "cosine", "coeffs", "scaled"}
_TOP_KEYS = {
    "model",
    "noise",
    "run",
    "master_seed",
    "paths",
    "couple",
    "convergence",
    "backward",
    "moments",
    "invariant",
    "linear_oracle",
    "dynkin",
    "eigen",
    "acceptance",
}

DEFAULT_CONFIG: dict[str, Any] = {
    "model": {
        "alpha": 1.0,
        "gamma": 0.5,
        "xi1": 0.5,
        "c": 1.0,
        "p": 0.3,
        "n_modes": 32,
        "n_grid": 64,
    },
    "noise": {"sigma2": 0.01, "s": 1.0},
    "run": {
        "T": 1.0,
        "dt": 1e-3,
        "eps": 0.0,
        "record_every": 1,
        "start_time": 0.0,
        "drift": "fhn",
        "x0": {"kind": "zero"},
    },
    "master_seed": 0,
    "paths": 64,
}


def _reject_unknown(block: dict, allowed: set[str], path: str) -> None:
    for key in block:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")


def _require_number(block: dict, key: str, path: str, default=None):
    if key not in block:
        if default is None:
            raise ConfigError(f"{path}.{key}", "missing required value")
        return default
    val = block[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}.{key}", f"expected a number, got {type(val).__name__}")
    return val


def load_config(path: str | Path) -> dict[str, Any]:
    """Read and validate a JSON config file, merging over the defaults."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("", f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return merge_config(raw)


def merge_config(raw: dict[str, Any]) -> dict[str, Any]:
    """Validate a raw dict and merge it over the package defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("", "top-level config must be an object")
    _reject_unknown(raw, _TOP_KEYS, "")
    merged = json.loads(json.dumps(DEFAULT_CONFIG))
    for block_name in ("model", "noise", "run"):
        block = raw.get(block_name, {})
        if not isinstance(block, dict):
            raise ConfigError(block_name, "must be an object")
        if block_name == "noise" and ("lambda1" in block or "lambda2" in block):
            merged["noise"] = {}
        merged[block_name].update(block)
    for key in raw:
        if key not in ("model", "noise", "run"):
            merged[key] = raw[key]
    validate_config(merged)
    return merged


_EXPERIMENT_KEYS = {
    "couple": {"x0_a", "x0_b", "envelope_tol"},
    "convergence": {"eps_ladder"},
    "backward": {"lambda_ladder"},
    "moments": set(),
    "invariant": {
        "burn_in",
        "n_time_samples",
        "sample_spacing",
        "n_ensemble",
        "pairing_mode",
        "pairing_channel",
    },
    "linear_oracle": {"burn_in"},
    "dynkin": {"h_u", "h_w", "t"},
    "eigen": set(),
    "acceptance": set(),
}


def validate_config(cfg: dict[str, Any]) -> None:
    _reject_unknown(cfg, _TOP_KEYS, "")
    for block_name, allowed in _EXPERIMENT_KEYS.items():
        block = cfg.get(block_name)
        if block is None:
            continue
        if not isinstance(block, dict):
            raise ConfigError(block_name, "must be an object")
        _reject_unknown(block, allowed, block_name)
    for block_name, key in (("convergence", "eps_ladder"), ("backward", "lambda_ladder")):
        ladder = cfg.get(block_name, {}).get(key)
        if ladder is not None and (
            not isinstance(ladder, list)
            or not ladder
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in ladder)
        ):
            raise ConfigError(f"{block_name}.{key}", "expected a non-empty list of numbers")
    model = cfg.get("model", {})
    _reject_unknown(model, _MODEL_KEYS, "model")
    for key in ("alpha", "gamma", "xi1"):
        _require_number(model, key, "model")
    for key in ("n_modes", "n_grid"):
        val = _require_number(model, key, "model")
        if not isinstance(val, int) or val < 1:
            raise ConfigError(f"model.{key}", "expected a positive integer")
    for key in ("c", "p"):
        val = model.get(key)
        if val is None:
            raise ConfigError(f"model.{key}", "missing required value")
        if isinstance(val, bool) or not isinstance(val, (int, float, list)):
            raise ConfigError(f"model.{key}", "expected a number or a grid table")
        if isinstance(val, list) and len(val) != model["n_grid"]:
            raise ConfigError(
                f"model.{key}", f"grid table needs n_grid={model['n_grid']} values"
            )
    noise = cfg.get("noise", {})
    _reject_unknown(noise, _NOISE_KEYS, "noise")
    if "lambda1" in noise or "lambda2" in noise:
        for key in ("lambda1", "lambda2"):
            tab = noise.get(key)
            if not isinstance(tab, list) or len(tab) != model["n_modes"]:
                raise ConfigError(
                    f"noise.{key}", f"expected a table of n_modes={model['n_modes']} values"
                )
    else:
        _require_number(noise, "sigma2", "noise")
        _require_number(noise, "s", "noise")
    run = cfg.get("run", {})
    _reject_unknown(run, _RUN_KEYS, "run")
    if _require_number(run, "T", "run") < 0:
        raise ConfigError("run.T", "must be >= 0")
    if _require_number(run, "dt", "run") <= 0:
        raise ConfigError("run.dt", "must be positive")
    drift = run.get("drift", "fhn")
    if drift not in DRIFT_MODES:
        raise ConfigError("run.drift", f"must be one of {sorted(DRIFT_MODES)}")
    if _require_number(run, "eps", "run") < 0:
        raise ConfigError("run.eps", "must be >= 0")
    _require_number(run, "start_time", "run")
    every = run.get("record_every")
    if isinstance(every, bool) or not isinstance(every, int) or every < 1:
        raise ConfigError("run.record_every", "expected a positive integer")
    _validate_x0(run.get("x0", {"kind": "zero"}), "run.x0")
    couple = cfg.get("couple", {})
    for key in ("x0_a", "x0_b"):
        if key in couple:
            _validate_x0(couple[key], f"couple.{key}")
    _require_number(couple, "envelope_tol", "couple", default=0.05)
    seed = cfg.get("master_seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("master_seed", "expected a nonnegative integer")
    paths = cfg.get("paths", 1)
    if isinstance(paths, bool) or not isinstance(paths, int) or paths < 1:
        raise ConfigError("paths", "expected a positive integer")


def _validate_x0(x0: Any, path: str) -> None:
    if not isinstance(x0, dict):
        raise ConfigError(path, "must be an object with a 'kind'")
    kind = x0.get("kind")
    if kind not in _X0_KINDS:
        raise ConfigError(f"{path}.kind", f"must be one of {sorted(_X0_KINDS)}")
    allowed = {
        "zero": {"kind"},
        "constant": {"kind", "u", "w"},
        "cosine": {"kind", "u_amplitude", "u_mode", "w_amplitude", "w_mode"},
        "coeffs": {"kind", "u_hat", "w_hat"},
        "scaled": {"kind", "base", "h_norm"},
    }[kind]
    _reject_unknown(x0, allowed, path)
    if kind == "scaled":
        _validate_x0(x0.get("base", {}), f"{path}.base")
        _require_number(x0, "h_norm", path)


def build_params(cfg: dict[str, Any]) -> ModelParams:
    model = cfg["model"]
    c = model["c"]
    p = model["p"]
    return ModelParams(
        alpha=float(model["alpha"]),
        gamma=float(model["gamma"]),
        xi1=float(model["xi1"]),
        c_profile=np.asarray(c, float) if isinstance(c, list) else float(c),
        p_profile=np.asarray(p, float) if isinstance(p, list) else float(p),
        n_modes=int(model["n_modes"]),
        n_grid=int(model["n_grid"]),
    )


def build_noise(cfg: dict[str, Any]) -> NoiseSpec:
    noise = cfg["noise"]
    n_modes = int(cfg["model"]["n_modes"])
    if "lambda1" in noise:
        return NoiseSpec.from_tables(noise["lambda1"], noise["lambda2"])
    return NoiseSpec.power_law(n_modes, sigma2=float(noise["sigma2"]), s=float(noise["s"]))


def build_x0(x0_cfg: dict[str, Any], params: ModelParams, basis: EigenBasis) -> StateH | None:
    kind = x0_cfg.get("kind", "zero")
    n = basis.n_modes
    if kind == "zero":
        return None
    if kind == "constant":
        u = float(x0_cfg.get("u", 0.0)) * np.ones(basis.n_grid)
        w = float(x0_cfg.get("w", 0.0)) * np.ones(basis.n_grid)
        return StateH.from_grid(u, w, basis)
    if kind == "cosine":
        xi = basis.xi
        u = float(x0_cfg.get("u_amplitude", 0.0)) * np.cos(
            int(x0_cfg.get("u_mode", 1)) * math.pi * xi
        )
        w = float(x0_cfg.get("w_amplitude", 0.0)) * np.cos(
            int(x0_cfg.get("w_mode", 1)) * math.pi * xi
        )
        return StateH.from_grid(u, w, basis)
    if kind == "coeffs":
        u_hat = np.zeros(n)
        w_hat = np.zeros(n)
        u_list = x0_cfg.get("u_hat", [])
        w_list = x0_cfg.get("w_hat", [])
        u_hat[: len(u_list)] = u_list
        w_hat[: len(w_list)] = w_list
        return StateH(u_hat, w_hat)
    if kind == "scaled":
        base = build_x0(x0_cfg["base"], params, basis)
        if base is None:
            raise ConfigError("x0.scaled", "cannot rescale the zero state")
        norm = math.sqrt(
            params.gamma * float(base.u_hat @ base.u_hat) + float(base.w_hat @ base.w_hat)
        )
        target = float(x0_cfg["h_norm"])
        return StateH(base.u_hat * target / norm, base.w_hat * target / norm)
    raise ConfigError("x0.kind", f"unknown kind {kind!r}")


def build_run_config(
    cfg: dict[str, Any], params: ModelParams, basis: EigenBasis
) -> TrajectoryConfig:
    run = cfg["run"]
    return TrajectoryConfig(
        T=float(run["T"]),
        dt=float(run["dt"]),
        x0=build_x0(run.get("x0", {"kind": "zero"}), params, basis),
        eps=float(run.get("eps", 0.0)),
        master_seed=int(cfg.get("master_seed", 0)),
        record_every=int(run.get("record_every", 1)),
        start_time=float(run.get("start_time", 0.0)),
        drift=run.get("drift", "fhn"),
    )
