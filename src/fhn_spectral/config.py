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
from .solver import DRIFT_MODES, TrajectoryConfig, _steps_from


class ConfigError(ValueError):
    """Invalid configuration; carries the dotted path of the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


_MODEL_KEYS = {"alpha", "gamma", "xi1", "c", "p", "n_modes", "n_grid"}
_NOISE_KEYS = {"sigma2", "s", "lambda1", "lambda2"}
_RUN_KEYS = {"T", "dt", "eps", "record_every", "start_time", "drift", "x0"}
_EXPERIMENT_KEYS = {
    "couple": {"x0_b", "envelope_tol"},
    "convergence": {"eps_ladder"},
    "backward": {"lambda_ladder"},
    "moments": set(),
    "invariant": {"burn_in", "n_time_samples", "sample_spacing", "pairing_mode", "pairing_channel"},
    "linear_oracle": {"burn_in"},
    "dynkin": {"h_u", "h_w"},
    "eigen": set(),
    "acceptance": set(),
}
_TOP_KEYS = {"model", "noise", "run", "master_seed", "paths", *_EXPERIMENT_KEYS}

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


def _is_int(val: Any) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val: Any) -> bool:
    return math.isfinite(val) if isinstance(val, float) else _is_int(val)


def _require_number(block: dict, key: str, path: str, default=None):
    if key not in block:
        if default is None:
            raise ConfigError(f"{path}.{key}", "missing required value")
        return default
    val = block[key]
    if not _is_number(val):
        raise ConfigError(f"{path}.{key}", f"expected a finite number, got {val!r}")
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
            not isinstance(ladder, list) or not ladder or not all(map(_is_number, ladder))
        ):
            raise ConfigError(f"{block_name}.{key}", "expected a non-empty list of numbers")
    model = cfg.get("model", {})
    _reject_unknown(model, _MODEL_KEYS, "model")
    for key in ("alpha", "gamma", "xi1"):
        _require_number(model, key, "model")
    for key in ("n_modes", "n_grid"):
        val = _require_number(model, key, "model")
        if not _is_int(val) or val < 1:
            raise ConfigError(f"model.{key}", "expected a positive integer")
    n_modes = model["n_modes"]
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
            if not isinstance(tab, list) or len(tab) != n_modes:
                raise ConfigError(f"noise.{key}", f"expected a table of n_modes={n_modes} values")
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
    for key in ("T", "start_time"):
        try:
            _steps_from(run[key], run["dt"], key)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"run.{key}", str(exc)) from exc
    every = run.get("record_every")
    if not _is_int(every) or every < 1:
        raise ConfigError("run.record_every", "expected a positive integer")
    _validate_x0(run.get("x0", {"kind": "zero"}), "run.x0", n_modes)
    couple = cfg.get("couple", {})
    if "x0_b" in couple:
        _validate_x0(couple["x0_b"], "couple.x0_b", n_modes)
    _require_number(couple, "envelope_tol", "couple", default=0.05)
    invariant = cfg.get("invariant", {})
    _require_number(invariant, "burn_in", "invariant", default=0.0)
    spacing = _require_number(invariant, "sample_spacing", "invariant", default=2.0)
    if spacing <= 0:
        raise ConfigError("invariant.sample_spacing", "must be positive")
    if "sample_spacing" in invariant:
        try:
            spacing_steps = _steps_from(spacing, run["dt"], "sample_spacing")
        except (ValueError, OverflowError) as exc:
            raise ConfigError("invariant.sample_spacing", str(exc)) from exc
        if spacing_steps < 1:
            raise ConfigError("invariant.sample_spacing", f"must be at least dt={run['dt']}")
    samples = invariant.get("n_time_samples", 1)
    if not _is_int(samples) or samples < 1:
        raise ConfigError("invariant.n_time_samples", "expected a positive integer")
    mode = invariant.get("pairing_mode", 0)
    if not _is_int(mode) or not 0 <= mode < n_modes:
        raise ConfigError("invariant.pairing_mode", f"expected an integer in [0, {n_modes})")
    if invariant.get("pairing_channel", "u") not in ("u", "w"):
        raise ConfigError("invariant.pairing_channel", "must be 'u' or 'w'")
    _require_number(cfg.get("linear_oracle", {}), "burn_in", "linear_oracle", default=0.0)
    dynkin = cfg.get("dynkin", {})
    for key in ("h_u", "h_w"):
        pairs = dynkin.get(key, [])
        if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 and _is_int(p[0]) and 0 <= p[0] < n_modes
            and _is_number(p[1])
            for p in pairs
        ):
            raise ConfigError(
                f"dynkin.{key}", f"expected [mode, coefficient] pairs, mode in [0, {n_modes})"
            )
    seed = cfg.get("master_seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ConfigError("master_seed", "expected a nonnegative integer")
    paths = cfg.get("paths", 1)
    if not _is_int(paths) or paths < 1:
        raise ConfigError("paths", "expected a positive integer")


_NUMBER = (_is_number, "a finite number")
_INT = (_is_int, "an integer")
_NUMBERS = (lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of finite numbers")
# the fields of each x0 kind and the check of each field's value; ``base``
# is checked as an x0 of its own
_X0_FIELDS = {
    "zero": {},
    "constant": {"u": _NUMBER, "w": _NUMBER},
    "cosine": {"u_amplitude": _NUMBER, "u_mode": _INT, "w_amplitude": _NUMBER, "w_mode": _INT},
    "coeffs": {"u_hat": _NUMBERS, "w_hat": _NUMBERS},
    "scaled": {"base": None, "h_norm": _NUMBER},
}


def _validate_x0(x0: Any, path: str, n_modes: int) -> None:
    if not isinstance(x0, dict):
        raise ConfigError(path, "must be an object with a 'kind'")
    kind = x0.get("kind")
    if not isinstance(kind, str) or kind not in _X0_FIELDS:
        raise ConfigError(f"{path}.kind", f"must be one of {sorted(_X0_FIELDS)}")
    fields = _X0_FIELDS[kind]
    _reject_unknown(x0, {"kind", *fields}, path)
    for key, val in x0.items():
        check = fields.get(key)
        if check and not check[0](val):
            raise ConfigError(f"{path}.{key}", f"expected {check[1]}")
    for key in ("u_hat", "w_hat") if kind == "coeffs" else ():
        if len(x0.get(key, [])) > n_modes:
            raise ConfigError(f"{path}.{key}", f"expected at most n_modes={n_modes} values")
    if kind == "scaled":
        base = x0.get("base", {})
        _validate_x0(base, f"{path}.base", n_modes)
        if base["kind"] == "zero":
            raise ConfigError(f"{path}.base", "cannot rescale the zero state")
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


def build_x0(
    x0_cfg: dict[str, Any], params: ModelParams, basis: EigenBasis, path: str
) -> StateH | None:
    """The initial state an x0 block describes; ``path`` names the block in errors."""
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
        base = build_x0(x0_cfg["base"], params, basis, f"{path}.base")
        norm = 0.0 if base is None else math.sqrt(
            params.gamma * float(base.u_hat @ base.u_hat) + float(base.w_hat @ base.w_hat)
        )
        if norm == 0.0:
            raise ConfigError(f"{path}.base", "cannot rescale the zero state")
        target = float(x0_cfg["h_norm"])
        return StateH(base.u_hat * target / norm, base.w_hat * target / norm)
    raise ConfigError(f"{path}.kind", f"unknown kind {kind!r}")


def build_run_config(
    cfg: dict[str, Any], params: ModelParams, basis: EigenBasis
) -> TrajectoryConfig:
    run = cfg["run"]
    return TrajectoryConfig(
        T=float(run["T"]),
        dt=float(run["dt"]),
        x0=build_x0(run.get("x0", {"kind": "zero"}), params, basis, "run.x0"),
        eps=float(run.get("eps", 0.0)),
        master_seed=int(cfg.get("master_seed", 0)),
        record_every=int(run.get("record_every", 1)),
        start_time=float(run.get("start_time", 0.0)),
        drift=run.get("drift", "fhn"),
    )
