"""JSON experiment configuration: one schema table, builders, echoing.

Every run is described by one JSON document with blocks ``model``,
``noise``, ``run`` plus experiment-specific blocks keyed by subcommand.
``SCHEMA`` gives every key its check and its default, once: validation
loops over it, ``merge_config`` fills the top level and the ``model``,
``noise`` and ``run`` blocks from it, and ``experiment_block`` fills an
experiment block from it.  Unknown keys anywhere are rejected with the
offending path, and the fully resolved configuration is echoed into each
output summary so results are reproducible from the artifact alone.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .model import EigenBasis, ModelParams, StateH, norm_H_sq_arrays
from .noise import NoiseSpec
from .solver import DRIFT_MODES, TrajectoryConfig, _steps_from


class ConfigError(ValueError):
    """Invalid configuration; carries the dotted path of the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def _is_int(val: Any) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val: Any) -> bool:
    return math.isfinite(val) if isinstance(val, float) else _is_int(val)


def _is_numbers(val: Any) -> bool:
    return isinstance(val, list) and all(map(_is_number, val))


class _Check(NamedTuple):
    ok: Callable[[Any], bool]
    expects: str


def _one_of(*values: str) -> _Check:
    return _Check(lambda v: isinstance(v, str) and v in values, f"one of {sorted(values)}")


_NUMBER = _Check(_is_number, "a finite number")
_NONNEGATIVE = _Check(lambda v: _is_number(v) and v >= 0, "a finite number >= 0")
_POSITIVE = _Check(lambda v: _is_number(v) and v > 0, "a positive finite number")
_INT = _Check(_is_int, "an integer")
_POSITIVE_INT = _Check(lambda v: _is_int(v) and v >= 1, "a positive integer")
_NUMBERS = _Check(_is_numbers, "a list of finite numbers")
_LADDER = _Check(lambda v: _is_numbers(v) and len(v) > 0, "a non-empty list of finite numbers")
_PROFILE = _Check(lambda v: _is_number(v) or _is_numbers(v), "a finite number or a grid table")
_OBJECT = _Check(lambda v: isinstance(v, dict), "an object with a 'kind'")
_PAIRS = _Check(
    lambda v: isinstance(v, list) and all(
        isinstance(p, list) and len(p) == 2 and _is_int(p[0]) and _is_number(p[1]) for p in v
    ),
    "a list of [mode, coefficient] pairs",
)
# PathStream keeps the low 64 bits of the seed, so a wider one would alias
_SEED = _Check(lambda v: _is_int(v) and 0 <= v < 2**64, "an integer in [0, 2**64)")

# every key of every block: (check, default).  A default of None leaves the
# key unset (``noise.lambda1``) or passes None on (``invariant.burn_in``:
# the estimator's own burn-in; ``invariant.pairing_mode``: no pairing
# functional).  "" is the top level.
SCHEMA: dict[str, dict[str, tuple[_Check, Any]]] = {
    "": {"master_seed": (_SEED, 0), "paths": (_POSITIVE_INT, 64)},
    "model": {
        "alpha": (_NUMBER, 1.0),
        "gamma": (_NUMBER, 0.5),
        "xi1": (_NUMBER, 0.5),
        "c": (_PROFILE, 1.0),
        "p": (_PROFILE, 0.3),
        "n_modes": (_POSITIVE_INT, 32),
        "n_grid": (_POSITIVE_INT, 64),
    },
    "noise": {
        "sigma2": (_NUMBER, 0.01),
        "s": (_NUMBER, 1.0),
        "lambda1": (_NUMBERS, None),
        "lambda2": (_NUMBERS, None),
    },
    "run": {
        "T": (_NONNEGATIVE, 1.0),
        "dt": (_POSITIVE, 1e-3),
        "eps": (_NONNEGATIVE, 0.0),
        "record_every": (_POSITIVE_INT, 1),
        "start_time": (_NUMBER, 0.0),
        "drift": (_one_of(*DRIFT_MODES), "fhn"),
        "x0": (_OBJECT, {"kind": "zero"}),
    },
    "couple": {
        "x0_b": (_OBJECT, {"kind": "scaled", "base": {"kind": "constant", "u": 1.0}, "h_norm": 1.0}),
        "envelope_tol": (_NUMBER, 0.05),
    },
    "convergence": {"eps_ladder": (_LADDER, [0.2, 0.1, 0.05, 0.025])},
    "backward": {"lambda_ladder": (_LADDER, [5.0, 10.0, 20.0, 40.0])},
    "moments": {},
    "invariant": {
        "burn_in": (_NUMBER, None),
        "n_time_samples": (_POSITIVE_INT, 200),
        "sample_spacing": (_POSITIVE, 2.0),
        "pairing_mode": (_INT, None),
        "pairing_channel": (_one_of("u", "w"), "u"),
    },
    "linear_oracle": {"burn_in": (_NUMBER, 50.0)},
    "dynkin": {"h_u": (_PAIRS, [[0, 0.4]]), "h_w": (_PAIRS, [])},
    "eigen": {},
    "acceptance": {},
}
_TOP_KEYS = {*SCHEMA[""], *SCHEMA} - {""}

# the fields of each x0 kind: (check, default); ``scaled`` needs both of
# its fields, and its ``base`` is checked as an x0 of its own
_X0_FIELDS: dict[str, dict[str, tuple[_Check, Any]]] = {
    "zero": {},
    "constant": {"u": (_NUMBER, 0.0), "w": (_NUMBER, 0.0)},
    "cosine": {
        "u_amplitude": (_NUMBER, 0.0),
        "u_mode": (_INT, 1),
        "w_amplitude": (_NUMBER, 0.0),
        "w_mode": (_INT, 1),
    },
    "coeffs": {"u_hat": (_NUMBERS, []), "w_hat": (_NUMBERS, [])},
    "scaled": {"base": (_OBJECT, None), "h_norm": (_NUMBER, None)},
}


def _reject_unknown(block: dict, allowed: set[str], path: str) -> None:
    for key in block:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")


def _check_values(block: dict, keys: dict[str, tuple[_Check, Any]], path: str) -> None:
    for key, (check, _) in keys.items():
        if key in block and not check.ok(block[key]):
            raise ConfigError(f"{path}.{key}" if path else key, f"expected {check.expects}")


def _filled(block: dict, keys: dict[str, tuple[_Check, Any]]) -> dict[str, Any]:
    """Every key of ``keys``: its value in ``block``, else its default."""
    return {k: block[k] if k in block else copy.deepcopy(d) for k, (_, d) in keys.items()}


def experiment_block(cfg: dict[str, Any], name: str) -> dict[str, Any]:
    """An experiment block of a merged config with the schema's defaults filled in."""
    return _filled(cfg.get(name, {}), SCHEMA[name])


def load_config(path: str | Path | None, overrides: dict[str, Any] | None = None) -> dict[str, Any]:
    """Read a JSON config file (None: the defaults), set ``overrides`` on its
    top level, and validate and merge it over the defaults."""
    raw: Any = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError("", f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError("", f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if overrides and isinstance(raw, dict):
        raw = {**raw, **overrides}
    return merge_config(raw)


def merge_config(raw: dict[str, Any]) -> dict[str, Any]:
    """Validate a raw dict and merge it over the package defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("", "top-level config must be an object")
    merged = _filled(raw, SCHEMA[""]) | raw
    for name in ("model", "noise", "run"):
        block = raw.get(name, {})
        if not isinstance(block, dict):
            raise ConfigError(name, "must be an object")
        tables = name == "noise" and ("lambda1" in block or "lambda2" in block)
        defaults = {k: v for k, v in _filled({}, SCHEMA[name]).items() if v is not None}
        merged[name] = ({} if tables else defaults) | block
    validate_config(merged)
    return merged


def _grid_steps(value: float, dt: float, path: str) -> int:
    try:
        return _steps_from(value, dt, path.rsplit(".", 1)[-1])
    except (ValueError, OverflowError) as exc:
        raise ConfigError(path, str(exc)) from exc


def validate_config(cfg: dict[str, Any]) -> None:
    """Check a merged config: each key against ``SCHEMA``, then the rules across keys."""
    for name, keys in SCHEMA.items():
        block = cfg.get(name, {}) if name else cfg
        if not isinstance(block, dict):
            raise ConfigError(name, "must be an object")
        _reject_unknown(block, set(keys) if name else _TOP_KEYS, name)
        _check_values(block, keys, name)
    model, noise, run = cfg["model"], cfg["noise"], cfg["run"]
    n_modes = model["n_modes"]
    for key in ("c", "p"):
        if isinstance(model[key], list) and len(model[key]) != model["n_grid"]:
            raise ConfigError(f"model.{key}", f"grid table needs n_grid={model['n_grid']} values")
    if "lambda1" in noise or "lambda2" in noise:
        for key in ("lambda1", "lambda2"):
            if len(noise.get(key, [])) != n_modes:
                raise ConfigError(f"noise.{key}", f"expected a table of n_modes={n_modes} values")
        for key in ("sigma2", "s"):
            if key in noise:
                raise ConfigError(f"noise.{key}", "not read next to the lambda1/lambda2 tables")
    # run.T is held to the dt grid where it is read, in build_run_config
    _grid_steps(run["start_time"], run["dt"], "run.start_time")
    _validate_x0(run["x0"], "run.x0", n_modes)
    _validate_x0(experiment_block(cfg, "couple")["x0_b"], "couple.x0_b", n_modes)
    invariant = cfg.get("invariant", {})
    # the default spacing is not held to the dt grid, and the default burn-in
    # moves onto it
    if "sample_spacing" in invariant:
        if _grid_steps(invariant["sample_spacing"], run["dt"], "invariant.sample_spacing") < 1:
            raise ConfigError("invariant.sample_spacing", f"must be at least dt={run['dt']}")
    if "burn_in" in invariant:
        _grid_steps(invariant["burn_in"], run["dt"], "invariant.burn_in")
    mode = experiment_block(cfg, "invariant")["pairing_mode"]
    if mode is not None and not 0 <= mode < n_modes:
        raise ConfigError("invariant.pairing_mode", f"expected an integer in [0, {n_modes})")
    if mode is None and "pairing_channel" in invariant:
        raise ConfigError("invariant.pairing_channel", "not read without invariant.pairing_mode")
    dynkin = experiment_block(cfg, "dynkin")
    for key in ("h_u", "h_w"):
        if not all(0 <= mode < n_modes for mode, _ in dynkin[key]):
            raise ConfigError(
                f"dynkin.{key}", f"expected [mode, coefficient] pairs, mode in [0, {n_modes})"
            )


def _validate_x0(x0: dict, path: str, n_modes: int) -> None:
    kind = x0.get("kind")
    if not isinstance(kind, str) or kind not in _X0_FIELDS:
        raise ConfigError(f"{path}.kind", f"must be one of {sorted(_X0_FIELDS)}")
    fields = _X0_FIELDS[kind]
    _reject_unknown(x0, {"kind", *fields}, path)
    _check_values(x0, fields, path)
    for key, (_, default) in fields.items():
        if default is None and key not in x0:
            raise ConfigError(f"{path}.{key}", "missing required value")
    for key in ("u_hat", "w_hat") if kind == "coeffs" else ():
        if len(x0.get(key, [])) > n_modes:
            raise ConfigError(f"{path}.{key}", f"expected at most n_modes={n_modes} values")
    if kind == "scaled":
        _validate_x0(x0["base"], f"{path}.base", n_modes)
        if x0["base"]["kind"] == "zero":
            raise ConfigError(f"{path}.base", "cannot rescale the zero state")


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
    """The initial state a validated x0 block describes; ``path`` names the block in errors."""
    kind = x0_cfg["kind"]
    x0 = _filled(x0_cfg, _X0_FIELDS[kind])
    if kind == "zero":
        return None
    if kind == "constant":
        u = float(x0["u"]) * np.ones(basis.n_grid)
        w = float(x0["w"]) * np.ones(basis.n_grid)
        return StateH.from_grid(u, w, basis)
    if kind == "cosine":
        xi = basis.xi
        u = float(x0["u_amplitude"]) * np.cos(int(x0["u_mode"]) * math.pi * xi)
        w = float(x0["w_amplitude"]) * np.cos(int(x0["w_mode"]) * math.pi * xi)
        return StateH.from_grid(u, w, basis)
    if kind == "coeffs":
        return StateH.from_modes(basis.n_modes, enumerate(x0["u_hat"]), enumerate(x0["w_hat"]))
    base = build_x0(x0["base"], params, basis, f"{path}.base")
    norm = 0.0 if base is None else math.sqrt(
        float(norm_H_sq_arrays(base.u_hat, base.w_hat, params.gamma))
    )
    if norm == 0.0:
        raise ConfigError(f"{path}.base", "cannot rescale the zero state")
    target = float(x0["h_norm"])
    return StateH(base.u_hat * target / norm, base.w_hat * target / norm)


def build_ladder(cfg: dict[str, Any], block: str, key: str, dt: float | None = None) -> list[float]:
    """The ladder ``block.key``: positive values, each on the grid of ``dt`` if one is given."""
    path = f"{block}.{key}"
    ladder = experiment_block(cfg, block)[key]
    if min(ladder) <= 0:
        raise ConfigError(path, f"expected positive values, got {min(ladder):g}")
    if dt is not None:
        for value in ladder:
            _grid_steps(value, dt, path)
    return ladder


def build_run_config(
    cfg: dict[str, Any], params: ModelParams, basis: EigenBasis
) -> TrajectoryConfig:
    run = cfg["run"]
    _grid_steps(run["T"], run["dt"], "run.T")
    return TrajectoryConfig(
        T=float(run["T"]),
        dt=float(run["dt"]),
        x0=build_x0(run["x0"], params, basis, "run.x0"),
        eps=float(run["eps"]),
        master_seed=int(cfg["master_seed"]),
        record_every=int(run["record_every"]),
        start_time=float(run["start_time"]),
        drift=run["drift"],
    )
