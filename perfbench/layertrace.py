"""Per-layer tracing of fhn_spectral from outside the package.

The tracer wraps entry points of each layer at run time, records a span
per call into them, and restores the original functions on exit.  No file
of the package is changed.  Spans are kept in memory: calls into the hot
leaf layers (noise draws, pointwise drift, norms) are summed per layer,
calls into the other layers also per (parent, layer) edge, and every call
into the coarse layers (criteria, solver batches, kernel builds, CLI
writes) is also kept as a raw span with its start, end and parent.  Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

# layers whose every call is kept as a raw span; the rest are aggregated
COARSE = ("acceptance.criterion", "solver.batch", "noise.kernel_build", "cli.write")

_clock = time.perf_counter


def _key_part(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return (value.shape, value.tobytes())
    if dataclasses.is_dataclass(value):
        return tuple(
            _key_part(getattr(value, f.name)) for f in dataclasses.fields(value) if f.init
        )
    return value


class Tracer:
    """Stack of open spans plus per-layer and per-edge aggregates."""

    def __init__(self) -> None:
        # open frames: [layer, start, child_time, span_index]; wrappers hold
        # the stack and the per-layer lists, so reset() clears them in place
        self._stack: list[list] = []
        self.layers: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.spans: list[tuple[str, float, float, int]] = []
        self.kernel_keys: set = set()
        self.reset()

    def reset(self) -> None:
        self._stack[:] = [["root", _clock(), 0.0, -1]]
        for agg in self.layers.values():
            agg[:] = [0, 0.0, 0.0]
        self.edges.clear()
        self.spans.clear()
        self.kernel_keys.clear()
        self.column_steps = 0
        self.transform_flop = 0

    def enter(self, layer: str) -> None:
        idx = -1
        if layer.startswith(COARSE):
            idx = len(self.spans)
            self.spans.append((layer, _clock(), 0.0, self._stack[-1][3]))
        self._stack.append([layer, _clock(), 0.0, idx])

    def leave(self) -> None:
        end = _clock()
        layer, start, child, idx = self._stack.pop()
        parent = self._stack[-1]
        total = end - start
        parent[2] += total
        agg = self.layers[layer]
        agg[0] += 1
        agg[1] += total
        agg[2] += total - child
        edge = self.edges[(parent[0], layer)]
        edge[0] += 1
        edge[1] += total
        if idx >= 0:
            name, begin, _, parent_idx = self.spans[idx]
            self.spans[idx] = (name, begin, end, parent_idx)

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        self.enter(layer)
        try:
            yield
        finally:
            self.leave()

    def leaf(self, fn: Callable, layer: str) -> Callable:
        """Lean wrapper for a hot layer that calls no other traced layer."""
        agg, stack = self.layers[layer], self._stack

        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total = _clock() - start
                stack[-1][2] += total
                agg[0] += 1
                agg[1] += total
                agg[2] += total

        return wrapper

    def node(self, fn: Callable, layer: str) -> Callable:
        """Wrapper for a layer whose calls may contain traced children."""

        def wrapper(*args, **kwargs):
            self.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()

        return wrapper

    def kernel_build(self, fn: Callable) -> Callable:
        inner = self.node(fn, "noise.kernel_build")

        def wrapper(params, basis, spec, dt, shifted=False):
            self.kernel_keys.add((_key_part(params), _key_part(spec), float(dt), bool(shifted)))
            return inner(params, basis, spec, dt, shifted=shifted)

        return wrapper

    def batch(self, fn: Callable, caller: str) -> Callable:
        """Wrap ``_simulate_batch`` as seen from module ``caller``.

        Counts Σ B·n_steps and the computed flops of the dense spectral <->
        grid transforms from the call arguments, and wraps the ``on_step``
        observer so its time is attributed to the calling module.
        """
        inner = self.node(fn, "solver.batch")
        observer = f"{caller}.observer"

        def wrapper(params, basis, spec, **kwargs):
            col_steps = int(kwargs["x0"].shape[0]) * int(kwargs["n_steps"])
            # u_grid = x @ modes every step; f_hat = g @ proj when an explicit drift exists
            transforms = 2 if (kwargs["drift"] == "fhn" or not params.p_is_constant) else 1
            self.column_steps += col_steps
            self.transform_flop += col_steps * transforms * 2 * basis.n_modes * basis.n_grid
            on_step = kwargs.get("on_step")
            if on_step is not None:
                kwargs["on_step"] = self.node(on_step, observer)
            return inner(params, basis, spec, **kwargs)

        return wrapper

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""

        def calls(layer: str) -> int:
            return self.layers[layer][0]

        def total(layer: str) -> float:
            return self.layers[layer][1]

        builds = calls("noise.kernel_build")
        out = {
            "noise.normals_calls": calls("noise.normals"),
            "noise.normals_s": total("noise.normals"),
            "noise.kernel_builds": builds,
            "noise.kernel_build_s": total("noise.kernel_build"),
            "noise.kernel_distinct_ratio": len(self.kernel_keys) / builds if builds else 0.0,
            "nonlinearity.grid_drift_calls": calls("nonlinearity.grid_drift"),
            "nonlinearity.grid_drift_s": total("nonlinearity.grid_drift"),
            "model.norm_calls": calls("model.norm"),
            "model.norm_s": total("model.norm"),
            "solver.batches": calls("solver.batch"),
            "solver.column_steps": self.column_steps,
            "solver.batch_s": total("solver.batch"),
            "solver.self_s": self.layers["solver.batch"][2],
            "solver.transform_gflop_computed": self.transform_flop / 1e9,
            "cli.write_calls": calls("cli.write"),
            "cli.write_s": total("cli.write"),
        }
        for module in ("solver", "ergodics", "kolmogorov"):
            out[f"{module}.observer_s"] = total(f"{module}.observer")
        return out

    def dump(self) -> dict[str, Any]:
        """Spans and aggregates in JSON-ready form."""
        return {
            "layers": {
                k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                for k, v in self.layers.items()
                if v[0]
            },
            "edges": [
                {"parent": p, "layer": c, "calls": v[0], "total_s": v[1]}
                for (p, c), v in self.edges.items()
            ],
            "spans": [
                {"layer": name, "start": begin, "end": end, "parent": parent}
                for name, begin, end, parent in self.spans
            ],
        }


def targets() -> list[tuple[Any, str, Callable[[Tracer, Callable], Callable]]]:
    """(owner, attribute, wrapper factory) for every traced entry point."""
    from fhn_spectral import cli, ergodics, kolmogorov, noise, solver

    def leaf(layer: str):
        return lambda tr, fn: tr.leaf(fn, layer)

    def batch(caller: str):
        return lambda tr, fn: tr.batch(fn, caller)

    return [
        (noise.PathStream, "normals", leaf("noise.normals")),
        (solver, "build_ou_kernel", lambda tr, fn: tr.kernel_build(fn)),
        (kolmogorov, "build_ou_kernel", lambda tr, fn: tr.kernel_build(fn)),
        (solver, "grid_drift", leaf("nonlinearity.grid_drift")),
        (solver, "norm_H_sq_arrays", leaf("model.norm")),
        (solver, "norm_V_sq_arrays", leaf("model.norm")),
        (solver, "_simulate_batch", batch("solver")),
        (ergodics, "_simulate_batch", batch("ergodics")),
        (kolmogorov, "_simulate_batch", batch("kolmogorov")),
        (cli, "write_csv", lambda tr, fn: tr.node(fn, "cli.write")),
        (cli, "write_json", lambda tr, fn: tr.node(fn, "cli.write")),
    ]


@contextmanager
def column_step_counter() -> Iterator[list[int]]:
    """Count Σ B·n_steps over all solver batches, timing nothing."""
    from fhn_spectral import ergodics, kolmogorov, solver

    count = [0]
    saved = []

    def counting(fn: Callable) -> Callable:
        def wrapper(params, basis, spec, **kwargs):
            count[0] += int(kwargs["x0"].shape[0]) * int(kwargs["n_steps"])
            return fn(params, basis, spec, **kwargs)

        return wrapper

    try:
        for owner in (solver, ergodics, kolmogorov):
            original = owner.__dict__["_simulate_batch"]
            saved.append((owner, original))
            owner._simulate_batch = counting(original)
        yield count
    finally:
        for owner, original in reversed(saved):
            owner._simulate_batch = original


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every target with a tracing wrapper; restore the originals on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, factory in targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(tracer, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
