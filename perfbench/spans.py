"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the library at the module attribute
that the caller looks up, records one span per call (name, start, end,
parent span and operation id) and keeps running totals, so per-layer self
times and counts are available without a second pass over the spans.

A span's self time is its duration minus the durations of its direct child
spans. Every patch is undone by ``Tracer.restore``; end-to-end numbers are
always taken with no patch installed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    """Records spans and counters while its patches are installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[list] = []  # [span index, name, seconds covered by children]
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list = []
        self.op_id = -1
        self.reset_totals()

    def reset_totals(self) -> None:
        """Start a new accumulation window for totals and counters."""
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list] = defaultdict(list)

    def depth(self, name: str) -> int:
        """Number of open spans with this name."""
        return self._depth[name]

    def _open_span(self, name: str) -> None:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_op.append(self.op_id)
        self.span_parent.append(self._open[-1][0] if self._open else -1)
        self.span_end.append(0.0)
        self._open.append([index, name, 0.0])
        self._depth[name] += 1
        self.span_start.append(time.perf_counter())

    def _close_span(self) -> float:
        end = time.perf_counter()
        index, name, children = self._open.pop()
        self._depth[name] -= 1
        self.span_end[index] = end
        duration = end - self.span_start[index]
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - children
        if self._open:
            self._open[-1][2] += duration
        return duration

    @contextlib.contextmanager
    def span(self, name: str, label: str):
        """Record one root span; its duration is also kept under label."""
        self._open_span(name)
        try:
            yield
        finally:
            self.durations[label].append(self._close_span())

    def wrap(self, name: str, fn, on_exit=None):
        """Return fn wrapped in a span; on_exit(args, kwargs, result, error) may count."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open_span(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close_span()
                if on_exit is not None:
                    on_exit(args, kwargs, None, exc)
                raise
            tracer._close_span()
            if on_exit is not None:
                on_exit(args, kwargs, result, None)
            return result

        return traced

    def patch(self, owner, attribute: str, name: str, on_exit=None) -> bool:
        """Replace owner.attribute by a traced wrapper until restore().

        Returns False, and patches nothing, when the module no longer looks
        the name up itself.
        """
        original = getattr(owner, attribute, None)
        if original is None:
            return False
        setattr(owner, attribute, self.wrap(name, original, on_exit))
        self._undo.append(lambda: setattr(owner, attribute, original))
        return True

    def register_traced_models(self, artifact, factories) -> None:
        """Re-register model factories so every model they build has a traced build_matrix.

        Callers such as run_sweep rebuild their model inside each draw through
        get_model, so the wrapper has to sit in the factory, not on a model
        object the benchmark holds.
        """
        for model_name, factory in factories.items():

            def traced_factory(*args, _factory=factory):
                model = _factory(*args)
                return dataclasses.replace(
                    model,
                    build_matrix=self.wrap("models.build_matrix", model.build_matrix),
                )

            artifact.register_model(model_name, traced_factory)
            self._undo.append(
                lambda name=model_name, original=factory: artifact.register_model(name, original)
            )

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            self._undo.pop()()

    def write(self, path) -> int:
        """Write every recorded span to an .npz file; returns the span count."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.array(self.span_name, dtype=np.int32),
            op=np.array(self.span_op, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int32),
            start=np.array(self.span_start, dtype=np.float64),
            end=np.array(self.span_end, dtype=np.float64),
        )
        return len(self.span_start)


def instrument(tracer: Tracer, artifact) -> list:
    """Install every traced wrapper; returns the names that could not be patched.

    Each public name is patched in the module that looks it up: estimation
    imports simulate, solve_partitioned and full_diff by name, vorticity
    imports solve_single_column, and cli imports its library functions.
    """
    from artifact import cli, estimation, regression, vorticity

    missing = []

    def patch(owner, attribute, name, on_exit=None):
        if not tracer.patch(owner, attribute, name, on_exit):
            missing.append(f"{owner.__name__}.{attribute}")

    def simulated(args, kwargs, result, error):
        if error is None:
            tracer.counts["integrator.steps"] += len(result) - 1

    def assembled(args, kwargs, result, error):
        if error is None:
            tracer.counts["estimation.assemble.rows"] += result.rows
            tracer.counts["estimation.assemble.samples"] += result.rows // args[0].n_states

    def estimated_constant(args, kwargs, result, error):
        if tracer.depth("estimation.estimate_constant") == 0:
            tracer.counts["estimation.series_samples"] += len(args[1])

    def estimated_windows(args, kwargs, result, error):
        if tracer.depth("estimation.estimate_time_varying") == 0:
            tracer.counts["estimation.series_samples"] += len(args[1])
            if error is None:
                tracer.counts["estimation.windows.returned"] += len(result)

    def solved_partitioned(args, kwargs, result, error):
        if tracer.depth("estimation.estimate_time_varying") > 0:
            tracer.counts["estimation.windows.solved"] += 1

    def solved(args, kwargs, result, error):
        if isinstance(error, artifact.RankDeficient):
            tracer.counts["regression.solve.rank_deficient"] += 1

    def field_pass(stack):
        tracer.counts["vorticity.field_passes"] += 1
        interior = (stack.n_snapshots - 2) * (stack.nx - 2) * (stack.ny - 2)
        # the Laplacian and the advective target, float64 each
        tracer.counts["vorticity.field_bytes"] += 2 * 8 * interior

    def assembled_vorticity(args, kwargs, result, error):
        field_pass(args[0])

    def full_field(args, kwargs, result, error):
        sensors = args[1] if len(args) > 1 else kwargs.get("sensors")
        if sensors is None:
            field_pass(args[0])

    tracer.register_traced_models(
        artifact,
        {
            "sir": artifact.sir,
            "s3i3r": artifact.s3i3r,
            "lotka_volterra": artifact.lotka_volterra,
        },
    )
    for owner in (estimation, cli):
        patch(owner, "simulate", "integrator.simulate", simulated)
        patch(owner, "estimate_constant", "estimation.estimate_constant", estimated_constant)
        patch(owner, "estimate_time_varying", "estimation.estimate_time_varying", estimated_windows)
        patch(owner, "run_sweep", "estimation.run_sweep")
        patch(owner, "add_noise", "estimation.add_noise")
    patch(estimation, "full_diff", "differentiation.full_diff")
    patch(estimation, "assemble_from_series", "estimation.assemble", assembled)
    patch(estimation, "solve_partitioned", "regression.solve_partitioned", solved_partitioned)
    patch(regression, "stack_systems", "regression.stack_systems")
    patch(regression, "solve_ols", "regression.solve", solved)
    patch(regression, "solve_ridge", "regression.solve", solved)
    patch(vorticity, "solve_single_column", "vorticity.solve")
    patch(vorticity, "assemble_vorticity_system", "vorticity.assemble", assembled_vorticity)
    patch(vorticity, "sample_sensors", "vorticity.sample_sensors")
    for owner in (vorticity, cli):
        patch(owner, "estimate_inverse_re", "vorticity.estimate_inverse_re", full_field)
        patch(owner, "estimate_reynolds", "vorticity.estimate_reynolds")
    patch(cli, "manufactured_diffusion_stack", "vorticity.manufactured_diffusion_stack")
    patch(cli, "load_snapshot_stack", "vorticity.load_snapshot_stack")
    patch(cli, "default_wake_region", "vorticity.default_wake_region")
    patch(cli, "load_config", "config.load_config")
    patch(cli, "load_who_csv", "epidemic.load_who_csv")
    patch(cli, "build_sir_states", "epidemic.build_sir_states")
    patch(cli, "get_model", "models.get_model")
    return missing
