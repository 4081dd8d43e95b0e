"""Spans recorded from outside the program, around calls into its layers.

:func:`install` replaces public functions and methods of :mod:`repro` with
wrappers that record ``(name, start, end, parent)`` spans in memory; nothing
under ``src/`` changes.  Forked children (the process backend's rank
workers) get the original functions back, because the parent could never
collect their spans: their layers are read from the program's own telemetry
regions instead.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

#: backend method -> kernel stage name
KERNEL_STAGES = {
    "compute_time_derivatives": "time_derivatives",
    "time_integrate": "time_integrate",
    "project_local_traces": "project_traces",
    "volume_kernel": "volume",
    "surface_kernel_local": "surface_local",
    "neighbor_face_coefficients": "face_coefficients",
    "surface_kernel_neighbor": "surface_neighbor",
}


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    return 0


def _leading(value) -> int:
    """Batch size of a stage result (an array or a list/tuple of arrays)."""
    if isinstance(value, (list, tuple)):
        value = value[0]
    return int(value.shape[0])


def _stage_io(args, kwargs, result):
    """Per-call ``(elements, bytes)`` of a kernel stage.

    Bytes are the ``nbytes`` of the arrays crossing the call (arguments and
    result); a global per-element array (the DOFs) counts only the rows the
    batch reads.
    """
    batch = _leading(result)
    moved = _nbytes(result)
    # args[0] is the backend; every stage but time_integrate takes disc next
    n_elements = getattr(args[1], "n_elements", None)
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, np.ndarray) and value.ndim > 1 and value.shape[0] == n_elements:
            moved += value.nbytes * batch // n_elements
        else:
            moved += _nbytes(value)
    return batch, moved


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self):
        #: [name, start, end, parent index, extra]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------
    def call(self, name, func, args, kwargs, on_exit=None):
        if self._stack and self.spans[self._stack[-1]][0] == name:
            # an override calling its wrapped base through super(): one span
            return func(*args, **kwargs)
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if on_exit is not None:
            span[4] = on_exit(args, kwargs, result)
        return result

    # -- patching -------------------------------------------------------
    def patch(self, owner, attr: str, name: str, on_exit=None, kind: str = "function"):
        """Wrap ``owner.attr`` (a function, method or classmethod)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = raw.__func__ if kind == "classmethod" else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return tracer.call(name, func, args, kwargs, on_exit)

        setattr(owner, attr, classmethod(wrapper) if kind == "classmethod" else wrapper)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- aggregation ----------------------------------------------------
    def layers(self) -> dict:
        """Per span name: calls, total and self seconds, summed extras.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, extra) in enumerate(self.spans):
            entry = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [],
                       "elements": 0, "bytes": 0}
            )
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_s[i]
            entry["durations"].append(end - start)
            if extra is not None:
                entry["elements"] += extra[0]
                entry["bytes"] += extra[1]
        return out


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of :mod:`repro` named by the benchmark."""
    import repro.distributed.runner as dist_runner
    import repro.preprocessing.pipeline as pipeline
    import repro.scenarios.runner as runner
    from repro.core.buffers import LtsBuffers
    from repro.distributed.process_engine import ProcessLtsEngine
    from repro.equations.material import MaterialTable
    from repro.kernels.backend import FastBackend, OptimizedBackend, ReferenceBackend
    from repro.preprocessing.pipeline import PreprocessingPipeline
    from repro.source.moment_tensor import DiscretePointSource
    from repro.source.receivers import ReceiverSet

    tracer.patch(runner, "build_setup", "scenarios.build_setup")
    tracer.patch(runner, "layered_box_mesh", "mesh.layered_box_mesh")
    tracer.patch(runner, "Discretization", "kernels.discretization")
    tracer.patch(MaterialTable, "from_velocity_model", "equations.material_table",
                 kind="classmethod")
    tracer.patch(runner, "optimize_lambda", "core.optimize_lambda")
    tracer.patch(pipeline, "optimize_lambda", "core.optimize_lambda")
    for step in ("time_steps", "clustering", "partition", "permutation"):
        tracer.patch(PreprocessingPipeline, f"derive_{step}", f"preprocessing.{step}")
    tracer.patch(PreprocessingPipeline, "assemble", "preprocessing.assemble")
    tracer.patch(pipeline, "partition_dual_graph", "parallel.partition")
    tracer.patch(dist_runner, "partition_dual_graph", "parallel.partition")
    tracer.patch(ProcessLtsEngine, "__init__", "distributed.engine_build")
    tracer.patch(ProcessLtsEngine, "step_cycle", "distributed.step_cycle")
    tracer.patch(runner.ScenarioRunner, "step_cycle", "core.cycle")
    tracer.patch(runner.ScenarioRunner, "save_checkpoint", "scenarios.save_checkpoint")
    tracer.patch(LtsBuffers, "fill", "core.buffers_fill")
    tracer.patch(LtsBuffers, "neighbor_data", "core.buffers_neighbor_data")
    tracer.patch(DiscretePointSource, "inject", "source.inject")
    tracer.patch(ReceiverSet, "record_elements", "source.record")
    # patch every class that defines the stage itself, so an override and
    # the inherited method it calls through super() both stay wrapped
    for cls in (ReferenceBackend, OptimizedBackend, FastBackend):
        for method, stage in KERNEL_STAGES.items():
            if method in cls.__dict__:
                tracer.patch(cls, method, f"kernels.{stage}", on_exit=_stage_io)
    os.register_at_fork(after_in_child=tracer.uninstall)
