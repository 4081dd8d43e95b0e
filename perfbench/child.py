"""One fresh-process run of a workload spec, launched by ``run.py``.

Usage: ``python3 perfbench/child.py JOB.json`` with ``src`` on
``PYTHONPATH``.  The job names the spec file, the output directory and the
mode:

* ``timed``: import, setup (runner construction), time loop, seismograms
  and summary written; with ``trace`` set, spans are recorded around the
  layer boundaries (see ``tracer.py``) and the per-layer metrics derived;
* ``reference``: the same inputs on the ``ref`` kernels at f64, single rank,
  stepped cycle by cycle to read max |q| after the first cycle and at the
  end; the seismograms go to ``reference.npz``.

Both write ``result.json`` into the output directory.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _reference(spec, out: str) -> dict:
    import numpy as np

    from repro.scenarios.runner import make_runner

    runner = make_runner(spec)
    runner.step_cycle()
    q_first = float(np.max(np.abs(runner.solver.dofs)))
    while runner.cycles_done < runner.total_cycles:
        runner.step_cycle()
    dofs = runner.solver.dofs
    traces = {}
    for receiver in runner.receivers.receivers:
        times, values = receiver.seismogram()
        traces[f"{receiver.name}.times"] = times
        traces[f"{receiver.name}.values"] = values
    np.savez(os.path.join(out, "reference.npz"), **traces)
    counts = runner.clustering.counts
    disc = runner.setup.disc
    return {
        "n_basis": int(disc.n_basis),
        "n_face_basis": int(disc.n_face_basis),
        "largest_cluster": int(counts.max()),
        "n_fused": int(spec.solver.n_fused),
        "cycles": int(runner.cycles_done),
        "receivers": [r.name for r in runner.receivers.receivers],
        "max_abs_q_first": q_first,
        "max_abs_q_end": float(np.max(np.abs(dofs))),
        "finite": bool(np.isfinite(dofs).all()),
    }


def _timed(spec, job: dict, import_s: float) -> dict:
    import numpy as np

    from repro.scenarios.outputs import write_outputs
    from repro.scenarios.runner import make_runner

    out = job["out"]
    tracer = None
    if job["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
        if spec.solver.n_ranks > 1:
            # the rank workers' layers come from the program's own regions
            spec = spec.with_overrides(telemetry=True)

    start = time.perf_counter()
    runner = make_runner(spec)
    setup_s = time.perf_counter() - start
    checkpoint = os.path.join(out, "run.ckpt.npz") if spec.run.checkpoint_every else None
    summary = runner.run(checkpoint_path=checkpoint)
    start = time.perf_counter()
    write_outputs(runner, out, summary=summary)
    write_outputs_s = time.perf_counter() - start

    dofs = runner.solver.dofs
    memory = summary["memory"]
    result = {
        "import_s": import_s,
        "setup_s": setup_s,
        "loop_s": float(runner.wall_s),
        "write_outputs_s": write_outputs_s,
        "element_updates": int(summary["element_updates"]),
        "n_fused": int(spec.solver.n_fused),
        "peak_rss_mb": memory["peak_rss_mb"] + sum(memory.get("worker_peak_rss_mb", [])),
        "finite": bool(np.isfinite(dofs).all()),
    }
    comm = summary.get("comm")
    if comm is not None:
        result["halo_bytes"] = int(comm["n_bytes"])
        result["halo_bytes_modelled"] = comm["model"]["total_bytes"] * comm["cycles_measured"]
    if tracer is not None:
        tracer.uninstall()
        from layers import derive, stage_flops

        spans = tracer.layers()
        result["spans"] = {
            name: {key: entry[key] for key in ("calls", "total_s", "self_s")}
            for name, entry in spans.items()
        }
        result["layers"] = derive(
            spans,
            summary,
            stage_flops(runner.setup.disc),
            {
                "import_s": import_s,
                "write_outputs_s": write_outputs_s,
                "checkpoint_bytes": os.path.getsize(checkpoint) if checkpoint else 0,
            },
        )
    return result


def main(job_path: str) -> int:
    with open(job_path) as handle:
        job = json.load(handle)
    start = time.perf_counter()
    import repro  # noqa: F401  (timed: the import is part of time to solution)

    import_s = time.perf_counter() - start
    from repro.scenarios.spec import ScenarioSpec

    with open(job["spec"]) as handle:
        spec = ScenarioSpec.from_json(handle.read())
    if job["mode"] == "reference":
        result = _reference(spec, job["out"])
    else:
        result = _timed(spec, job, import_s)
    with open(os.path.join(job["out"], "result.json"), "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
