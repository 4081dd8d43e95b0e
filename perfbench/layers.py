"""Per-layer metrics of the traced run, and which end-to-end metric each moves.

Layers are :mod:`repro`'s modules.  ``PER_LAYER`` lists every metric the
traced run prints, with the end-to-end metric it should move and the
workloads where it should (elsewhere the layer does little and the
prediction is no change).  ``BENCHMARK.json`` holds only name, unit and
direction, so this table is the record of the predictions.

Times are seconds summed over the run; ``self_s`` is span time minus the
time of the spans nested in it.  Kernel FLOPs come from the dense count of
``repro.kernels.flops.count_flops_per_element_update``; kernel bytes are
*computed* from the ``nbytes`` of the arrays crossing each stage call, not
measured traffic.

On ``loh3_2rank`` the kernels run inside the rank workers, where the
benchmark's wrappers cannot reach; its kernel numbers are the workers' own
telemetry regions summed over ranks.  There ``time_integrate`` covers only
the local-update integration (not the buffer fill's), ``face_coefficients``
has no region and reads 0, and bytes are not visible (0).
"""

from __future__ import annotations

STAGES = (
    "time_derivatives",
    "time_integrate",
    "project_traces",
    "volume",
    "surface_local",
    "face_coefficients",
    "surface_neighbor",
)

#: rank-worker telemetry region of each stage (process backend); the face
#: coefficients have no region of their own there
STAGE_REGIONS = {
    "time_derivatives": "kernel.ck",
    "time_integrate": "kernel.integrate",
    "project_traces": "kernel.trace",
    "volume": "kernel.volume",
    "surface_local": "kernel.surface_local",
    "surface_neighbor": "kernel.surface_neighbor",
}

W1, W2, W3 = "loh3_1rank", "loh3_2rank", "la_habra_fused4"
ALL = "all"

#: (name, unit, better, moves, on)
PER_LAYER = [
    ("repro.import_s", "s", "lower", "time_to_solution_s", ALL),
    ("scenarios.build_setup_s", "s", "lower", "setup_s", ALL),
    ("scenarios.write_outputs_s", "s", "lower", "time_to_solution_s", ALL),
    ("scenarios.save_checkpoint_s", "s", "lower", "time_to_solution_s", W2),
    ("scenarios.checkpoint_bytes", "bytes", "lower", "time_to_solution_s", W2),
    ("mesh.layered_box_mesh_s", "s", "lower", "setup_s", W3),
    ("mesh.n_elements", "count", "lower", "setup_s", W3),
    ("equations.material_table_s", "s", "lower", "setup_s", W3),
    ("kernels.discretization_s", "s", "lower", "setup_s", W3),
    ("kernels.discretization_calls", "count", "lower", "setup_s", W3),
]
for _stage in STAGES:
    PER_LAYER += [
        (f"kernels.{_stage}.self_s", "s", "lower", "loop_s", f"{W1},{W3}"),
        (f"kernels.{_stage}.calls", "count", "lower", "loop_s", f"{W1},{W3}"),
        (f"kernels.{_stage}.gflop_s", "GFLOP/s", "higher", "element_updates_per_s", f"{W1},{W3}"),
        (f"kernels.{_stage}.bytes", "bytes", "lower", "element_updates_per_s", f"{W1},{W3}"),
        (f"kernels.{_stage}.flop_per_byte", "flop/B", "higher", "element_updates_per_s", f"{W1},{W3}"),
    ]
PER_LAYER += [
    ("core.cycle_s.p50", "s", "lower", "loop_s", W1),
    ("core.cycle_s.p90", "s", "lower", "loop_s", W1),
    ("core.first_cycle_s", "s", "lower", "loop_s", W1),
    ("core.buffers_fill_s", "s", "lower", "loop_s", W1),
    ("core.buffers_neighbor_data_s", "s", "lower", "loop_s", W1),
    ("core.optimize_lambda_s", "s", "lower", "setup_s", W3),
    ("core.updates_per_cycle", "count", "lower", "loop_s", W3),
    ("core.nonempty_clusters", "count", "higher", "loop_s", W3),
    ("core.theoretical_speedup", "x", "higher", "loop_s", W3),
    ("preprocessing.time_steps_s", "s", "lower", "setup_s", W3),
    ("preprocessing.clustering_s", "s", "lower", "setup_s", W3),
    ("preprocessing.partition_s", "s", "lower", "setup_s", W3),
    ("preprocessing.permutation_s", "s", "lower", "setup_s", W3),
    ("preprocessing.assemble_s", "s", "lower", "setup_s", W3),
    ("source.inject_s", "s", "lower", "loop_s", W3),
    ("source.inject_calls", "count", "lower", "loop_s", W3),
    ("source.record_s", "s", "lower", "loop_s", W3),
    ("source.record_calls", "count", "lower", "loop_s", W3),
    ("parallel.partition_s", "s", "lower", "setup_s", W2),
    ("distributed.engine_build_s", "s", "lower", "setup_s", W2),
    ("parallel.halo_faces", "count", "lower", "loop_s", W2),
    ("distributed.boundary_fraction", "ratio", "lower", "loop_s", W2),
    ("parallel.bytes_per_cycle", "bytes", "lower", "loop_s", W2),
    ("parallel.messages_per_cycle", "count", "lower", "loop_s", W2),
    ("parallel.recv_wait_s.rank0", "s", "lower", "loop_s", W2),
    ("parallel.recv_wait_s.rank1", "s", "lower", "loop_s", W2),
    ("parallel.send_s.rank0", "s", "lower", "loop_s", W2),
    ("parallel.send_s.rank1", "s", "lower", "loop_s", W2),
    ("distributed.step_cycle_s", "s", "lower", "loop_s", W2),
    ("distributed.imbalance", "ratio", "lower", "loop_s", W2),
    ("observability.tracing_overhead", "ratio", "lower", "none (sanity check)", ALL),
    ("health.max_abs_q_growth", "ratio", "lower", "none (not gated)", ALL),
    ("host.dgemm_gflop_s.stiffness", "GFLOP/s", "higher", "none (host calibration)", ALL),
    ("host.dgemm_gflop_s.star", "GFLOP/s", "higher", "none (host calibration)", ALL),
    ("host.dgemm_gflop_s.face", "GFLOP/s", "higher", "none (host calibration)", ALL),
]


def stage_flops(disc) -> dict:
    """Dense FLOPs per element (and fused slot) of one call of each stage.

    Splits the four ``FlopCount`` groups along the stage boundaries: the
    Taylor integration out of the time kernel, the trace projections out of
    the two surface groups.
    """
    from repro.kernels.flops import count_flops_per_element_update

    counts = count_flops_per_element_update(disc)
    b, f = disc.n_basis, disc.n_face_basis
    integrate = 2 * disc.order * disc.n_vars * b
    projection = 4 * 2 * 9 * f * b
    return {
        "time_derivatives": counts.time_kernel - integrate,
        "time_integrate": integrate,
        "project_traces": projection,
        "volume": counts.volume_kernel,
        "surface_local": counts.surface_local - projection,
        "face_coefficients": projection,
        "surface_neighbor": counts.surface_neighbor - projection,
    }


def _quantile(values: list, q: float) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    position = q * (len(values) - 1)
    low = int(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (position - low)


def _rank_regions(summary: dict) -> list[dict]:
    """Per-rank telemetry regions of a process-backend run (rank order)."""
    lanes = summary.get("telemetry", {}).get("lanes", [])
    ranks = [lane for lane in lanes if str(lane.get("lane", "")).startswith("rank ")]
    ranks.sort(key=lambda lane: lane["lane"])
    return [lane["regions"] for lane in ranks]


def _sum_regions(regions: dict, leaf: str) -> tuple[float, int]:
    total, count = 0.0, 0
    for path, entry in regions.items():
        if path == leaf or path.endswith("/" + leaf):
            total += entry["total_s"]
            count += entry["count"]
    return total, count


def derive(spans: dict, summary: dict, flops: dict, extra: dict) -> dict:
    """Every per-layer metric except those only the parent knows (tracing
    overhead, health, host), from the traced run's spans and run summary."""
    n_fused = max(1, int(summary.get("n_fused") or 0))

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    out = {
        "repro.import_s": extra["import_s"],
        "scenarios.build_setup_s": total("scenarios.build_setup"),
        "scenarios.write_outputs_s": extra["write_outputs_s"],
        "scenarios.save_checkpoint_s": total("scenarios.save_checkpoint"),
        "scenarios.checkpoint_bytes": extra["checkpoint_bytes"],
        "mesh.layered_box_mesh_s": total("mesh.layered_box_mesh"),
        "mesh.n_elements": int(summary["n_elements"]),
        "equations.material_table_s": total("equations.material_table"),
        "kernels.discretization_s": total("kernels.discretization"),
        "kernels.discretization_calls": calls("kernels.discretization"),
    }

    rank_regions = _rank_regions(summary)
    updates = int(summary["element_updates"])
    for stage in STAGES:
        entry = spans.get(f"kernels.{stage}")
        if entry is not None:
            self_s, n_calls = entry["self_s"], entry["calls"]
            flop = flops[stage] * entry["elements"] * n_fused
            moved = entry["bytes"]
        else:
            # process backend: the rank workers' own kernel regions; their
            # batches cover every update once, bytes are not visible
            self_s, n_calls = 0.0, 0
            for regions in rank_regions:
                seconds, count = _sum_regions(regions, STAGE_REGIONS.get(stage, "-"))
                self_s += seconds
                n_calls += count
            flop = flops[stage] * updates * n_fused if n_calls else 0.0
            moved = 0
        prefix = f"kernels.{stage}"
        out[f"{prefix}.self_s"] = self_s
        out[f"{prefix}.calls"] = n_calls
        out[f"{prefix}.gflop_s"] = flop / self_s / 1e9 if self_s > 0 else 0.0
        out[f"{prefix}.bytes"] = moved
        out[f"{prefix}.flop_per_byte"] = flop / moved if moved else 0.0

    cycles = spans.get("core.cycle", {}).get("durations", [])
    counts = summary["cluster_counts"]
    n_clusters = len(counts)
    out.update({
        "core.cycle_s.p50": _quantile(cycles, 0.5),
        "core.cycle_s.p90": _quantile(cycles, 0.9),
        "core.first_cycle_s": cycles[0] if cycles else 0.0,
        "core.buffers_fill_s": spans.get("core.buffers_fill", {}).get("self_s", 0.0),
        "core.buffers_neighbor_data_s": spans.get("core.buffers_neighbor_data", {}).get("self_s", 0.0),
        "core.optimize_lambda_s": total("core.optimize_lambda"),
        "core.updates_per_cycle": int(sum(c * 2 ** (n_clusters - 1 - i) for i, c in enumerate(counts))),
        "core.nonempty_clusters": sum(1 for c in counts if c > 0),
        "core.theoretical_speedup": float(summary["theoretical_speedup"]),
    })
    for step in ("time_steps", "clustering", "partition", "permutation", "assemble"):
        out[f"preprocessing.{step}_s"] = total(f"preprocessing.{step}")
    out.update({
        "source.inject_s": total("source.inject"),
        "source.inject_calls": calls("source.inject"),
        "source.record_s": total("source.record"),
        "source.record_calls": calls("source.record"),
        "parallel.partition_s": total("parallel.partition"),
        "distributed.engine_build_s": total("distributed.engine_build"),
        "distributed.step_cycle_s": total("distributed.step_cycle"),
    })

    comm = summary.get("comm")
    out["parallel.halo_faces"] = int(comm["n_halo_faces"]) if comm else 0
    out["distributed.boundary_fraction"] = (
        comm["n_boundary_elements"] / summary["n_elements"] if comm else 0.0
    )
    out["parallel.bytes_per_cycle"] = comm["measured_bytes_per_cycle"] if comm else 0.0
    out["parallel.messages_per_cycle"] = comm["measured_messages_per_cycle"] if comm else 0.0
    busy = []
    for r in range(2):
        regions = rank_regions[r] if r < len(rank_regions) else {}
        wait, _ = _sum_regions(regions, "recv_wait")
        send, _ = _sum_regions(regions, "send")
        out[f"parallel.recv_wait_s.rank{r}"] = wait
        out[f"parallel.send_s.rank{r}"] = send
        if regions:
            top = sum(e["total_s"] for path, e in regions.items() if "/" not in path)
            busy.append(top - wait)
    out["distributed.imbalance"] = max(busy) / (sum(busy) / len(busy)) if busy and sum(busy) > 0 else 0.0
    return out
