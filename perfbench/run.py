"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload loh3_1rank --seed 1 --seconds 15 --trace 0

Each measured run is a fresh ``python3 perfbench/child.py`` process with
``OPENBLAS_NUM_THREADS=1`` set before numpy is imported: import, setup, time
loop, seismograms and summary written, exit.  Runs repeat until
``--seconds`` is spent (at least three untraced runs); medians are
reported.  Before them, one reference run of the same inputs on the bit-exact
``ref`` kernels gives the seismograms every run is checked against (fast-f64
rung of the tolerance ladder in ``repro.verification.golden``) and the
max |q| health readout.  A run fails when it exits non-zero, ends with a
non-finite state, misses the tolerance, or (on 2 ranks) measures halo bytes
other than the exchange model's.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs (at least one of each) and prints the per-layer
metrics of the traced ones (see ``layers.py``), including the tracing
overhead against the untraced loop time.  Earlier stdout lines carry a readable report; the last
line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_RUNS = 3
#: a run must exit within 180 s; stop launching children past this point
BUDGET_S = 165.0

END_TO_END = {
    "time_to_solution_s": "s",
    "setup_s": "s",
    "loop_s": "s",
    "element_updates_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _child(job: dict, deadline: float) -> tuple[float, dict | None, str]:
    """Run one child process; ``(wall seconds, result or None, error)``."""
    out = Path(job["out"])
    out.mkdir(parents=True)
    job_path = out / "job.json"
    job_path.write_text(json.dumps(job))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_KERNELS", None)
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(job_path)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, stderr = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return time.perf_counter() - start, None, "timed out"
    wall = time.perf_counter() - start
    if process.returncode != 0:
        tail = stderr.decode(errors="replace").strip().splitlines()[-3:]
        return wall, None, f"exit {process.returncode}: " + " | ".join(tail)
    return wall, json.loads((out / "result.json").read_text()), ""


def _check_seismograms(out: Path, reference, names: list, tolerance: float) -> tuple[float, str]:
    """Worst peak-relative error of a run's CSVs against the reference."""
    import numpy as np

    worst = 0.0
    for name in names:
        table = np.loadtxt(out / f"seismogram_{name}.csv", delimiter=",", skiprows=1, ndmin=2)
        times, values = table[:, 0], table[:, 1:]
        ref_times = reference[f"{name}.times"]
        ref_values = reference[f"{name}.values"].reshape(len(ref_times), -1)
        if values.shape != ref_values.shape:
            return float("inf"), f"{name}: shape {values.shape} != {ref_values.shape}"
        if not np.isfinite(values).all():
            return float("inf"), f"{name}: non-finite samples"
        if not np.allclose(times, ref_times, rtol=0.0, atol=1e-12):
            return float("inf"), f"{name}: sample times diverge"
        peak = float(np.abs(ref_values).max())
        err = float(np.abs(values - ref_values).max())
        worst = max(worst, err / peak if peak > 0.0 else err)
    if worst > tolerance:
        return worst, f"peak-relative error {worst:.3e} > {tolerance:.0e}"
    return worst, ""


def _summary(values: list) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from host import dgemm_calibration, host_block
    from layers import PER_LAYER
    from repro.verification.golden import seismogram_tolerance
    from workloads import WORKLOADS, make_spec, reference_spec

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
    spec = make_spec(args.workload, args.seed)
    work = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec_path = work / "spec.json"
        spec_path.write_text(spec.to_json())
        ref_path = work / "reference_spec.json"
        ref_path.write_text(reference_spec(spec).to_json())

        runs = []
        ref = None
        min_plain = 1 if args.trace else MIN_RUNS
        while True:
            n_plain = sum(1 for r in runs if not r["traced"])
            n_traced = len(runs) - n_plain
            measured = sum(r["wall_s"] for r in runs)
            longest = max((r["wall_s"] for r in runs), default=0.0)
            if n_plain >= min_plain and n_traced >= args.trace and (
                measured + longest > args.seconds
            ):
                break
            if runs and time.monotonic() + longest > deadline:
                break
            out = work / f"run{len(runs)}"
            traced = bool(args.trace) and n_traced < n_plain
            wall, result, error = _child(
                {"mode": "timed", "spec": str(spec_path), "out": str(out), "trace": traced},
                deadline,
            )
            runs.append({"traced": traced, "wall_s": wall, "error": error, "result": result, "out": out})
            if ref is None:
                # placed after the first run so the measured runs span more
                # of the host's slow load swings
                _, ref, error = _child(
                    {"mode": "reference", "spec": str(ref_path), "out": str(work / "reference"),
                     "trace": False},
                    deadline,
                )
                if ref is None:
                    print(f"perfbench: reference run failed: {error}", file=sys.stderr)
                    return 1
                host = host_block()
                host["dgemm_gflop_s"] = dgemm_calibration(
                    ref["largest_cluster"], ref["n_basis"], ref["n_face_basis"], ref["n_fused"]
                )

        reference = dict(np.load(work / "reference" / "reference.npz"))
        tolerance = seismogram_tolerance(spec.name, spec.solver.kernels, spec.solver.precision)
        for run in runs:
            result = run["result"]
            if result is None:
                continue
            if not result["finite"]:
                run["error"] = "non-finite state"
            elif "halo_bytes" in result and result["halo_bytes"] != result["halo_bytes_modelled"]:
                run["error"] = (
                    f"halo bytes {result['halo_bytes']} != modelled {result['halo_bytes_modelled']}"
                )
            else:
                run["peak_rel_err"], run["error"] = _check_seismograms(
                    run["out"], reference, ref["receivers"], tolerance
                )

        good = [r for r in runs if not r["error"]]
        plain = [r for r in good if not r["traced"]]
        traced_runs = [r for r in good if r["traced"]]
        if not plain or (args.trace and not traced_runs):
            for r in runs:
                print(f"perfbench: run failed: {r['error']}", file=sys.stderr)
            return 1

        samples = {
            "time_to_solution_s": [r["wall_s"] for r in plain],
            "setup_s": [r["result"]["setup_s"] for r in plain],
            "loop_s": [r["result"]["loop_s"] for r in plain],
            "element_updates_per_s": [
                r["result"]["element_updates"] * max(1, r["result"]["n_fused"]) / r["result"]["loop_s"]
                for r in plain
            ],
            "peak_rss_mb": [r["result"]["peak_rss_mb"] for r in plain],
        }
        health = {
            "max_abs_q_first_cycle": ref["max_abs_q_first"],
            "max_abs_q_end": ref["max_abs_q_end"],
            "growth": ref["max_abs_q_end"] / ref["max_abs_q_first"],
            "cycles": ref["cycles"],
        }
        report = {
            "workload": args.workload,
            "why": WORKLOADS[args.workload],
            "seed": args.seed,
            "host": host,
            "health": health,
            "tolerance": tolerance,
            "runs": [
                {"traced": r["traced"], "wall_s": r["wall_s"], "error": r["error"],
                 "peak_rel_err": r.get("peak_rel_err"),
                 "setup_s": (r["result"] or {}).get("setup_s"),
                 "loop_s": (r["result"] or {}).get("loop_s")}
                for r in runs
            ],
            "end_to_end": {name: _summary(values) for name, values in samples.items()},
        }
        if args.trace:
            layers = {
                name: statistics.median(r["result"]["layers"][name] for r in traced_runs)
                for name in traced_runs[0]["result"]["layers"]
            }
            layers["observability.tracing_overhead"] = (
                statistics.median(r["result"]["loop_s"] for r in traced_runs)
                / statistics.median(samples["loop_s"])
                - 1.0
            )
            layers["health.max_abs_q_growth"] = health["growth"]
            for shape, rate in host["dgemm_gflop_s"].items():
                layers[f"host.dgemm_gflop_s.{shape}"] = rate
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit, *_ in PER_LAYER}
            report["spans"] = traced_runs[0]["result"]["spans"]
            report["per_layer"] = {
                name: {"value": layers[name], "unit": unit, "moves": moves, "on": on}
                for name, unit, _, moves, on in PER_LAYER
            }
        else:
            metrics = {
                name: {"value": statistics.median(samples[name]), "unit": unit}
                for name, unit in END_TO_END.items()
            }
        print(json.dumps(report, indent=1))
        failed = len(runs) - len(good)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(runs),
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
