"""Host block: what the numbers were measured on, plus a DGEMM calibration.

The calibration times ``np.matmul`` at the batched shapes the fast kernel
backend issues for a workload (its largest LTS cluster, its basis sizes and
fused width), single-threaded like the benchmark runs.  No memory-bandwidth
probe is made: the last-level cache here is too large for a probe array of
4x its size to be polite on a shared host, so the kernel stages report
operations per byte instead of a roofline ratio.
"""

from __future__ import annotations

import os
import platform
import time

import numpy as np


def _blas() -> dict:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return {"name": "unknown", "version": "unknown"}


def host_block() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _gflop_s(fn, flops: float, min_s: float = 0.1) -> float:
    """Median GFLOP/s of ``fn`` over batches of calls lasting ``min_s`` each."""
    fn()  # warm-up
    rates = []
    for _ in range(5):
        calls, start = 0, time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_s:
                break
        rates.append(flops * calls / elapsed / 1e9)
    rates.sort()
    return rates[len(rates) // 2]


def dgemm_calibration(n_elements: int, n_basis: int, n_face_basis: int, n_fused: int) -> dict:
    """GFLOP/s of the fast backend's three GEMM shapes for this batch.

    * ``stiffness``: the basis application of the CK/volume kernels, ``(E,
      9, B) @ (B, 3B)`` scalar or ``(3B, B) @ (E, 9, B, F)`` fused,
    * ``star``: the batched per-element star blocks, ``(E, 6, 3) @ (E, 3,
      B F)``,
    * ``face``: the flat face back-projection, ``(E 9 F, 4 f) @ (4 f, B)``.
    """
    rng = np.random.default_rng(0)
    E, B, f = n_elements, n_basis, n_face_basis
    F = max(1, n_fused)
    fused = (F,) if n_fused else ()
    x = rng.standard_normal((E, 9, B) + fused)
    if n_fused:
        cat = rng.standard_normal((3 * B, B))
        stiff_out = np.empty((E, 9, 3 * B, F))
        stiffness = lambda: np.matmul(cat, x, out=stiff_out)  # noqa: E731
    else:
        cat = rng.standard_normal((B, 3 * B))
        stiff_out = np.empty((E, 9, 3 * B))
        stiffness = lambda: np.matmul(x, cat, out=stiff_out)  # noqa: E731
    star_m = rng.standard_normal((E, 6, 3))
    star_x = rng.standard_normal((E, 3, B * F))
    star_out = np.empty((E, 6, B * F))
    face_x = rng.standard_normal((E * 9 * F, 4 * f))
    face_m = rng.standard_normal((4 * f, B))
    face_out = np.empty((E * 9 * F, B))
    return {
        "stiffness": _gflop_s(stiffness, 2.0 * E * 9 * B * 3 * B * F),
        "star": _gflop_s(lambda: np.matmul(star_m, star_x, out=star_out), 2.0 * E * 6 * 3 * B * F),
        "face": _gflop_s(lambda: np.matmul(face_x, face_m, out=face_out), 2.0 * E * 9 * F * 4 * f * B),
    }
