"""Pluggable kernel-execution backends for the ADER-DG solver stack.

The paper's performance numbers come from EDGE's tuned fused element kernels;
the solvers in :mod:`repro.core` and :mod:`repro.distributed` were written
against the straightforward reference kernels of :mod:`repro.kernels.ader`,
:mod:`~repro.kernels.volume` and :mod:`~repro.kernels.surface`.  This module
makes the execution strategy a pluggable object so that every solver (GTS,
clustered LTS, distributed rank steppers) runs through one of:

* :class:`ReferenceBackend` -- delegates to the reference kernel functions
  and preserves their bit-exact behaviour (and their per-call temporaries),
* :class:`OptimizedBackend` -- the same math restructured for speed,
* :class:`FastBackend` -- the f64 bit-identity pin dropped: one combined
  per-element operator for the CK and volume kernels, one code path for
  scalar and fused batches, and every contraction may reassociate (BLAS
  dispatch), so results are *tolerance-equal* instead of bit-identical.

``OptimizedBackend`` restructures as follows:

  1. the per-dimension ``c = 0..2`` star/stiffness applications and the
     per-face/per-mechanism loops are stacked into batched einsums over
     operator layouts chosen for contiguous inner loops (the element-local
     star/flux gathers are built once per cluster and cached),
  2. the *exact-zero* block structure of the element operators is exploited:
     the elastic star matrices are block-off-diagonal (stress rows only read
     velocity columns and vice versa), the anelastic star and flux matrices
     only read the velocity columns, and the coupling matrices only write
     stress rows -- the structure is verified once per discretization and
     the backend falls back to dense contractions if it does not hold,
  3. every kernel writes into a preallocated :class:`KernelWorkspace`
     (derivative stacks, time integrals, deltas, traces) that is reused
     across micro steps instead of ``np.zeros_like`` per call, and
  4. ``np.einsum_path`` contraction plans are precomputed and cached per
     (operator, shape) pair.

Bit-exactness contract
----------------------
At f64 the optimized backend is **bit-identical** to the reference backend
(asserted by the test suite on GTS, clustered-LTS and distributed runs).
The restructurings in (1)-(3) are chosen so that every output element is
produced by the same sequence of floating-point operations as the reference
loops: batching only adds outer (non-contracted) dimensions, relayouting
only changes strides, slicing only drops terms that are exactly zero, and
accumulations keep the reference order.  The cached einsum plans of (4) may
dispatch contractions to BLAS, which reassociates the reductions; they are
therefore only applied in f32 mode, where results are compared against f64
within a tolerance anyway and the reassociation buys the largest speedup.

Tolerance-equality contract (fast mode)
---------------------------------------
:class:`FastBackend` deliberately breaks the f64 pin: the CK and volume
kernels apply one combined per-element operator (elastic star, anelastic
star, coupling and relaxation in one matrix) through batched BLAS GEMMs,
scalar and fused batches share that one code path, and the per-derivative /
per-face / per-mechanism accumulation loops are fused into single
contractions.  The result differs from the reference only by floating-point
reassociation (and by products with exact zeros).  "Close enough" is not
left to ad-hoc ``allclose`` calls: :mod:`repro.verification` pins the
contract with convergence-order checks against analytic solutions and
committed golden-trace regressions under an explicit per-scenario tolerance
ladder.
"""

from __future__ import annotations

import math
import os

import numpy as np

from ..observability import NULL_TELEMETRY
from .ader import compute_time_derivatives, time_integrate
from .discretization import N_ELASTIC
from .surface import (
    neighbor_face_coefficients,
    project_local_traces,
    surface_kernel_local,
    surface_kernel_neighbor,
)
from .volume import volume_kernel

__all__ = [
    "KERNEL_KINDS",
    "KernelWorkspace",
    "ReferenceBackend",
    "OptimizedBackend",
    "FastBackend",
    "make_backend",
]

KERNEL_KINDS = ("ref", "opt", "fast")

#: environment override for the default backend of directly constructed
#: solvers (scenario specs name their backend explicitly and win) -- this is
#: what lets CI soak the whole tier-1 suite under the optimized kernels
_ENV_VAR = "REPRO_KERNELS"


def make_backend(kind=None):
    """Resolve a backend name (or pass an instance through).

    ``None`` falls back to the ``REPRO_KERNELS`` environment variable and
    then to ``"ref"``.
    """
    if isinstance(kind, ReferenceBackend):  # Optimized/FastBackend subclass it
        return kind
    if kind is None:
        kind = os.environ.get(_ENV_VAR) or "ref"
    if kind == "ref":
        return ReferenceBackend()
    if kind == "opt":
        return OptimizedBackend()
    if kind == "fast":
        return FastBackend()
    raise ValueError(f"kernel backend must be one of {KERNEL_KINDS}, got {kind!r}")


class KernelWorkspace:
    """Preallocated scratch (and cached static data), keyed by name + shape.

    One workspace is owned per batch producer (one per LTS cluster, one per
    GTS solver); keeping the shape in the scratch key lets the distributed
    steppers alternate between their boundary- and interior-row batch sizes
    without reallocating either.  :meth:`cached` additionally memoizes
    batch-static data (operator gathers, receive plans) under an explicit
    token, so per-cluster element gathers happen once instead of per call.
    """

    __slots__ = ("_arrays", "_cache", "_tokens")

    def __init__(self):
        self._arrays: dict = {}
        self._cache: dict = {}
        #: id(elements) -> (elements, token): memoized batch identities; the
        #: stored reference keeps the array alive so the id stays valid
        self._tokens: dict = {}

    def scratch(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """An uninitialised scratch array of the requested shape/dtype."""
        key = (name, shape, np.dtype(dtype))
        array = self._arrays.get(key)
        if array is None:
            array = np.empty(shape, dtype=dtype)
            self._arrays[key] = array
        return array

    def cached(self, name: str, token, builder):
        """Memoize ``builder()`` under ``(name, token)``."""
        key = (name, token)
        value = self._cache.get(key)
        if value is None:
            value = builder()
            self._cache[key] = value
        return value


class ReferenceBackend:
    """Executes the reference kernel functions exactly as written."""

    name = "ref"

    #: per-solver telemetry lane; the owning solver overwrites this with its
    #: own instance, so kernel-kind timings land in the right rank's lane.
    #: The class default is the shared no-op, keeping direct backend use
    #: (tests, benchmarks) unmeasured and overhead-free.
    telemetry = NULL_TELEMETRY

    def make_workspace(self) -> KernelWorkspace | None:
        """Reference kernels allocate per call; no workspace is kept."""
        return None

    # -- time kernel ----------------------------------------------------
    def compute_time_derivatives(self, disc, dofs, elements, ws=None):
        return compute_time_derivatives(disc, dofs, elements)

    def time_integrate(self, derivatives, t_start, t_end, ws=None, key="ti"):
        return time_integrate(derivatives, t_start, t_end)

    # -- space kernels --------------------------------------------------
    def project_local_traces(self, disc, time_integrated_elastic, elements, ws=None):
        return project_local_traces(disc, time_integrated_elastic, elements)

    def volume_kernel(self, disc, time_integrated, elements, ws=None):
        return volume_kernel(disc, time_integrated, elements)

    def surface_kernel_local(self, disc, time_integrated, elements, local_traces, ws=None):
        return surface_kernel_local(disc, time_integrated, elements, local_traces=local_traces)

    def neighbor_face_coefficients(self, disc, neighbor_te, own_traces, elements, ws=None):
        return neighbor_face_coefficients(disc, neighbor_te, own_traces, elements)

    def surface_kernel_neighbor(self, disc, coeffs, elements, ws=None):
        return surface_kernel_neighbor(disc, coeffs, elements)

    # -- fused local update (time + volume + local surface) -------------
    def local_update(self, disc, dofs, dt, elements, ws=None):
        """``(delta, time_integrated, derivatives, local_traces)``.

        The one canonical local-step pipeline: the GTS step, the clustered
        LTS prediction and the distributed rank steppers all run through
        this method (on either backend), so the bit-exactness-critical
        kernel sequence exists exactly once per backend.
        """
        telemetry = self.telemetry
        with telemetry.region("kernel.ck"):
            derivatives = self.compute_time_derivatives(disc, dofs, elements, ws=ws)
        with telemetry.region("kernel.integrate"):
            time_integrated = self.time_integrate(
                derivatives, 0.0, dt, ws=ws, key="local_ti"
            )
        with telemetry.region("kernel.trace"):
            local_traces = self.project_local_traces(
                disc, time_integrated[:, :N_ELASTIC], elements, ws=ws
            )
        with telemetry.region("kernel.volume"):
            delta = self.volume_kernel(disc, time_integrated, elements, ws=ws)
        with telemetry.region("kernel.surface_local"):
            delta += self.surface_kernel_local(
                disc, time_integrated, elements, local_traces, ws=ws
            )
        return delta, time_integrated, derivatives, local_traces


class _DiscData:
    """Per-discretization derived data of the optimized backend.

    ``*_zero`` flags record the exact-zero structure of the element
    operators (verified once -- the arrays are assembled analytically, so
    the zeros are exact by construction for the elastic/anelastic wave
    equations; a variant that breaks an assumption falls back to the dense
    contraction).  ``ftilde_flat`` groups the four face projections into one
    ``(B, 4 F)`` operator so the trace projection is a single contraction.
    """

    __slots__ = ("star_e_blocks", "star_a_velocity", "coupling_stress",
                 "flux_a_velocity", "ftilde_flat", "k_time_rows", "k_time_sliced",
                 "k_time_cat", "k_vol_cat", "fhat_flat")

    def __init__(self, disc):
        star_e = disc.star_elastic
        self.star_e_blocks = bool(
            np.all(star_e[:, :, :6, :6] == 0.0) and np.all(star_e[:, :, 6:, 6:] == 0.0)
        )
        self.star_a_velocity = bool(np.all(disc.star_anelastic[:, :, :, :6] == 0.0))
        self.coupling_stress = bool(
            disc.coupling.shape[1] == 0 or np.all(disc.coupling[:, :, 6:, :] == 0.0)
        )
        self.flux_a_velocity = bool(
            np.all(disc.flux_local_anelastic[..., :6] == 0.0)
            and np.all(disc.flux_neigh_anelastic[..., :6] == 0.0)
        )
        self.ftilde_flat = np.ascontiguousarray(disc.ftilde.transpose(1, 0, 2)).reshape(
            disc.ftilde.shape[1], -1
        )
        # the time stiffness matrices lower the polynomial degree, so whole
        # input rows are exactly zero; contracting only the non-zero rows
        # drops exactly-zero terms (bit-safe) and their FLOPs
        self.k_time_rows = []
        self.k_time_sliced = []
        for c in range(3):
            rows = np.where(~(disc.k_time[c] == 0.0).all(axis=1))[0]
            if len(rows) < disc.k_time.shape[1]:
                self.k_time_rows.append(rows)
                self.k_time_sliced.append(np.ascontiguousarray(disc.k_time[c][rows]))
            else:
                self.k_time_rows.append(None)
                self.k_time_sliced.append(disc.k_time[c])
        # the three directional stiffness operators side by side, (B, 3 B):
        # the fast backend applies all of them in one GEMM per CK iteration
        # and volume kernel; the volume one is negated so that both kernels
        # share one combined element operator
        self.k_time_cat = np.concatenate(list(disc.k_time), axis=1)
        self.k_vol_cat = -np.concatenate(list(disc.k_vol), axis=1)
        # (4 F, B) flattened back-projection of the fast fused surface path
        self.fhat_flat = np.ascontiguousarray(
            disc.fhat.reshape(-1, disc.fhat.shape[2])
        )


def _elements_token(elements, ws=None):
    """A hashable identity for an element batch (operator-gather cache key).

    Serialising the id array is O(E); batches are long-lived (per-cluster
    element lists, per-solver GTS ranges), so the token is memoized on the
    workspace by object identity and computed once per distinct array.
    """
    if isinstance(elements, slice):
        return (elements.start, elements.stop, elements.step)
    if ws is not None:
        entry = ws._tokens.get(id(elements))
        if entry is not None and entry[0] is elements:
            return entry[1]
        token = elements.tobytes()
        ws._tokens[id(elements)] = (elements, token)
        return token
    return elements.tobytes()


def _strided_stack(arrays):
    """``arrays`` as one ``(n, ...)`` view if they sit at a constant stride.

    True for the slices of one derivative stack (and for their ``[:, :9]``
    views); ``None`` for independently allocated arrays.  The view only
    addresses the elements of the arrays themselves.
    """
    first = arrays[0]
    address = first.__array_interface__["data"][0]
    step = arrays[1].__array_interface__["data"][0] - address if len(arrays) > 1 else 0
    for d, array in enumerate(arrays):
        if (
            array.shape != first.shape
            or array.strides != first.strides
            or array.dtype != first.dtype
            or array.__array_interface__["data"][0] != address + d * step
        ):
            return None
    return np.lib.stride_tricks.as_strided(
        first, (len(arrays),) + first.shape, (step,) + first.strides, writeable=False
    )


class OptimizedBackend(ReferenceBackend):
    """Batched, structure-exploiting, workspace-backed kernel execution.

    Every kernel method is overridden; the composite ``local_update``
    pipeline is inherited, so the bit-exactness-critical kernel sequence
    exists exactly once and dispatches to whichever backend runs it.
    """

    name = "opt"

    #: whether f64 contractions run through the einsum-plan cache too; the
    #: optimized backend keeps f64 on the bit-exact c_einsum kernel, the
    #: fast backend flips this and plans every dtype
    _plan_f64 = False

    def __init__(self):
        #: cached np.einsum_path plans, keyed by (subscripts, operand shapes)
        self._plans: dict = {}

    def make_workspace(self) -> KernelWorkspace:
        return KernelWorkspace()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _disc_data(self, disc) -> _DiscData:
        cached = getattr(disc, "_opt_kernel_data", None)
        if cached is None:
            cached = _DiscData(disc)
            try:
                disc._opt_kernel_data = cached
            except AttributeError:  # pragma: no cover - exotic disc objects
                pass
        return cached

    def _einsum(self, subscripts: str, *operands, out=None):
        """Einsum through the contraction-plan cache.

        Unless ``_plan_f64`` is set, f64 operands stay on numpy's
        sum-of-products kernel (``optimize=False``) so the result is
        bit-identical to the reference loops; everything else applies the
        cached ``np.einsum_path`` plan, which may dispatch to BLAS.
        """
        if not self._plan_f64 and operands[0].dtype == np.float64:
            return np.einsum(subscripts, *operands, out=out)
        key = (subscripts,) + tuple(op.shape for op in operands)
        plan = self._plans.get(key)
        if plan is None:
            plan = np.einsum_path(subscripts, *operands, optimize="optimal")[0]
            self._plans[key] = plan
        return np.einsum(subscripts, *operands, out=out, optimize=plan)

    def _basis_apply(self, x, matrix, out=None):
        """``out[e, v, :, ...] = sum_b x[e, v, b, ...] @ matrix[b, :]``.

        The shared right-multiply-by-an-operator pattern behind the
        stiffness applications, the trace projection and the neighbour
        flux back-projection; any fused trailing axis rides along.  The
        optimized backend keeps the generic einsum (f64 stays on the
        bit-exact unplanned kernel); the fast backend overrides this with
        a GEMM that *folds* the fused axis into the matmul columns instead
        of broadcasting over it.
        """
        return self._einsum("evb...,bd->evd...", x, matrix, out=out)

    @staticmethod
    def _scratch(ws, name, shape, dtype):
        if ws is None:
            return np.empty(shape, dtype=dtype)
        return ws.scratch(name, shape, dtype)

    @staticmethod
    def _cached(ws, name, elements, builder):
        """Memoize a batch-static build on the workspace (build-through when
        no workspace is kept -- the batch token is only computed when it is
        actually used as a cache key)."""
        if ws is None:
            return builder()
        return ws.cached(name, _elements_token(elements, ws), builder)

    def _volume_ops(self, disc, elements, ws):
        """Gathered + relayouted star/coupling operators of a batch (cached).

        The sliced star blocks are stored c-major (``(3, E, rows, cols)``)
        so the batched application iterates contiguously; the coupling
        matrices stay element-major (measured faster for their shape).
        """
        data = self._disc_data(disc)

        def build():
            star_e = disc.star_elastic[elements]
            star_a = disc.star_anelastic[elements]
            coupling = disc.coupling[elements]
            ops = {}
            if data.star_e_blocks:
                ops["star_stress"] = np.ascontiguousarray(
                    star_e[:, :, :6, 6:N_ELASTIC].transpose(1, 0, 2, 3)
                )
                ops["star_veloc"] = np.ascontiguousarray(
                    star_e[:, :, 6:N_ELASTIC, :6].transpose(1, 0, 2, 3)
                )
            else:
                ops["star_full"] = np.ascontiguousarray(star_e.transpose(1, 0, 2, 3))
            if disc.n_mechanisms:
                if data.star_a_velocity:
                    ops["star_a"] = np.ascontiguousarray(
                        star_a[:, :, :, 6:N_ELASTIC].transpose(1, 0, 2, 3)
                    )
                else:
                    ops["star_a"] = np.ascontiguousarray(star_a.transpose(1, 0, 2, 3))
                ops["coupling"] = (
                    np.ascontiguousarray(coupling[:, :, :6])
                    if data.coupling_stress
                    else coupling
                )
            return ops

        return data, self._cached(ws, "volume_ops", elements, build)

    def _surface_ops(self, disc, elements, ws, neighbor: bool):
        """Gathered flux-solver operators of a batch (cached)."""
        data = self._disc_data(disc)
        name = "surf_neigh_ops" if neighbor else "surf_local_ops"

        def build():
            if neighbor:
                flux_e = disc.flux_neigh_elastic[elements]
                flux_a = disc.flux_neigh_anelastic[elements]
            else:
                flux_e = disc.flux_local_elastic[elements]
                flux_a = disc.flux_local_anelastic[elements]
            ops = {"flux_e": flux_e}
            if disc.n_mechanisms:
                ops["flux_a"] = (
                    np.ascontiguousarray(flux_a[..., 6:N_ELASTIC])
                    if data.flux_a_velocity
                    else flux_a
                )
            return ops

        return data, self._cached(ws, name, elements, build)

    # ------------------------------------------------------------------
    # time kernel
    # ------------------------------------------------------------------
    def compute_time_derivatives(self, disc, dofs, elements, ws=None):
        """CK time derivatives into a reused ``(O, E, N_q, B[, f])`` stack."""
        if isinstance(elements, slice):
            batch_shape = dofs[elements].shape
        else:
            batch_shape = (len(elements),) + dofs.shape[1:]
        order = disc.order
        stack = self._scratch(ws, "derivs", (order,) + batch_shape, dofs.dtype)
        stack[0] = dofs[elements]
        derivatives = [stack[d] for d in range(order)]
        if order == 1:
            return derivatives

        data, ops = self._volume_ops(disc, elements, ws)
        omegas = disc.omegas
        n_mech = disc.n_mechanisms

        E = batch_shape[0]
        n_basis = disc.n_basis
        fused = batch_shape[3:]
        dtype = dofs.dtype
        tmp = self._scratch(ws, "ck_tmp", (3, E, N_ELASTIC, n_basis) + fused, dtype)
        if n_mech:
            an_parts = self._scratch(ws, "ck_an", (3, E, 6, n_basis) + fused, dtype)
            an_common = self._scratch(ws, "ck_an_common", (E, 6, n_basis) + fused, dtype)
            neg_omegas = (-omegas).reshape((n_mech, 1, 1) + (1,) * len(fused))

        for d in range(1, order):
            current = stack[d - 1]
            nxt = stack[d]
            elastic_prev = current[:, :N_ELASTIC]
            for c in range(3):
                rows = data.k_time_rows[c]
                self._basis_apply(
                    elastic_prev if rows is None else elastic_prev[:, :, rows],
                    data.k_time_sliced[c],
                    out=tmp[c],
                )
            self._star_elastic_apply(data, ops, tmp, nxt, ws, sign=-1.0)
            if n_mech:
                self._star_anelastic_apply(data, ops, tmp, an_parts, an_common)
                mem_prev = current[:, N_ELASTIC:].reshape(
                    (E, n_mech, 6, n_basis) + fused
                )
                self._coupling_apply(data, ops, mem_prev, nxt, ws)
                # relaxation: memory variables driven by the anelastic terms
                mem_next = nxt[:, N_ELASTIC:].reshape((E, n_mech, 6, n_basis) + fused)
                np.add(an_common[:, None], mem_prev, out=mem_next)
                mem_next *= neg_omegas
        return derivatives

    def _star_elastic_apply(self, data, ops, tmp, out, ws, sign):
        """Apply the three elastic star contractions to ``out[:, :9]``.

        Starts from zero exactly like the reference's ``zeros_like``
        initialisation (``-1.0 * x`` == ``0 - x`` and ``1.0 * x`` == ``0 + x``
        bitwise, modulo signed zeros); ``sign`` is -1 for the time kernel
        and +1 for the volume kernel.
        """
        dtype = tmp.dtype
        if data.star_e_blocks:
            # stress rows read only velocity columns, and vice versa
            stress = self._scratch(ws, "star_stress_out", (3,) + out[:, :6].shape, dtype)
            veloc = self._scratch(ws, "star_veloc_out", (3,) + out[:, 6:N_ELASTIC].shape, dtype)
            self._einsum("ceij,cejb...->ceib...", ops["star_stress"],
                         tmp[:, :, 6:N_ELASTIC], out=stress)
            self._einsum("ceij,cejb...->ceib...", ops["star_veloc"],
                         tmp[:, :, :6], out=veloc)
            targets = ((out[:, :6], stress), (out[:, 6:N_ELASTIC], veloc))
        else:  # dense fallback
            full = self._scratch(ws, "star_full_out", (3,) + out[:, :N_ELASTIC].shape, dtype)
            self._einsum("ceij,cejb...->ceib...", ops["star_full"], tmp, out=full)
            targets = ((out[:, :N_ELASTIC], full),)
        for target, parts in targets:
            np.multiply(parts[0], sign, out=target)
            for c in (1, 2):
                if sign < 0:
                    target -= parts[c]
                else:
                    target += parts[c]

    def _star_anelastic_apply(self, data, ops, tmp, an_parts, an_common):
        """``an_common = sum_c star_a[:, c] @ tmp[c]`` in reference order."""
        if data.star_a_velocity:
            self._einsum("ceij,cejb...->ceib...", ops["star_a"],
                         tmp[:, :, 6:N_ELASTIC], out=an_parts)
        else:
            self._einsum("ceij,cejb...->ceib...", ops["star_a"], tmp, out=an_parts)
        np.add(an_parts[0], an_parts[1], out=an_common)
        an_common += an_parts[2]

    def _coupling_apply(self, data, ops, mem, out, ws):
        """``out[:, :9] += sum_l coupling[:, l] @ mem[:, l]`` (reference order)."""
        coupling = ops["coupling"]
        n_mech = coupling.shape[1]
        dtype = mem.dtype
        rows = coupling.shape[2]
        contrib = self._scratch(
            ws, "coup_out", (out.shape[0], n_mech, rows) + out.shape[2:], dtype
        )
        self._einsum("elij,eljb...->elib...", coupling, mem, out=contrib)
        target = out[:, :rows]
        for l in range(n_mech):
            target += contrib[:, l]

    # ------------------------------------------------------------------
    # time integration
    # ------------------------------------------------------------------
    def time_integrate(self, derivatives, t_start, t_end, ws=None, key="ti"):
        """Taylor integration over ``[t_start, t_end]`` into workspace arrays."""
        if t_end < t_start:
            raise ValueError("t_end must be >= t_start")
        first = derivatives[0]
        result = self._scratch(ws, key, first.shape, first.dtype)
        term = self._scratch(ws, "ti_term", first.shape, first.dtype)
        for d, deriv in enumerate(derivatives):
            factor = (t_end ** (d + 1) - t_start ** (d + 1)) / math.factorial(d + 1)
            if d == 0:
                np.multiply(deriv, factor, out=result)
            else:
                np.multiply(deriv, factor, out=term)
                result += term
        return result

    # ------------------------------------------------------------------
    # space kernels
    # ------------------------------------------------------------------
    def project_local_traces(self, disc, time_integrated_elastic, elements, ws=None):
        """Trace projection as one grouped ``(B, 4 F)`` contraction."""
        data = self._disc_data(disc)
        te = time_integrated_elastic
        E = te.shape[0]
        n_face_basis = disc.n_face_basis
        fused = te.shape[3:]
        grouped = self._scratch(
            ws, "traces_grouped", (E, N_ELASTIC, 4 * n_face_basis) + fused, te.dtype
        )
        self._basis_apply(te, data.ftilde_flat, out=grouped)
        out = self._scratch(
            ws, "traces", (E, 4, N_ELASTIC, n_face_basis) + fused, te.dtype
        )
        # regroup (E, 9, (i, F)) -> (E, 4, 9, F): one contiguous copy so the
        # surface kernels (and the halo payload path) see the public layout
        split = grouped.reshape((E, N_ELASTIC, 4, n_face_basis) + fused)
        np.copyto(out, np.moveaxis(split, 2, 1))
        return out

    def volume_kernel(self, disc, time_integrated, elements, ws=None):
        data, ops = self._volume_ops(disc, elements, ws)
        omegas = disc.omegas
        n_mech = disc.n_mechanisms
        k_vol = disc.k_vol

        te = time_integrated[:, :N_ELASTIC]
        E = time_integrated.shape[0]
        n_basis = time_integrated.shape[2]
        fused = time_integrated.shape[3:]
        dtype = time_integrated.dtype
        out = self._scratch(ws, "vol_out", time_integrated.shape, dtype)

        tmp = self._scratch(ws, "ck_tmp", (3, E, N_ELASTIC, n_basis) + fused, dtype)
        for c in range(3):
            self._basis_apply(te, k_vol[c], out=tmp[c])
        self._star_elastic_apply(data, ops, tmp, out, ws, sign=1.0)
        if n_mech:
            an_parts = self._scratch(ws, "ck_an", (3, E, 6, n_basis) + fused, dtype)
            an_common = self._scratch(ws, "ck_an_common", (E, 6, n_basis) + fused, dtype)
            self._star_anelastic_apply(data, ops, tmp, an_parts, an_common)
            mem_te = time_integrated[:, N_ELASTIC:].reshape((E, n_mech, 6, n_basis) + fused)
            self._coupling_apply(data, ops, mem_te, out, ws)
            mem_out = out[:, N_ELASTIC:].reshape((E, n_mech, 6, n_basis) + fused)
            np.subtract(an_common[:, None], mem_te, out=mem_out)
            mem_out *= omegas.reshape((n_mech, 1, 1) + (1,) * len(fused))
        else:
            out[:, N_ELASTIC:] = 0.0
        return out

    def _surface_kernel(self, disc, data, ops, face_coeffs, ws, prefix):
        """Shared body of the local and neighbouring surface kernels.

        ``face_coeffs`` is ``(E, 4, 9, F[, f])`` -- the projected traces
        (local part) or the neighbour face coefficients (neighbouring part).
        """
        fhat = disc.fhat  # (4, F, B)
        omegas = disc.omegas
        n_mech = disc.n_mechanisms
        E = face_coeffs.shape[0]
        fused = face_coeffs.shape[4:]
        n_basis = disc.n_basis
        dtype = face_coeffs.dtype
        flux_e = ops["flux_e"]

        out = self._scratch(
            ws, prefix + "_out", (E, disc.n_vars, n_basis) + fused, dtype
        )
        # per-face pipeline into face-major scratch: each contraction reads
        # and writes contiguous (E, ...) blocks, which measures faster than
        # both the flattened and the doubly batched forms
        solved = self._scratch(
            ws, prefix + "_solved", (4, E, N_ELASTIC) + face_coeffs.shape[3:], dtype
        )
        contrib = self._scratch(
            ws, prefix + "_contrib", (4, E, N_ELASTIC, n_basis) + fused, dtype
        )
        for i in range(4):
            self._einsum("evw,ewf...->evf...", flux_e[:, i], face_coeffs[:, i], out=solved[i])
            self._basis_apply(solved[i], fhat[i], out=contrib[i])
        elastic = out[:, :N_ELASTIC]
        elastic[...] = contrib[0]
        for i in (1, 2, 3):
            elastic += contrib[i]

        if n_mech:
            flux_a = ops["flux_a"]
            coeffs_a = (
                face_coeffs[:, :, 6:N_ELASTIC] if data.flux_a_velocity else face_coeffs
            )
            solved_a = self._scratch(
                ws, prefix + "_solved_a", (4, E, 6) + face_coeffs.shape[3:], dtype
            )
            contrib_a = self._scratch(
                ws, prefix + "_contrib_a", (4, E, 6, n_basis) + fused, dtype
            )
            for i in range(4):
                self._einsum("evw,ewf...->evf...", flux_a[:, i], coeffs_a[:, i], out=solved_a[i])
                self._basis_apply(solved_a[i], fhat[i], out=contrib_a[i])
            scaled = self._scratch(ws, prefix + "_scaled", (E, 6, n_basis) + fused, dtype)
            for i in range(4):
                for l in range(n_mech):
                    target = out[:, N_ELASTIC + 6 * l : N_ELASTIC + 6 * (l + 1)]
                    np.multiply(contrib_a[i], omegas[l], out=scaled)
                    if i == 0:
                        target[...] = scaled
                    else:
                        target += scaled
        else:
            out[:, N_ELASTIC:] = 0.0
        return out

    def surface_kernel_local(self, disc, time_integrated, elements, local_traces, ws=None):
        if local_traces is None:
            local_traces = self.project_local_traces(
                disc, time_integrated[:, :N_ELASTIC], elements, ws=ws
            )
        data, ops = self._surface_ops(disc, elements, ws, neighbor=False)
        return self._surface_kernel(disc, data, ops, local_traces, ws, "surf_local")

    def neighbor_face_coefficients(self, disc, neighbor_te, own_traces, elements, ws=None):
        """Neighbour trace coefficients, grouped by unique ``F_bar`` matrix.

        The mesh only has a handful of distinct neighbouring flux matrices
        (Sec. III), so instead of gathering one ``B x F`` matrix per face the
        faces are grouped per unique matrix and contracted against it
        directly.  The per-face grouping is static and cached per batch.
        """
        fbar = disc.neighbor_flux_matrices

        def build():
            index = disc.neighbor_flux_index[elements]  # (E, 4)
            plan = []
            for i in range(4):
                column = index[:, i]
                boundary = np.where(column < 0)[0]
                groups = [
                    (int(u), np.where(column == u)[0])
                    for u in np.unique(column[column >= 0])
                ]
                plan.append((boundary, groups))
            return plan

        plan = self._cached(ws, "nfc_plan", elements, build)
        out = self._scratch(ws, "nfc_out", own_traces.shape, own_traces.dtype)
        for i, (boundary, groups) in enumerate(plan):
            for u, rows in groups:
                out[rows, i] = self._basis_apply(neighbor_te[rows, i], fbar[u])
            if len(boundary):
                out[boundary, i] = own_traces[boundary, i]
        return out

    def surface_kernel_neighbor(self, disc, coeffs, elements, ws=None):
        data, ops = self._surface_ops(disc, elements, ws, neighbor=True)
        return self._surface_kernel(disc, data, ops, coeffs, ws, "surf_neigh")


class FastBackend(OptimizedBackend):
    """Tolerance-equal f64 execution: the bit-identity pin dropped.

    Reuses the optimized backend's cached flux gathers and scratch
    workspaces, but relaxes the contraction order for speed:

    * the CK and volume kernels apply one combined per-element operator
      ``A`` (:meth:`_element_operator`), which folds the elastic star, the
      anelastic star, the coupling and the relaxation terms into one
      ``(9 + 6 m) x (27 + 6 m)`` matrix per element: a CK iteration is one
      copy, one stiffness GEMM and one batched GEMM, and the volume kernel
      is the same step with the negated volume stiffness,
    * scalar and fused batches run the same code; only the stiffness GEMM
      differs (``x @ [K_0|K_1|K_2]`` vs ``[K_c]^T @ x``, see
      :meth:`_basis_apply`), and any fused axis is folded into the GEMM
      columns (:meth:`_bmm`),
    * Taylor integration is one contraction of the factors with the
      derivative stack,
    * the ``(E, 4)``-batched flux solves write straight into the layout of
      one back-projection GEMM over ``(face, face_basis)``; the
      per-mechanism anelastic surface terms reuse one face-summed
      contribution.

    The dense operator multiplies the zeros the optimized backend slices
    away (see :mod:`repro.kernels.flops` for the executed-to-useful ratio);
    one wide GEMM still beats several narrow ones.  Results are NOT
    bit-identical to the reference at any precision; the accuracy contract
    (convergence order, golden-trace tolerances) is owned by
    :mod:`repro.verification`.
    """

    name = "fast"
    _plan_f64 = True  # any einsum it runs is planned (may reassociate) at f64 too

    @staticmethod
    def _bmm(matrices, operand, out):
        """Batched ``matrices @ operand`` with trailing fused axes folded.

        ``matrices`` is ``(..., i, j)``, ``operand`` ``(..., j, B[, f])`` and
        ``out`` ``(..., i, B[, f])``.  Any fused trailing axes are folded
        into the GEMM column axis.  Both folds merge only the two innermost
        axes, which stay contiguous through every call site's middle-axis
        slicing, so they are views and ``np.matmul`` writes in place; an
        exotic non-contiguous *operand* would fold through a copy (still
        correct -- only ``out`` must remain a view, and it is always
        workspace scratch with contiguous innermost axes).

        The folded column axis runs as one GEMM, however wide.  Splitting it
        into <= 128-column chunks (bitwise free) was measured against the
        combined ``27 x 45`` operator and the ``9 x 9`` flux blocks on a
        2-vCPU Xeon (OpenBLAS 0.3.31, 1 thread, 1114-element batch, m = 3)
        and lost everywhere: CK 289 vs 308 ms and volume 49 vs 62 ms at
        order 6, F = 4 (224 columns); CK 98 vs 111 ms and surface 44.0 vs
        44.3 ms at order 4, F = 8 (160 columns); CK 73 vs 77 ms at order 3,
        F = 16.
        """
        batch = matrices.ndim - 1
        if operand.ndim > matrices.ndim:
            operand = operand.reshape(operand.shape[:batch] + (-1,))
            out = out.reshape(out.shape[:batch] + (-1,))
        np.matmul(matrices, operand, out=out)

    def _basis_apply(self, x, matrix, out=None):
        """Right-multiply by an operator as a GEMM with the fused axis folded.

        Scalar batches run ``x @ matrix`` (a ``(V, B) @ (B, D)`` GEMM per
        element).  Fused batches run ``matrix.T @ x``: broadcasting maps
        ``(D, B) @ (E, V, B, F) -> (E, V, D, F)``, i.e. the fused axis
        becomes the GEMM column axis -- one operator read shared by all F
        fused runs per ``(e, v)`` batch, instead of the planned einsum's
        broadcast (which re-reads the operator per slot and measures several
        times slower at F >= 2).
        """
        if x.ndim == 3:
            return np.matmul(x, matrix, out=out)
        return np.matmul(matrix.T, x, out=out)

    def _element_operator(self, disc, elements, ws):
        """The combined per-element operator ``A`` of a batch (cached).

        ``A`` is ``(E, 9 + 6 m, 27 + 6 m)``.  Its columns are the 27
        stiffness products ``(x K_c)[v]``, ordered ``(v, c)``, followed by the
        ``6 m`` memory variables; its rows are the CK right-hand side:
        ``[-star_e | coupling]`` for the 9 elastic rows and
        ``[-omega_l star_a | -omega_l I]`` for mechanism ``l``.  The volume
        kernel reuses it unchanged by negating its stiffness operators.
        Filled in place, one direction / mechanism gather at a time, so no
        full-size temporary is built next to it.
        """

        def build():
            n_mech = disc.n_mechanisms
            omegas = disc.omegas
            star_e = disc.star_elastic[elements, 0]
            E = star_e.shape[0]
            op = np.zeros(
                (E, N_ELASTIC + 6 * n_mech, 3 * N_ELASTIC + 6 * n_mech), disc.dtype
            )
            stiffness = op[:, :, : 3 * N_ELASTIC].reshape(E, -1, N_ELASTIC, 3)
            for c in range(3):
                if c:
                    star_e = disc.star_elastic[elements, c]
                np.negative(star_e, out=stiffness[:, :N_ELASTIC, :, c])
                if n_mech:
                    star_a = disc.star_anelastic[elements, c]
                    for l in range(n_mech):
                        rows = slice(N_ELASTIC + 6 * l, N_ELASTIC + 6 * (l + 1))
                        np.multiply(star_a, -omegas[l], out=stiffness[:, rows, :, c])
            for l in range(n_mech):
                cols = slice(3 * N_ELASTIC + 6 * l, 3 * N_ELASTIC + 6 * (l + 1))
                op[:, :N_ELASTIC, cols] = disc.coupling[elements, l]
            diag = np.arange(6 * n_mech)
            op[:, N_ELASTIC + diag, 3 * N_ELASTIC + diag] = -np.repeat(omegas, 6)
            return op

        return self._cached(ws, "element_op", elements, build)

    def _apply_element_operator(self, disc, x, k_cat, elements, out, ws):
        """``out = A @ [x[:, :9] K_cat ; x[:, 9:]]`` for a scalar or fused batch.

        The operand ``W`` is one ``(E, 27 + 6 m, B[, f])`` scratch: the
        memory rows are copied in, and the stiffness products are written in
        place into rows 0..26 through their ``(E, 9, 3 B[, f])`` view -- the
        only line that differs between scalar and fused batches (see
        :meth:`_basis_apply`).  One batched GEMM then applies ``A``.
        """
        op = self._element_operator(disc, elements, ws)
        E = x.shape[0]
        fused = x.shape[3:]
        w = self._scratch(ws, "op_in", (E, op.shape[2]) + x.shape[2:], x.dtype)
        w[:, 3 * N_ELASTIC :] = x[:, N_ELASTIC:]
        products = w[:, : 3 * N_ELASTIC].reshape((E, N_ELASTIC, -1) + fused)
        self._basis_apply(x[:, :N_ELASTIC], k_cat, out=products)
        self._bmm(op, w, out)

    def compute_time_derivatives(self, disc, dofs, elements, ws=None):
        """CK derivatives: per iteration one copy and two GEMMs."""
        if isinstance(elements, slice):
            batch_shape = dofs[elements].shape
        else:
            batch_shape = (len(elements),) + dofs.shape[1:]
        stack = self._scratch(ws, "derivs", (disc.order,) + batch_shape, dofs.dtype)
        stack[0] = dofs[elements]
        k_cat = self._disc_data(disc).k_time_cat
        for d in range(1, disc.order):
            self._apply_element_operator(disc, stack[d - 1], k_cat, elements, stack[d], ws)
        return list(stack)

    def volume_kernel(self, disc, time_integrated, elements, ws=None):
        """The CK operator applied once with the negated volume stiffness."""
        out = self._scratch(ws, "vol_out", time_integrated.shape, time_integrated.dtype)
        k_cat = self._disc_data(disc).k_vol_cat
        self._apply_element_operator(disc, time_integrated, k_cat, elements, out, ws)
        return out

    def time_integrate(self, derivatives, t_start, t_end, ws=None, key="ti"):
        """Taylor integration as one contraction of the factors with the stack.

        ``derivatives`` are the ``(O, ...)`` stack's slices (or their
        ``[:, :9]`` elastic views, as the LTS buffers pass them); the list
        is read back as one strided ``(O, E, n)`` view and contracted over
        ``O`` by one element-batched GEMV (measured faster than a flat
        ``np.dot`` over the contiguous full stack too, and it needs no
        contiguity).
        """
        if t_end < t_start:
            raise ValueError("t_end must be >= t_start")
        first = derivatives[0]
        factors = np.array(
            [
                (t_end ** (d + 1) - t_start ** (d + 1)) / math.factorial(d + 1)
                for d in range(len(derivatives))
            ],
            dtype=first.dtype,
        )
        result = self._scratch(ws, key, first.shape, first.dtype)
        stack = _strided_stack(derivatives)
        if stack is None:  # not slices of one stack: contract a copy
            stack = np.stack(derivatives)
        E = first.shape[0]
        np.matmul(
            factors,
            stack.reshape(len(derivatives), E, -1).transpose(1, 0, 2),
            out=result.reshape(E, -1),
        )
        return result

    def _surface_kernel(self, disc, data, ops, face_coeffs, ws, prefix):
        """Surface kernels: per variable block one flux GEMM, one projection.

        The anelastic mechanisms share one face-summed contribution, built
        in mechanism 0's rows and scaled per ``omega_l`` in place.
        """
        omegas = disc.omegas
        n_mech = disc.n_mechanisms
        E = face_coeffs.shape[0]
        fused = face_coeffs.shape[4:]
        out = self._scratch(
            ws, prefix + "_out", (E, disc.n_vars, disc.n_basis) + fused, face_coeffs.dtype
        )
        self._flux_project(data, ops["flux_e"], face_coeffs, out[:, :N_ELASTIC], ws)
        if n_mech:
            coeffs_a = (
                face_coeffs[:, :, 6:N_ELASTIC] if data.flux_a_velocity else face_coeffs
            )
            common = out[:, N_ELASTIC : N_ELASTIC + 6]
            self._flux_project(data, ops["flux_a"], coeffs_a, common, ws)
            for l in range(n_mech - 1, -1, -1):  # mechanism 0 (common) last
                target = out[:, N_ELASTIC + 6 * l : N_ELASTIC + 6 * (l + 1)]
                np.multiply(common, omegas[l], out=target)
        return out

    def _flux_project(self, data, flux, face_coeffs, out, ws):
        """``out[e] = sum_{i, f} (flux[e, i] @ face_coeffs[e, i])[:, f] fhat[i, f]``.

        The ``(E, 4)``-batched flux solve writes straight into a
        ``(E, V, 4, f[, F])`` scratch -- ``(face, face_basis)`` adjacent, so
        the four ``fhat`` back-projections are ONE ``(4 f, B)`` operator
        application with the same code for scalar and fused batches (see
        :meth:`_basis_apply`); no regroup copy.  The scratch is shared by
        the local and the neighbouring kernels.
        """
        E, _, n_rows = flux.shape[:3]
        fused = face_coeffs.shape[4:]
        solved = self._scratch(
            ws, "fsolved", (E, n_rows, 4) + face_coeffs.shape[3:], out.dtype
        )
        self._bmm(flux, face_coeffs, solved.swapaxes(1, 2))
        self._basis_apply(
            solved.reshape((E, n_rows, -1) + fused), data.fhat_flat, out=out
        )
