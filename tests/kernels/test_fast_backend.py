"""Fast (tolerance-equal) kernel backend tests.

The contract of ``FastBackend``: same math as the reference, arbitrary
reassociation.  Results must track the reference within a few ULPs per
kernel call (the per-kernel checks below) and within the verification
tolerance ladder over whole runs (tests/verification/).  Bit-identity is
explicitly NOT promised -- the one thing these tests never assert.
"""

import numpy as np
import pytest

from repro.core.clustering import derive_clustering
from repro.core.gts_solver import GlobalTimeSteppingSolver
from repro.core.lts_solver import ClusteredLtsSolver
from repro.equations.material import MaterialTable, ViscoelasticMaterial
from repro.kernels.backend import FastBackend, OptimizedBackend, ReferenceBackend, make_backend
from repro.kernels.discretization import Discretization, N_ELASTIC

from .conftest import small_mesh


def _random_dofs(disc, n_fused=0, seed=0):
    rng = np.random.default_rng(seed)
    shape = (disc.n_elements, disc.n_vars, disc.n_basis)
    if n_fused:
        shape += (n_fused,)
    return rng.standard_normal(shape)


def _assert_close(actual, expected, rtol=1e-12, name=""):
    scale = np.abs(expected).max()
    err = np.abs(np.asarray(actual) - np.asarray(expected)).max()
    assert err <= rtol * scale, f"{name}: rel err {err / scale:.3e} > {rtol:.0e}"


class TestResolution:
    def test_make_backend(self):
        assert isinstance(make_backend("fast"), FastBackend)
        assert make_backend("fast").name == "fast"
        backend = FastBackend()
        assert make_backend(backend) is backend
        # FastBackend is an OptimizedBackend (shares gathers/workspaces) and
        # therefore also a ReferenceBackend (shares the local_update pipeline)
        assert isinstance(backend, OptimizedBackend)

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "fast")
        assert make_backend(None).name == "fast"

    def test_plan_cache_engages_at_f64(self):
        fast = FastBackend()
        a, b = np.ones((4, 5)), np.ones((5, 3))
        fast._einsum("ij,jk->ik", a, b)
        assert len(fast._plans) == 1  # unlike opt, f64 is planned too


class TestKernelToleranceParity:
    """Per-kernel: fast output within a few ULPs of the reference."""

    @pytest.fixture(scope="class", params=["elastic", "viscoelastic"])
    def disc(self, request):
        mesh = small_mesh(n=2, jitter=0.1)
        material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
        table = MaterialTable.homogeneous(material, mesh.n_elements)
        n_mechanisms = 3 if request.param == "viscoelastic" else 0
        return Discretization(mesh, table, order=4, n_mechanisms=n_mechanisms)

    @pytest.mark.parametrize("n_fused", [0, 2, 8])
    def test_local_update(self, disc, n_fused):
        ref, fast = ReferenceBackend(), FastBackend()
        ws = fast.make_workspace()
        dofs = _random_dofs(disc, n_fused)
        elements = np.arange(disc.n_elements)
        dt = float(disc.time_steps.min())
        delta_r, ti_r, derivs_r, traces_r = ref.local_update(disc, dofs, dt, elements)
        delta_f, ti_f, derivs_f, traces_f = fast.local_update(disc, dofs, dt, elements, ws=ws)
        _assert_close(ti_f, ti_r, name="time_integrated")
        _assert_close(delta_f, delta_r, name="delta")
        _assert_close(traces_f, traces_r, name="traces")
        for d, (d_r, d_f) in enumerate(zip(derivs_r, derivs_f)):
            _assert_close(d_f, d_r, name=f"derivative {d}")

    def test_neighbor_path(self, disc):
        ref, fast = ReferenceBackend(), FastBackend()
        ws = fast.make_workspace()
        dofs = _random_dofs(disc, seed=3)
        elements = np.arange(disc.n_elements)
        dt = float(disc.time_steps.min())
        _, ti, _, _ = ref.local_update(disc, dofs, dt, elements)
        te = ti[:, :N_ELASTIC]
        neighbor_te = te[np.maximum(disc.mesh.neighbors, 0)]
        traces_r = ref.project_local_traces(disc, te, elements)
        traces_f = fast.project_local_traces(disc, te, elements, ws=ws)
        _assert_close(traces_f, traces_r, name="traces")
        coeffs_r = ref.neighbor_face_coefficients(disc, neighbor_te, traces_r, elements)
        coeffs_f = fast.neighbor_face_coefficients(disc, neighbor_te, traces_r, elements, ws=ws)
        _assert_close(coeffs_f, coeffs_r, name="coefficients")
        out_r = ref.surface_kernel_neighbor(disc, coeffs_r, elements)
        out_f = fast.surface_kernel_neighbor(disc, coeffs_r, elements, ws=ws)
        _assert_close(out_f, out_r, name="neighbor surface")

    def test_batch_subsets_are_self_consistent(self, disc):
        """Splitting a batch (the distributed boundary/interior split) stays
        within tolerance of the full batch -- unlike opt, not bit-identical,
        because the GEMM shapes (and thus the reassociation) change."""
        fast = FastBackend()
        ws = fast.make_workspace()
        dofs = _random_dofs(disc)
        dt = float(disc.time_steps.min())
        full = np.arange(disc.n_elements)
        delta_full, _, _, _ = fast.local_update(disc, dofs, dt, full, ws=ws)
        delta_full = delta_full.copy()
        for subset in (full[: disc.n_elements // 2], full[disc.n_elements // 2 :]):
            delta_sub, _, _, _ = fast.local_update(disc, dofs, dt, subset, ws=ws)
            _assert_close(delta_sub, delta_full[subset], name="subset")

    def test_dense_fallback_when_structure_absent(self):
        mesh = small_mesh(n=1, jitter=0.05)
        material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
        table = MaterialTable.homogeneous(material, mesh.n_elements)
        dense = Discretization(mesh, table, order=3, n_mechanisms=3)
        rng = np.random.default_rng(7)
        dense.star_elastic = dense.star_elastic + 1e-3 * rng.standard_normal(
            dense.star_elastic.shape
        )
        fast = FastBackend()
        assert not fast._disc_data(dense).star_e_blocks
        dofs = _random_dofs(dense, seed=5)
        elements = np.arange(dense.n_elements)
        dt = float(dense.time_steps.min())
        delta_r, ti_r, _, _ = ReferenceBackend().local_update(dense, dofs, dt, elements)
        delta_f, ti_f, _, _ = fast.local_update(
            dense, dofs, dt, elements, ws=fast.make_workspace()
        )
        _assert_close(ti_f, ti_r, name="ti dense")
        _assert_close(delta_f, delta_r, name="delta dense")


class TestFusedGemmFolding:
    """The fused-axis GEMM machinery behind the batched fast kernels."""

    @pytest.fixture(scope="class")
    def disc(self):
        mesh = small_mesh(n=2, jitter=0.1)
        material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
        table = MaterialTable.homogeneous(material, mesh.n_elements)
        return Discretization(mesh, table, order=4, n_mechanisms=3)

    def test_bmm_folds_fused_axis(self):
        rng = np.random.default_rng(11)
        matrices = rng.standard_normal((6, 9, 9))
        operand = rng.standard_normal((6, 9, 20, 4))
        out = np.empty((6, 9, 20, 4))
        FastBackend._bmm(matrices, operand, out)
        expected = np.einsum("eij,ejbf->eibf", matrices, operand)
        _assert_close(out, expected, name="bmm fold")

    def test_bmm_wide_fold_is_bitwise_plain_matmul(self):
        """A wide folded column axis runs as one GEMM: bit-for-bit the plain
        matmul of the folded operands (the fold is a view, nothing else)."""
        rng = np.random.default_rng(12)
        matrices = rng.standard_normal((3, 9, 9))
        operand = rng.standard_normal((3, 9, 20, 8))
        folded = np.empty((3, 9, 20, 8))
        FastBackend._bmm(matrices, operand, folded)
        plain = np.matmul(
            matrices, operand.reshape(3, 9, -1)
        ).reshape(3, 9, 20, 8)
        np.testing.assert_array_equal(folded, plain)

    @pytest.mark.parametrize("n_fused", [0, 3])
    def test_surface_kernels_match_reference(self, disc, n_fused):
        """Flux solve into the projection layout plus one back-projection
        GEMM, for scalar and fused batches, local and neighbouring side."""
        ref, fast = ReferenceBackend(), FastBackend()
        ws = fast.make_workspace()
        elements = np.arange(disc.n_elements)
        ti = _random_dofs(disc, n_fused, seed=14)
        traces = ref.project_local_traces(disc, ti[:, :N_ELASTIC], elements)
        _assert_close(
            fast.surface_kernel_local(disc, ti, elements, traces, ws=ws),
            ref.surface_kernel_local(disc, ti, elements, traces),
            name="local surface",
        )
        coeffs = traces[::-1].copy()  # any (E, 4, 9, F[, f]) coefficients
        _assert_close(
            fast.surface_kernel_neighbor(disc, coeffs, elements, ws=ws),
            ref.surface_kernel_neighbor(disc, coeffs, elements),
            name="neighbour surface",
        )

    def test_fused_and_scalar_slices_agree(self, disc):
        """Fast fused kernels vs the same fast backend run slot-by-slot:
        only tolerance-equal (the GEMM groupings differ), which is exactly
        the fast contract."""
        fast = FastBackend()
        ws = fast.make_workspace()
        dofs = _random_dofs(disc, n_fused=4, seed=15)
        elements = np.arange(disc.n_elements)
        dt = float(disc.time_steps.min())
        delta_fused, ti_fused, _, _ = fast.local_update(disc, dofs, dt, elements, ws=ws)
        for f in range(4):
            delta_f, ti_f, _, _ = fast.local_update(
                disc, np.ascontiguousarray(dofs[..., f]), dt, elements, ws=ws
            )
            _assert_close(delta_fused[..., f], delta_f, rtol=1e-11, name=f"slot {f}")
            _assert_close(ti_fused[..., f], ti_f, rtol=1e-11, name=f"ti slot {f}")


def _viscoelastic_disc(order, n_mechanisms, precision="f64", n=2):
    mesh = small_mesh(n=n, jitter=0.1)
    material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
    table = MaterialTable.homogeneous(material, mesh.n_elements)
    return Discretization(
        mesh, table, order=order, n_mechanisms=n_mechanisms, precision=precision
    )


class TestCombinedElementOperator:
    """The combined per-element operator behind fast CK and volume kernels:
    one code path for scalar and fused batches, checked per kernel against
    the reference functions."""

    @pytest.fixture(
        scope="class",
        params=[(2, 0), (2, 3), (6, 0), (6, 3)],
        ids=lambda p: f"O{p[0]}-m{p[1]}",
    )
    def disc(self, request):
        order, n_mechanisms = request.param
        return _viscoelastic_disc(order, n_mechanisms, n=1)

    @staticmethod
    def _check_ck_and_volume(disc, n_fused, rtol, seed=0):
        fast = FastBackend()
        ws = fast.make_workspace()
        dofs = _random_dofs(disc, n_fused, seed=seed).astype(disc.dtype)
        elements = np.arange(disc.n_elements)
        derivs_r = ReferenceBackend().compute_time_derivatives(disc, dofs, elements)
        derivs_f = fast.compute_time_derivatives(disc, dofs, elements, ws=ws)
        assert len(derivs_f) == disc.order
        for d, (d_r, d_f) in enumerate(zip(derivs_r, derivs_f)):
            assert d_f.dtype == disc.dtype
            _assert_close(d_f, d_r, rtol=rtol, name=f"derivative {d}")
        ti = _random_dofs(disc, n_fused, seed=seed + 1).astype(disc.dtype)
        vol_r = ReferenceBackend().volume_kernel(disc, ti, elements)
        vol_f = fast.volume_kernel(disc, ti, elements, ws=ws)
        _assert_close(vol_f, vol_r, rtol=rtol, name="volume")

    @pytest.mark.parametrize("n_fused", [0, 1, 2, 4])
    def test_ck_and_volume_match_reference(self, disc, n_fused):
        # order 6 at F = 4 folds 56 * 4 = 224 GEMM columns
        self._check_ck_and_volume(disc, n_fused, rtol=1e-12)

    def test_operator_shape_and_blocks(self, disc):
        fast = FastBackend()
        op = fast._element_operator(disc, np.arange(disc.n_elements), None)
        m = disc.n_mechanisms
        assert op.shape == (disc.n_elements, N_ELASTIC + 6 * m, 27 + 6 * m)
        # stiffness columns are ordered (variable, direction)
        stiffness = op[:, :, :27].reshape(disc.n_elements, -1, N_ELASTIC, 3)
        np.testing.assert_array_equal(
            stiffness[:, :N_ELASTIC].transpose(0, 3, 1, 2), -disc.star_elastic
        )
        for l in range(m):
            rows = slice(N_ELASTIC + 6 * l, N_ELASTIC + 6 * (l + 1))
            cols = slice(27 + 6 * l, 27 + 6 * (l + 1))
            np.testing.assert_array_equal(op[:, :N_ELASTIC, cols], disc.coupling[:, l])
            np.testing.assert_array_equal(
                op[:, rows, 27:], np.kron(np.eye(m)[l], -disc.omegas[l] * np.eye(6))[None]
                .repeat(disc.n_elements, axis=0)
            )

    def test_dense_structure_disc(self):
        """The operator is dense anyway: a disc without the exact-zero star
        structure takes the same path."""
        dense = _viscoelastic_disc(3, 3, n=1)
        rng = np.random.default_rng(7)
        dense.star_elastic = dense.star_elastic + 1e-3 * rng.standard_normal(
            dense.star_elastic.shape
        )
        for n_fused in (0, 4):
            self._check_ck_and_volume(dense, n_fused, rtol=1e-12, seed=5)

    @pytest.mark.parametrize("n_fused", [0, 4])
    def test_f32_rung(self, n_fused):
        """f32 against the f64 reference on the same inputs: the f32 rung
        of the tolerance ladder."""
        from repro.verification.golden import DEFAULT_TOLERANCES

        rtol = DEFAULT_TOLERANCES[("fast", "f32")]
        f64 = _viscoelastic_disc(4, 3)
        f32 = _viscoelastic_disc(4, 3, precision="f32")
        fast = FastBackend()
        dofs = _random_dofs(f64, n_fused, seed=9)
        elements = np.arange(f64.n_elements)
        derivs_r = ReferenceBackend().compute_time_derivatives(f64, dofs, elements)
        derivs_f = fast.compute_time_derivatives(
            f32, dofs.astype(np.float32), elements, ws=fast.make_workspace()
        )
        for d, (d_r, d_f) in enumerate(zip(derivs_r, derivs_f)):
            assert d_f.dtype == np.float32
            _assert_close(d_f.astype(np.float64), d_r, rtol=rtol, name=f"f32 derivative {d}")
        vol_r = ReferenceBackend().volume_kernel(f64, dofs, elements)
        vol_f = fast.volume_kernel(f32, dofs.astype(np.float32), elements)
        _assert_close(vol_f.astype(np.float64), vol_r, rtol=rtol, name="f32 volume")


class TestFastTimeIntegrate:
    """One-pass Taylor contraction against the reference loop."""

    @pytest.fixture(scope="class")
    def disc(self):
        return _viscoelastic_disc(4, 3)

    @pytest.mark.parametrize("n_fused", [0, 4])
    def test_full_stack_and_elastic_slices(self, disc, n_fused):
        fast = FastBackend()
        ws = fast.make_workspace()
        dofs = _random_dofs(disc, n_fused, seed=21)
        elements = np.arange(disc.n_elements)
        derivs = fast.compute_time_derivatives(disc, dofs, elements, ws=ws)
        dt = float(disc.time_steps.min())
        for t_start, t_end in ((0.0, dt), (0.0, 0.5 * dt), (0.25 * dt, dt)):
            expected = ReferenceBackend().time_integrate(derivs, t_start, t_end)
            full = fast.time_integrate(derivs, t_start, t_end, ws=ws)
            _assert_close(full, expected, name="full stack")
            # the elastic views LtsBuffers.fill integrates for B2
            elastic = [d[:, :N_ELASTIC] for d in derivs]
            sliced = fast.time_integrate(elastic, t_start, t_end, ws=ws, key="half")
            assert sliced.shape == elastic[0].shape
            _assert_close(sliced, expected[:, :N_ELASTIC], name="elastic slices")

    def test_independent_arrays(self, disc):
        """Derivatives that are not slices of one stack (the reference
        backend's lists) integrate correctly too."""
        derivs = [_random_dofs(disc, seed=s) for s in range(disc.order)]
        expected = ReferenceBackend().time_integrate(derivs, 0.0, 0.3)
        _assert_close(FastBackend().time_integrate(derivs, 0.0, 0.3), expected)

    def test_rejects_reversed_interval(self, disc):
        derivs = [_random_dofs(disc)]
        with pytest.raises(ValueError):
            FastBackend().time_integrate(derivs, 1.0, 0.0)


class TestSolverToleranceParity:
    """Whole solver runs stay within tolerance of the reference kernels."""

    @pytest.fixture(scope="class")
    def graded(self):
        mesh = small_mesh(n=3, jitter=0.25, seed=2)
        material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
        table = MaterialTable.homogeneous(material, mesh.n_elements)
        disc = Discretization(mesh, table, order=3, n_mechanisms=3)
        clustering = derive_clustering(disc.time_steps, 2, 1.0, disc.mesh.neighbors)
        return disc, clustering

    def test_clustered_lts_cycles(self, graded):
        disc, clustering = graded
        ic = lambda points: np.exp(
            -np.sum((points - points.mean(axis=0)) ** 2, axis=1, keepdims=True)
            / (2 * 500.0**2)
        ) * np.ones((1, 9))
        solvers = {}
        for kind in ("ref", "fast"):
            solver = ClusteredLtsSolver(disc, clustering, kernels=kind)
            solver.set_initial_condition(ic)
            for _ in range(3):
                solver.step_cycle()
            solvers[kind] = solver
        _assert_close(solvers["fast"].dofs, solvers["ref"].dofs, rtol=1e-11, name="lts dofs")
        for name in ("b1", "b2", "b3"):
            _assert_close(
                getattr(solvers["fast"].buffers, name),
                getattr(solvers["ref"].buffers, name),
                rtol=1e-11,
                name=name,
            )

    def test_gts_solver(self, graded):
        disc, _ = graded
        ic = lambda points: np.ones((len(points), 9)) * np.sin(points[:, :1] / 300.0)
        solvers = {}
        for kind in ("ref", "fast"):
            solver = GlobalTimeSteppingSolver(disc, kernels=kind)
            solver.set_initial_condition(ic)
            for _ in range(3):
                solver.step()
            solvers[kind] = solver
        _assert_close(solvers["fast"].dofs, solvers["ref"].dofs, rtol=1e-11, name="gts dofs")

    def test_f32_tracks_f64_within_tolerance(self):
        mesh = small_mesh(n=2, jitter=0.1)
        material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
        table = MaterialTable.homogeneous(material, mesh.n_elements)
        results = {}
        for precision in ("f64", "f32"):
            disc = Discretization(mesh, table, order=3, n_mechanisms=3, precision=precision)
            clustering = derive_clustering(disc.time_steps, 2, 1.0, disc.mesh.neighbors)
            solver = ClusteredLtsSolver(disc, clustering, kernels="fast")
            solver.set_initial_condition(
                lambda points: np.ones((len(points), 9)) * np.cos(points[:, :1] / 400.0)
            )
            for _ in range(2):
                solver.step_cycle()
            results[precision] = solver.dofs
        assert results["f32"].dtype == np.float32
        scale = np.abs(results["f64"]).max()
        err = np.abs(results["f32"].astype(np.float64) - results["f64"]).max()
        assert err <= 1e-4 * scale
