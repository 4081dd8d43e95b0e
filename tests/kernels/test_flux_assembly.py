"""Whole-mesh flux-solver and neighbour-flux assembly against per-face oracles.

The oracles below are the face-by-face definitions: one Riemann builder call
per face, the ghost operator of the face's boundary tag, and the neighbour
projection evaluated on the face itself.  The batched assembly must
reproduce the flux solvers bit for bit and group the neighbour projections
exactly as a rounded-value deduplication of the per-face matrices would.
"""

import numpy as np
import pytest

from repro.basis.reference_element import FACE_VERTEX_IDS
from repro.equations.material import ElasticMaterial, MaterialTable
from repro.equations.riemann import (
    anelastic_normal_jacobian,
    free_surface_ghost_operator,
    godunov_flux_matrices,
    rusanov_flux_matrices,
)
from repro.kernels.discretization import Discretization
from repro.mesh.generation import box_mesh
from repro.mesh.geometry import map_physical_to_reference
from repro.mesh.tet_mesh import (
    BOUNDARY_ABSORBING,
    BOUNDARY_ANALYTIC,
    BOUNDARY_FREE_SURFACE,
    TetMesh,
)
from repro.source.moment_tensor import DiscretePointSource, MomentTensorSource, locate_point
from repro.source.time_functions import RickerWavelet


def _box():
    coords = np.linspace(0.0, 2000.0, 3)
    return box_mesh(coords, coords, coords, jitter=0.1, seed=3, free_surface_top=True)


def _tagged_mesh():
    """A jittered 2x2x2 box with free-surface, absorbing and analytic faces."""
    mesh = _box()
    tags = mesh.boundary_tags.copy()
    absorbing = np.argwhere((mesh.neighbors < 0) & (tags == BOUNDARY_ABSORBING))
    for k, i in absorbing[::3]:
        tags[k, i] = BOUNDARY_ANALYTIC
    return TetMesh(mesh.vertices, mesh.elements, tags)


def _permuted_mesh(seed):
    """The same box with a random vertex ordering in every element."""
    mesh = _box()
    rng = np.random.default_rng(seed)
    return TetMesh(mesh.vertices, np.array([row[rng.permutation(4)] for row in mesh.elements]))


def _homogeneous(mesh):
    return MaterialTable.homogeneous(ElasticMaterial(2700.0, 6000.0, 3464.0), mesh.n_elements)


def _materials(n_elements, seed=0):
    """Two alternating viscoelastic materials, so neighbours differ."""
    pick = np.random.default_rng(seed).integers(0, 2, n_elements)
    values = {
        "rho": (2600.0, 2700.0),
        "vp": (4000.0, 6000.0),
        "vs": (2000.0, 3464.0),
        "qp": (120.0, 200.0),
        "qs": (40.0, 80.0),
    }
    return MaterialTable(**{name: np.asarray(pair)[pick] for name, pair in values.items()})


def _oracle_flux_solvers(disc):
    """The face-by-face flux solvers ``(local_e, neigh_e, local_a, neigh_a)``."""
    mesh, mat = disc.mesh, disc.materials
    geo = mesh.geometry
    builder = rusanov_flux_matrices if disc.flux == "rusanov" else godunov_flux_matrices
    out = [np.empty((mesh.n_elements, 4) + shape) for shape in ((9, 9), (9, 9), (6, 9), (6, 9))]
    for k in range(mesh.n_elements):
        for i in range(4):
            normal, neighbor = geo.face_normals[k, i], mesh.neighbors[k, i]
            o = neighbor if neighbor >= 0 else k
            g_local, g_neigh = builder(
                mat.lam[k], mat.mu[k], mat.rho[k], mat.lam[o], mat.mu[o], mat.rho[o], normal
            )
            ga_local = ga_neigh = 0.5 * anelastic_normal_jacobian(normal)
            if neighbor < 0 and mesh.boundary_tags[k, i] == BOUNDARY_FREE_SURFACE:
                ghost = free_surface_ghost_operator(normal)
                g_neigh, ga_neigh = g_neigh @ ghost, ga_neigh @ ghost
            scale = -2.0 * geo.face_areas[k, i] / geo.determinants[k]
            for target, value in zip(out, (g_local, g_neigh, ga_local, ga_neigh)):
                target[k, i] = scale * value
    return [array.astype(disc.dtype) for array in out]


def _face_projection(disc, k, i):
    """The neighbour projection ``F_bar`` of face ``i`` of element ``k`` alone."""
    mesh, ref = disc.mesh, disc.ref
    neighbor = mesh.neighbors[k, i]
    v0 = mesh.vertices[mesh.elements[k, 0]]
    phys = v0 + ref.face_quad_points[i] @ mesh.geometry.jacobians[k].T
    xi = map_physical_to_reference(mesh.vertices, mesh.elements, neighbor, phys)
    psi = ref.basis.evaluate(xi)
    return np.einsum("q,qb,qf->bf", ref.face_quadrature.weights, psi, ref.face_basis_at_quad)


@pytest.fixture(scope="module")
def tagged_mesh():
    return _tagged_mesh()


class TestFluxSolverAssembly:
    @pytest.mark.parametrize("flux", ["rusanov", "godunov"])
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_matches_per_face_oracle(self, tagged_mesh, flux, precision):
        tags = tagged_mesh.boundary_tags[tagged_mesh.neighbors < 0]
        for tag in (BOUNDARY_FREE_SURFACE, BOUNDARY_ABSORBING, BOUNDARY_ANALYTIC):
            assert np.any(tags == tag)
        disc = Discretization(
            tagged_mesh,
            _materials(tagged_mesh.n_elements),
            order=3,
            n_mechanisms=2,
            flux=flux,
            precision=precision,
        )
        expected = _oracle_flux_solvers(disc)
        for name, value in zip(
            (
                "flux_local_elastic",
                "flux_neigh_elastic",
                "flux_local_anelastic",
                "flux_neigh_anelastic",
            ),
            expected,
        ):
            actual = getattr(disc, name)
            assert actual.dtype == disc.dtype
            np.testing.assert_array_equal(actual, value, err_msg=name)

    def test_only_free_surface_faces_get_a_ghost(self, tagged_mesh):
        """Absorbing and analytic faces keep the plain neighbour matrix."""
        mesh = tagged_mesh
        disc = Discretization(mesh, _materials(mesh.n_elements), order=2)
        geo = mesh.geometry
        for k, i in np.argwhere(mesh.neighbors < 0):
            mat = disc.materials
            args = (mat.lam[k], mat.mu[k], mat.rho[k]) * 2
            scale = -2.0 * geo.face_areas[k, i] / geo.determinants[k]
            plain = scale * rusanov_flux_matrices(*args, geo.face_normals[k, i])[1]
            same = np.array_equal(disc.flux_neigh_elastic[k, i], plain)
            assert same == (mesh.boundary_tags[k, i] != BOUNDARY_FREE_SURFACE)


class TestNeighborFluxClasses:
    @pytest.fixture(scope="class")
    def permuted_disc(self):
        mesh = _permuted_mesh(seed=5)
        return Discretization(mesh, _homogeneous(mesh), order=3)

    def test_permuted_orderings_open_more_classes(self, permuted_disc, tagged_mesh):
        canonical = Discretization(tagged_mesh, _homogeneous(tagged_mesh), order=3)
        assert canonical.n_unique_neighbor_matrices < permuted_disc.n_unique_neighbor_matrices
        assert permuted_disc.n_unique_neighbor_matrices <= 24

    def test_faces_match_their_class_and_rounded_grouping(self, permuted_disc):
        disc = permuted_disc
        neighbors = disc.mesh.neighbors
        index = disc.neighbor_flux_index
        lookup: dict[bytes, int] = {}
        for i in range(4):
            for k in np.flatnonzero(neighbors[:, i] >= 0):
                own = _face_projection(disc, k, i)
                class_matrix = disc.neighbor_flux_matrices[index[k, i]]
                assert np.max(np.abs(own - class_matrix)) <= 1e-12
                # rounded-value deduplication, classes numbered by first occurrence
                rounded = np.round(own, 9)
                rounded[rounded == 0.0] = 0.0
                expected = lookup.setdefault(rounded.tobytes(), len(lookup))
                assert index[k, i] == expected
        assert len(lookup) == disc.n_unique_neighbor_matrices
        assert np.all(index[neighbors < 0] == -1)


def _locate_oracle(mesh, point):
    """Element-by-element search: first element with excess <= 1e-12, else
    the first one with the smallest excess."""
    best, best_excess = -1, np.inf
    for k in range(mesh.n_elements):
        xi = map_physical_to_reference(mesh.vertices, mesh.elements, k, point)[0]
        excess = max(-xi.min(), xi.sum() - 1.0)
        if excess < best_excess:
            best, best_excess = k, excess
        if excess <= 1e-12:
            break
    return best


class TestLocatePoint:
    def _check(self, mesh, point):
        element = locate_point(mesh, point)
        assert element == _locate_oracle(mesh, point)
        return element

    def test_interior_point(self, tagged_mesh):
        k = 5
        point = tagged_mesh.vertices[tagged_mesh.elements[k]].mean(axis=0)
        assert self._check(tagged_mesh, point) == k

    def test_shared_face_point_takes_first_element(self, tagged_mesh):
        k, i = np.argwhere(tagged_mesh.neighbors >= 0)[-1]
        neighbor = tagged_mesh.neighbors[k, i]
        face = tagged_mesh.elements[k, list(FACE_VERTEX_IDS[i])]
        point = tagged_mesh.vertices[face].mean(axis=0)
        assert self._check(tagged_mesh, point) == min(k, neighbor)

    def test_vertex_point(self, tagged_mesh):
        vertex = tagged_mesh.elements[10, 2]
        element = self._check(tagged_mesh, tagged_mesh.vertices[vertex])
        assert element == np.flatnonzero(np.any(tagged_mesh.elements == vertex, axis=1))[0]

    def test_outside_point(self, tagged_mesh):
        point = np.array([3000.0, 1000.0, 1000.0])
        element = self._check(tagged_mesh, point)
        assert element >= 0
        disc = Discretization(tagged_mesh, _homogeneous(tagged_mesh), order=2)
        source = MomentTensorSource(point, np.eye(3), RickerWavelet(f0=1.0, t0=1.0))
        with pytest.raises(ValueError, match="outside"):
            DiscretePointSource(disc, source)
