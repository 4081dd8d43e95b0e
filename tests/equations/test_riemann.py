"""Unit tests for rotation matrices, upwind splits and flux solver matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.equations.elastic import elastic_jacobians
from repro.equations.riemann import (
    anelastic_normal_jacobian,
    elastic_normal_jacobian,
    elastic_rotation_matrix,
    elastic_upwind_split,
    free_surface_ghost_operator,
    godunov_flux_matrices,
    rusanov_flux_matrices,
    stress_rotation_matrix,
    tangent_vectors,
)

LAM, MU, RHO = 2.08e10, 3.24e10, 2700.0


def _random_unit_vectors(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestRotations:
    def test_tangents_form_orthonormal_frame(self):
        normals = _random_unit_vectors(20)
        s, t = tangent_vectors(normals)
        np.testing.assert_allclose(np.einsum("nd,nd->n", normals, s), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.einsum("nd,nd->n", normals, t), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.einsum("nd,nd->n", s, t), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(s, axis=1), 1.0)
        np.testing.assert_allclose(np.linalg.norm(t, axis=1), 1.0)

    def test_stress_rotation_matches_tensor_rotation(self):
        rng = np.random.default_rng(1)
        normals = _random_unit_vectors(5, seed=2)
        s, t = tangent_vectors(normals)
        rot = np.stack([normals, s, t], axis=-1)
        m = stress_rotation_matrix(rot)
        for i in range(5):
            sigma_vec = rng.normal(size=6)
            sigma = np.array(
                [
                    [sigma_vec[0], sigma_vec[3], sigma_vec[5]],
                    [sigma_vec[3], sigma_vec[1], sigma_vec[4]],
                    [sigma_vec[5], sigma_vec[4], sigma_vec[2]],
                ]
            )
            rotated = rot[i] @ sigma @ rot[i].T
            expected_vec = np.array(
                [rotated[0, 0], rotated[1, 1], rotated[2, 2], rotated[0, 1], rotated[1, 2], rotated[0, 2]]
            )
            np.testing.assert_allclose(m[i] @ sigma_vec, expected_vec, atol=1e-10)

    def test_rotation_matrix_inverse(self):
        normals = _random_unit_vectors(10, seed=3)
        t_mat, t_inv = elastic_rotation_matrix(normals)
        identity = np.einsum("nij,njk->nik", t_mat, t_inv)
        np.testing.assert_allclose(identity, np.broadcast_to(np.eye(9), (10, 9, 9)), atol=1e-12)

    def test_normal_jacobian_via_rotation(self):
        """T A_x T^{-1} must equal n_x A + n_y B + n_z C (isotropy)."""
        normals = _random_unit_vectors(6, seed=4)
        for n in normals:
            t_mat, t_inv = elastic_rotation_matrix(n)
            a1 = elastic_jacobians(LAM, MU, RHO)[0]
            rotated = t_mat @ a1 @ t_inv
            direct = elastic_normal_jacobian(LAM, MU, RHO, n)
            np.testing.assert_allclose(rotated, direct, rtol=1e-9, atol=1e-3)


class TestUpwindSplit:
    def test_split_sums_to_jacobian(self):
        plus, minus = elastic_upwind_split(LAM, MU, RHO)
        np.testing.assert_allclose(plus + minus, elastic_jacobians(LAM, MU, RHO)[0], atol=1e-4)

    def test_split_signs(self):
        plus, minus = elastic_upwind_split(LAM, MU, RHO)
        assert np.all(np.real(np.linalg.eigvals(plus)) > -1e-6)
        assert np.all(np.real(np.linalg.eigvals(minus)) < 1e-6)


class TestFluxMatrices:
    @pytest.mark.parametrize("builder", [rusanov_flux_matrices, godunov_flux_matrices])
    def test_consistency_with_normal_jacobian(self, builder):
        """For equal states on both sides the numerical flux must reduce to the
        physical normal flux (consistency of the Riemann solver)."""
        normals = _random_unit_vectors(4, seed=5)
        rng = np.random.default_rng(6)
        for n in normals:
            g_local, g_neigh = builder(LAM, MU, RHO, LAM, MU, RHO, n)
            an = elastic_normal_jacobian(LAM, MU, RHO, n)
            q = rng.normal(size=9)
            np.testing.assert_allclose(
                g_local @ q + g_neigh @ q, an @ q, rtol=1e-8, atol=1e-3 * np.abs(an @ q).max()
            )

    def test_godunov_equals_upwind_for_1d(self):
        n = np.array([1.0, 0.0, 0.0])
        g_local, g_neigh = godunov_flux_matrices(LAM, MU, RHO, LAM, MU, RHO, n)
        plus, minus = elastic_upwind_split(LAM, MU, RHO)
        np.testing.assert_allclose(g_local, plus, atol=1e-4)
        np.testing.assert_allclose(g_neigh, minus, atol=1e-4)

    def test_godunov_upwinds_across_a_material_contrast(self):
        """Outgoing waves take the local split, incoming ones the neighbour's."""
        n = np.array([1.0, 0.0, 0.0])
        neigh = (0.5 * LAM, 0.5 * MU, RHO)
        g_local, g_neigh = godunov_flux_matrices(LAM, MU, RHO, *neigh, n)
        plus, _ = elastic_upwind_split(LAM, MU, RHO)
        _, minus = elastic_upwind_split(*neigh)
        np.testing.assert_allclose(g_local, plus, atol=1e-4)
        np.testing.assert_allclose(g_neigh, minus, atol=1e-4)

    def test_rusanov_is_dissipative(self):
        """The Rusanov local matrix minus half the normal Jacobian is positive
        semi-definite (s/2 I)."""
        n = np.array([0.0, 0.0, 1.0])
        g_local, g_neigh = rusanov_flux_matrices(LAM, MU, RHO, LAM, MU, RHO, n)
        an = elastic_normal_jacobian(LAM, MU, RHO, n)
        vp = np.sqrt((LAM + 2 * MU) / RHO)
        np.testing.assert_allclose(g_local - 0.5 * an, 0.5 * vp * np.eye(9), atol=1e-6)
        np.testing.assert_allclose(g_neigh - 0.5 * an, -0.5 * vp * np.eye(9), atol=1e-6)

    def test_anelastic_normal_jacobian_shape(self):
        normals = _random_unit_vectors(7, seed=8)
        an = anelastic_normal_jacobian(normals)
        assert an.shape == (7, 6, 9)
        np.testing.assert_array_equal(an[..., :6], 0.0)


class TestFaceBatches:
    """The builders take face-batched arrays; each face of a batch is
    bit-identical to the same face built alone."""

    @pytest.mark.parametrize("builder", [rusanov_flux_matrices, godunov_flux_matrices])
    def test_batch_matches_single_faces(self, builder):
        rng = np.random.default_rng(9)
        normals = _random_unit_vectors(6, seed=10)
        lam = LAM * rng.uniform(0.5, 1.5, size=(6, 2))
        mu = MU * rng.uniform(0.5, 1.5, size=(6, 2))
        rho = RHO * rng.uniform(0.5, 1.5, size=(6, 2))
        # repeat one material so the Godunov split is shared between faces
        lam[3], mu[3], rho[3] = lam[0], mu[0], rho[0]
        g_local, g_neigh = builder(
            lam[:, 0], mu[:, 0], rho[:, 0], lam[:, 1], mu[:, 1], rho[:, 1], normals
        )
        assert g_local.shape == g_neigh.shape == (6, 9, 9)
        for f in range(6):
            single = builder(lam[f, 0], mu[f, 0], rho[f, 0], lam[f, 1], mu[f, 1], rho[f, 1], normals[f])
            np.testing.assert_array_equal(g_local[f], single[0])
            np.testing.assert_array_equal(g_neigh[f], single[1])

    def test_materials_broadcast_against_normals(self):
        normals = _random_unit_vectors(8, seed=11).reshape(2, 4, 3)
        lam = np.array([[LAM], [0.5 * LAM]])
        for builder in (rusanov_flux_matrices, godunov_flux_matrices):
            g_local, _ = builder(lam, MU, RHO, lam, MU, RHO, normals)
            assert g_local.shape == (2, 4, 9, 9)
            np.testing.assert_array_equal(
                g_local[1, 2], builder(0.5 * LAM, MU, RHO, 0.5 * LAM, MU, RHO, normals[1, 2])[0]
            )

    def test_normal_jacobian_is_direction_sum(self):
        normals = _random_unit_vectors(5, seed=12)
        jac = elastic_jacobians(LAM, MU, RHO)
        an = elastic_normal_jacobian(LAM, MU, RHO, normals)
        np.testing.assert_array_equal(an, np.einsum("nd,dij->nij", normals, jac))

    def test_upwind_split_batch_matches_single(self):
        lam = np.array([LAM, 0.7 * LAM])
        mu = np.array([MU, 0.4 * MU])
        plus, minus = elastic_upwind_split(lam, mu, RHO)
        for k in range(2):
            single_plus, single_minus = elastic_upwind_split(lam[k], mu[k], RHO)
            np.testing.assert_array_equal(plus[k], single_plus)
            np.testing.assert_array_equal(minus[k], single_minus)


class TestGhostOperators:
    def test_free_surface_batch_matches_single(self):
        normals = _random_unit_vectors(4, seed=13)
        batch = free_surface_ghost_operator(normals)
        for f in range(4):
            np.testing.assert_array_equal(batch[f], free_surface_ghost_operator(normals[f]))

    @given(seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_free_surface_is_involution(self, seed):
        n = _random_unit_vectors(1, seed=seed)[0]
        g = free_surface_ghost_operator(n)
        np.testing.assert_allclose(g @ g, np.eye(9), atol=1e-10)

    def test_free_surface_cancels_traction(self):
        """The average of interior and ghost state has zero traction."""
        n = _random_unit_vectors(1, seed=3)[0]
        g = free_surface_ghost_operator(n)
        rng = np.random.default_rng(0)
        q = rng.normal(size=9)
        avg = 0.5 * (q + g @ q)
        sigma = np.array(
            [
                [avg[0], avg[3], avg[5]],
                [avg[3], avg[1], avg[4]],
                [avg[5], avg[4], avg[2]],
            ]
        )
        traction = sigma @ n
        np.testing.assert_allclose(traction, 0.0, atol=1e-10)

    def test_free_surface_keeps_velocities(self):
        n = np.array([0.0, 0.0, 1.0])
        g = free_surface_ghost_operator(n)
        q = np.zeros(9)
        q[6:] = [1.0, 2.0, 3.0]
        np.testing.assert_allclose((g @ q)[6:], [1.0, 2.0, 3.0], atol=1e-12)
