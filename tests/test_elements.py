import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastoacoustic import elements as el
from elastoacoustic import meshing as msh
from elastoacoustic.elements import (P1, P2, P1B, BDM1, VP2,
                                     ElementError)

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def reference_bdm(x):
    """BDM1 basis values (6, 2) at a point x of the reference triangle,
    with every edge in its local direction."""
    coeff = el.bdm_coefficients(REF[None], np.ones((1, 3)))
    vals, _ = el.bdm_eval(coeff, (x - REF.mean(axis=0)).reshape(1, 1, 2))
    return vals[0, 0]


def exact_monomial(a, b):
    # int_T x^a y^b over the reference triangle
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


class TestQuadrature:
    def test_degree_one_is_centroid(self):
        q = el.quadrature(1)
        assert len(q.weights) == 1
        assert_allclose(q.points[0], [1 / 3, 1 / 3, 1 / 3])
        assert q.weights[0] == pytest.approx(0.5)

    def test_linear_integral(self):
        q = el.quadrature(2)
        xy = q.points @ REF
        val = (q.weights * (xy[:, 0] + xy[:, 1])).sum()
        assert val == pytest.approx(1 / 3)

    def test_degree_four_x2y2(self):
        # symbolic oracle: int x^2 y^2 = 2! 2! / 6! = 1/180
        q = el.quadrature(4)
        xy = q.points @ REF
        val = (q.weights * xy[:, 0] ** 2 * xy[:, 1] ** 2).sum()
        assert val == pytest.approx(1 / 180, rel=1e-14)

    @pytest.mark.parametrize("degree", range(1, 9))
    def test_exactness_and_positivity(self, degree):
        q = el.quadrature(degree)
        assert (q.weights > 0).all()
        assert q.weights.sum() == pytest.approx(0.5, rel=1e-13)
        xy = q.points @ REF
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                val = (q.weights * xy[:, 0] ** a * xy[:, 1] ** b).sum()
                assert val == pytest.approx(exact_monomial(a, b),
                                            rel=1e-12)

    @pytest.mark.parametrize("degree", [0, 9, -3])
    def test_out_of_range(self, degree):
        with pytest.raises(ElementError):
            el.quadrature(degree)


class TestReferenceBasis:
    def test_p1_kronecker(self):
        val, _, _ = el.scalar_basis_at(P1, np.eye(3))
        assert_allclose(val, np.eye(3), atol=1e-15)

    def test_bubble_normalization(self):
        # the generator's cell function carries the bubble, value 1 at the
        # centroid; the vector MINI dofs 6 and 7 are its two components
        val, _, _ = el.scalar_basis_at(P1B, [(1 / 3, 1 / 3, 1 / 3)])
        assert_allclose(val[0], [1 / 3, 1 / 3, 1 / 3, 1.0], atol=1e-14)

    def test_p2_vertex_and_midpoints(self):
        # the vertex (1, 0, 0) and the midpoint of e2
        val, _, _ = el.scalar_basis_at(P2, [(1, 0, 0), (0.5, 0.5, 0)])
        assert_allclose(val, [[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]],
                        atol=1e-15)

    def test_partition_of_unity(self):
        q = el.quadrature(4)
        for kind in (P1, P2):
            val, _, _ = el.scalar_basis_at(kind, q.points)
            assert_allclose(val.sum(axis=1), 1.0, atol=1e-14)
        # the MINI bubble is excluded from the partition by convention
        val, _, _ = el.scalar_basis_at(P1B, q.points)
        assert_allclose(val[:, :3].sum(axis=1), 1.0, atol=1e-14)

    def test_bdm_duality_identity(self):
        # numerical edge quadrature applied to the returned basis must
        # reproduce the identity dof matrix
        tq, wq = el.edge_gauss(4)
        M = np.zeros((6, 6))
        for i in range(3):
            a, b = REF[(i + 1) % 3], REF[(i + 2) % 3]
            tang = b - a
            nrm = np.array([tang[1], -tang[0]])
            nrm /= np.linalg.norm(nrm)
            for t, w in zip(tq, wq):
                val = reference_bdm(a + t * tang)
                for m in range(2):
                    zeta = np.sqrt(3) * (2 * t - 1) if m else 1.0
                    M[2 * i + m] += w * zeta * (val @ nrm)
        assert_allclose(M, np.eye(6), atol=1e-12)

    def test_unsupported_kind(self):
        fake = el.ElementKind("P9", False, 1, 1, 1)
        with pytest.raises(ElementError, match="P9"):
            el.scalar_basis_at(fake, [(1 / 3, 1 / 3, 1 / 3)])
        with pytest.raises(ElementError, match="BDM1"):
            el.scalar_basis_at(BDM1, [(1 / 3, 1 / 3, 1 / 3)])


class TestDofMaps:
    def test_p1_on_two_triangle_square(self, unit_square_mesh):
        dm = el.build_dofmap(unit_square_mesh, P1, msh.SOLID)
        assert dm.ndof == 4

    def test_bdm_on_two_triangle_square(self, unit_square_mesh):
        # reinterpret the square as fluid to count edge moments
        m = msh.build_cavity_mesh(msh.unit_square_fluid(), 1)
        dm = el.build_dofmap(m, BDM1, msh.FLUID)
        assert dm.ndof == 10  # 5 edges x 2 moments

    def test_mini_vector_count(self, omega1_n2):
        m = omega1_n2
        dm = el.build_dofmap(m, P1B, msh.SOLID)
        solid = m.subdomain_tris(msh.SOLID)
        nv = len(np.unique(m.triangles[solid]))
        assert dm.ndof == 2 * nv + 2 * len(solid)

    def test_taylor_hood_vector_count(self, omega1_n2):
        m = omega1_n2
        dm = el.build_dofmap(m, VP2, msh.SOLID)
        solid = m.subdomain_tris(msh.SOLID)
        nv = len(np.unique(m.triangles[solid]))
        ne = len(np.unique(m.tri_edges[solid]))
        assert dm.ndof == 2 * (nv + ne)

    def test_shared_dofs_across_elements(self, unit_square_mesh):
        dm = el.build_dofmap(unit_square_mesh, P1, msh.SOLID)
        shared = set(dm.cell2dof[0]) & set(dm.cell2dof[1])
        assert len(shared) == 2  # the diagonal vertices

    def test_deterministic_numbering(self, omega1_n2):
        a = el.build_dofmap(omega1_n2, VP2, msh.SOLID)
        b = el.build_dofmap(omega1_n2, VP2, msh.SOLID)
        assert np.array_equal(a.cell2dof, b.cell2dof)


class TestBDMInterpolation:
    def test_constant_field_reproduced(self, fluid_square_n3):
        m = fluid_square_n3
        coeffs = el.bdm_interpolate(
            m, lambda x: np.tile([1.0, 0.0], (len(x), 1)))
        dm = el.build_dofmap(m, BDM1, msh.FLUID)
        coeff, geo = el.bdm_cell_coefficients(m, dm)
        q = el.quadrature(3)
        pts = el.physical_points(geo, q.points) - geo.centroid[:, None, :]
        vals, _ = el.bdm_eval(coeff, pts)
        wh = np.einsum("tqjc,tj->tqc", vals, coeffs[dm.cell2dof])
        assert_allclose(wh[..., 0], 1.0, atol=1e-12)
        assert_allclose(wh[..., 1], 0.0, atol=1e-12)

    def test_commuting_diagram(self, fluid_square_n3):
        # div(Pi_h tau) equals the elementwise mean of div tau for the
        # lowest-order space; verified on a basis of quadratic fields
        m = fluid_square_n3
        dm = el.build_dofmap(m, BDM1, msh.FLUID)
        coeff, geo = el.bdm_cell_coefficients(m, dm)
        divs = coeff @ np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        q = el.quadrature(4)
        pts = el.physical_points(geo, q.points)
        fields = [
            (lambda x: np.column_stack([x[:, 0] ** 2, 0 * x[:, 0]]),
             lambda x: 2 * x[..., 0]),
            (lambda x: np.column_stack([x[:, 0] * x[:, 1], 0 * x[:, 0]]),
             lambda x: x[..., 1]),
            (lambda x: np.column_stack([0 * x[:, 0], x[:, 1] ** 2]),
             lambda x: 2 * x[..., 1]),
            (lambda x: np.column_stack([x[:, 1] ** 2, x[:, 0] ** 2]),
             lambda x: 0 * x[..., 0]),
        ]
        for field, div_exact in fields:
            coeffs = el.bdm_interpolate(m, field)
            div_h = np.einsum("tj,tj->t", divs, coeffs[dm.cell2dof])
            mean_div = 2.0 * np.einsum("q,tq->t", q.weights,
                                       div_exact(pts))
            assert_allclose(div_h, mean_div, atol=1e-12)

    def test_rigid_rotation_divergence_free(self, fluid_square_n3):
        m = fluid_square_n3
        coeffs = el.bdm_interpolate(
            m, lambda x: np.column_stack([-x[:, 1], x[:, 0]]))
        dm = el.build_dofmap(m, BDM1, msh.FLUID)
        coeff, _ = el.bdm_cell_coefficients(m, dm)
        divs = coeff @ np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        div_h = np.einsum("tj,tj->t", divs, coeffs[dm.cell2dof])
        assert np.abs(div_h).max() < 1e-12

    def test_normal_trace_continuity(self, fluid_square_n3):
        m = fluid_square_n3
        coeffs = el.bdm_interpolate(
            m, lambda x: np.column_stack([x[:, 0] ** 2 + x[:, 1],
                                          x[:, 1] ** 2 - 3 * x[:, 0]]))
        dm = el.build_dofmap(m, BDM1, msh.FLUID)
        coeff, geo = el.bdm_cell_coefficients(m, dm)
        pos = np.full(m.num_triangles, -1)
        pos[dm.tris] = np.arange(len(dm.tris))
        scale = np.abs(coeffs).max()
        tq, _ = el.edge_gauss(3)
        for e in np.flatnonzero(m.edge_tris[:, 1] >= 0):
            va, vb = m.edges[e]
            pa, pb = m.vertices[va], m.vertices[vb]
            tang = pb - pa
            nrm = np.array([tang[1], -tang[0]])
            nrm /= np.linalg.norm(nrm)
            traces = []
            for side in range(2):
                k = pos[m.edge_tris[e, side]]
                pts = (pa[None] + tq[:, None] * tang[None]
                       - geo.centroid[k])[None]
                vals, _ = el.bdm_eval(coeff[k:k + 1], pts)
                wh = np.einsum("qjc,j->qc", vals[0],
                               coeffs[dm.cell2dof[k]])
                traces.append(wh @ nrm)
            assert np.abs(traces[0] - traces[1]).max() <= 1e-12 * scale


class TestPiolaContract:
    def test_piola_scales_normal_moments_by_edge_length(self):
        # for v = B v_ref / det B the unnormalized normal flux is
        # invariant pointwise along corresponding edges, so the
        # length-normalized edge moments of the mapped reference basis
        # form diag(|E_ref| / |E_phys|) per edge
        verts = np.array([[0.2, 0.1], [1.3, 0.4], [0.5, 1.6]])
        B = np.stack([verts[1] - verts[0], verts[2] - verts[0]], axis=1)
        detB = np.linalg.det(B)
        tq, wq = el.edge_gauss(4)
        M = np.zeros((6, 6))
        for i in range(3):
            a, b = verts[(i + 1) % 3], verts[(i + 2) % 3]
            tang = b - a
            nrm = np.array([tang[1], -tang[0]])
            nrm /= np.linalg.norm(nrm)
            for t, w in zip(tq, wq):
                x = a + t * tang
                # the same point on the reference element
                ar, br = REF[(i + 1) % 3], REF[(i + 2) % 3]
                ref_vals = reference_bdm(ar + t * (br - ar))
                mapped = (ref_vals @ B.T) / detB
                for m in range(2):
                    zeta = np.sqrt(3) * (2 * t - 1) if m else 1.0
                    M[2 * i + m] += w * zeta * (mapped @ nrm)
        le_ref = np.array([np.sqrt(2.0), 1.0, 1.0])
        le_phys = np.array([np.linalg.norm(verts[(i + 2) % 3]
                                           - verts[(i + 1) % 3])
                            for i in range(3)])
        expected = np.diag(np.repeat(le_ref / le_phys, 2))
        assert_allclose(M, expected, atol=1e-12)
