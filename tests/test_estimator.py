import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastoacoustic import elements as el
from elastoacoustic import estimator as est
from elastoacoustic import meshing as msh
from elastoacoustic.adaptivity import mark
from elastoacoustic.assembly import (MaterialField, build_block_system,
                                     build_spaces)
from elastoacoustic.eigensolve import EigenPair
from elastoacoustic.study import solve_window


def make_mode(spaces, kappa, u=None, w=None, p=None):
    lay = spaces.layout
    u = np.zeros(lay.n_u) if u is None else u
    w = np.zeros(lay.n_w) if w is None else w
    p = np.zeros(lay.n_p) if p is None else p
    x = lay.gather(u, w, p)
    return EigenPair(kappa, float(np.sqrt(max(kappa, 0.0))), u, w, p, x,
                     0.0)


@pytest.fixture(scope="module")
def th_mode(omega1_n2, materials):
    sys_ = build_block_system(omega1_n2, "taylor-hood", materials)
    pairs, _ = solve_window(sys_, (400.0, 2800.0))
    return omega1_n2, sys_.spaces, pairs[0]


def solid_terms(mesh, spaces, mode, mats):
    """The solid residuals and jumps without the pass's kappa check."""
    q = el.quadrature(est.DEFAULT_DEGREE)
    dv, mu_q, il_q, proj = est._solid_tables(spaces, mats, q)
    eta_K, _ = est._solid_residuals(mesh, spaces, mode, mats.rho_s, q, dv,
                                    mu_q, il_q, proj)
    edges, eta_J = est._solid_jumps(mesh, spaces, mode, proj,
                                    el.tri_positions(spaces.u_map.tris))
    return eta_K, edges, eta_J


class TestWeights:
    def test_solid_weights(self):
        r1, r2, rE = est.Weights.solid(np.array(0.5), np.array(0.0))
        assert r1 == pytest.approx(1.0)
        assert rE == pytest.approx(1.0 / np.sqrt(2.0))
        # incompressible limit: rho2 = 2 mu_h
        assert r2 == pytest.approx(1.0)

    def test_rho2_with_compressibility(self):
        r1, r2, rE = est.Weights.solid(np.array(2.0), np.array(0.25))
        assert r2 == pytest.approx(1.0 / (1.0 / 4.0 + 0.25))

    def test_fluid_weights(self, materials):
        rf, re = est.Weights.fluid(materials, 1.96e5)
        assert rf == pytest.approx((materials.c ** 2
                                    * materials.rho_f) ** -0.5)
        expected = min(rf, (1.96e5 * materials.rho_f) ** -0.5) \
            / np.sqrt(2.0)
        assert re == pytest.approx(expected)

    def test_kernel_mode_rejected(self, materials):
        with pytest.raises(est.EstimatorError):
            est.Weights.fluid(materials, 0.0)


class TestSolidResiduals:
    def test_linear_displacement_zero_interior_residual(self, omega1_n2):
        # u = (x, -nu y / (1 - nu)) with the matching constant pressure
        # and omega = 0 annihilates both interior residuals
        nu = 0.3
        mats = MaterialField(E=2.0 * (1 + nu), nu=nu)  # mu = 1
        spaces = build_spaces(omega1_n2, "taylor-hood")
        lam = 2.0 * (1 + nu) * nu / ((1 + nu) * (1 - 2 * nu))
        div_u = 1.0 - nu / (1.0 - nu)
        u = np.zeros(spaces.u_map.ndof)
        umap = spaces.u_map
        for dof in range(0, umap.ndof, 2):
            ent, eid = umap.entity[dof], umap.entity_id[dof]
            if ent == 0:
                x, y = omega1_n2.vertices[eid]
            else:
                x, y = omega1_n2.vertices[
                    omega1_n2.edges[eid]].mean(axis=0)
            u[dof] = x
            u[dof + 1] = -nu * y / (1.0 - nu)
        p = np.full(spaces.p_map.ndof, -lam * div_u)
        mode = make_mode(spaces, 0.0, u=u, p=p)
        eta_K, edges, eta_J = solid_terms(omega1_n2, spaces, mode, mats)
        scale = max(np.abs(u).max(), 1.0)
        assert eta_K.max() <= 1e-20 * scale
        # interior stress is constant, so interior jumps vanish too
        interior = omega1_n2.edge_tag[edges] == msh.INTERIOR
        assert eta_J[interior].max() <= 1e-20 * scale

    def test_weight_formula_on_uniform_state(self, omega1_n2):
        mats = MaterialField(E=1.0, nu=0.0000001 + 0.25)
        spaces = build_spaces(omega1_n2, "mini")
        q = el.quadrature(est.DEFAULT_DEGREE)
        _, _, _, proj = est._solid_tables(spaces, mats, q)
        mu = mats.lame(np.zeros((1, 2)))[0][0]
        assert_allclose(proj.coeff, mu, rtol=1e-12)
        assert_allclose(proj.grad, 0.0, atol=1e-12)


class TestOscillation:
    def test_theta_zero_for_elementwise_linear_mu(self, omega1_n2,
                                                  th_mode):
        mesh, spaces, mode = th_mode
        # E linear in x with constant nu gives a globally linear mu
        mats = MaterialField(E=lambda x: 1.44e11 * (1.0 + 0.3 * x[:, 0]),
                             nu=0.35)
        _, _, part = est.estimate_mode(mesh, spaces, mode, mats)
        scale = part.eta2_K_S.sum()
        assert part.theta2_K_S.sum() <= 1e-24 * scale

    def test_theta_positive_for_curved_mu(self, th_mode):
        mesh, spaces, mode = th_mode
        mats = MaterialField(
            E=lambda x: 1.44e11 * (1.0 + 0.3 * x[:, 0] ** 2), nu=0.35)
        _, _, part = est.estimate_mode(mesh, spaces, mode, mats)
        assert part.theta2_K_S.sum() > 0


class TestFluidResiduals:
    def test_constant_field_no_divergence_jump(self, fluid_square_n3,
                                               materials):
        spaces = build_spaces(fluid_square_n3, "mini")
        w = el.bdm_interpolate(fluid_square_n3,
                               lambda x: np.tile([1.0, 0.0],
                                                 (len(x), 1)))
        mode = make_mode(spaces, 1.0, w=w)
        _, div_w, rot_w = est._fluid_eval(spaces, mode)
        assert np.abs(div_w).max() < 1e-12
        assert np.abs(rot_w).max() < 1e-12

    def test_shear_field_rotation(self, fluid_square_n3):
        # w = (y, 0) has rot w = -1 elementwise
        spaces = build_spaces(fluid_square_n3, "mini")
        w = el.bdm_interpolate(fluid_square_n3,
                               lambda x: np.column_stack(
                                   [x[:, 1], np.zeros(len(x))]))
        mode = make_mode(spaces, 1.0, w=w)
        _, div_w, rot_w = est._fluid_eval(spaces, mode)
        assert_allclose(rot_w, -1.0, atol=1e-12)
        assert_allclose(div_w, 0.0, atol=1e-12)

    def test_kernel_mode_rejected(self, fluid_square_n3, materials):
        spaces = build_spaces(fluid_square_n3, "mini")
        mode = make_mode(spaces, 0.0)
        with pytest.raises(est.EstimatorError):
            est.estimate_mode(fluid_square_n3, spaces, mode, materials)

    def test_gamma0_residual_reflects_boundary_condition(
            self, fluid_square_n3):
        # w = (0, y): div w = 1 and w.n = 1 on the top edge, so the
        # surface residual is c^2 rho_f + g rho_f there
        mats = MaterialField(E=1.0, nu=0.3, rho_s=1.0, rho_f=1.0, c=1.0,
                             g=0.5)
        spaces = build_spaces(fluid_square_n3, "mini")
        w = el.bdm_interpolate(fluid_square_n3,
                               lambda x: np.column_stack(
                                   [np.zeros(len(x)), x[:, 1]]))
        mode = make_mode(spaces, 1.0, w=w)
        _, _, part = est.estimate_mode(fluid_square_n3, spaces, mode, mats)
        g0 = fluid_square_n3.edges_with_tag(msh.GAMMA_0)
        top = [e for e in g0
               if np.allclose(fluid_square_n3.vertices[
                   fluid_square_n3.edges[e]][:, 1], 1.0)]
        epos = {int(e): i for i, e in enumerate(part.fluid_edges)}
        rf, re = est.Weights.fluid(mats, 1.0)
        for e in top:
            h = fluid_square_n3.edge_frames(np.array([e]))[3][0]
            got = part.eta2_J_F[epos[int(e)]]
            # flux residual (c^2 rho_f div + g rho_f w.n) = 1.5; Gamma_0
            # edges carry no tangential term
            assert got == pytest.approx(h ** 2 * re ** 2 * 1.5 ** 2,
                                        rel=1e-10)


class TestBoundaryTangentialTerms:
    """A boundary edge carries no w x n term: an exact mode has
    omega^2 rho_f w = grad p, whose tangential part need not vanish on
    the free surface or the interface."""

    @staticmethod
    def _vertical_mode(mesh, spaces, kappa):
        # u = p = 0 and the divergence-free constant field w = (0, 1)
        w = el.bdm_interpolate(mesh, lambda x: np.tile([0.0, 1.0],
                                                       (len(x), 1)))
        return make_mode(spaces, kappa, w=w)

    def test_interface_zero_for_constant_field(self, omega1_n2, materials):
        spaces = build_spaces(omega1_n2, "taylor-hood")
        mode = self._vertical_mode(omega1_n2, spaces, 1.96e5)
        _, _, part = est.estimate_mode(omega1_n2, spaces, mode, materials)
        assert len(part.interface_edges)
        assert_allclose(part.eta2_E_I, 0.0, atol=1e-20)

    def test_vertical_gamma0_edges_zero_for_tangential_field(
            self, fluid_square_n3):
        mats = MaterialField(E=1.0, nu=0.3, rho_s=1.0, rho_f=1.0, c=1.0,
                             g=0.5)
        spaces = build_spaces(fluid_square_n3, "mini")
        mode = self._vertical_mode(fluid_square_n3, spaces, 1.0)
        _, _, part = est.estimate_mode(fluid_square_n3, spaces, mode, mats)
        ends = fluid_square_n3.vertices[
            fluid_square_n3.edges[part.fluid_edges]]
        vertical = (fluid_square_n3.edge_tag[part.fluid_edges]
                    == msh.GAMMA_0) & np.isclose(ends[:, 0, 0],
                                                 ends[:, 1, 0])
        assert vertical.sum() == 2 * 3
        assert_allclose(part.eta2_J_F[vertical], 0.0, atol=1e-20)


class TestContractFirstEvaluation:
    """Fields contracted on the reference element and then mapped are
    exact for the polynomials each space holds, on cells whose affine
    maps all differ."""

    @pytest.fixture(scope="class")
    def bisected(self):
        mesh = msh.build_cavity_mesh(msh.unit_square_solid(), 2)
        mesh = msh.bisect(mesh, [0, 3, 5])
        return msh.bisect(mesh, [1, 2, 8, 11])

    def test_taylor_hood_quadratic(self, bisected):
        spaces = build_spaces(bisected, "taylor-hood")
        umap = spaces.u_map

        def u_exact(x, y):
            return (0.3 + 1.1 * x - 0.7 * y + 2.0 * x ** 2 - 1.3 * x * y
                    + 0.4 * y ** 2,
                    -0.2 + 0.5 * x + 0.9 * y - 0.6 * x ** 2 + 1.7 * x * y
                    - 2.2 * y ** 2)

        u = np.zeros(umap.ndof)
        for dof in range(0, umap.ndof, 2):
            eid = umap.entity_id[dof]
            if umap.entity[dof] == 0:
                x, y = bisected.vertices[eid]
            else:
                x, y = bisected.vertices[bisected.edges[eid]].mean(axis=0)
            u[dof], u[dof + 1] = u_exact(x, y)
        mode = make_mode(spaces, 1.0, u=u)
        q = el.quadrature(est.DEFAULT_DEGREE)
        geo = spaces.solid_geometry
        assert len(np.unique(np.round(geo.jac, 12), axis=0)) > 4
        u_val, u_grad, u_hess, _, _ = est._solid_fields(spaces, mode,
                                                        q.points)
        pts = el.physical_points(geo, q.points)
        x, y = pts[..., 0], pts[..., 1]
        assert_allclose(u_val, np.stack(u_exact(x, y), axis=-1),
                        rtol=1e-12, atol=1e-12)
        grad = np.stack([
            np.stack([1.1 + 4.0 * x - 1.3 * y, -0.7 - 1.3 * x + 0.8 * y],
                     axis=-1),
            np.stack([0.5 - 1.2 * x + 1.7 * y, 0.9 + 1.7 * x - 4.4 * y],
                     axis=-1)], axis=-2)
        assert_allclose(u_grad, grad, rtol=1e-12, atol=1e-12)
        hess = np.array([[[4.0, -1.3], [-1.3, 0.8]],
                         [[-1.2, 1.7], [1.7, -4.4]]])
        assert_allclose(u_hess, np.broadcast_to(hess, u_hess.shape),
                        rtol=1e-11, atol=1e-11)
        # the edge traces from both sides agree: no interior jump
        _, _, part = est.estimate_mode(bisected, spaces, mode,
                                       MaterialField(E=2.6, nu=0.3))
        interior = bisected.edge_tag[part.solid_edges] == msh.INTERIOR
        assert interior.sum() > 20
        assert part.eta2_J_S[interior].max() < 1e-20

    def test_mini_bubble_hessian(self, bisected):
        spaces = build_spaces(bisected, "mini")
        umap = spaces.u_map
        k = 7                                  # one solid cell
        tri = umap.tris[k]
        dof = np.flatnonzero((umap.entity == 2) & (umap.entity_id == tri)
                             & (umap.component == 0))[0]
        u = np.zeros(umap.ndof)
        u[dof] = 1.0
        mode = make_mode(spaces, 0.0, u=u)
        q = el.quadrature(est.DEFAULT_DEGREE)
        _, _, u_hess, _, _ = est._solid_fields(spaces, mode, q.points)
        # barycentric gradients g_i from the vertices: lambda = T^-1 (1, x, y)
        xy = bisected.vertices[bisected.triangles[tri]]
        T = np.vstack([np.ones(3), xy.T])
        g = np.linalg.inv(T)[:, 1:]
        lam = q.points
        expected = np.zeros((len(lam), 2, 2))
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            pair = np.outer(g[a], g[b]) + np.outer(g[b], g[a])
            expected += 27.0 * lam[:, c, None, None] * pair
        scale = np.abs(expected).max()
        assert_allclose(u_hess[k, :, 0], expected, rtol=0,
                        atol=1e-12 * scale)
        assert np.all(u_hess[k, :, 1] == 0.0)
        others = np.arange(len(umap.tris)) != k
        assert np.all(u_hess[others] == 0.0)


class TestInterface:
    def test_uniform_pressure_value(self, omega1_n2, materials):
        spaces = build_spaces(omega1_n2, "taylor-hood")
        kappa = 1.96e5
        p = np.ones(spaces.p_map.ndof)
        mode = make_mode(spaces, kappa, p=p)
        _, _, part = est.estimate_mode(omega1_n2, spaces, mode, materials)
        mu = materials.lame(np.zeros((1, 2)))[0][0]
        rf, re = est.Weights.fluid(materials, kappa)
        rho_i = min(re, 1.0 / np.sqrt(2.0 * mu) / np.sqrt(2.0))
        h = omega1_n2.edge_frames(part.interface_edges)[3]
        assert_allclose(part.eta2_E_I, h ** 2 * rho_i ** 2, rtol=1e-12)

    def test_interface_sum_decreases_under_refinement(self, materials):
        sums = []
        for N in (2, 4):
            mesh = msh.build_cavity_mesh(msh.omega1(), N)
            sys_ = build_block_system(mesh, "taylor-hood", materials)
            pairs, _ = solve_window(sys_, (400.0, 2800.0))
            _, _, part = est.estimate_mode(mesh, sys_.spaces, pairs[0],
                                           materials)
            assert (part.eta2_E_I > 0).any()
            sums.append(part.eta2_E_I.sum())
        assert sums[1] < sums[0]


class TestAggregation:
    def test_zero_mode_gives_zero(self, omega1_n2, materials):
        spaces = build_spaces(omega1_n2, "taylor-hood")
        mode = make_mode(spaces, 1.0)
        eta2, theta2, ind = est.estimate_mode(omega1_n2, spaces, mode,
                                              materials)
        assert eta2 == 0.0
        assert theta2 == 0.0

    def test_global_is_sum_of_parts(self, th_mode, materials):
        mesh, spaces, mode = th_mode
        eta2, theta2, ind = est.estimate_mode(mesh, spaces, mode, materials)
        manual = (ind.eta2_K_S.sum() + ind.eta2_J_S.sum()
                  + ind.eta2_K_F.sum() + ind.eta2_J_F.sum()
                  + ind.eta2_E_I.sum())
        assert eta2 == pytest.approx(manual, rel=1e-14)
        assert theta2 == pytest.approx(ind.theta2_K_S.sum(), rel=1e-14)

    def test_single_subdomain(self, materials):
        solid = msh.build_cavity_mesh(msh.unit_square_solid(), 2)
        spaces = build_spaces(solid, "taylor-hood")
        u = np.sin(np.arange(spaces.u_map.ndof))
        mode = make_mode(spaces, 1.0, u=u)
        eta2, theta2, ind = est.estimate_mode(solid, spaces, mode, materials)
        assert ind.fluid_tris is None and ind.eta2_K_F is None
        assert ind.eta2_J_F is None and ind.eta2_E_I is None
        assert eta2 > 0
        assert eta2 == pytest.approx(ind.eta2_K_S.sum() + ind.eta2_J_S.sum(),
                                     rel=1e-14)

        fluid = msh.build_cavity_mesh(msh.unit_square_fluid(), 2)
        spaces = build_spaces(fluid, "mini")
        w = el.bdm_interpolate(fluid, lambda x: np.column_stack(
            [x[:, 1] ** 2, x[:, 0] * x[:, 1]]))
        eta2, theta2, ind = est.estimate_mode(
            fluid, spaces, make_mode(spaces, 1.0, w=w), materials)
        assert ind.solid_tris is None and ind.eta2_K_S is None
        assert ind.eta2_J_S is None and ind.eta2_E_I is None
        assert eta2 > 0 and theta2 == 0.0
        assert eta2 == pytest.approx(ind.eta2_K_F.sum() + ind.eta2_J_F.sum(),
                                     rel=1e-14)
        with pytest.raises(est.EstimatorError):
            est.estimate_mode(fluid, spaces, make_mode(spaces, 0.0, w=w),
                              materials)

    def test_element_totals_attribution(self, th_mode, materials):
        mesh, spaces, mode = th_mode
        eta2, _, ind = est.estimate_mode(mesh, spaces, mode, materials)
        totals = ind.element_totals(mesh)
        assert (totals >= 0).all()
        # interface terms are credited to both neighbors in full, so
        # the total sum exceeds eta2 by exactly the interface sum
        assert totals.sum() == pytest.approx(
            eta2 + ind.eta2_E_I.sum(), rel=1e-12)

    def test_homogeneity(self, th_mode, materials):
        from dataclasses import replace
        mesh, spaces, mode = th_mode
        eta2, theta2, ind = est.estimate_mode(mesh, spaces, mode,
                                              materials)
        s = 3.7
        scaled = replace(mode, u=s * mode.u, w=s * mode.w, p=s * mode.p,
                         x=s * mode.x)
        eta2b, theta2b, indb = est.estimate_mode(mesh, spaces, scaled,
                                                 materials)
        assert eta2b == pytest.approx(s ** 2 * eta2, rel=1e-12)
        assert theta2b == pytest.approx(s ** 2 * theta2, rel=1e-12)
        m1 = mark(np.sqrt(ind.element_totals(mesh)), 0.5)
        m2 = mark(np.sqrt(indb.element_totals(mesh)), 0.5)
        assert np.array_equal(m1, m2)

    def test_quadrature_refinement_agreement(self, omega1_n2):
        # variable stiffness exercises the non-polynomial weights
        mats = MaterialField(
            E=lambda x: 1.44e11 * (1.0 + 0.2 * x[:, 0]
                                   + 0.1 * x[:, 1] ** 2), nu=0.35)
        sys_ = build_block_system(omega1_n2, "taylor-hood", mats)
        pairs, _ = solve_window(sys_, (400.0, 2800.0))
        mode = pairs[0]
        e5 = est.estimate_mode(omega1_n2, sys_.spaces, mode, mats,
                               quad_degree=5)[0]
        e8 = est.estimate_mode(omega1_n2, sys_.spaces, mode, mats,
                               quad_degree=8)[0]
        assert abs(e5 - e8) <= 1e-6 * e8
