import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastoacoustic import elements as el
from elastoacoustic import meshing as msh
from elastoacoustic.assembly import (AssemblyError, MaterialField,
                                     assemble_interface, assemble_mass,
                                     assemble_stiffness,
                                     build_block_system, build_spaces,
                                     lame_from)
from elastoacoustic.eigensolve import dense_oracle


class TestLame:
    def test_paper_parameters(self):
        mats = MaterialField(E=1.44e11, nu=0.35)
        mu, il = lame_from(mats, (0.5, 0.5))
        assert mu == pytest.approx(1.44e11 / 2.7)
        assert il == pytest.approx(1.0 / 1.2444444444444444e11)

    def test_incompressible_limit(self):
        mats = MaterialField(E=1.0, nu=0.5)
        mu, il = lame_from(mats, (0.0, 0.0))
        assert mu == pytest.approx(1 / 3)
        assert il == 0.0

    def test_variable_young_modulus(self):
        mats = MaterialField(E=lambda x: 2.0 + x[:, 0], nu=0.25)
        mu, il = lame_from(mats, (1.0, 0.3))
        assert mu == pytest.approx(1.2)
        assert il == pytest.approx(5 / 6)

    @pytest.mark.parametrize("nu", [0.0, -0.1, 0.51])
    def test_invalid_poisson(self, nu):
        with pytest.raises(AssemblyError):
            MaterialField(nu=nu)


def _single_solid_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return msh.Mesh(verts, np.array([[0, 1, 2]]), np.array([msh.SOLID]),
                    edge_tags={(0, 1): msh.GAMMA_N, (1, 2): msh.GAMMA_N,
                               (0, 2): msh.GAMMA_N})


def _single_fluid_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return msh.Mesh(verts, np.array([[0, 1, 2]]), np.array([msh.FLUID]),
                    edge_tags={(0, 1): msh.GAMMA_0, (1, 2): msh.GAMMA_0,
                               (0, 2): msh.GAMMA_0})


class TestStiffness:
    def test_strain_energy_of_linear_field(self):
        # v = (x, 0) has the single strain entry eps_xx = 1, so
        # x^T A x = int 2 mu = area for mu = 1/2
        mesh = _single_solid_mesh()
        mats = MaterialField(E=1.25, nu=0.25)   # mu = 1/2
        spaces = build_spaces(mesh, "mini")
        A = assemble_stiffness(mesh, spaces, mats)
        x = np.zeros(spaces.layout.n_free)
        sel = (spaces.u_map.entity == 0) & (spaces.u_map.component == 0)
        for dof, vid in zip(np.flatnonzero(sel),
                            spaces.u_map.entity_id[sel]):
            x[dof] = mesh.vertices[vid, 0]
        assert x @ (A @ x) == pytest.approx(0.5, rel=1e-13)

    def test_rigid_translation_has_zero_energy(self):
        # eps of a translation vanishes, so the strain energy is zero on
        # an unclamped solid with p = 0
        mesh = _single_solid_mesh()
        mats = MaterialField(E=1.0, nu=0.3)
        sp = build_spaces(mesh, "mini")
        As = assemble_stiffness(mesh, sp, mats)
        xs = np.zeros(sp.layout.n_free)
        xs[0:6:2] = 1.0
        xs[1:6:2] = 1.0
        assert abs(xs @ (As @ xs)) <= 1e-14 * abs(As).max()

    def test_bdm_divdiv_matches_symbolic_oracle(self):
        sympy = pytest.importorskip("sympy")
        mesh = _single_fluid_triangle()
        mats = MaterialField(c=1.0, rho_f=1.0, g=1e-30)
        spaces = build_spaces(mesh, "mini")
        A = assemble_stiffness(mesh, spaces, mats).toarray()
        K = A[:6, :6]  # single fluid triangle: w block leads the layout

        # independent construction: solve the moment conditions
        # symbolically for the basis, then integrate div_i div_j
        x, y, t = sympy.symbols("x y t", real=True)
        mono = [(1, 0), (0, 1), (x, 0), (0, x), (y, 0), (0, y)]
        edges = [((1, 0), (0, 1)), ((0, 1), (0, 0)), ((0, 0), (1, 0))]
        # global convention: parameterize each edge from its lower to
        # higher vertex id and rotate the tangent clockwise
        verts = [(0, 0), (1, 0), (0, 1)]
        conn = [(1, 2), (2, 0), (0, 1)]
        rows = []
        for (va, vb) in conn:
            if va > vb:
                va, vb = vb, va
            pa = sympy.Matrix(verts[va])
            pb = sympy.Matrix(verts[vb])
            tang = pb - pa
            nrm = sympy.Matrix([tang[1], -tang[0]])
            nrm = nrm / sympy.sqrt(tang.dot(tang))
            pt = pa + t * tang
            for zeta in (sympy.Integer(1),
                         sympy.sqrt(3) * (2 * t - 1)):
                row = []
                for mx, my in mono:
                    vx = sympy.sympify(mx).subs({x: pt[0], y: pt[1]})
                    vy = sympy.sympify(my).subs({x: pt[0], y: pt[1]})
                    val = (vx * nrm[0] + vy * nrm[1]) * zeta
                    row.append(sympy.integrate(val, (t, 0, 1)))
                rows.append(row)
        M = sympy.Matrix(rows)
        C = M.inv().T  # basis coefficients, dual to the moments
        divs = []
        for j in range(6):
            div = C[j, 2] + C[j, 5]  # div of (x,0) and (0,y) monomials
            divs.append(div)
        area = sympy.Rational(1, 2)
        K_exact = np.array([[float(divs[i] * divs[j] * area)
                             for j in range(6)] for i in range(6)])
        # permute the symbolic local-edge ordering into the assembled
        # global dof numbering
        perm = spaces.w_map.cell2dof[0]
        P = np.zeros((6, 6))
        P[np.arange(6), perm] = 1.0
        assert_allclose(K, P.T @ K_exact @ P, atol=1e-13)

    def test_gamma0_term_only_on_surface_edges(self, omega1_n2,
                                               materials):
        spaces = build_spaces(omega1_n2, "mini")
        A1 = assemble_stiffness(omega1_n2, spaces, materials)
        mats0 = MaterialField(**{**materials.__dict__, "g": 1e-30})
        A0 = assemble_stiffness(omega1_n2, spaces, mats0)
        diff = (A1 - A0).tocoo()
        # the difference rows live on the fluid moment dofs of the
        # free-surface edges only
        lay = spaces.layout
        touched = np.unique(diff.row)
        su, sw, sp_ = lay.reduced_slices()
        assert (touched >= sw.start).all() and (touched < sw.stop).all()
        g0 = omega1_n2.edges_with_tag(msh.GAMMA_0)
        wmap = spaces.w_map
        sel = np.isin(wmap.entity_id, g0)
        allowed = np.flatnonzero(sel) + sw.start
        assert np.isin(touched, allowed).all()

    def test_exact_symmetry(self, coupled_system_th):
        A, B = coupled_system_th.A, coupled_system_th.B
        assert abs(A - A.T).max() == 0.0
        assert abs(B - B.T).max() == 0.0

    def test_incompressible_pressure_block_zero(self, omega1_n1):
        mats = MaterialField(nu=0.5)
        sys_ = build_block_system(omega1_n1, "taylor-hood", mats)
        su, sw, sp_ = sys_.layout.reduced_slices()
        assert abs(sys_.A[sp_, sp_]).max() == 0.0
        # the locking-free path still yields finite eigenvalues
        vals = dense_oracle(sys_)
        vals = vals[vals > 1e5]
        assert len(vals) > 0 and np.isfinite(vals).all()


class TestMass:
    def test_p1_element_mass_matrix(self):
        # textbook P1 mass on the unit-area reference triangle is
        # (1/12) [[2,1,1],[1,2,1],[1,1,2]] scaled by 2*area
        mesh = _single_solid_mesh()
        mats = MaterialField(E=1.0, nu=0.3, rho_s=1.0)
        spaces = build_spaces(mesh, "mini")
        B = assemble_mass(mesh, spaces, mats).toarray()
        Mx = B[0:6:2, 0:6:2]
        exact = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
        assert_allclose(Mx, exact, atol=1e-15)

    def test_pressure_block_identically_zero(self, coupled_system_th):
        lay = coupled_system_th.layout
        su, sw, sp_ = lay.reduced_slices()
        B = coupled_system_th.B
        assert B[sp_, :].nnz == 0
        assert B[:, sp_].nnz == 0

    @pytest.mark.parametrize("family", ["mini", "taylor-hood"])
    def test_total_mass(self, materials, family):
        # 1^T B 1 on one velocity component integrates rho_s over the
        # solid (C0 partition of unity; the MINI bubble is excluded)
        mesh = _single_solid_mesh()
        sp2 = build_spaces(mesh, family)
        B2 = assemble_mass(mesh, sp2, materials)
        e = np.zeros(sp2.layout.n_free)
        sel = (sp2.u_map.entity != 2) & (sp2.u_map.component == 0)
        e[np.flatnonzero(sel)] = 1.0
        assert e @ (B2 @ e) == pytest.approx(materials.rho_s * 0.5,
                                             rel=1e-12)

    def test_mass_positive_on_fluid_interpolant(self, omega1_n2,
                                                materials,
                                                coupled_system_th):
        lay = coupled_system_th.layout
        w = el.bdm_interpolate(omega1_n2,
                               lambda x: np.tile([1.0, 0.0],
                                                 (len(x), 1)))
        full = np.zeros(lay.n_full)
        full[lay.off_w:lay.off_p] = w
        x = full[lay.free]
        assert x @ (coupled_system_th.B @ x) > 0


class TestInterface:
    def test_matched_constant_fields_satisfy_constraint(self, omega1_n2,
                                                        materials):
        sys_ = build_block_system(omega1_n2, "mini", materials)
        lay = sys_.layout
        spaces = sys_.spaces
        full = np.zeros(lay.n_full)
        sel = (spaces.u_map.entity >= 0) & (spaces.u_map.component == 0)
        full[np.flatnonzero(sel)] = 1.0   # u = (1, 0) everywhere
        w = el.bdm_interpolate(omega1_n2,
                               lambda x: np.tile([1.0, 0.0],
                                                 (len(x), 1)))
        full[lay.off_w:lay.off_p] = w
        x = full[lay.free]
        assert np.abs(sys_.C @ x).max() < 1e-12

    def test_linear_trace_enforced_pointwise_for_mini(self, omega1_n2,
                                                      materials):
        # two moments determine a linear function: after eliminating the
        # fluid dofs, the fluid normal trace equals the solid one at
        # every edge point
        sys_ = build_block_system(omega1_n2, "mini", materials)
        from elastoacoustic.assembly import nullspace_basis
        lay = sys_.layout
        spaces = sys_.spaces
        rng = np.random.default_rng(5)
        y = rng.standard_normal(sys_.n - sys_.C.shape[0])
        Z = nullspace_basis(sys_)
        x = Z @ y
        assert np.abs(sys_.C @ x).max() < 1e-10 * np.abs(x).max()
        full = np.zeros(lay.n_full)
        full[lay.free] = x
        u = full[:lay.n_u]
        w = full[lay.off_w:lay.off_p]
        tq = np.linspace(0.05, 0.95, 7)
        zeta1 = np.sqrt(3.0) * (2 * tq - 1)
        wmap = spaces.w_map
        w_epos = {}
        sel = (wmap.entity == 1) & (wmap.component == 0)
        for dof, eid in zip(np.flatnonzero(sel), wmap.entity_id[sel]):
            w_epos[int(eid)] = int(dof)
        scale = np.abs(x).max()
        for e in omega1_n2.edges_with_tag(msh.INTERFACE):
            va, vb = (int(v) for v in omega1_n2.edges[e])
            pa, pb = omega1_n2.vertices[va], omega1_n2.vertices[vb]
            tang = pb - pa
            nrm = np.array([tang[1], -tang[0]])
            nrm /= np.linalg.norm(nrm)
            sa = spaces.u_vertex_dof[va]
            sb = spaces.u_vertex_dof[vb]
            un = ((1 - tq) * (u[2 * sa] * nrm[0] + u[2 * sa + 1] * nrm[1])
                  + tq * (u[2 * sb] * nrm[0] + u[2 * sb + 1] * nrm[1]))
            d0 = w_epos[int(e)]
            wn = w[d0] + w[d0 + 1] * zeta1
            assert np.abs(un - wn).max() < 1e-10 * max(scale, 1)

    def test_quadratic_trace_projection_residual(self):
        # Taylor-Hood normal trace t(1-t) against the two moments leaves
        # the L2 projection error onto linears: 1/sqrt(180)
        tq, wq = el.edge_gauss(6)
        zeta0 = np.ones_like(tq)
        zeta1 = np.sqrt(3.0) * (2 * tq - 1)
        f = tq * (1 - tq)
        m0 = (wq * f * zeta0).sum()
        m1 = (wq * f * zeta1).sum()
        resid2 = (wq * f * f).sum() - m0 ** 2 - m1 ** 2
        assert np.sqrt(resid2) == pytest.approx(1 / np.sqrt(180),
                                                rel=1e-12)

    def test_constraint_rows_have_full_rank(self, coupled_system_th):
        C = coupled_system_th.C.toarray()
        rank = np.linalg.matrix_rank(C)
        assert rank == C.shape[0]

    def test_rows_touch_only_interface_dofs(self, coupled_system_th,
                                            omega1_n2):
        C = coupled_system_th.C.tocoo()
        lay = coupled_system_th.layout
        spaces = coupled_system_th.spaces
        ifc = omega1_n2.edges_with_tag(msh.INTERFACE)
        ifc_verts = np.unique(omega1_n2.edges[ifc])
        ok_cols = set()
        umap = spaces.u_map
        sel = (umap.entity == 0) & np.isin(umap.entity_id, ifc_verts)
        ok_cols.update(np.flatnonzero(sel).tolist())
        sel = (umap.entity == 1) & np.isin(umap.entity_id, ifc)
        ok_cols.update(np.flatnonzero(sel).tolist())
        wmap = spaces.w_map
        sel = np.isin(wmap.entity_id, ifc)
        ok_cols.update((np.flatnonzero(sel) + lay.off_w).tolist())
        ok_reduced = {int(lay.pos[c]) for c in ok_cols}
        assert set(C.col.tolist()) <= ok_reduced


class TestScalingAndStability:
    def test_density_scaling(self, omega1_n1):
        # doubling both densities doubles the mass form; holding the
        # stiffness data (c^2 rho_f and g rho_f) fixed then halves every
        # eigenvalue of the pencil
        base = MaterialField()
        scaled = MaterialField(rho_s=2 * base.rho_s,
                               rho_f=2 * base.rho_f,
                               c=base.c / np.sqrt(2.0), g=base.g / 2.0)
        s1 = build_block_system(omega1_n1, "mini", base)
        s2 = build_block_system(omega1_n1, "mini", scaled)
        assert abs(s2.B - 2.0 * s1.B).max() < 1e-9 * abs(s1.B).max()
        assert abs(s2.A - s1.A).max() <= 1e-9 * abs(s1.A).max()
        v1 = dense_oracle(s1)
        v2 = dense_oracle(s2)
        sel1 = v1[v1 > 1e5]
        sel2 = v2[v2 > 0.5e5]
        assert_allclose(sel2[:4], sel1[:4] / 2.0, rtol=1e-8)
        # mode shapes are unchanged: the argmax dof of the first mode
        # survives the common density rescaling
        from elastoacoustic.eigensolve import solve_pencil
        p1 = solve_pencil(s1, sigma=0.999 * sel1[0], n_modes=1).pairs[0]
        p2 = solve_pencil(s2, sigma=0.999 * sel2[0], n_modes=1).pairs[0]
        assert np.argmax(np.abs(p1.x)) == np.argmax(np.abs(p2.x))

    def test_infsup_constant_does_not_degenerate(self, materials):
        # smallest singular value of the scaled divergence block on a
        # refinement family stays bounded away from zero
        betas = []
        for N in (1, 2, 4):
            mesh = msh.build_cavity_mesh(msh.unit_square_solid(), N)
            spaces = build_spaces(mesh, "taylor-hood")
            A = assemble_stiffness(mesh, spaces, materials).toarray()
            Bm = assemble_mass(mesh, spaces, materials).toarray()
            lay = spaces.layout
            su, sw, sp_ = lay.reduced_slices()
            G = A[sp_, su]            # pressure-velocity coupling
            K = A[su, su] + Bm[su, su]
            Mp = np.zeros((lay.n_p, lay.n_p))
            # pressure mass from the (scaled) stability estimate
            q = el.quadrature(2)
            geo = el.tri_geometry(mesh, spaces.p_map.tris)
            val, _ = el.scalar_tables(el.P1, geo, q.points)
            dv = q.weights[None, :] * geo.det[:, None]
            Mloc = np.einsum("tq,qa,qb->tab", dv, val, val)
            for t in range(len(spaces.p_map.tris)):
                dofs = spaces.p_map.cell2dof[t]
                Mp[np.ix_(dofs, dofs)] += Mloc[t]
            import scipy.linalg as la
            Kinv_G = la.solve(K, G.T, assume_a="pos")
            S = G @ Kinv_G
            vals = la.eigh(S, Mp, eigvals_only=True)
            # drop the constant-pressure direction of the fully clamped
            # problem
            betas.append(np.sqrt(max(vals[1], 0)) if vals[0] < 1e-10
                         else np.sqrt(vals[0]))
        betas = np.array(betas)
        assert betas.min() > 0
        assert betas[-1] >= 0.5 * betas[0]
