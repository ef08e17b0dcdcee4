from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from elastoacoustic import assembly
from elastoacoustic import elements as el
from elastoacoustic import meshing as msh
from elastoacoustic import study
from elastoacoustic.assembly import (BlockSystem, MaterialField,
                                     build_block_system)
from elastoacoustic import eigensolve
from elastoacoustic.eigensolve import (EigenSolveError, SpectrumReport,
                                       count_below, dense_oracle,
                                       filter_modes, solve_pencil)
from elastoacoustic.study import StudyError, solve_window


class TestSolvePencil:
    # every solve returns the n_modes eigenpairs just above sigma
    def test_diagonal_pencil(self):
        sys_ = BlockSystem.from_matrices(np.diag([2.0, 3.0]), np.eye(2))
        rep = solve_pencil(sys_, sigma=0.0, n_modes=2)
        assert_allclose(rep.kappas, [2.0, 3.0], rtol=1e-12)

    def test_constrained_pencil(self):
        # C = [1, -1] enforces x1 = x2: Rayleigh quotient on (1, 1)
        sys_ = BlockSystem.from_matrices(np.diag([1.0, 3.0]), np.eye(2),
                                         [[1.0, -1.0]])
        rep = solve_pencil(sys_, sigma=0.0, n_modes=1)
        p = rep.pairs[0]
        assert p.kappa == pytest.approx(2.0, rel=1e-12)
        assert_allclose(p.x / p.x[0], [1.0, 1.0], rtol=1e-10)

    def test_modes_sorted_strictly_increasing(self, coupled_system_th):
        rep = solve_pencil(coupled_system_th, sigma=4e6, n_modes=8)
        kappas = rep.kappas
        assert (np.diff(kappas) > 0).all()

    def test_constraint_satisfied(self, coupled_system_th):
        rep = solve_pencil(coupled_system_th, sigma=4e6, n_modes=6)
        C = coupled_system_th.C
        for p in rep.pairs:
            assert np.linalg.norm(C @ p.x) <= 1e-10 * np.linalg.norm(p.x)

    def test_b_normalization(self, coupled_system_th):
        rep = solve_pencil(coupled_system_th, sigma=4e6, n_modes=4)
        B = coupled_system_th.B
        for p in rep.pairs:
            assert p.x @ (B @ p.x) == pytest.approx(1.0, rel=1e-8)

    def test_realness(self, coupled_system_th):
        rep = solve_pencil(coupled_system_th, sigma=4e6, n_modes=6)
        assert rep.kappas.dtype.kind == "f"

    def test_invalid_mode_count(self, coupled_system_th):
        with pytest.raises(EigenSolveError):
            solve_pencil(coupled_system_th, sigma=4e6, n_modes=0)

    def test_shift_invariance(self, coupled_system_th):
        r1 = solve_pencil(coupled_system_th, sigma=3.0e6, n_modes=6)
        r2 = solve_pencil(coupled_system_th, sigma=5.0e6, n_modes=6)
        k1 = [p.kappa for p in r1.pairs if p.residual < 1e-9]
        overlap = []
        for ka in k1:
            for p in r2.pairs:
                if abs(p.kappa - ka) < 1e-6 * abs(ka) \
                        and p.residual < 1e-9:
                    overlap.append((ka, p.kappa))
        assert len(overlap) >= 3
        for ka, kb in overlap:
            assert kb == pytest.approx(ka, rel=1e-8)

    def test_work_counts(self, coupled_system_th, omega1_n2, materials,
                         monkeypatch):
        rep = solve_pencil(coupled_system_th, sigma=4e6, n_modes=2)
        assert rep.factorizations == 1
        assert rep.lu_nnz > 0 and rep.inverse_applications > 0

        # a window's report adds up the work of its runs
        rungs = []

        def recorded(*args, **kw):
            rungs.append(solve_pencil(*args, **kw))
            return rungs[-1]

        monkeypatch.setattr(study, "solve_pencil", recorded)
        pairs, rep = solve_window(coupled_system_th, (400.0, 2800.0))
        assert rep.rungs == len(rungs) >= 1
        assert rep.window_count == len(pairs) == 4
        # at nu < 1/2 one factorization for the count at k_hi and one
        # for each run, whose factor also gives the count at its shift
        assert rep.shifts == (400.0 ** 2,) and rep.asked == (4,)
        assert sum(r.factorizations for r in rungs) == 0
        assert rep.factorizations == 1 + len(rungs)
        assert rep.inverse_applications == \
            sum(r.inverse_applications for r in rungs)
        assert rep.lu_nnz == max(r.lu_nnz for r in rungs)
        assert not rep.dense_fallback and not rep.partial

        # at nu = 1/2 the count at k_hi also makes the ordering that
        # every factor of the system is made in
        half = build_block_system(omega1_n2, "taylor-hood",
                                  replace(materials, nu=0.5))
        rungs.clear()
        _, rep = solve_window(half, (400.0, 2800.0))
        assert sum(r.factorizations for r in rungs) == 0
        assert rep.factorizations == 2 + len(rungs)

    @pytest.mark.parametrize("family", ["mini", "taylor-hood"])
    def test_above_matches_oracle(self, omega1_n1, materials, family):
        # the n_modes eigenvalues just above the shift, the kappa = 0
        # kernel and the sloshing modes below it left out
        sys_ = build_block_system(omega1_n1, family, materials)
        for sigma, k in ((400.0 ** 2, 6), (3000.0 ** 2, 3)):
            oracle = dense_oracle(sys_, sigma)
            rep = solve_pencil(sys_, sigma=sigma, n_modes=k)
            assert rep.notes == ()
            assert_allclose(rep.kappas, oracle[oracle > sigma][:k],
                            rtol=1e-9)

    def test_above_dense_fallback(self):
        sys_ = BlockSystem.from_matrices(np.diag([1.0, 2.0, 3.0, 4.0]),
                                         np.eye(4))
        rep = solve_pencil(sys_, sigma=2.5, n_modes=3)
        assert rep.notes == ("dense fallback",) and rep.dense_fallback
        assert_allclose(rep.kappas, [3.0, 4.0], rtol=1e-12)
        rep = solve_pencil(sys_, sigma=1.5, n_modes=1)
        assert_allclose(rep.kappas, [2.0], rtol=1e-12)

    def test_non_finite_inverse_raises(self, omega1_n1, materials):
        # a factor whose solve returns NaN stops the run at once, within
        # the dense oracle's size too; the dense path serves only systems
        # too small for the run
        sys_ = build_block_system(omega1_n1, "taylor-hood", materials)
        assert sys_.n <= assembly.ORACLE_CAP
        factor = eigensolve.ShiftFactor(sys_, 400.0 ** 2)
        factor.solve = lambda x: np.full_like(x, np.nan)
        with pytest.raises(EigenSolveError,
                           match="shift 1.600000e\\+05: the inverse is "
                                 "not finite"):
            solve_pencil(sys_, sigma=400.0 ** 2, n_modes=2, factor=factor)

    def test_unconverged_run_is_partial(self, omega1_n1, materials):
        # an inverse with relative errors of 1e-3 keeps every Ritz
        # estimate far above the tolerance: the run stops once it has
        # applied the inverse as often as the reduced pencil has
        # unknowns and returns what converged, flagged partial
        sys_ = build_block_system(omega1_n1, "taylor-hood", materials)
        factor = eigensolve.ShiftFactor(sys_, 400.0 ** 2)
        exact, noise = factor.solve, np.random.default_rng(3)
        factor.solve = lambda x: exact(x) * (
            1.0 + 1e-3 * noise.standard_normal(len(x)))
        rep = solve_pencil(sys_, sigma=400.0 ** 2, n_modes=4, factor=factor)
        assert rep.partial and not rep.dense_fallback
        assert len(rep.pairs) < 4
        assert rep.notes == (f"lanczos converged only {len(rep.pairs)}/4 "
                             "pairs",)
        assert rep.inverse_applications == sys_.basis.shape[1]

    def test_invariant_krylov_space_stops_the_run(self):
        # a B of rank 3 leaves 3 finite eigenvalues: the Krylov space is
        # invariant after 3 steps, and a run asking for 4 pairs returns
        # those 3, flagged partial
        n = 100
        b = np.zeros(n)
        b[[10, 40, 70]] = 1.0
        sys_ = BlockSystem.from_matrices(np.diag(np.arange(1.0, n + 1.0)),
                                         np.diag(b))
        rep = solve_pencil(sys_, sigma=0.5, n_modes=4)
        assert rep.partial and not rep.dense_fallback
        assert_allclose(rep.kappas, [11.0, 41.0, 71.0], rtol=1e-12)
        assert rep.inverse_applications == 4

    def test_window_run_inverse_applications(self, coupled_system_th):
        # the first window of the benchmark ladder: one run of at most 30
        # inverse applications
        pairs, rep = solve_window(coupled_system_th, (400.0, 2800.0))
        assert len(pairs) == 4 and rep.rungs == 1
        assert rep.inverse_applications <= 30

    @pytest.mark.parametrize("family", ["mini", "taylor-hood"])
    @pytest.mark.parametrize("nu", [0.35, 0.5])
    def test_pairs_match_oracle_at_every_nu(self, omega1_n1, materials,
                                            family, nu):
        sys_ = build_block_system(omega1_n1, family,
                                  replace(materials, nu=nu))
        sigma = 400.0 ** 2
        oracle = dense_oracle(sys_, sigma)
        rep = solve_pencil(sys_, sigma=sigma, n_modes=6)
        assert not rep.dense_fallback and not rep.partial
        assert_allclose(rep.kappas, oracle[oracle > sigma][:6], rtol=1e-10)
        assert max(p.residual for p in rep.pairs) <= 1e-10

    @pytest.mark.parametrize("family", ["mini", "taylor-hood"])
    @pytest.mark.parametrize("nu", [0.35, 0.5])
    def test_restarted_run_matches_oracle(self, omega1_n1, materials,
                                          family, nu):
        # 40 pairs from the lower end of a wide window take more inverse
        # applications than the basis holds, so the run restarts, and
        # its pairs are still the oracle's
        sys_ = build_block_system(omega1_n1, family,
                                  replace(materials, nu=nu))
        sigma, k = 150.0 ** 2, 40
        oracle = dense_oracle(sys_, sigma)
        rep = solve_pencil(sys_, sigma=sigma, n_modes=k)
        assert rep.inverse_applications > \
            eigensolve._krylov_dim(sys_.basis.shape[1], k)
        assert len(rep.pairs) == k and not rep.partial
        assert_allclose(rep.kappas, oracle[oracle > sigma][:k], rtol=1e-9)
        assert max(p.residual for p in rep.pairs) <= 1e-9

    def test_failed_factorization_raises(self):
        # sigma exactly on an eigenvalue makes the shifted operator
        # singular, on the dense path (n = 4) as on the Lanczos path
        for n in (4, 100):
            sys_ = BlockSystem.from_matrices(
                np.diag(np.arange(1.0, n + 1.0)), np.eye(n))
            with pytest.raises(EigenSolveError,
                               match="factorization at shift "
                                     "2.000000e\\+00"):
                solve_pencil(sys_, sigma=2.0, n_modes=2)


class TestOracle:
    def test_identity_pencil(self):
        sys_ = BlockSystem.from_matrices(np.eye(5), np.eye(5))
        assert_allclose(dense_oracle(sys_, 0.0), np.ones(5), rtol=1e-13)

    def test_singular_mass_drops_infinite_eigenvalues(self):
        # B-null directions produce no finite pencil eigenvalues
        A = np.diag([2.0, 3.0, -4.0, -5.0])
        B = np.diag([1.0, 1.0, 0.0, 0.0])
        vals = dense_oracle(BlockSystem.from_matrices(A, B), 0.0)
        assert len(vals) == 2
        assert_allclose(vals, [2.0, 3.0], rtol=1e-12)

    def test_constrained_pressure_count(self):
        # C removes dof 2, and the zero pressure block, as at nu = 1/2,
        # couples dof 3 to x0 + x1: that forces x0 = -x1, so of the two
        # B-positive directions left one is finite (kappa = 2.5) and one
        # infinite
        A = np.array([[2.0, 0.0, 0.0, 1.0], [0.0, 3.0, 0.0, 1.0],
                      [0.0, 0.0, 4.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
        B = np.diag([1.0, 1.0, 1.0, 0.0])
        vals = dense_oracle(BlockSystem.from_matrices(
            A, B, [[0.0, 0.0, 1.0, 0.0]]), 0.0)
        assert len(vals) == 1
        assert vals[0] == pytest.approx(2.5, rel=1e-12)

        # with C = [1, 1, 0] on three dofs the pressure dof couples to
        # nothing left, so A - sigma B is singular at every sigma: a
        # singular pencil raises rather than return an empty spectrum
        A = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 1.0], [1.0, 1.0, 0.0]])
        sys_ = BlockSystem.from_matrices(A, np.diag([1.0, 1.0, 0.0]),
                                         [[1.0, 1.0, 0.0]])
        for sigma in (0.0, 1.0):
            with pytest.raises(EigenSolveError,
                               match="dense factorization at shift"):
                dense_oracle(sys_, sigma)

    def test_size_cap(self):
        n = 2100
        import scipy.sparse as sp
        sys_ = BlockSystem.from_matrices(sp.identity(n), sp.identity(n))
        with pytest.raises(EigenSolveError):
            dense_oracle(sys_, 0.0)

    @pytest.mark.parametrize("family", ["mini", "taylor-hood"])
    @pytest.mark.parametrize("nu", [0.35, 0.49, 0.499, 0.5])
    def test_oracle_equivalence(self, omega1_n1, family, nu):
        # every pair of a window matches a dense oracle eigenvalue, and
        # every oracle eigenvalue in the window is found
        mats = MaterialField(nu=nu)
        sys_ = build_block_system(omega1_n1, family, mats)
        assert sys_.n <= 2000
        oracle = dense_oracle(sys_, 1.0)
        # the kernel cluster sits at zero to solver precision while the
        # physical branch starts with the gravity modes around 30 1/s^2
        assert ((oracle > 0.1) & (oracle < 25.0)).sum() == 0

        # gravity (sloshing) branch, shift-inverted at the window's lower
        # end like the run; the window's count at kappa = 1 lies above
        # the kernel
        gravity = oracle[(oracle >= 1.0) & (oracle <= 14.0 ** 2)]
        pairs, _ = solve_window(sys_, (1.0, 14.0))
        assert len(gravity) >= 6
        assert len(pairs) == len(gravity)
        assert_allclose([p.kappa for p in pairs], gravity, rtol=1e-8)

        # elasto-acoustic branch
        elastic = dense_oracle(sys_, 150.0 ** 2)
        elastic = elastic[elastic > 150.0 ** 2]
        pairs, _ = solve_window(sys_, (150.0, 6000.0))
        assert len(pairs) >= 3
        hit = set()
        for p in pairs[:6]:
            idx = int(np.argmin(np.abs(elastic - p.kappa)))
            assert p.kappa == pytest.approx(elastic[idx], rel=1e-8)
            hit.add(idx)
        assert hit == set(range(len(pairs[:6])))


class TestInertiaCount:
    @pytest.mark.parametrize("family", ["mini", "taylor-hood"])
    @pytest.mark.parametrize("nu", [0.35, 0.49, 0.499, 0.5])
    def test_counts_match_oracle(self, omega1_n1, family, nu):
        # the last interval holds the fluid's kappa = 0 curl kernel
        sys_ = build_block_system(omega1_n1, family, MaterialField(nu=nu))
        for k_lo, k_hi in ((150.0 ** 2, 12000.0 ** 2),
                           (400.0 ** 2, 2800.0 ** 2), (-1.0, 1.0)):
            oracle = dense_oracle(sys_, k_lo)
            count = count_below(sys_, k_hi) - count_below(sys_, k_lo)
            assert count == ((oracle >= k_lo) & (oracle < k_hi)).sum()
        assert count == 225

    @pytest.mark.parametrize("family", ["mini", "taylor-hood"])
    def test_incompressible_counts_are_pivot_free(self, omega1_n2, materials,
                                                  family, monkeypatch):
        # the zero pressure diagonal makes the minimum degree
        # factorization pivot off the diagonal; the reordered one that
        # is counted does not.  The ordering depends on the pattern
        # alone, so only the first count of the system makes it.
        sys_ = build_block_system(omega1_n2, family,
                                  replace(materials, nu=0.5))
        factored = []
        splu = eigensolve.spla.splu

        def recorded(M, **kw):
            lu = splu(M, **kw)
            factored.append((kw["permc_spec"], lu.perm_r.copy(),
                             lu.perm_c.copy()))
            return lu

        monkeypatch.setattr(eigensolve.spla, "splu", recorded)
        for i, sigma in enumerate((150.0 ** 2, 400.0 ** 2, 2800.0 ** 2,
                                   12000.0 ** 2)):
            work = {}
            count_below(sys_, sigma, work)
            assert work["factorizations"] == (2 if i == 0 else 1)
        assert [f[0] for f in factored] == \
            ["MMD_AT_PLUS_A"] + ["NATURAL"] * 4
        for spec, perm_r, perm_c in factored:
            pivot_free = np.array_equal(perm_r, perm_c)
            assert pivot_free == (spec == "NATURAL")

    def test_later_factors_reuse_the_first_ordering(self, omega1_n2,
                                                     materials, monkeypatch):
        # at nu < 1/2 the first factor of a system is its minimum degree
        # factorization; every later one is made in natural order on the
        # operator permuted into that ordering, with the count and the
        # fill of a minimum degree factorization at its own shift
        def system():
            return build_block_system(omega1_n2, "taylor-hood", materials)

        sys_ = system()
        factored = []
        splu = eigensolve.spla.splu

        def recorded(M, **kw):
            factored.append(kw["permc_spec"])
            return splu(M, **kw)

        monkeypatch.setattr(eigensolve.spla, "splu", recorded)
        sigmas = (150.0 ** 2, 400.0 ** 2, 2800.0 ** 2)
        factors = [eigensolve.ShiftFactor(sys_, sigma) for sigma in sigmas]
        assert factored == ["MMD_AT_PLUS_A"] + ["NATURAL"] * 2
        assert factors[0].order is None
        assert all(f.order is factors[1].order for f in factors[1:])
        x = np.random.default_rng(7).standard_normal(sys_.basis.shape[1])
        for sigma, factor in zip(sigmas[1:], factors[1:]):
            alone = eigensolve.ShiftFactor(system(), sigma)
            assert alone.order is None
            assert factor.count() == alone.count()
            assert factor.nnz == alone.nnz
            assert_allclose(factor.solve(x), alone.solve(x), rtol=1e-9,
                            atol=1e-9 * np.abs(alone.solve(x)).max())

    @pytest.mark.parametrize("nu", [0.35, 0.5])
    def test_factor_matches_explicit_operator(self, omega1_n2, materials,
                                              nu):
        # the factor of W^T A W - sigma W^T B W formed from an explicit
        # basis counts, fills and solves exactly as ShiftFactor does; at
        # nu = 1/2 both take the delayed ordering
        sys_ = build_block_system(omega1_n2, "taylor-hood",
                                  replace(materials, nu=nu))
        sigma = 400.0 ** 2
        W = assembly.nullspace_basis(sys_)
        d = assembly.equilibration(sys_)
        W = (sp.diags(d) @ W).tocsr()
        A = (W.T @ sys_.A @ W).tocsc()
        B = (W.T @ sys_.B @ W).tocsc()
        M = (A - sigma * B).tocsc()
        M.eliminate_zeros()
        zero = M.diagonal() == 0.0
        order = np.arange(M.shape[0])
        if nu == 0.5:
            assert zero.any()
            first = eigensolve._ldl(M, "MMD_AT_PLUS_A", sigma, None)
            order = eigensolve._delay_zero_diagonal(
                M, np.argsort(first.perm_c), zero)
            lu = eigensolve._ldl(M[order][:, order].tocsc(), "NATURAL",
                                 sigma, None)
        else:
            assert not zero.any()
            lu = eigensolve._ldl(M, "MMD_AT_PLUS_A", sigma, None)
        factor = eigensolve.ShiftFactor(sys_, sigma)
        x = np.random.default_rng(7).standard_normal(M.shape[0])
        y = np.empty_like(x)
        y[order] = lu.solve(x[order])
        assert np.array_equal(factor.solve(x), y)
        assert factor.nnz == lu.nnz
        assert factor.count() == (lu.U.diagonal() < 0.0).sum()

    def test_off_diagonal_pivot_raises(self):
        # a zero diagonal with no nonzero-diagonal neighbour to fill it
        A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        sys_ = BlockSystem.from_matrices(A, np.eye(3))
        with pytest.raises(EigenSolveError, match="off the diagonal"):
            count_below(sys_, 0.0)
        assert count_below(sys_, 0.5) == 1
        assert count_below(sys_, 1.5) == 2

    def test_singular_shift_raises(self, coupled_system_th):
        # kappa = 0 is the fluid's curl kernel
        with pytest.raises(EigenSolveError, match="inertia count"):
            count_below(coupled_system_th, 0.0)


class TestFilterModes:
    def _pair(self, kappa, n=4):
        from elastoacoustic.eigensolve import EigenPair
        return EigenPair(kappa, float(np.sqrt(max(kappa, 0))),
                         np.zeros(1), np.zeros(1), np.zeros(1),
                         np.zeros(n), 1e-12)

    def test_threshold_example(self):
        rep = SpectrumReport(2, (self._pair(1e-14), self._pair(1.96e5)),
                             shift=1e5)
        out = filter_modes(rep)
        assert out.n_kernel == 1
        assert len(out.pairs) == 1
        assert out.pairs[0].omega == pytest.approx(np.sqrt(1.96e5))
        assert out.pairs[0].omega == pytest.approx(442.7, rel=1e-3)

    def test_solid_only_nothing_filtered(self, materials):
        mesh = msh.build_cavity_mesh(msh.unit_square_solid(), 2)
        sys_ = build_block_system(mesh, "taylor-hood", materials)
        rep = solve_pencil(sys_, sigma=1e7, n_modes=6)
        out = filter_modes(rep)
        assert out.n_kernel == 0
        assert len(out.pairs) == 6

    def test_all_filtered_is_explicit(self):
        rep = SpectrumReport(2, (self._pair(1e-16), self._pair(3e-15)),
                             shift=1.0)
        out = filter_modes(rep)
        assert len(out.pairs) == 0
        assert out.n_kernel == 2
        assert any("empty" in n for n in out.notes)

    def test_fluid_only_kernel_dimension(self, materials):
        # kernel count equals #dofs minus the rank of the stacked
        # divergence + boundary trace operator
        mesh = msh.build_cavity_mesh(msh.unit_square_fluid(), 2)
        sys_ = build_block_system(mesh, "mini", materials)
        wmap = sys_.spaces.w_map
        lay = sys_.layout

        # constrain w.n = 0 on every boundary edge: those moments are
        # plain dofs, so the trace rows are unit vectors
        import scipy.sparse as sp
        bnd = mesh.edges_with_tag(msh.GAMMA_0)
        sel = np.isin(wmap.entity_id, bnd)
        rows = np.arange(sel.sum())
        cols = np.flatnonzero(sel) + lay.off_w
        C = sp.coo_matrix((np.ones(len(rows)), (rows, cols)),
                          shape=(len(rows), lay.n_full)).tocsr()
        C = C[:, lay.free]
        sys2 = BlockSystem(sys_.A, sys_.B, C, lay, sys_.spaces, None)
        vals = dense_oracle(sys2, -1.0)
        n_kernel = int((np.abs(vals) < 1e-6).sum())

        # independent rank computation: divergence matrix plus traces
        coeff, geo = el.bdm_cell_coefficients(mesh, wmap)
        divs = coeff @ np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        D = np.zeros((len(wmap.tris), wmap.ndof))
        for t in range(len(wmap.tris)):
            D[t, wmap.cell2dof[t]] = divs[t] * geo.area[t]
        T = np.zeros((sel.sum(), wmap.ndof))
        T[np.arange(sel.sum()), np.flatnonzero(sel)] = 1.0
        op = np.vstack([D, T])
        rank = np.linalg.matrix_rank(op, tol=1e-10)
        assert n_kernel == wmap.ndof - rank


class TestWindowedDrivers:
    def test_window_selection(self, coupled_system_th):
        pairs, rep = solve_window(coupled_system_th, (400.0, 2800.0))
        omegas = np.array([p.omega for p in pairs])
        assert (omegas > 400).all() and (omegas < 2800).all()
        assert (np.diff(omegas) > 0).all()
        assert len(pairs) == 4

    def test_window_content_seed_invariant(self, coupled_system_th):
        # the Lanczos start vector changes the rungs, not the window content
        p1, _ = solve_window(coupled_system_th, (400.0, 2800.0),
                             seed=20260808)
        p2, _ = solve_window(coupled_system_th, (400.0, 2800.0), seed=1)
        k1 = np.array([p.kappa for p in p1])
        k2 = np.array([p.kappa for p in p2])
        assert len(k1) == len(k2)
        assert_allclose(k1, k2, rtol=1e-9)

    @pytest.mark.parametrize("family", ["mini", "taylor-hood"])
    def test_wide_window_matches_oracle(self, omega1_n1, materials, family):
        # a window holding 44 (MINI) or 46 (Taylor-Hood) eigenvalues is
        # covered to the last one
        sys_ = build_block_system(omega1_n1, family, materials)
        k_lo, k_hi = 150.0 ** 2, 30000.0 ** 2
        oracle = dense_oracle(sys_, k_lo)
        oracle = oracle[(oracle >= k_lo) & (oracle <= k_hi)]
        pairs, _ = solve_window(sys_, (150.0, 30000.0))
        assert len(pairs) == len(oracle)
        assert_allclose([p.kappa for p in pairs], oracle, rtol=1e-8)

    def test_window_from_zero_raises(self, coupled_system_th):
        with pytest.raises(StudyError, match="invalid frequency window"):
            solve_window(coupled_system_th, (0.0, 2800.0))
        with pytest.raises(StudyError, match="invalid frequency window"):
            solve_window(coupled_system_th, (-1.0, 2800.0))

    def test_missed_pair_raises(self, coupled_system_th, monkeypatch):
        # a run that silently skips one in-window eigenvalue, as a Krylov
        # solve can skip a member of a close pair, still reaches past the
        # window's upper end; the inertia count catches the missing pair
        pairs, _ = solve_window(coupled_system_th, (400.0, 2800.0))
        missed = pairs[1].kappa

        def skips_one(system, sigma, n_modes, **kw):
            rep = solve_pencil(system, sigma=sigma, n_modes=n_modes + 1,
                               **kw)
            kept = [p for p in rep.pairs
                    if abs(p.kappa - missed) > 1e-6 * missed]
            kept = sorted(kept, key=lambda p: abs(p.kappa - sigma))
            kept = sorted(kept[:n_modes], key=lambda p: p.kappa)
            return replace(rep, requested=n_modes, pairs=tuple(kept))

        monkeypatch.setattr(study, "solve_pencil", skips_one)
        with pytest.raises(StudyError,
                           match="puts 4 eigenvalues .* closed with 3 found"):
            solve_window(coupled_system_th, (400.0, 2800.0))

    def test_open_gap_raises(self, coupled_system_th, monkeypatch):
        # a run that converges nothing adds no pair, and the window
        # raises instead of running again at the same shift
        calls = []

        def nothing_converges(system, sigma, n_modes, **kw):
            calls.append((sigma, n_modes))
            return SpectrumReport(n_modes, (), sigma,
                                  notes=("lanczos converged only 0/4 pairs",),
                                  partial=True)

        monkeypatch.setattr(study, "solve_pencil", nothing_converges)
        with pytest.raises(StudyError, match="adds no pair .* 0 of 4 found"):
            solve_window(coupled_system_th, (400.0, 2800.0))
        assert calls == [(400.0 ** 2, 4)]

    def test_failed_top_pair_climbs(self, coupled_system_th, monkeypatch):
        # the top pair of the first run fails its residual test, so a
        # second run at the midpoint between it and the highest kept
        # pair asks for the one pair left
        pairs, _ = solve_window(coupled_system_th, (400.0, 2800.0))
        runs = []

        def top_fails(*args, **kw):
            rep = solve_pencil(*args, **kw)
            runs.append((kw["sigma"], kw["n_modes"]))
            if len(runs) == 1:
                top = replace(rep.pairs[-1], residual=1e-3)
                rep = replace(rep, pairs=rep.pairs[:-1] + (top,))
            return rep

        monkeypatch.setattr(study, "solve_pencil", top_fails)
        again, rep = solve_window(coupled_system_th, (400.0, 2800.0))
        middle = 0.5 * (pairs[2].kappa + pairs[3].kappa)
        assert [n for _, n in runs] == [4, 1]
        assert runs[0][0] == 400.0 ** 2
        assert runs[1][0] == pytest.approx(middle, rel=1e-9)
        assert rep.rungs == 2
        assert rep.shifts == tuple(sigma for sigma, _ in runs)
        assert rep.max_residual <= study.RESIDUAL_TOL
        assert_allclose([p.kappa for p in again],
                        [p.kappa for p in pairs], rtol=1e-9)

    def test_partial_first_run_keeps_every_pair(self, coupled_system_th,
                                                monkeypatch):
        # the first run converges only its lowest pair; the midpoint from
        # it to k_hi lies above kappa_2, and the count there moves the
        # shift down toward kappa_1 until no pair is missing below it
        pairs, _ = solve_window(coupled_system_th, (400.0, 2800.0))
        runs = []

        def partial_first(*args, **kw):
            rep = solve_pencil(*args, **kw)
            runs.append(kw["sigma"])
            if len(runs) == 1:
                rep = replace(rep, pairs=rep.pairs[:1], partial=True, notes=(
                    f"lanczos converged only 1/{kw['n_modes']} pairs",))
            return rep

        monkeypatch.setattr(study, "solve_pencil", partial_first)
        again, rep = solve_window(coupled_system_th, (400.0, 2800.0))
        assert_allclose([p.kappa for p in again],
                        [p.kappa for p in pairs], rtol=1e-9)
        assert len(runs) == 2
        assert pairs[0].kappa < runs[1] < pairs[1].kappa

    def test_missing_pair_below_kept_raises(self, coupled_system_th,
                                            monkeypatch):
        # a partial run that skips kappa_2 but keeps kappa_3: no shift
        # above kappa_3 certifies the slice below it, and the shift stops
        # moving down once it is within RESIDUAL_TOL of kappa_3
        pairs, _ = solve_window(coupled_system_th, (400.0, 2800.0))
        calls = []

        def skips_second(*args, **kw):
            rep = solve_pencil(*args, **kw)
            calls.append(kw["sigma"])
            return replace(rep, pairs=(rep.pairs[0], rep.pairs[2]))

        monkeypatch.setattr(study, "solve_pencil", skips_second)
        with pytest.raises(StudyError, match="misses a pair just above"):
            solve_window(coupled_system_th, (400.0, 2800.0))
        assert len(calls) == 1

    @pytest.mark.parametrize("expect", [1, 8])
    def test_wrong_guess_same_window(self, coupled_system_th, expect):
        # a short guess runs again on the factor held at k_lo and a long
        # one drops the pairs above k_hi; neither factors again
        exact, ref = solve_window(coupled_system_th, (400.0, 2800.0),
                                  expect=4)
        pairs, rep = solve_window(coupled_system_th, (400.0, 2800.0),
                                  expect=expect)
        assert_allclose([p.kappa for p in pairs],
                        [p.kappa for p in exact], rtol=1e-9)
        assert rep.factorizations == ref.factorizations == 2
        assert rep.asked == ((1, 4) if expect == 1 else (8,))
        assert rep.shifts == (400.0 ** 2,) * len(rep.asked)

    @pytest.mark.parametrize("family", ["mini", "taylor-hood"])
    @pytest.mark.parametrize("nu", [0.35, 0.5])
    def test_count_after_run_matches_oracle(self, omega1_n1, family, nu):
        # the inertia read from a run's factor after the run counts the
        # window as the dense spectrum does
        sys_ = build_block_system(omega1_n1, family, MaterialField(nu=nu))
        for w_lo, w_hi in ((150.0, 12000.0), (400.0, 2800.0)):
            k_lo, k_hi = w_lo ** 2, w_hi ** 2
            oracle = dense_oracle(sys_, k_lo)
            factor = eigensolve.ShiftFactor(sys_, k_lo)
            run = solve_pencil(sys_, k_lo, n_modes=4, factor=factor)
            assert not run.dense_fallback and len(run.pairs) == 4
            count = count_below(sys_, k_hi) - factor.count()
            assert count == ((oracle >= k_lo) & (oracle < k_hi)).sum()

    @pytest.mark.parametrize("family", ["mini", "taylor-hood"])
    @pytest.mark.parametrize("nu", [0.35, 0.49, 0.499, 0.5])
    def test_multiple_eigenvalue_window(self, omega1_n1, materials, family,
                                        nu):
        # the window holds a 7-fold cluster at kappa ~ 235.2 (spread
        # 7e-6 to 8e-5 in kappa), and every member is kept
        sys_ = build_block_system(omega1_n1, family,
                                  replace(materials, nu=nu))
        k_lo, k_hi = 1.0, 150.0 ** 2
        oracle = dense_oracle(sys_, k_lo)
        oracle = oracle[(oracle >= k_lo) & (oracle <= k_hi)]
        pairs, rep = solve_window(sys_, (1.0, 150.0))
        assert len(pairs) == rep.window_count == len(oracle) == 15
        assert_allclose([p.kappa for p in pairs], oracle, rtol=1e-8)

    def test_duplicate_pair_raises(self, coupled_system_th, monkeypatch):
        # a run that returns a second copy of mode 2 in place of mode 4,
        # at a kappa 5e-8 relative above it and with an honest residual
        # of 2.5e-8, meets the count of 4; the B-Gram matrix of the
        # window's vectors shows the copy
        runs = []

        def duplicates_one(*args, **kw):
            rep = solve_pencil(*args, **kw)
            runs.append(rep)
            if len(runs) == 1:
                p = rep.pairs
                copy = eigensolve._make_pair(
                    coupled_system_th, p[1].kappa * (1 + 5e-8), p[1].x)
                assert copy.residual <= study.RESIDUAL_TOL
                rep = replace(rep, pairs=p[:2] + (copy,) + p[2:-1])
            return rep

        monkeypatch.setattr(study, "solve_pencil", duplicates_one)
        with pytest.raises(StudyError, match="not B-orthogonal"):
            solve_window(coupled_system_th, (400.0, 2800.0))
        assert len(runs) == 1

    def test_rung_count_seed_invariant(self, materials, monkeypatch):
        # one run from the window's lower end finds the whole window,
        # whatever the Lanczos start vector
        mesh = msh.build_cavity_mesh(msh.omega2(), 2)
        sys_ = build_block_system(mesh, "taylor-hood",
                                  replace(materials, nu=0.49))
        counts = []
        for seed in (1, 20260808):
            calls = []

            def counted(*args, **kw):
                calls.append(kw["n_modes"])
                return solve_pencil(*args, **kw)

            monkeypatch.setattr(study, "solve_pencil", counted)
            solve_window(sys_, (400.0, 2800.0), seed=seed)
            counts.append(len(calls))
        assert counts == [1, 1]

    @pytest.mark.parametrize("family", ["mini", "taylor-hood"])
    @pytest.mark.parametrize("nu", [0.35, 0.49, 0.499, 0.5])
    def test_low_end_rungs_do_not_stall(self, omega1_n2, materials,
                                        monkeypatch, family, nu):
        # a run at the window's lower end, with the kappa ~ 0 kernel and
        # sloshing cluster just below it, converges fully in a bounded
        # number of inverse applications (147-164 on these windows)
        sys_ = build_block_system(omega1_n2, family,
                                  replace(materials, nu=nu))
        runs = []

        def counted(*args, **kw):
            runs.append(solve_pencil(*args, **kw))
            return runs[-1]

        monkeypatch.setattr(study, "solve_pencil", counted)
        pairs, rep = solve_window(sys_, (150.0, 12000.0))
        assert len(pairs) == rep.window_count
        assert 1 <= len(runs) <= 2
        assert all(len(r.pairs) == r.requested for r in runs)
        assert not any("converged only" in n for r in runs for n in r.notes)
        assert rep.inverse_applications <= 300

    def test_basis_built_once(self, materials, monkeypatch):
        # every run and factor of a system shares its basis W, and no
        # reduced matrix W^T A W or W^T B W stays on the system
        mesh = msh.build_cavity_mesh(msh.omega2(), 2)
        sys_ = build_block_system(mesh, "taylor-hood",
                                  replace(materials, nu=0.49))
        builds, rungs = [], []
        basis = assembly.nullspace_basis
        solve = study.solve_pencil

        def counted_basis(system):
            builds.append(system)
            return basis(system)

        def counted_solve(*args, **kw):
            rungs.append(kw["n_modes"])
            return solve(*args, **kw)

        monkeypatch.setattr(assembly, "nullspace_basis", counted_basis)
        monkeypatch.setattr(study, "solve_pencil", counted_solve)
        solve_window(sys_, (400.0, 2800.0))
        solve_window(sys_, (150.0, 400.0))
        assert len(rungs) == 2
        assert len(builds) == 1 and builds[0] is sys_
        sparse = {name for name, value in vars(sys_).items()
                  if sp.issparse(value)}
        assert sparse == {"A", "B", "C", "basis"}


class TestSpectrumCsv:
    def test_csv_columns(self, coupled_system_th):
        rep = solve_pencil(coupled_system_th, sigma=4e6, n_modes=3)
        text = rep.to_csv()
        header = text.splitlines()[0].split(",")
        assert header == ["mode_index", "kappa", "omega", "residual",
                          "kernel_flag"]
        assert len(text.splitlines()) == 4
