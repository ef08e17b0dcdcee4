from dataclasses import replace

import numpy as np
import pytest
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
        # one factorization for each of the two counts at nu < 1/2 and
        # one for each run
        assert sum(r.factorizations for r in rungs) == len(rungs)
        assert rep.factorizations == 2 + len(rungs)
        assert rep.inverse_applications == \
            sum(r.inverse_applications for r in rungs)
        assert rep.lu_nnz == max(r.lu_nnz for r in rungs)

        # at nu = 1/2 the first count also makes the ordering that both
        # counts factor in
        half = build_block_system(omega1_n2, "taylor-hood",
                                  replace(materials, nu=0.5))
        rungs.clear()
        _, rep = solve_window(half, (400.0, 2800.0))
        assert sum(r.factorizations for r in rungs) == len(rungs)
        assert rep.factorizations == 3 + len(rungs)

    @pytest.mark.parametrize("family", ["mini", "taylor-hood"])
    def test_above_matches_oracle(self, omega1_n1, materials, family):
        # the n_modes eigenvalues just above the shift, the kappa = 0
        # kernel and the sloshing modes below it left out
        sys_ = build_block_system(omega1_n1, family, materials)
        oracle = dense_oracle(sys_)
        for sigma, k in ((400.0 ** 2, 6), (3000.0 ** 2, 3)):
            rep = solve_pencil(sys_, sigma=sigma, n_modes=k)
            assert rep.notes == ()
            assert_allclose(rep.kappas, oracle[oracle > sigma][:k],
                            rtol=1e-9)

    def test_above_dense_fallback(self):
        sys_ = BlockSystem.from_matrices(np.diag([1.0, 2.0, 3.0, 4.0]),
                                         np.eye(4))
        rep = solve_pencil(sys_, sigma=2.0, n_modes=3)
        assert rep.notes == ("dense fallback",)
        assert_allclose(rep.kappas, [3.0, 4.0], rtol=1e-12)
        rep = solve_pencil(sys_, sigma=1.5, n_modes=1)
        assert_allclose(rep.kappas, [2.0], rtol=1e-12)

    def test_failed_factorization_raises(self):
        # sigma exactly on an eigenvalue makes the shifted operator
        # singular; the system is large enough for the Lanczos path
        sys_ = BlockSystem.from_matrices(np.diag(np.arange(1.0, 101.0)),
                                         np.eye(100))
        with pytest.raises(EigenSolveError,
                           match="factorization at shift 2.000000e\\+00"):
            solve_pencil(sys_, sigma=2.0, n_modes=2)


class TestOracle:
    def test_identity_pencil(self):
        sys_ = BlockSystem.from_matrices(np.eye(5), np.eye(5))
        assert_allclose(dense_oracle(sys_), np.ones(5), rtol=1e-13)

    def test_singular_mass_drops_infinite_eigenvalues(self):
        # B-null directions produce no finite pencil eigenvalues
        A = np.diag([2.0, 3.0, -4.0, -5.0])
        B = np.diag([1.0, 1.0, 0.0, 0.0])
        vals = dense_oracle(BlockSystem.from_matrices(A, B))
        assert len(vals) == 2
        assert_allclose(vals, [2.0, 3.0], rtol=1e-12)

    def test_constrained_pressure_count(self):
        # with C killing one of the B-null dofs, the finite count stays
        # the rank of the B-positive block
        A = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 1.0], [1.0, 1.0, 0.0]])
        B = np.diag([1.0, 1.0, 0.0])
        vals = dense_oracle(BlockSystem.from_matrices(A, B,
                                                      [[1.0, 1.0, 0.0]]))
        assert len(vals) == 1
        assert vals[0] == pytest.approx(2.5, rel=1e-12)

    def test_size_cap(self):
        n = 2100
        import scipy.sparse as sp
        sys_ = BlockSystem.from_matrices(sp.identity(n), sp.identity(n))
        with pytest.raises(EigenSolveError):
            dense_oracle(sys_)

    @pytest.mark.parametrize("family", ["mini", "taylor-hood"])
    @pytest.mark.parametrize("nu", [0.35, 0.49, 0.499, 0.5])
    def test_oracle_equivalence(self, omega1_n1, family, nu):
        # every pair of a window matches a dense oracle eigenvalue, and
        # every oracle eigenvalue in the window is found
        mats = MaterialField(nu=nu)
        sys_ = build_block_system(omega1_n1, family, mats)
        assert sys_.n <= 2000
        oracle = dense_oracle(sys_)
        # the kernel cluster sits at zero to solver precision while the
        # physical branch starts with the gravity modes around 30 1/s^2
        assert ((oracle > 0.1) & (oracle < 25.0)).sum() == 0
        phys = oracle[oracle > 1.0]

        # gravity (sloshing) branch: kappa ~ 30 against a stiffness norm
        # of ~1e10 puts the double-precision floor of either method near
        # eps |A| / kappa ~ 1e-8, so the two paths agree to 5e-8 there;
        # the window's count at kappa = 1 lies above the kernel
        gravity = oracle[(oracle >= 1.0) & (oracle <= 14.0 ** 2)]
        pairs, _ = solve_window(sys_, (1.0, 14.0))
        assert len(gravity) >= 6
        assert len(pairs) == len(gravity)
        assert_allclose([p.kappa for p in pairs], gravity, rtol=5e-8)

        # elasto-acoustic branch: full 1e-8 agreement
        elastic = phys[phys > 1e4]
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
        sys_ = build_block_system(omega1_n1, family, MaterialField(nu=nu))
        oracle = dense_oracle(sys_)
        for w_lo, w_hi in ((150.0, 12000.0), (400.0, 2800.0)):
            k_lo, k_hi = w_lo ** 2, w_hi ** 2
            count = count_below(sys_, k_hi) - count_below(sys_, k_lo)
            assert count == ((oracle >= k_lo) & (oracle < k_hi)).sum()

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
        vals = dense_oracle(sys2)
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
        oracle = dense_oracle(sys_)
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
                                  notes=("arpack converged only 0 pairs",))

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

    @pytest.mark.xfail(strict=True, raises=StudyError, reason=(
        "solve_window merges the members of a multiple eigenvalue: the "
        "run returns all 7 members of the cluster at kappa ~ 235.2 "
        "(spread 7e-6 to 8e-5 in kappa), but pairs closer than "
        "SAME_KAPPA = 1e-8 relative are kept as one, so the count of 15 "
        "closes with 12"))
    @pytest.mark.parametrize("family", ["mini", "taylor-hood"])
    def test_multiple_eigenvalue_window(self, omega1_n1, materials, family):
        sys_ = build_block_system(omega1_n1, family, materials)
        k_lo, k_hi = 1.0, 150.0 ** 2
        oracle = dense_oracle(sys_)
        oracle = oracle[(oracle >= k_lo) & (oracle <= k_hi)]
        pairs, _ = solve_window(sys_, (1.0, 150.0))
        assert len(pairs) == len(oracle)
        assert_allclose([p.kappa for p in pairs], oracle, rtol=5e-8)

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
        # number of inverse applications (139-158 on these windows)
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

    def test_pencil_built_once(self, materials, monkeypatch):
        # every run of a window shares the system's reduced pencil
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
        assert len(rungs) == 1
        assert len(builds) == 1 and builds[0] is sys_
        assert sys_.pencil is sys_.pencil
        assert len(builds) == 1


class TestSpectrumCsv:
    def test_csv_columns(self, coupled_system_th):
        rep = solve_pencil(coupled_system_th, sigma=4e6, n_modes=3)
        text = rep.to_csv()
        header = text.splitlines()[0].split(",")
        assert header == ["mode_index", "kappa", "omega", "residual",
                          "kernel_flag"]
        assert len(text.splitlines()) == 4
