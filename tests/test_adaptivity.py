import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from elastoacoustic import elements as el
from elastoacoustic import meshing as msh
from elastoacoustic.adaptivity import (AdaptivityError, AdaptiveHistory,
                                       adaptive_solve, effectivity,
                                       interpolate_mode, mark)
from elastoacoustic.assembly import build_block_system, build_spaces
from elastoacoustic.config import RunConfig
from elastoacoustic.eigensolve import EigenPair
from elastoacoustic.study import solve_window


class TestMark:
    def test_threshold_example(self):
        assert mark([4.0, 1.0, 2.5], 0.5).tolist() == [0, 2]

    def test_all_equal_marks_all(self):
        assert mark([2.0, 2.0, 2.0], 0.5).tolist() == [0, 1, 2]

    def test_theta_one_keeps_argmax_ties(self):
        assert mark([1.0, 3.0, 3.0], 1.0).tolist() == [1, 2]

    def test_argmax_always_marked(self):
        rng = np.random.default_rng(0)
        vals = rng.random(50)
        marked = mark(vals, 1.0)
        assert np.argmax(vals) in marked

    def test_invalid_inputs(self):
        with pytest.raises(AdaptivityError):
            mark([], 0.5)
        with pytest.raises(AdaptivityError):
            mark([1.0], 0.0)
        with pytest.raises(AdaptivityError):
            mark([1.0], 1.5)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                    max_size=40),
           st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=0.01, max_value=1.0))
    def test_monotone_in_theta(self, vals, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        m_hi = set(mark(vals, hi).tolist())
        m_lo = set(mark(vals, lo).tolist())
        assert m_hi <= m_lo


class TestEffectivity:
    def test_quotient(self):
        assert effectivity(2.0, 4.0) == 0.5

    def test_zero_error(self):
        assert effectivity(0.0, 4.0) == 0.0
        assert effectivity(0.0, 0.0) == 0.0

    def test_inconsistent_flagged(self):
        with pytest.raises(AdaptivityError):
            effectivity(1.0, 0.0)


class TestHistory:
    def test_dof_counts_must_increase(self):
        h = AdaptiveHistory("omega2", "mini", 0.35, 1)
        h.append(iteration=0, dofs=10, cells=4, omega=1.0, eta2=1.0,
                 theta2=0.0, err=None, eff=None, wall_time=0.1)
        with pytest.raises(AdaptivityError):
            h.append(iteration=1, dofs=10, cells=4, omega=1.0, eta2=1.0,
                     theta2=0.0, err=None, eff=None, wall_time=0.1)

    def test_csv_round_numbers(self):
        h = AdaptiveHistory("omega2", "mini", 0.35, 1)
        h.append(iteration=0, dofs=10, cells=4, omega=1.25, eta2=2.5,
                 theta2=0.0, err=0.5, eff=0.2, wall_time=0.1)
        text = h.to_csv()
        assert text.splitlines()[0].startswith("iteration,dofs,cells")
        assert "1.25" in text


def _linear_mode(mesh, spaces):
    """A mode made of a linear u and p (bubbles zero) and a constant w,
    each interpolated on the given spaces."""

    def nodes(dofmap):
        ids = dofmap.entity_id
        pts = np.zeros((dofmap.ndof, 2))
        on_vertex, on_edge = dofmap.entity == 0, dofmap.entity == 1
        pts[on_vertex] = mesh.vertices[ids[on_vertex]]
        pts[on_edge] = mesh.vertices[mesh.edges[ids[on_edge]]].mean(axis=1)
        return pts

    umap = spaces.u_map
    x = nodes(umap)
    u = np.where(umap.component == 0, 1.0 + 2.0 * x[:, 0] - x[:, 1],
                 0.5 - x[:, 0] + 3.0 * x[:, 1])
    u[umap.entity == 2] = 0.0
    x = nodes(spaces.p_map)
    p = 2.0 - 3.0 * x[:, 0] + x[:, 1]
    w = el.bdm_interpolate(mesh, lambda pts: np.tile([0.3, -0.7],
                                                     (len(pts), 1)))
    return EigenPair(1.0, 1.0, u, w, p, spaces.layout.gather(u, w, p), 0.0)


class TestInterpolation:
    @pytest.mark.parametrize("family", ["mini", "taylor-hood"])
    def test_linear_mode_reproduced_on_bisected_mesh(self, family):
        # refine a bisected mesh, so that the closure bisects children
        # again, as in the adaptive loop
        rng = np.random.default_rng(4)

        def refine(m):
            return msh.bisect(m, rng.choice(m.num_triangles,
                                            size=m.num_triangles // 3,
                                            replace=False))

        mesh = refine(msh.build_cavity_mesh(msh.omega1(), 2))
        fine = refine(mesh)
        old, new = build_spaces(mesh, family), build_spaces(fine, family)
        x = interpolate_mode(mesh, old, _linear_mode(mesh, old), fine, new)
        assert_allclose(x, _linear_mode(fine, new).x, rtol=0.0, atol=1e-12)

    def test_non_nested_meshes_raise(self):
        mesh = msh.build_cavity_mesh(msh.omega1(), 1)
        other = msh.build_cavity_mesh(msh.omega1(), 2)
        old = build_spaces(mesh, "mini")
        with pytest.raises(AdaptivityError, match="not nested"):
            interpolate_mode(mesh, old, _linear_mode(mesh, old), other,
                             build_spaces(other, "mini"))

    def test_mode_transfer_separates_doublet(self, materials):
        # the lowest two modes are the in-phase/anti-phase wall pair;
        # interpolated overlaps must identify each branch cleanly even
        # though the coarse frequencies shift a lot under refinement
        mesh = msh.build_cavity_mesh(msh.omega1(), 2)
        sys_ = build_block_system(mesh, "mini", materials)
        pairs, _ = solve_window(sys_, (400.0, 2800.0))
        fine = msh.bisect(mesh, range(mesh.num_triangles))
        sys_f = build_block_system(fine, "mini", materials)
        pairs_f, _ = solve_window(sys_f, (400.0, 2800.0))
        B = sys_f.B
        picks = []
        for mode in pairs[:2]:
            x = interpolate_mode(mesh, sys_.spaces, mode, fine,
                                 sys_f.spaces)
            xn = x / np.sqrt(x @ (B @ x))
            overlaps = np.array([abs(xn @ (B @ p.x)) for p in pairs_f])
            best = int(np.argmax(overlaps))
            assert overlaps[best] > 0.9
            runner_up = np.partition(overlaps, -2)[-2]
            assert overlaps[best] > 2.0 * runner_up
            picks.append(best)
        assert sorted(picks) == [0, 1]


class TestAdaptiveLoop:
    @pytest.fixture(scope="class")
    def small_history(self):
        cfg = RunConfig(geometry="omega2", family="mini",
                        initial_level=1, max_dofs=12000,
                        max_iterations=8, window=(400.0, 2800.0),
                        mode_index=1)
        return adaptive_solve(cfg)

    def test_dofs_increase(self, small_history):
        dofs = small_history.column("dofs")
        assert (np.diff(dofs) > 0).all()
        assert len(dofs) >= 3

    def test_estimator_decreases_overall(self, small_history):
        eta2 = small_history.column("eta2")
        assert eta2[-1] < eta2[0]

    def test_omega_stays_on_branch(self, small_history):
        # skip the very first (pre-asymptotic) iteration on the coarse
        # start mesh
        om = small_history.column("omega")[1:]
        assert np.abs(np.diff(om)).max() < 0.15 * om[0]

    def test_refinement_targets_singular_corners(self, materials):
        # late iterations concentrate marks near the re-entrant corner
        # and the clamping transition points
        cfg = RunConfig(geometry="omega2", family="mini",
                        initial_level=1, max_dofs=20000,
                        max_iterations=10, window=(400.0, 2800.0))
        from elastoacoustic.estimator import estimate_mode
        from elastoacoustic.meshing import build_cavity_mesh, bisect
        from elastoacoustic.adaptivity import mark as mark_op
        mesh = build_cavity_mesh(cfg.geometry_spec(), 1)
        mats = cfg.materials()
        singular = np.array([[0.5, 0.5],      # re-entrant corner
                             [-0.13, -0.13], [1.13, -0.13]])  # clamps
        frac = None
        for _ in range(8):
            sys_ = build_block_system(mesh, "mini", mats)
            pairs, _ = solve_window(sys_, cfg.window)
            _, _, ind = estimate_mode(mesh, sys_.spaces, pairs[0], mats)
            totals = ind.element_totals(mesh)
            marked = mark_op(np.sqrt(np.maximum(totals, 0)), 0.5)
            cent = mesh.tri_coords(marked).mean(axis=1)
            d = np.min(np.linalg.norm(cent[:, None, :]
                                      - singular[None, :, :], axis=2),
                       axis=1)
            frac = (d < 0.35).mean()
            if sys_.n > 15000:
                break
            mesh = bisect(mesh, marked)
        assert frac >= 0.5

    def test_uniform_indicators_refine_uniformly(self, unit_square_mesh):
        marked = mark(np.ones(unit_square_mesh.num_triangles), 0.5)
        out = msh.bisect(unit_square_mesh, marked)
        assert out.num_triangles == 2 * unit_square_mesh.num_triangles
