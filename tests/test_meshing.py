import numpy as np
import pytest

from elastoacoustic import elements as el
from elastoacoustic import meshing as msh
from elastoacoustic.meshing import (SOLID, FLUID, GAMMA_D, GAMMA_N,
                                    GAMMA_0, INTERFACE, INTERIOR,
                                    MeshError)


class TestBuild:
    def test_unit_square_minimal(self, unit_square_mesh):
        m = unit_square_mesh
        assert m.num_triangles == 2
        assert m.num_vertices == 4
        boundary = (m.edge_tris[:, 1] < 0).sum()
        assert boundary == 4
        assert msh.validate(m).ok

    def test_omega1_all_tags_present(self, omega1_n2):
        m = omega1_n2
        assert msh.validate(m).ok
        for tag in (GAMMA_D, GAMMA_N, GAMMA_0, INTERFACE, INTERIOR):
            assert len(m.edges_with_tag(tag)) > 0

    def test_omega2_fluid_reentrant_corner(self):
        m = msh.build_cavity_mesh(msh.omega2(), 10)
        # total fluid angle at each vertex; the step corner carries 3 pi/2
        fluid = m.subdomain_tris(FLUID)
        angles = np.zeros(m.num_vertices)
        for t in fluid:
            tri = m.triangles[t]
            p = m.vertices[tri]
            for i in range(3):
                a = p[(i + 1) % 3] - p[i]
                b = p[(i + 2) % 3] - p[i]
                cosang = a @ b / np.linalg.norm(a) / np.linalg.norm(b)
                angles[tri[i]] += np.arccos(np.clip(cosang, -1, 1))
        corner = np.flatnonzero(np.isclose(angles, 1.5 * np.pi,
                                           atol=1e-9))
        assert len(corner) >= 1
        expected = np.array([0.5, 0.5])
        dists = np.linalg.norm(m.vertices[corner] - expected, axis=1)
        assert dists.min() < 1e-12

    def test_mesh_size_tracks_level(self):
        # commensurate wall/cavity sizes give exact halving per level
        spec = msh.omega1(wall=0.25)
        m2 = msh.build_cavity_mesh(spec, 2)
        m4 = msh.build_cavity_mesh(spec, 4)
        assert np.isclose(m2.tri_diameters().max(),
                          2 * m4.tri_diameters().max())
        # shortest geometry edge (the wall) split into N mesh edges
        h_leg = spec.shortest_edge() / 4
        legs = m4.edge_frames()[3]
        assert np.isclose(legs.min(), h_leg)
        # incommensurate default still tracks the level approximately
        spec = msh.omega1()
        m2 = msh.build_cavity_mesh(spec, 2)
        m4 = msh.build_cavity_mesh(spec, 4)
        assert m2.tri_diameters().max() == pytest.approx(
            2 * m4.tri_diameters().max(), rel=0.1)
        assert m4.edge_frames()[3].min() == pytest.approx(
            spec.shortest_edge() / 4, rel=0.05)

    def test_subdomain_areas(self, omega2_n4):
        m = omega2_n4
        spec = msh.omega2()
        box = (spec.xs[-1] - spec.xs[0]) * (spec.ys[-1] - spec.ys[0])
        a_s = m.areas(m.subdomain_tris(SOLID)).sum()
        a_f = m.areas(m.subdomain_tris(FLUID)).sum()
        assert np.isclose(a_f, 0.75)
        assert np.isclose(a_s, box - 0.75)

    def test_interface_edges_shared_by_submeshes(self, omega1_n2):
        m = omega1_n2
        solid_edges = set()
        fluid_edges = set()
        for t in range(m.num_triangles):
            pool = solid_edges if m.tri_tag[t] == SOLID else fluid_edges
            tri = m.triangles[t]
            for i in range(3):
                a, b = sorted((tri[(i + 1) % 3], tri[(i + 2) % 3]))
                pool.add((a, b))
        shared = solid_edges & fluid_edges
        interface = {tuple(sorted(e)) for e in
                     m.edges[m.edges_with_tag(INTERFACE)].tolist()}
        assert shared == interface

    def test_invalid_inputs(self):
        with pytest.raises(MeshError):
            msh.build_cavity_mesh(msh.omega1(), 0)
        with pytest.raises(MeshError):
            msh.omega1(wall=-0.1)
        with pytest.raises(MeshError):
            msh.omega2(step=1.5)
        with pytest.raises(MeshError):
            msh.GeometrySpec("bad", (0.0, 1.0), (0.0, 1.0),
                             ((msh.EMPTY,),))

    @pytest.mark.parametrize("wall_height", [None, 1.3])
    @pytest.mark.parametrize("clamp", ["sides", "bottom", "outer"])
    def test_clamp_rules_and_freeboard(self, clamp, wall_height):
        wall, width, height = 0.13, 1.0, 1.0
        m = msh.build_cavity_mesh(
            msh.omega1(width, height, wall, wall_height, clamp), 4)
        (ax, ay), (bx, by) = (m.vertices[m.edges[:, k]].T for k in (0, 1))
        one_sided = m.edge_tris[:, 1] < 0
        side = m.tri_tag[m.edge_tris[:, 0]]
        solid_boundary = one_sided & (side == SOLID)
        # Gamma_D is exactly the solid boundary on the rule's lines
        on_line = {
            "bottom": (ay == -wall) & (by == -wall),
            "sides": (ax == bx) & np.isin(ax, (-wall, width + wall)),
            "outer": np.ones(m.num_edges, dtype=bool),
        }[clamp]
        assert solid_boundary.any()
        np.testing.assert_array_equal(m.edge_tag == GAMMA_D,
                                      solid_boundary & on_line)
        np.testing.assert_array_equal(m.edge_tag == GAMMA_N,
                                      solid_boundary & ~on_line)
        # the fluid's top edges are the free surface, with or without a
        # dry freeboard above it
        top = (ay == height) & (by == height) & (ax >= 0) & (bx <= width)
        assert top.any()
        np.testing.assert_array_equal(m.edge_tag == GAMMA_0, top)
        np.testing.assert_array_equal(one_sided & (side == FLUID), top)
        # the inner wall faces above the free surface face the empty block
        facing = ((ax == bx) & np.isin(ax, (0.0, width))
                  & (ay >= height) & (by >= height))
        assert facing.any() == (wall_height is not None)
        assert np.all(m.edge_tag[facing]
                      == (GAMMA_D if clamp == "outer" else GAMMA_N))


class TestBisect:
    def test_single_mark_with_closure(self, unit_square_mesh):
        out = msh.bisect(unit_square_mesh, [0])
        # the shared diagonal is the refinement edge of both triangles
        assert out.num_triangles == 4
        assert msh.validate(out).ok
        assert unit_square_mesh.parent is None
        # the closure splits the neighbor across the shared diagonal
        assert set(out.parent.tolist()) == {0, 1}
        assert not out.parent.flags.writeable

    def test_uniform_bisection_halves_areas(self, omega1_n2):
        m = omega1_n2
        out = msh.bisect(m, range(m.num_triangles))
        assert out.num_triangles == 2 * m.num_triangles
        assert np.allclose(np.sort(out.areas()),
                           np.sort(np.repeat(m.areas(), 2) / 2))
        assert (np.bincount(out.parent) == 2).all()
        assert np.allclose(out.areas(), m.areas(out.parent) / 2)

    def test_subdomain_area_preserved_exactly(self, omega2_n4):
        m = omega2_n4
        rng = np.random.default_rng(3)
        marked = rng.choice(m.num_triangles, size=40, replace=False)
        out = msh.bisect(m, marked)
        for tag in (SOLID, FLUID):
            before = m.areas(m.subdomain_tris(tag)).sum()
            after = out.areas(out.subdomain_tris(tag)).sum()
            assert after == pytest.approx(before, abs=1e-14)
        # the parent map: ids in range, tags inherited, areas partitioned
        assert out.parent.min() >= 0
        assert out.parent.max() < m.num_triangles
        assert np.array_equal(out.tri_tag, m.tri_tag[out.parent])
        child_area = np.bincount(out.parent, weights=out.areas(),
                                 minlength=m.num_triangles)
        assert np.allclose(child_area, m.areas(), rtol=1e-13, atol=0.0)

    def test_interface_refinement_keeps_conformity(self, omega1_n2):
        # two passes over interface-adjacent triangles halve every
        # interface edge: the first splits the diagonals, the second the
        # interface legs themselves
        m = omega1_n2
        lengths0 = np.sort(m.edge_frames(m.edges_with_tag(INTERFACE))[3])
        for _ in range(2):
            adj = m.edge_tris[m.edges_with_tag(INTERFACE)]
            marked = np.unique(adj[adj >= 0])
            m = msh.bisect(m, marked)
            assert msh.validate(m).ok
        lengths1 = np.sort(m.edge_frames(m.edges_with_tag(INTERFACE))[3])
        assert len(lengths1) == 2 * len(lengths0)
        assert np.allclose(np.repeat(lengths0, 2) / 2, lengths1)

    def test_deterministic(self, omega1_n2):
        rng = np.random.default_rng(7)
        marked = rng.choice(omega1_n2.num_triangles, size=25,
                            replace=False)
        a = msh.bisect(omega1_n2, marked)
        b = msh.bisect(omega1_n2, marked)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)
        assert np.array_equal(a.edge_tag, b.edge_tag)
        assert np.array_equal(a.parent, b.parent)
        # the order of the marked ids and repeated ids do not matter
        shuffled = np.concatenate([rng.permutation(marked), marked[:5]])
        c = msh.bisect(omega1_n2, shuffled.tolist())
        for name in ("vertices", "triangles", "tri_refedge", "edge_tag",
                     "parent"):
            assert np.array_equal(getattr(a, name), getattr(c, name))

    def test_children_inside_parent(self, unit_square_mesh, omega2_n4):
        out = msh.bisect(unit_square_mesh, [0])
        # all child vertices lie in the closed unit square
        assert out.vertices.min() >= -1e-15
        assert out.vertices.max() <= 1 + 1e-15
        # every child centroid lies strictly inside its parent
        marked = np.random.default_rng(5).choice(omega2_n4.num_triangles,
                                                 size=60, replace=False)
        for m, out in ((unit_square_mesh, out),
                       (omega2_n4, msh.bisect(omega2_n4, marked))):
            geo = el.tri_geometry(m, out.parent)
            bary = el.barycentric(geo, out.tri_coords().mean(axis=1)[:, None])
            assert bary.min() > 0.0

    def test_bad_ids_raise(self, unit_square_mesh):
        with pytest.raises(MeshError):
            msh.bisect(unit_square_mesh, [99])

    def test_repeated_bisection_stays_shape_regular(self, omega1_n2):
        m = omega1_n2
        rng = np.random.default_rng(11)
        for _ in range(6):
            marked = rng.choice(m.num_triangles,
                                size=max(4, m.num_triangles // 10),
                                replace=False)
            out = msh.bisect(m, marked)
            # closure on a bisected mesh splits children again; each
            # descendant still maps to its ancestor in the input mesh
            child_area = np.bincount(out.parent, weights=out.areas(),
                                     minlength=m.num_triangles)
            assert np.allclose(child_area, m.areas(), rtol=1e-13, atol=0.0)
            # marked triangles are split; one with one child is unchanged
            counts = np.bincount(out.parent, minlength=m.num_triangles)
            assert (counts[marked] >= 2).all()
            same = np.flatnonzero(counts[out.parent] == 1)
            old = out.parent[same]
            assert np.array_equal(out.tri_coords(same), m.tri_coords(old))
            k = np.arange(len(same))
            assert np.array_equal(
                out.tri_coords(same)[k, out.tri_refedge[same]],
                m.tri_coords(old)[k, m.tri_refedge[old]])
            m = out
        assert msh.validate(m).ok
        p = m.tri_coords()
        l0 = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
        l1 = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
        l2 = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
        hmax = np.maximum(l0, np.maximum(l1, l2))
        ratio = 2 * m.areas() / (hmax ** 2)
        # newest-vertex bisection cycles within finitely many shapes
        assert ratio.min() > 0.15


class TestValidate:
    def test_pass_on_good_mesh(self, unit_square_mesh):
        assert msh.validate(unit_square_mesh).ok

    def test_orientation_failure(self, unit_square_mesh):
        m = unit_square_mesh
        tris = m.triangles.copy()
        tris[0] = tris[0][[0, 2, 1]]
        bad = msh.Mesh(m.vertices.copy(), tris, m.tri_tag.copy())
        report = msh.validate(bad)
        assert not report.ok
        assert any("orientation" in name for name, _ in report.failures())

    def test_tag_subdomain_mismatch(self):
        # a fluid triangle with a Gamma_D edge must fail
        verts = [(0, 0), (1, 0), (0, 1)]
        tris = [(0, 1, 2)]
        bad = msh.Mesh(np.array(verts, float), np.array(tris),
                       np.array([FLUID]),
                       edge_tags={(0, 1): GAMMA_D, (1, 2): GAMMA_0,
                                  (0, 2): GAMMA_0})
        report = msh.validate(bad)
        assert not report.ok
        assert any("gamma_d" in name for name, _ in report.failures())

    def test_edge_tag_keys(self, unit_square_mesh):
        # a tag key may list its vertices in either order; a pair that is
        # not an edge raises
        m = unit_square_mesh
        tagged = msh.Mesh(m.vertices, m.triangles, m.tri_tag, m.tri_refedge,
                          edge_tags={(1, 0): GAMMA_0})
        edge = np.flatnonzero((tagged.edges == (0, 1)).all(axis=1))
        assert tagged.edge_tag[edge].tolist() == [GAMMA_0]
        assert np.count_nonzero(tagged.edge_tag) == 1
        with pytest.raises(MeshError, match="not an edge"):
            msh.Mesh(m.vertices, m.triangles, m.tri_tag, m.tri_refedge,
                     edge_tags={(1, 2): GAMMA_D})
        # two keys naming one edge must agree on its tag
        for tags in ({(0, 1): GAMMA_D, (1, 0): GAMMA_N},
                     {(1, 0): GAMMA_N, (0, 1): GAMMA_D}):
            with pytest.raises(MeshError, match="conflicting tags"):
                msh.Mesh(m.vertices, m.triangles, m.tri_tag, m.tri_refedge,
                         edge_tags=tags)
        same = msh.Mesh(m.vertices, m.triangles, m.tri_tag, m.tri_refedge,
                        edge_tags={(0, 1): GAMMA_D, (1, 0): GAMMA_D})
        assert same.edge_tag[edge].tolist() == [GAMMA_D]

    def test_report_is_printable(self, omega1_n2):
        text = str(msh.validate(omega1_n2))
        assert "orientation" in text


class TestIO:
    def test_native_round_trip(self, omega1_n2, tmp_path):
        path = tmp_path / "mesh.txt"
        msh.write_mesh(omega1_n2, path)
        back = msh.read_mesh(path)
        assert np.array_equal(back.vertices, omega1_n2.vertices)
        assert np.array_equal(back.triangles, omega1_n2.triangles)
        assert np.array_equal(back.tri_tag, omega1_n2.tri_tag)
        assert np.array_equal(back.edge_tag, omega1_n2.edge_tag)
        assert np.array_equal(back.tri_refedge, omega1_n2.tri_refedge)
        assert back.parent is None
