import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastoacoustic import elements as el
from elastoacoustic import meshing as msh
from elastoacoustic.assembly import build_block_system, build_spaces
from elastoacoustic.estimator import estimate_mode
from elastoacoustic.study import solve_window
from elastoacoustic.vtkio import (cell_data_from_mode, export_fields,
                                  point_data_from_mode)


def reference_vtk(mesh, spaces, mode, indicators):
    """The export written one value at a time with f"{x:.17g}"."""
    u_pts, p_pts = point_data_from_mode(mesh, spaces, mode)
    w_cells = cell_data_from_mode(mesh, spaces, mode)
    nv, nt = mesh.num_vertices, mesh.num_triangles
    lines = ["# vtk DataFile Version 3.0",
             f"coupled vibration mode omega={mode.omega:.10g}",
             "ASCII", "DATASET UNSTRUCTURED_GRID", f"POINTS {nv} double"]
    lines += [f"{x:.17g} {y:.17g} 0" for x, y in mesh.vertices]
    lines.append(f"CELLS {nt} {4 * nt}")
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    lines.append(f"CELL_TYPES {nt}")
    lines += ["5"] * nt
    lines += [f"POINT_DATA {nv}", "VECTORS solid_displacement double"]
    lines += [f"{ux:.17g} {uy:.17g} 0" for ux, uy in u_pts]
    lines += ["SCALARS solid_pressure double 1", "LOOKUP_TABLE default"]
    lines += [f"{p:.17g}" for p in p_pts]
    lines += [f"CELL_DATA {nt}", "VECTORS fluid_displacement double"]
    lines += [f"{wx:.17g} {wy:.17g} 0" for wx, wy in w_cells]
    lines += ["SCALARS subdomain int 1", "LOOKUP_TABLE default"]
    lines += [str(int(t)) for t in mesh.tri_tag]
    lines += ["SCALARS eta2 double 1", "LOOKUP_TABLE default"]
    lines += [f"{v:.17g}" for v in indicators.element_totals(mesh)]
    return ("\n".join(lines) + "\n").encode()


def parse_vtk(path):
    """Independent minimal reader for legacy ASCII unstructured grids."""
    with open(path) as f:
        tokens = f.read().split("\n")
    it = iter(tokens)
    assert next(it).startswith("# vtk DataFile")
    next(it)                      # title
    assert next(it) == "ASCII"
    assert next(it) == "DATASET UNSTRUCTURED_GRID"
    data = {"points": [], "cells": [], "point_data": {},
            "cell_data": {}}
    line = next(it)
    n_pts = int(line.split()[1])
    for _ in range(n_pts):
        data["points"].append([float(v) for v in next(it).split()])
    line = next(it)
    n_cells = int(line.split()[1])
    for _ in range(n_cells):
        parts = next(it).split()
        assert parts[0] == "3"
        data["cells"].append([int(v) for v in parts[1:]])
    assert next(it).startswith("CELL_TYPES")
    for _ in range(n_cells):
        assert next(it) == "5"
    section = None
    count = {"POINT_DATA": n_pts, "CELL_DATA": n_cells}
    for line in it:
        if not line:
            continue
        if line.startswith(("POINT_DATA", "CELL_DATA")):
            section = line.split()[0]
            continue
        if line.startswith("VECTORS"):
            name = line.split()[1]
            vals = [[float(v) for v in next(it).split()]
                    for _ in range(count[section])]
            tgt = "point_data" if section == "POINT_DATA" else "cell_data"
            data[tgt][name] = np.array(vals)
        elif line.startswith("SCALARS"):
            name = line.split()[1]
            assert next(it).startswith("LOOKUP_TABLE")
            vals = [float(next(it)) for _ in range(count[section])]
            tgt = "point_data" if section == "POINT_DATA" else "cell_data"
            data[tgt][name] = np.array(vals)
    data["points"] = np.array(data["points"])
    data["cells"] = np.array(data["cells"])
    return data


@pytest.fixture(scope="module")
def mode_setup(materials):
    mesh = msh.build_cavity_mesh(msh.omega1(), 1)
    sys_ = build_block_system(mesh, "taylor-hood", materials)
    pairs, _ = solve_window(sys_, (400.0, 2800.0))
    return mesh, sys_, pairs[0]


class TestVtkExport:
    def test_zero_mode_minimal_file(self, tmp_path, materials):
        mesh = msh.build_cavity_mesh(msh.unit_square_solid(), 1)
        spaces = build_spaces(mesh, "mini")
        from elastoacoustic.eigensolve import EigenPair
        lay = spaces.layout
        zero = EigenPair(0.0, 0.0, np.zeros(lay.n_u), np.zeros(lay.n_w),
                         np.zeros(lay.n_p),
                         np.zeros(lay.n_free), 0.0)
        path = tmp_path / "zero.vtk"
        export_fields(mesh, zero, path, spaces)
        data = parse_vtk(path)
        assert len(data["points"]) == 4
        assert len(data["cells"]) == 2
        assert np.all(data["point_data"]["solid_displacement"] == 0)
        assert np.all(data["cell_data"]["fluid_displacement"] == 0)

    def test_round_trip_exact(self, tmp_path, mode_setup):
        mesh, sys_, mode = mode_setup
        path = tmp_path / "mode.vtk"
        export_fields(mesh, mode, path, sys_.spaces)
        data = parse_vtk(path)
        u_pts, p_pts = point_data_from_mode(mesh, sys_.spaces, mode)
        w_cells = cell_data_from_mode(mesh, sys_.spaces, mode)
        assert_allclose(data["points"][:, :2], mesh.vertices, rtol=0,
                        atol=1e-12 * np.abs(mesh.vertices).max())
        assert_allclose(data["point_data"]["solid_displacement"][:, :2],
                        u_pts, rtol=1e-12)
        assert_allclose(data["point_data"]["solid_pressure"], p_pts,
                        rtol=1e-12)
        assert_allclose(data["cell_data"]["fluid_displacement"][:, :2],
                        w_cells, rtol=1e-12)
        assert np.array_equal(data["cells"], mesh.triangles)

    def test_indicator_field(self, tmp_path, mode_setup, materials):
        mesh, sys_, mode = mode_setup
        _, _, ind = estimate_mode(mesh, sys_.spaces, mode, materials)
        path = tmp_path / "ind.vtk"
        export_fields(mesh, mode, path, sys_.spaces, ind)
        data = parse_vtk(path)
        eta = data["cell_data"]["eta2"]
        assert_allclose(eta, ind.element_totals(mesh), rtol=1e-12)

    def test_bytes_match_reference_writer(self, tmp_path, mode_setup,
                                          materials):
        mesh, sys_, mode = mode_setup
        _, _, ind = estimate_mode(mesh, sys_.spaces, mode, materials)
        path = tmp_path / "m.vtk"
        export_fields(mesh, mode, path, sys_.spaces, ind)
        assert path.read_bytes() == reference_vtk(mesh, sys_.spaces, mode,
                                                  ind)

    def test_cell_average_matches_quadrature(self, mode_setup):
        # the centroid value of the linear BDM field is its average,
        # here against a degree-2 rule applied to the basis table
        mesh, sys_, mode = mode_setup
        wmap = sys_.spaces.w_map
        coeff, geo = sys_.spaces.bdm
        q = el.quadrature(2)
        cpts = el.physical_points(geo, q.points) - geo.centroid[:, None, :]
        vals, _ = el.bdm_eval(coeff, cpts)
        wq = np.einsum("tqjc,tj->tqc", vals, mode.w[wmap.cell2dof])
        average = 2.0 * np.einsum("q,tqc->tc", q.weights, wq)
        w_cells = cell_data_from_mode(mesh, sys_.spaces, mode)
        assert_allclose(w_cells[wmap.tris], average, rtol=0,
                        atol=1e-14 * np.abs(average).max())
        solid = np.setdiff1d(np.arange(mesh.num_triangles), wmap.tris)
        assert np.all(w_cells[solid] == 0.0)

    def test_subdomain_field(self, tmp_path, mode_setup):
        mesh, sys_, mode = mode_setup
        path = tmp_path / "m.vtk"
        export_fields(mesh, mode, path, sys_.spaces)
        data = parse_vtk(path)
        assert set(np.unique(data["cell_data"]["subdomain"])) == \
            {float(msh.SOLID), float(msh.FLUID)}
