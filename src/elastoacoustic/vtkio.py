"""VTK legacy ASCII export of meshes and eigenmodes.

Point data: solid displacement (vectors, zero off the solid) and solid
pressure; cell data: cell-averaged fluid displacement and, optionally,
the per-element indicator totals.  Values are written with 17 significant
digits so a round trip is lossless.
"""

from __future__ import annotations

import numpy as np

from .assembly import Spaces
from .eigensolve import EigenPair
from .meshing import Mesh


def _rows(fmt: str, values: np.ndarray) -> str:
    """One line ``fmt`` per row of ``values``, formatted in one call.

    %-formatting of a float with %.17g gives the same text as
    f"{x:.17g}", so a round trip stays lossless.
    """
    values = np.asarray(values)
    return (fmt + "\n") * len(values) % tuple(values.ravel().tolist())


def point_data_from_mode(mesh: Mesh, spaces: Spaces, mode: EigenPair):
    """(u at vertices (nv, 2), p at vertices (nv,)) with zeros off the
    solid."""
    nv = mesh.num_vertices
    u_pts = np.zeros((nv, 2))
    p_pts = np.zeros(nv)
    vids = np.flatnonzero(spaces.u_vertex_dof >= 0)
    u_pts[vids] = mode.u.reshape(-1, 2)[spaces.u_vertex_dof[vids]]
    pmap = spaces.p_map
    vids = pmap.entity_id[pmap.entity == 0]
    p_pts[vids] = mode.p
    return u_pts, p_pts


def cell_data_from_mode(mesh: Mesh, spaces: Spaces, mode: EigenPair):
    """Cell-averaged fluid displacement (nt, 2), zero off the fluid.

    w is linear on each fluid triangle, so its average is its value at
    the centroid, the constant monomial coefficients of its BDM cell
    dofs in coordinates centered there.
    """
    w_cells = np.zeros((mesh.num_triangles, 2))
    wmap = spaces.w_map
    if len(wmap.tris):
        coeff, _ = spaces.bdm
        wc = mode.w[wmap.cell2dof]
        w_cells[wmap.tris] = (wc[:, None, :] @ coeff[:, :, 0:2])[:, 0]
    return w_cells


def export_fields(mesh: Mesh, mode: EigenPair, path, spaces: Spaces,
                  indicators=None) -> str:
    """Write a VTK legacy ASCII unstructured grid with the mode fields."""
    u_pts, p_pts = point_data_from_mode(mesh, spaces, mode)
    w_cells = cell_data_from_mode(mesh, spaces, mode)
    nv, nt = mesh.num_vertices, mesh.num_triangles
    parts = [
        "# vtk DataFile Version 3.0\n"
        f"coupled vibration mode omega={mode.omega:.10g}\n"
        "ASCII\n"
        "DATASET UNSTRUCTURED_GRID\n"
        f"POINTS {nv} double\n",
        _rows("%.17g %.17g 0", mesh.vertices),
        f"CELLS {nt} {4 * nt}\n",
        _rows("3 %d %d %d", mesh.triangles),
        f"CELL_TYPES {nt}\n",
        "5\n" * nt,
        f"POINT_DATA {nv}\n"
        "VECTORS solid_displacement double\n",
        _rows("%.17g %.17g 0", u_pts),
        "SCALARS solid_pressure double 1\n"
        "LOOKUP_TABLE default\n",
        _rows("%.17g", p_pts),
        f"CELL_DATA {nt}\n"
        "VECTORS fluid_displacement double\n",
        _rows("%.17g %.17g 0", w_cells),
        "SCALARS subdomain int 1\n"
        "LOOKUP_TABLE default\n",
        _rows("%d", mesh.tri_tag),
    ]
    if indicators is not None:
        parts += ["SCALARS eta2 double 1\n"
                  "LOOKUP_TABLE default\n",
                  _rows("%.17g", indicators.element_totals(mesh))]
    text = "".join(parts)
    with open(path, "w") as f:
        f.write(text)
    return path
