"""Conforming triangulations of coupled solid/fluid vessel geometries.

The mesh carries per-triangle subdomain tags (solid or fluid) and per-edge
boundary tags; its edges are numbered in the order of the integer keys
``lo * nv + hi`` of their sorted vertex pairs.  Refinement is newest-vertex
bisection by edge marking: the refinement edges of the marked triangles are
marked, the marking is closed over the triangles that touch a marked edge,
and every marked edge is split once, which keeps the mesh conforming.  The
refinement edge of every generated triangle is tracked so that repeated
bisection stays shape regular.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# subdomain tags
SOLID = 1
FLUID = 2

# edge tags
INTERIOR = 0
GAMMA_D = 1
GAMMA_N = 2
GAMMA_0 = 3
INTERFACE = 4

EDGE_TAG_NAMES = {
    INTERIOR: "interior",
    GAMMA_D: "gamma_d",
    GAMMA_N: "gamma_n",
    GAMMA_0: "gamma_0",
    INTERFACE: "interface",
}
EDGE_TAG_CODES = {v: k for k, v in EDGE_TAG_NAMES.items()}
SUBDOMAIN_NAMES = {SOLID: "solid", FLUID: "fluid"}
SUBDOMAIN_CODES = {v: k for k, v in SUBDOMAIN_NAMES.items()}


class MeshError(Exception):
    """Raised for invalid geometry or mesh input."""


@dataclass(frozen=True)
class Mesh:
    """Conforming triangle mesh with subdomain and boundary tags.

    vertices    (nv, 2) float coordinates in meters
    triangles   (nt, 3) vertex indices, positively oriented
    tri_tag     (nt,)   SOLID or FLUID
    tri_refedge (nt,)   local index of the refinement edge; local edge i
                        is the edge opposite local vertex i
    edges       (ne, 2) sorted vertex pairs, lexicographically ordered
    edge_tag    (ne,)   INTERIOR / GAMMA_D / GAMMA_N / GAMMA_0 / INTERFACE
    edge_tris   (ne, 2) adjacent triangle ids, -1 for missing neighbor
    tri_edges   (nt, 3) global edge id of each local edge
    parent      (nt,)   id of the triangle of the input mesh of ``bisect``
                        that contains each triangle; None for meshes that
                        were built or read from a file
    """

    vertices: np.ndarray
    triangles: np.ndarray
    tri_tag: np.ndarray
    tri_refedge: np.ndarray
    edges: np.ndarray = field(init=False)
    edge_tag: np.ndarray = field(init=False)
    edge_tris: np.ndarray = field(init=False)
    tri_edges: np.ndarray = field(init=False)
    parent: np.ndarray = field(init=False)

    def __init__(self, vertices, triangles, tri_tag, tri_refedge=None,
                 edge_tags=None, parent=None):
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        triangles = np.ascontiguousarray(triangles, dtype=np.int32)
        tri_tag = np.ascontiguousarray(tri_tag, dtype=np.int8)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "triangles", triangles)
        object.__setattr__(self, "tri_tag", tri_tag)
        if tri_refedge is None:
            tri_refedge = _longest_edge_refedges(vertices, triangles)
        object.__setattr__(self, "tri_refedge",
                           np.ascontiguousarray(tri_refedge, dtype=np.int8))
        nv = len(vertices)
        keys, edge_tris, tri_edges = _build_edge_topology(triangles, nv)
        edges = np.column_stack([keys // nv, keys % nv]).astype(np.int32)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "edge_tris", edge_tris)
        object.__setattr__(self, "tri_edges", tri_edges)
        tag = np.zeros(len(edges), dtype=np.int8)
        if edge_tags:
            ids = _edge_ids(keys, nv, list(edge_tags))
            values = np.fromiter(edge_tags.values(), dtype=np.int8,
                                 count=len(edge_tags))
            tag[ids] = values
            # repeated ids keep the last value; any other one conflicts
            clash = tag[ids] != values
            if clash.any():
                a, b = edges[ids[np.argmax(clash)]]
                raise MeshError(f"conflicting tags on edge ({a}, {b})")
        object.__setattr__(self, "edge_tag", tag)
        if parent is not None:
            parent = np.ascontiguousarray(parent, dtype=np.int64)
            parent.setflags(write=False)
        object.__setattr__(self, "parent", parent)
        for arr in (self.vertices, self.triangles, self.tri_tag,
                    self.tri_refedge, self.edges, self.edge_tag,
                    self.edge_tris, self.tri_edges):
            arr.setflags(write=False)

    # -- basic queries -------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def tri_coords(self, ids=None) -> np.ndarray:
        """(nt, 3, 2) vertex coordinates per triangle."""
        tris = self.triangles if ids is None else self.triangles[ids]
        return self.vertices[tris]

    def areas(self, ids=None) -> np.ndarray:
        p = self.tri_coords(ids)
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def tri_diameters(self, ids=None) -> np.ndarray:
        p = self.tri_coords(ids)
        l0 = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
        l1 = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
        l2 = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
        return np.maximum(l0, np.maximum(l1, l2))

    def edge_frames(self, ids=None):
        """Start point a, tangent t = b - a, unit normal (t_y, -t_x) / |t|
        and length |t| of each edge a -> b."""
        e = self.edges if ids is None else self.edges[ids]
        a = self.vertices[e[:, 0]]
        tang = self.vertices[e[:, 1]] - a
        length = np.linalg.norm(tang, axis=1)
        nrm = np.column_stack([tang[:, 1], -tang[:, 0]]) / length[:, None]
        return a, tang, nrm, length

    def subdomain_tris(self, tag) -> np.ndarray:
        return np.flatnonzero(self.tri_tag == tag).astype(np.int32)

    def edges_with_tag(self, tag) -> np.ndarray:
        return np.flatnonzero(self.edge_tag == tag).astype(np.int32)


def _build_edge_topology(triangles, nv):
    """Edges as sorted 1-D keys ``lo * nv + hi``, which order them like
    the lexicographically sorted vertex pairs."""
    nt = len(triangles)
    loc = np.empty((nt, 3, 2), dtype=np.int64)
    # local edge i is opposite local vertex i
    loc[:, 0] = triangles[:, [1, 2]]
    loc[:, 1] = triangles[:, [2, 0]]
    loc[:, 2] = triangles[:, [0, 1]]
    flat = loc.reshape(-1, 2)
    keys, inv = np.unique(flat.min(axis=1) * nv + flat.max(axis=1),
                          return_inverse=True)
    tri_edges = inv.reshape(nt, 3).astype(np.int32)
    edge_tris = np.full((len(keys), 2), -1, dtype=np.int32)
    order = np.argsort(tri_edges.ravel(), kind="stable")
    tids = (order // 3).astype(np.int32)
    eids = tri_edges.ravel()[order]
    starts = np.searchsorted(eids, np.arange(len(keys)))
    ends = np.searchsorted(eids, np.arange(len(keys)), side="right")
    counts = ends - starts
    if counts.max(initial=0) > 2:
        raise MeshError("an edge is shared by more than two triangles")
    edge_tris[:, 0] = tids[starts]
    two = counts == 2
    edge_tris[two, 1] = tids[ends[two] - 1]
    return keys, edge_tris, tri_edges


def _edge_ids(keys, nv, pairs):
    """Edge ids of vertex pairs given in either order; a pair that is not
    an edge of the mesh raises MeshError."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    wanted = lo * nv + hi
    bad = (lo < 0) | (hi >= nv) | ~np.isin(wanted, keys)
    if bad.any():
        a, b = pairs[np.argmax(bad)]
        raise MeshError(f"edge tag on ({a}, {b}), which is not an edge "
                        "of the mesh")
    return np.searchsorted(keys, wanted)


def _longest_edge_refedges(vertices, triangles):
    p = vertices[triangles]
    lens = np.stack([
        np.linalg.norm(p[:, 1] - p[:, 2], axis=1),
        np.linalg.norm(p[:, 2] - p[:, 0], axis=1),
        np.linalg.norm(p[:, 0] - p[:, 1], axis=1),
    ], axis=1)
    # longest edge; near-ties broken by the smallest opposite (global)
    # vertex index
    lmax = lens.max(axis=1)
    tied = lens >= lmax[:, None] * (1.0 - 1e-12)
    opposite = np.where(tied, triangles, np.iinfo(np.int32).max)
    return np.argmin(opposite, axis=1).astype(np.int8)


# ----------------------------------------------------------------------
# geometry presets
# ----------------------------------------------------------------------

EMPTY = 0


@dataclass(frozen=True)
class GeometrySpec:
    """Block decomposition of a vessel geometry.

    The domain is a union of axis-aligned rectangles on the tensor grid
    given by the breakpoints ``xs`` x ``ys``; ``cells[j][i]`` assigns the
    rectangle [xs[i], xs[i+1]] x [ys[j], ys[j+1]] to EMPTY, SOLID or FLUID.
    ``clamp`` selects which exterior solid edges are Dirichlet:
    ``"sides"`` (outer vertical walls), ``"bottom"`` or ``"outer"`` (all).
    """

    preset: str
    xs: tuple
    ys: tuple
    cells: tuple
    clamp: str = "sides"

    def __post_init__(self):
        xs, ys = np.asarray(self.xs, float), np.asarray(self.ys, float)
        if len(xs) < 2 or len(ys) < 2:
            raise MeshError("need at least one cell in each direction")
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
            raise MeshError("breakpoints must be strictly increasing")
        cells = np.asarray(self.cells, dtype=np.int8)
        if cells.shape != (len(ys) - 1, len(xs) - 1):
            raise MeshError("cell map shape does not match breakpoints")
        if not np.any(cells != EMPTY):
            raise MeshError("geometry has no solid or fluid cells")
        if self.clamp not in ("sides", "bottom", "outer"):
            raise MeshError(f"unknown clamp rule {self.clamp!r}")

    @property
    def cell_array(self) -> np.ndarray:
        return np.asarray(self.cells, dtype=np.int8)

    def shortest_edge(self) -> float:
        """Shortest side length among non-empty cells."""
        filled = self.cell_array != EMPTY
        dx = np.diff(np.asarray(self.xs, float))
        dy = np.diff(np.asarray(self.ys, float))
        return float(min(dx[filled.any(axis=0)].min(),
                         dy[filled.any(axis=1)].min()))


def omega1(fluid_width=1.0, fluid_height=1.0, wall=0.13, wall_height=None,
           clamp="bottom"):
    """Open rectangular vessel: fluid rectangle inside a U-shaped solid.

    The fluid occupies (0, fluid_width) x (0, fluid_height); solid walls
    of the given thickness run along the left, right and bottom sides.
    ``wall_height`` > fluid_height leaves a dry freeboard above the free
    surface.
    """
    if min(fluid_width, fluid_height, wall) <= 0:
        raise MeshError("omega1 dimensions must be positive")
    if wall_height is None or wall_height == fluid_height:
        xs = (-wall, 0.0, fluid_width, fluid_width + wall)
        ys = (-wall, 0.0, fluid_height)
        cells = ((SOLID, SOLID, SOLID),
                 (SOLID, FLUID, SOLID))
        return GeometrySpec("omega1", xs, ys, cells, clamp)
    if wall_height < fluid_height:
        raise MeshError("wall_height must be >= fluid_height")
    xs = (-wall, 0.0, fluid_width, fluid_width + wall)
    ys = (-wall, 0.0, fluid_height, wall_height)
    cells = ((SOLID, SOLID, SOLID),
             (SOLID, FLUID, SOLID),
             (SOLID, EMPTY, SOLID))
    return GeometrySpec("omega1", xs, ys, cells, clamp)


def omega2(fluid_width=1.0, fluid_height=1.0, wall=0.13, step=0.5,
           clamp="bottom"):
    """Vessel with an L-shaped fluid cavity (re-entrant corners).

    Starting from the omega1 layout, the solid additionally fills the
    upper-right block (step, fluid_width) x (step, fluid_height), which
    puts a re-entrant corner in the fluid at (step, step) and leaves the
    free surface on top of the remaining fluid column.
    """
    if not (0 < step < min(fluid_width, fluid_height)):
        raise MeshError("omega2 step must lie strictly inside the cavity")
    xs = (-wall, 0.0, step, fluid_width, fluid_width + wall)
    ys = (-wall, 0.0, step, fluid_height)
    cells = ((SOLID, SOLID, SOLID, SOLID),
             (SOLID, FLUID, FLUID, SOLID),
             (SOLID, FLUID, SOLID, SOLID))
    return GeometrySpec("omega2", xs, ys, cells, clamp)


def unit_square_solid(clamp="outer"):
    """Unit square occupied entirely by solid (no fluid)."""
    return GeometrySpec("unit_square_solid", (0.0, 1.0), (0.0, 1.0),
                        ((SOLID,),), clamp)


def unit_square_fluid():
    """Unit square occupied entirely by fluid; boundary tagged GAMMA_0."""
    return GeometrySpec("unit_square_fluid", (0.0, 1.0), (0.0, 1.0),
                        ((FLUID,),), "outer")


PRESETS = {
    "omega1": omega1,
    "omega2": omega2,
    "unit_square_solid": unit_square_solid,
    "unit_square_fluid": unit_square_fluid,
}


def build_cavity_mesh(spec: GeometrySpec, N: int) -> Mesh:
    """Structured triangulation with N mesh edges along the shortest
    geometry edge.

    Every non-empty cell is split into a grid of rectangles of size close
    to h = shortest_edge / N, each cut along its diagonal.  Cell diagonals
    act as the initial refinement edges, which makes the mesh compatibly
    divisible for newest-vertex bisection.
    """
    if N < 1:
        raise MeshError("refinement level N must be >= 1")
    xs = np.asarray(spec.xs, float)
    ys = np.asarray(spec.ys, float)
    h = spec.shortest_edge() / N
    nx = np.maximum(1, np.rint(np.diff(xs) / h).astype(int))
    ny = np.maximum(1, np.rint(np.diff(ys) / h).astype(int))
    X = np.concatenate([np.linspace(xs[i], xs[i + 1], nx[i] + 1)[:-1]
                        for i in range(len(nx))] + [xs[-1:]])
    Y = np.concatenate([np.linspace(ys[j], ys[j + 1], ny[j] + 1)[:-1]
                        for j in range(len(ny))] + [ys[-1:]])
    nX = len(X)
    # lattice occupancy per fine cell; lattice vertex (ix, iy) has id
    # iy * nX + ix
    occ = np.repeat(np.repeat(spec.cell_array, ny, axis=0), nx, axis=1)
    gx, gy = np.meshgrid(X, Y)
    x, y = gx.ravel(), gy.ravel()

    # two triangles per occupied cell, row by row: (p00, p10, p11) and
    # (p00, p11, p01), whose refinement edge is the diagonal p00-p11
    iy, ix = np.nonzero(occ)
    p00 = iy * nX + ix
    p11 = p00 + nX + 1
    tris = np.stack([p00, p00 + 1, p11, p00, p11, p00 + nX],
                    axis=1).reshape(-1, 3)
    used = np.unique(tris)
    remap = np.full(len(x), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))

    # lattice edge lo-hi lies between the cells a and b: below and above
    # a horizontal edge, left and right of a vertical one; cells outside
    # the lattice are EMPTY
    pad = np.pad(occ, 1, constant_values=EMPTY)
    ids = np.arange(len(x)).reshape(gx.shape)
    a = np.concatenate([pad[:-1, 1:-1].ravel(), pad[1:-1, :-1].ravel()])
    b = np.concatenate([pad[1:, 1:-1].ravel(), pad[1:-1, 1:].ravel()])
    lo = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    hi = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    if spec.clamp == "outer":
        clamped = np.ones(len(lo), dtype=bool)
    elif spec.clamp == "sides":
        clamped = (x[lo] == x[hi]) & ((x[lo] == X[0]) | (x[lo] == X[-1]))
    else:   # "bottom"
        clamped = (y[lo] == y[hi]) & (y[lo] == Y[0])
    # past the interior and interface edges, one side is EMPTY
    tag = np.select([a == b, (a != EMPTY) & (b != EMPTY),
                     (a == FLUID) | (b == FLUID), clamped],
                    [INTERIOR, INTERFACE, GAMMA_0, GAMMA_D], GAMMA_N)
    keep = tag != INTERIOR
    edge_tags = dict(zip(zip(remap[lo[keep]].tolist(),
                             remap[hi[keep]].tolist()), tag[keep].tolist()))

    mesh = Mesh(np.column_stack([x[used], y[used]]), remap[tris],
                np.repeat(occ[iy, ix], 2), np.tile([1, 2], len(iy)),
                edge_tags)
    report = validate(mesh)
    if not report.ok:
        raise MeshError(
            f"generated mesh violates invariants: {report.failures()}")
    return mesh


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

@dataclass
class ValidationReport:
    checks: list

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(name, detail) for name, ok, detail in self.checks if not ok]

    def __str__(self):
        lines = [f"[{'ok' if ok else 'FAIL'}] {name}" + (f": {d}" if d else "")
                 for name, ok, d in self.checks]
        return "\n".join(lines)


def validate(mesh: Mesh) -> ValidationReport:
    """Check every mesh invariant; failures become report entries."""
    checks = []

    areas = mesh.areas()
    bad = int(np.sum(areas <= 0))
    checks.append(("orientation", bad == 0,
                   "" if bad == 0 else f"{bad} non-positive triangles"))

    used = np.unique(mesh.triangles)
    iso = mesh.num_vertices - len(used)
    checks.append(("no isolated vertices", iso == 0,
                   "" if iso == 0 else f"{iso} unused vertices"))

    coords = np.ascontiguousarray(mesh.vertices)
    uniq = np.unique(coords.view([("x", float), ("y", float)]))
    dup = mesh.num_vertices - len(uniq)
    checks.append(("no duplicate vertices", dup == 0,
                   "" if dup == 0 else f"{dup} duplicates"))

    n_adj = (mesh.edge_tris >= 0).sum(axis=1)
    boundary = n_adj == 1
    interior2 = n_adj == 2
    checks.append(("edge adjacency", bool(np.all(n_adj >= 1)), ""))

    tag = mesh.edge_tag
    t0 = mesh.tri_tag[np.clip(mesh.edge_tris[:, 0], 0, None)]
    t1 = np.where(mesh.edge_tris[:, 1] >= 0,
                  mesh.tri_tag[np.clip(mesh.edge_tris[:, 1], 0, None)], -1)

    # one-sided edges must carry a boundary tag (also catches hanging nodes:
    # the unsplit long edge of a nonconforming neighbor stays INTERIOR)
    bad_open = boundary & ~np.isin(tag, (GAMMA_D, GAMMA_N, GAMMA_0))
    checks.append(("boundary edges tagged", not bad_open.any(),
                   f"{int(bad_open.sum())} untagged one-sided edges"
                   if bad_open.any() else ""))

    bad_int = interior2 & (tag == INTERIOR) & (t0 != t1)
    checks.append(("interior edges within one subdomain", not bad_int.any(),
                   f"{int(bad_int.sum())} interior edges cross subdomains"
                   if bad_int.any() else ""))

    ifc = tag == INTERFACE
    good_ifc = interior2 & (((t0 == SOLID) & (t1 == FLUID))
                            | ((t0 == FLUID) & (t1 == SOLID)))
    bad_ifc = ifc & ~good_ifc
    checks.append(("interface edges pair solid and fluid", not bad_ifc.any(),
                   f"{int(bad_ifc.sum())} bad interface edges"
                   if bad_ifc.any() else ""))

    for t, name, sub in ((GAMMA_D, "gamma_d", SOLID),
                         (GAMMA_N, "gamma_n", SOLID),
                         (GAMMA_0, "gamma_0", FLUID)):
        sel = tag == t
        bad_t = sel & ~(boundary & (t0 == sub))
        checks.append((f"{name} edges border one {SUBDOMAIN_NAMES[sub]} "
                       "triangle", not bad_t.any(),
                       f"{int(bad_t.sum())} offending edges"
                       if bad_t.any() else ""))

    bad_sub = ~np.isin(mesh.tri_tag, (SOLID, FLUID))
    checks.append(("triangle subdomain tags", not bad_sub.any(), ""))

    bad_ref = (mesh.tri_refedge < 0) | (mesh.tri_refedge > 2)
    checks.append(("refinement edges in range", not bad_ref.any(), ""))

    return ValidationReport(checks)


# ----------------------------------------------------------------------
# newest-vertex bisection
# ----------------------------------------------------------------------

def bisect(mesh: Mesh, marked) -> Mesh:
    """Bisect every marked triangle across its refinement edge, adding
    closure bisections so the result is conforming.

    The refinement edges of the marked triangles are marked, and the
    marking is closed: every triangle with a marked edge gets its
    refinement edge marked, until nothing changes.  Each marked edge is
    split once.  A split triangle ``(vi, vj, vk)`` with refinement edge
    ``(vj, vk)`` has the children ``(vi, vj, m)`` and ``(vi, m, vk)``,
    whose refinement edges ``(vi, vj)`` and ``(vk, vi)`` are its other two
    edges, so a second pass splits every child whose refinement edge is
    marked.

    Deterministic and independent of the order of ``marked``: new
    vertices are numbered by the id of the edge they split; the
    triangles that are not split come first, in input order, then the
    children that are not split again, then the children of the second
    pass.  Subdomain and boundary tags are inherited by the children
    (each half of a split edge keeps its tag), and the returned mesh's
    ``parent`` maps each triangle to the input triangle that contains it.
    """
    marked = np.unique(np.asarray(list(marked), dtype=np.int64))
    if marked.size and (marked[0] < 0 or marked[-1] >= mesh.num_triangles):
        raise MeshError("marked ids out of range")

    ids = np.arange(mesh.num_triangles)
    ref = mesh.tri_refedge
    tri_edges = mesh.tri_edges
    ref_edge = tri_edges[ids, ref]
    split = np.zeros(mesh.num_edges, dtype=bool)
    split[ref_edge[marked]] = True
    while True:
        grow = split[tri_edges].any(axis=1) & ~split[ref_edge]
        if not grow.any():
            break
        split[ref_edge[grow]] = True

    split_ids = np.flatnonzero(split)
    mid = np.full(mesh.num_edges, -1, dtype=np.int64)
    mid[split_ids] = mesh.num_vertices + np.arange(len(split_ids))
    a, b = mesh.edges[split_ids].T
    vertices = np.concatenate(
        [mesh.vertices, (mesh.vertices[a] + mesh.vertices[b]) / 2.0])

    def halve(tris, ref, edge):
        """Children of ``tris`` across refinement edges ``edge``."""
        k = np.arange(len(tris))
        vi, vj, vk = (tris[k, (ref + i) % 3] for i in range(3))
        m = mid[edge]
        children = np.stack([vi, vj, m, vi, m, vk], axis=1).reshape(-1, 3)
        return children, np.tile(np.array([2, 1], dtype=np.int8), len(tris))

    # first pass: input triangles whose refinement edge is split
    s1 = split[ref_edge]
    tris1, ref1 = halve(mesh.triangles[s1], ref[s1], ref_edge[s1])
    parent1 = np.repeat(ids[s1], 2)
    # the children's refinement edges: the edge opposite vk, then vj
    edge1 = np.stack([tri_edges[s1, (ref[s1] + 2) % 3],
                      tri_edges[s1, (ref[s1] + 1) % 3]], axis=1).ravel()
    # second pass: children whose refinement edge is split
    s2 = split[edge1]
    tris2, ref2 = halve(tris1[s2], ref1[s2], edge1[s2])
    parent2 = np.repeat(parent1[s2], 2)

    parent = np.concatenate([ids[~s1], parent1[~s2], parent2])
    triangles = np.concatenate([mesh.triangles[~s1], tris1[~s2], tris2])
    refedges = np.concatenate([ref[~s1], ref1[~s2], ref2])

    # both halves of a split edge keep its tag
    tagged = np.flatnonzero(mesh.edge_tag != INTERIOR)
    lo, hi = mesh.edges[tagged].T
    m = mid[tagged]
    cut = m >= 0
    pairs = np.concatenate([np.stack([lo, np.where(cut, m, hi)], axis=1),
                            np.stack([m[cut], hi[cut]], axis=1)])
    tags = mesh.edge_tag[np.concatenate([tagged, tagged[cut]])]
    edge_tags = dict(zip(map(tuple, pairs.tolist()), tags.tolist()))
    return Mesh(vertices, triangles, mesh.tri_tag[parent], refedges,
                edge_tags, parent)


# ----------------------------------------------------------------------
# file formats
# ----------------------------------------------------------------------

def write_mesh(mesh: Mesh, path) -> None:
    """Native structured-text format: VERTICES / TRIANGLES / EDGES."""
    with open(path, "w") as f:
        f.write("VERTICES\n")
        for i, (x, y) in enumerate(mesh.vertices):
            f.write(f"{i} {float(x)!r} {float(y)!r}\n")
        f.write("TRIANGLES\n")
        for i, ((a, b, c), tag, ref) in enumerate(
                zip(mesh.triangles, mesh.tri_tag, mesh.tri_refedge)):
            f.write(f"{i} {a} {b} {c} {SUBDOMAIN_NAMES[int(tag)]} {ref}\n")
        f.write("EDGES\n")
        for i, ((a, b), tag) in enumerate(zip(mesh.edges, mesh.edge_tag)):
            f.write(f"{i} {a} {b} {EDGE_TAG_NAMES[int(tag)]}\n")


def read_mesh(path) -> Mesh:
    verts, tris, tags, refs = [], [], [], []
    edge_tags = {}
    section = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line in ("VERTICES", "TRIANGLES", "EDGES"):
                section = line
                continue
            parts = line.split()
            if section == "VERTICES":
                verts.append((float(parts[1]), float(parts[2])))
            elif section == "TRIANGLES":
                tris.append(tuple(int(v) for v in parts[1:4]))
                tags.append(SUBDOMAIN_CODES[parts[4]])
                refs.append(int(parts[5]) if len(parts) > 5 else -1)
            elif section == "EDGES":
                a, b = int(parts[1]), int(parts[2])
                t = EDGE_TAG_CODES[parts[3]]
                if t != INTERIOR:
                    edge_tags[(min(a, b), max(a, b))] = t
            else:
                raise MeshError(f"unexpected line outside section: {line!r}")
    refs = np.asarray(refs)
    if np.any(refs < 0):
        refs = None
    return Mesh(np.asarray(verts), np.asarray(tris), np.asarray(tags),
                refs, edge_tags)

