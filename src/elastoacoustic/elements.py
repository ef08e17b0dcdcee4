"""Reference bases, quadrature and degree-of-freedom maps.

Scalar Lagrange families (P1, P2, P1 + cubic bubble) are tabulated on the
reference triangle with vertices (0,0), (1,0), (0,1).  The lowest-order
Brezzi-Douglas-Marini space carries two normal moments per edge, taken
against an orthonormal Legendre pair on the edge; on physical triangles
the basis is rebuilt by duality against the same global functionals, which
keeps normal traces continuous without any orientation bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .meshing import Mesh, FLUID

SQRT3 = np.sqrt(3.0)


class ElementError(Exception):
    pass


@dataclass(frozen=True)
class ElementKind:
    name: str
    vector: bool          # value rank: vector (True) or scalar
    n_vertex: int         # scalar dofs per vertex
    n_edge: int           # scalar dofs per edge (moments for BDM)
    n_cell: int           # scalar dofs per cell


P1 = ElementKind("P1", False, 1, 0, 0)
P2 = ElementKind("P2", False, 1, 1, 0)
P1B = ElementKind("P1Bubble", True, 1, 0, 1)
BDM1 = ElementKind("BDM1", True, 0, 2, 0)
# vector Taylor-Hood displacement (components interleaved)
VP2 = ElementKind("P2v", True, 1, 1, 0)

_SCALAR_GENERATOR = {VP2: P2, P1B: P1B, P1: P1, P2: P2}


def scalar_generator(kind: ElementKind) -> ElementKind:
    """Scalar family whose component expansion gives the (vector) kind."""
    if kind not in _SCALAR_GENERATOR:
        raise ElementError(f"unsupported element kind {kind.name}")
    return _SCALAR_GENERATOR[kind]


# ----------------------------------------------------------------------
# scalar reference bases
# ----------------------------------------------------------------------

def scalar_basis_at(kind: ElementKind, pts) -> tuple:
    """Reference values/gradients/Hessians of the scalar generator basis
    of ``kind`` at arbitrary barycentric points (m, 3)."""
    return _scalar_basis(scalar_generator(kind), np.asarray(pts, float))


def _scalar_basis(kind: ElementKind, pts: np.ndarray):
    """Values, gradients and Hessians of the scalar generator basis.

    pts is (nq, 3) barycentric.  Returns val (nq, ns), grad (nq, ns, 2)
    and hess (nq, ns, 2, 2) with derivatives in reference coordinates
    (x, y) = (lambda_1, lambda_2).
    """
    lam = np.asarray(pts, float)
    nq = len(lam)
    l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
    # gradients of barycentric coordinates w.r.t. (x, y)
    dl = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])

    if kind is P1:
        val = lam.copy()
        grad = np.broadcast_to(dl, (nq, 3, 2)).copy()
        hess = np.zeros((nq, 3, 2, 2))
        return val, grad, hess

    if kind is P2:
        val = np.empty((nq, 6))
        grad = np.empty((nq, 6, 2))
        hess = np.empty((nq, 6, 2, 2))
        for i in range(3):
            li, dli = lam[:, i], dl[i]
            val[:, i] = li * (2.0 * li - 1.0)
            grad[:, i] = (4.0 * li - 1.0)[:, None] * dli
            hess[:, i] = 4.0 * np.outer(dli, dli)
        for i in range(3):  # edge dof i sits on the edge opposite vertex i
            j, k = (i + 1) % 3, (i + 2) % 3
            lj, lk = lam[:, j], lam[:, k]
            val[:, 3 + i] = 4.0 * lj * lk
            grad[:, 3 + i] = 4.0 * (lj[:, None] * dl[k] + lk[:, None] * dl[j])
            hess[:, 3 + i] = 4.0 * (np.outer(dl[j], dl[k])
                                    + np.outer(dl[k], dl[j]))
        return val, grad, hess

    # P1B, the last generator of _SCALAR_GENERATOR
    val = np.empty((nq, 4))
    grad = np.empty((nq, 4, 2))
    hess = np.zeros((nq, 4, 2, 2))
    val[:, :3] = lam
    grad[:, :3] = dl
    # bubble normalized to 1 at the centroid: b = 27 l0 l1 l2
    val[:, 3] = 27.0 * l0 * l1 * l2
    grad[:, 3] = 27.0 * ((l1 * l2)[:, None] * dl[0]
                         + (l0 * l2)[:, None] * dl[1]
                         + (l0 * l1)[:, None] * dl[2])
    h = np.zeros((nq, 2, 2))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        cross = np.outer(dl[a], dl[b]) + np.outer(dl[b], dl[a])
        h += lam[:, c][:, None, None] * cross
    hess[:, 3] = 27.0 * h
    return val, grad, hess


# ----------------------------------------------------------------------
# BDM1 on the reference triangle
# ----------------------------------------------------------------------

def bdm_coefficients(coords: np.ndarray, directions: np.ndarray):
    """Coefficient tensor of the local BDM1 basis on physical triangles.

    coords      (nt, 3, 2) triangle vertices
    directions  (nt, 3) +1 if local edge i runs (i+1)%3 -> (i+2)%3 in the
                global (sorted vertex id) orientation, else -1

    The local basis is dual to the functionals
        l_{e,m}(v) = int_0^1 (v . n_e)(t) Z_m(t) dt,
    with Z_0 = 1, Z_1 = sqrt(3) (2t - 1), t running along the global edge
    direction and n_e the tangent rotated clockwise.  Returns
    coeff (nt, 6, 6): basis j = sum_m coeff[t, j, m] * monomial_m where the
    monomials are (1,0), (0,1), (X,0), (0,X), (Y,0), (0,Y) in coordinates
    centered at the triangle centroid.  Local dof 2i+m is moment m of
    local edge i.
    """
    coords = np.asarray(coords, float)
    nt = coords.shape[0]
    centroid = coords.mean(axis=1)
    # 2-point Gauss on [0,1]: exact for the cubic integrands below
    gp = np.array([0.5 - 0.5 / SQRT3, 0.5 + 0.5 / SQRT3])
    gw = np.array([0.5, 0.5])
    zeta = np.stack([np.ones(2), SQRT3 * (2.0 * gp - 1.0)])  # (2, 2)

    M = np.zeros((nt, 6, 6))
    for i in range(3):
        a = coords[:, (i + 1) % 3]
        b = coords[:, (i + 2) % 3]
        d = directions[:, i][:, None]
        lo = np.where(d > 0, a[:, 0:1], b[:, 0:1]), \
            np.where(d > 0, a[:, 1:2], b[:, 1:2])
        lo = np.concatenate(lo, axis=1)
        hi = a + b - lo
        tang = hi - lo
        nrm = np.column_stack([tang[:, 1], -tang[:, 0]])
        nrm = nrm / np.linalg.norm(nrm, axis=1)[:, None]
        for q, (tq, wq) in enumerate(zip(gp, gw)):
            x = lo + tq * tang - centroid  # centered coordinates
            # monomial values dotted with the edge normal
            mono_n = np.stack([
                nrm[:, 0], nrm[:, 1],
                x[:, 0] * nrm[:, 0], x[:, 0] * nrm[:, 1],
                x[:, 1] * nrm[:, 0], x[:, 1] * nrm[:, 1],
            ], axis=1)  # (nt, 6)
            for m in range(2):
                M[:, 2 * i + m, :] += wq * zeta[m, q] * mono_n
    # M[i, m] = l_i(monomial_m); duality l_i(basis_j) = delta_ij needs the
    # inverse transpose
    return np.linalg.inv(M).transpose(0, 2, 1)


def linear_values(coeff: np.ndarray, pts_xy: np.ndarray) -> np.ndarray:
    """Values (n, nq, ..., 2) of linear vector fields at centered points.

    coeff (n, ..., 6) holds monomial coefficients in the order of
    ``bdm_coefficients``, so each field is (c0 + X c2 + Y c4,
    c1 + X c3 + Y c5); pts_xy (n, nq, 2) are the points (X, Y).
    """
    c = coeff[:, None]
    shape = pts_xy.shape[:2] + (1,) * (coeff.ndim - 1)
    x = pts_xy[..., 0].reshape(shape)
    y = pts_xy[..., 1].reshape(shape)
    # C order whatever the strides of the inputs, so that later sums
    # over the values do not depend on them
    return np.add(c[..., 0:2] + x * c[..., 2:4], y * c[..., 4:6],
                  order="C")


def bdm_eval(coeff: np.ndarray, pts_xy: np.ndarray):
    """Evaluate BDM bases given their coefficient tensors.

    coeff (nt, 6, 6), pts_xy (nt, nq, 2) in centered coordinates.
    Returns values (nt, nq, 6, 2) and divergences (nt, 6): the
    divergence of each basis is its X coefficient of the first
    component plus its Y coefficient of the second.
    """
    return linear_values(coeff, pts_xy), coeff[:, :, 2] + coeff[:, :, 5]


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray   # (nq, 3) barycentric
    weights: np.ndarray  # (nq,), sums to the reference area 1/2
    degree: int


def _sym3(a):
    return [(1 - 2 * a, a, a), (a, 1 - 2 * a, a), (a, a, 1 - 2 * a)]


def _perm6(a, b):
    c = 1.0 - a - b
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


# Dunavant rules with positive weights only; weights sum to 1 here and are
# halved on construction
_RULES = {
    1: ([(1 / 3, 1 / 3, 1 / 3)], [1.0]),
    2: (_sym3(1 / 6), [1 / 3] * 3),
    4: (_sym3(0.445948490915965) + _sym3(0.091576213509771),
        [0.223381589678011] * 3 + [0.109951743655322] * 3),
    5: ([(1 / 3, 1 / 3, 1 / 3)]
        + _sym3(0.470142064105115) + _sym3(0.101286507323456),
        [0.225] + [0.132394152788506] * 3 + [0.125939180544827] * 3),
    6: (_sym3(0.249286745170910) + _sym3(0.063089014491502)
        + _perm6(0.310352451033785, 0.636502499121399),
        [0.116786275726379] * 3 + [0.050844906370207] * 3
        + [0.082851075618374] * 6),
}
_DEGREE_TO_RULE = {1: 1, 2: 2, 3: 4, 4: 4, 5: 5, 6: 6}


def _collapsed_rule(n: int):
    """Tensor Gauss rule on the collapsed square, exact to degree 2n - 3.

    The map (x, eta) -> (x, eta (1 - x)) sends [0,1]^2 to the reference
    triangle with Jacobian (1 - x); weights stay positive.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    pts, wts = [], []
    for xi, wi in zip(x, w):
        for ej, wj in zip(x, w):
            px = xi
            py = ej * (1.0 - xi)
            pts.append((1.0 - px - py, px, py))
            wts.append(wi * wj * (1.0 - xi))
    return pts, wts


MAX_QUAD_DEGREE = 8


@lru_cache(maxsize=None)
def quadrature(degree: int) -> QuadratureRule:
    """Symmetric positive-weight rule exact to the requested degree.

    Degrees 1..8 are supported (the estimator's refined cross-check needs
    degree 8).
    """
    if not 1 <= int(degree) <= MAX_QUAD_DEGREE:
        raise ElementError("quadrature degree out of range [1, 8]")
    if degree in _DEGREE_TO_RULE:
        pts, wts = _RULES[_DEGREE_TO_RULE[int(degree)]]
        pts = np.asarray(pts, float)
        wts = 0.5 * np.asarray(wts, float)
    else:
        pts, wts = _collapsed_rule((int(degree) + 3) // 2 + 1)
        pts = np.asarray(pts, float)
        wts = np.asarray(wts, float)
    pts.setflags(write=False)
    wts.setflags(write=False)
    return QuadratureRule(pts, wts, int(degree))


@lru_cache(maxsize=None)
def edge_gauss(npoints: int):
    """Gauss-Legendre points/weights on [0, 1]; exact degree 2n-1."""
    x, w = np.polynomial.legendre.leggauss(npoints)
    return 0.5 * (x + 1.0), 0.5 * w


# ----------------------------------------------------------------------
# dof maps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DofMap:
    """Local-to-global dof numbering on one subdomain.

    cell2dof rows align with ``tris`` (the subdomain triangle ids).  Local
    ordering: vertex dofs, then edge dofs, then cell dofs; vector C0
    elements interleave components (dof 2a + c is component c of scalar
    dof a).  For BDM1 local dof 2i + m is moment m on local edge i.
    entity / entity_id / component describe each global dof: entity is
    0 = vertex, 1 = edge, 2 = cell.
    """

    kind: ElementKind
    subdomain: int
    tris: np.ndarray
    cell2dof: np.ndarray
    ndof: int
    entity: np.ndarray
    entity_id: np.ndarray
    component: np.ndarray


def build_dofmap(mesh: Mesh, kind: ElementKind, subdomain) -> DofMap:
    """Deterministic global numbering: vertices (ascending id), then edges,
    then cells, each block ordered by mesh entity id."""
    tris = mesh.subdomain_tris(subdomain) if subdomain is not None \
        else np.arange(mesh.num_triangles, dtype=np.int32)
    conn = mesh.triangles[tris]
    tedges = mesh.tri_edges[tris]

    if kind is BDM1:
        eids = np.unique(tedges)
        ge = np.searchsorted(eids, tedges)
        cell2dof = np.empty((len(tris), 6), dtype=np.int64)
        cell2dof[:, 0::2] = 2 * ge
        cell2dof[:, 1::2] = 2 * ge + 1
        ndof = 2 * len(eids)
        entity = np.ones(ndof, dtype=np.int8)
        entity_id = np.repeat(eids, 2)
        component = np.tile([0, 1], len(eids))  # moment index
        return DofMap(kind, subdomain, tris, cell2dof, ndof,
                      entity, entity_id, component)

    # scalar dof columns: vertices, edges, then cells, each numbered by
    # the position of its entity id in the sorted block
    blocks = []
    columns = []
    nscalar = 0
    if kind.n_vertex:
        vids = np.unique(conn)
        columns.append(np.searchsorted(vids, conn))
        blocks.append((0, vids, 1))
        nscalar += len(vids)
    if kind.n_edge:
        eids = np.unique(tedges)
        columns.append(nscalar + np.searchsorted(eids, tedges))
        blocks.append((1, eids, 1))
        nscalar += len(eids)
    if kind.n_cell:
        first = nscalar + kind.n_cell * np.arange(len(tris))
        columns.append(first[:, None] + np.arange(kind.n_cell))
        blocks.append((2, tris, kind.n_cell))
        nscalar += kind.n_cell * len(tris)
    scalar_c2d = np.concatenate(columns, axis=1).astype(np.int64)
    ns_local = scalar_c2d.shape[1]

    entity = np.concatenate([np.full(len(ids) * rep, code, dtype=np.int8)
                             for code, ids, rep in blocks])
    entity_id = np.concatenate([np.repeat(ids, rep).astype(np.int64)
                                for _, ids, rep in blocks])

    if kind.vector:
        cell2dof = np.empty((len(tris), 2 * ns_local), dtype=np.int64)
        cell2dof[:, 0::2] = 2 * scalar_c2d
        cell2dof[:, 1::2] = 2 * scalar_c2d + 1
        return DofMap(kind, subdomain, tris, cell2dof, 2 * nscalar,
                      np.repeat(entity, 2), np.repeat(entity_id, 2),
                      np.tile([0, 1], nscalar))
    return DofMap(kind, subdomain, tris, scalar_c2d, nscalar,
                  entity, entity_id, np.zeros(nscalar, dtype=np.int64))


def tri_positions(tris, size=0) -> np.ndarray:
    """Inverse of a dof map's ``tris``: entry t is the cell2dof row of
    triangle t, -1 for a triangle outside it, over at least ``size``
    entries."""
    pos = np.full(max(size, int(tris.max(initial=-1)) + 1), -1,
                  dtype=np.int64)
    pos[tris] = np.arange(len(tris))
    return pos


# ----------------------------------------------------------------------
# batched physical-element tables
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TriGeometry:
    """Affine maps for a batch of triangles."""
    coords: np.ndarray    # (nt, 3, 2)
    jac: np.ndarray       # (nt, 2, 2) columns are edge vectors
    inv_jac: np.ndarray   # (nt, 2, 2)
    det: np.ndarray       # (nt,)
    area: np.ndarray
    centroid: np.ndarray


def tri_geometry(mesh: Mesh, tris) -> TriGeometry:
    coords = mesh.tri_coords(tris)
    jac = np.stack([coords[:, 1] - coords[:, 0],
                    coords[:, 2] - coords[:, 0]], axis=2)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv = np.empty_like(jac)
    inv[:, 0, 0] = jac[:, 1, 1]
    inv[:, 0, 1] = -jac[:, 0, 1]
    inv[:, 1, 0] = -jac[:, 1, 0]
    inv[:, 1, 1] = jac[:, 0, 0]
    inv = inv / det[:, None, None]
    return TriGeometry(coords, jac, inv, det, 0.5 * det,
                       coords.mean(axis=1))


def physical_points(geo: TriGeometry, bary: np.ndarray) -> np.ndarray:
    """(nt, nq, 2) images of barycentric points on each triangle."""
    return np.einsum("qk,tkc->tqc", np.asarray(bary, float), geo.coords)


def barycentric(geo: TriGeometry, pts) -> np.ndarray:
    """Barycentric coordinates (nt, nq, 3) of physical points (nt, nq, 2)
    on the triangles of geo (row-aligned): xi = B^-1 (x - v0)."""
    rel = pts - geo.coords[:, None, 0, :]
    xi = np.einsum("tdc,tmc->tmd", geo.inv_jac, rel)
    lam0 = 1.0 - xi[..., 0] - xi[..., 1]
    return np.stack([lam0, xi[..., 0], xi[..., 1]], axis=-1)


def scalar_tables(kind: ElementKind, geo: TriGeometry, bary: np.ndarray):
    """Physical values / gradients of the scalar basis.

    val (nq, ns), grad (nt, nq, ns, 2).
    """
    val, gref, _ = _scalar_basis(scalar_generator(kind),
                                 np.asarray(bary, float))
    return val, np.einsum("qsd,tdc->tqsc", gref, geo.inv_jac)


def bdm_cell_coefficients(mesh: Mesh, dofmap: DofMap):
    """Per-triangle BDM coefficient tensors with global edge directions."""
    tris = dofmap.tris
    geo = tri_geometry(mesh, tris)
    conn = mesh.triangles[tris]
    directions = np.empty((len(tris), 3))
    for i in range(3):
        a = conn[:, (i + 1) % 3]
        b = conn[:, (i + 2) % 3]
        directions[:, i] = np.where(a < b, 1.0, -1.0)
    return bdm_coefficients(geo.coords, directions), geo


def bdm_interpolate(mesh: Mesh, field) -> np.ndarray:
    """Edge-moment interpolation of a smooth vector field onto BDM1.

    field maps (n, 2) points to (n, 2) values.  Returns the coefficient
    vector in the numbering of build_dofmap(mesh, BDM1, FLUID).
    """
    dofmap = build_dofmap(mesh, BDM1, FLUID)
    eids = np.unique(mesh.tri_edges[dofmap.tris])
    coeff = np.zeros(dofmap.ndof)
    tq, wq = edge_gauss(5)
    zeta = np.stack([np.ones_like(tq), SQRT3 * (2.0 * tq - 1.0)])
    a, tang, nrm, _ = mesh.edge_frames(eids)
    for q, (t, w) in enumerate(zip(tq, wq)):
        x = a + t * tang
        fn = np.einsum("ec,ec->e", np.asarray(field(x), float), nrm)
        coeff[0::2] += w * zeta[0, q] * fn
        coeff[1::2] += w * zeta[1, q] * fn
    return coeff
