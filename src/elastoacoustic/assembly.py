"""Sparse assembly of the coupled solid/fluid vibration forms.

Block unknown (u, w, p): solid displacement (MINI or Taylor-Hood vector
element), fluid displacement (BDM1) and solid pressure (continuous P1).
The stiffness form collects

    int 2 mu(x) eps(u):eps(v) - int p div v - int q div u
    - int lam(x)^-1 p q + int c^2 rho_f div w div tau
    + int_{Gamma_0} g rho_f (w.n)(tau.n)

and the mass form int rho_s u.v + int rho_f w.tau.  ``assemble_pencil``
builds both in one pass: the solid quadrature tables (mu and lambda^-1
included) are evaluated once, the local matrices of A and B are formed
from them, and all of them are scattered through one cell-order index
map into the reduced CSR pair.  Dirichlet rows and columns (u on
Gamma_D) drop out in that map; A and B share one sparsity pattern, and
an entry and its mirror add the same contributions in the same order,
so both are bitwise symmetric.  The interface constraint couples solid
and fluid normal traces through edge moments, built for all interface
edges at once.  Each system builds the basis W = D Z of ker C once
(``BlockSystem.basis``); the reduced matrices W^T A W and W^T B W are
formed where they are used (``BlockSystem.reduce``) and not kept.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from . import elements as el
from .meshing import (Mesh, SOLID, FLUID, GAMMA_D, GAMMA_0, INTERFACE)

FAMILIES = ("mini", "taylor-hood")
ORACLE_CAP = 2000         # largest system reduced with dense algebra
QUAD_DEGREE = 4           # degree of the volume quadrature rule


class AssemblyError(Exception):
    pass


@dataclass(frozen=True)
class MaterialField:
    """Material data; E and nu may be constants or callables of (n, 2)
    point arrays."""

    E: object = 1.44e11        # Young modulus, Pa
    nu: object = 0.35          # Poisson ratio
    rho_s: float = 7700.0      # solid density, kg/m^3
    rho_f: float = 1000.0      # fluid density, kg/m^3
    c: float = 1430.0          # sound speed, m/s
    g: float = 9.8             # gravity, m/s^2

    def __post_init__(self):
        for name in ("rho_s", "rho_f", "c", "g"):
            if getattr(self, name) <= 0:
                raise AssemblyError(f"{name} must be positive")
        if not callable(self.E) and self.E <= 0:
            raise AssemblyError("E must be positive")
        if not callable(self.nu):
            _check_nu(self.nu)

    def young(self, x) -> np.ndarray:
        x = np.asarray(x, float)
        if callable(self.E):
            vals = np.asarray(self.E(x.reshape(-1, 2)), float)
            if np.any(vals <= 0):
                raise AssemblyError("E(x) must be positive")
            return vals.reshape(x.shape[:-1])
        return np.full(x.shape[:-1], float(self.E))

    def poisson(self, x) -> np.ndarray:
        x = np.asarray(x, float)
        if callable(self.nu):
            vals = np.asarray(self.nu(x.reshape(-1, 2)), float)
            _check_nu(vals)
            return vals.reshape(x.shape[:-1])
        return np.full(x.shape[:-1], float(self.nu))

    def lame(self, x):
        """Pointwise (mu, lambda^-1) from one evaluation of E and nu."""
        E, nu = self.young(x), self.poisson(x)
        return (E / (2.0 * (1.0 + nu)),
                (1.0 + nu) * (1.0 - 2.0 * nu) / (E * nu))


def _check_nu(nu):
    nu = np.asarray(nu, float)
    if np.any(nu <= 0) or np.any(nu > 0.5):
        raise AssemblyError("Poisson ratio must lie in (0, 1/2]")


# ----------------------------------------------------------------------
# spaces and block layout
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BlockLayout:
    """Dof bookkeeping for the block vector [u | w | p].

    ``free`` maps reduced (post-Dirichlet) indices to full block indices;
    ``pos`` is the inverse (-1 on eliminated dofs).  The reduced vector
    keeps the same block order, so reduced slices are contiguous.
    """

    n_u: int
    n_w: int
    n_p: int
    free: np.ndarray
    pos: np.ndarray

    @property
    def n_full(self) -> int:
        return self.n_u + self.n_w + self.n_p

    @property
    def n_free(self) -> int:
        return len(self.free)

    @property
    def off_w(self) -> int:
        return self.n_u

    @property
    def off_p(self) -> int:
        return self.n_u + self.n_w

    @property
    def nfree_u(self) -> int:
        return self.n_free - self.n_w - self.n_p

    def reduced_slices(self):
        nu = self.nfree_u
        return (slice(0, nu), slice(nu, nu + self.n_w),
                slice(nu + self.n_w, self.n_free))

    def split(self, x_reduced: np.ndarray):
        """Scatter a reduced vector into per-field coefficient vectors
        (Dirichlet entries zero)."""
        full = np.zeros(self.n_full)
        full[self.free] = x_reduced
        return (full[:self.n_u], full[self.off_w:self.off_p],
                full[self.off_p:])

    def gather(self, u, w, p) -> np.ndarray:
        full = np.concatenate([u, w, p])
        return full[self.free]


@dataclass(frozen=True)
class Spaces:
    """Dof maps of one discretization on one mesh."""

    mesh: Mesh
    family: str
    u_map: el.DofMap
    p_map: el.DofMap
    w_map: el.DofMap
    layout: BlockLayout
    u_vertex_dof: np.ndarray    # vertex id -> scalar u dof, -1 if none
    u_edge_dof: np.ndarray      # edge id -> scalar u dof (Taylor-Hood),
                                # -1 if none

    @property
    def n_free(self) -> int:
        return self.layout.n_free

    @functools.cached_property
    def bdm(self):
        """(coeff, geo) of ``el.bdm_cell_coefficients`` on the fluid
        cells, computed once per space."""
        return el.bdm_cell_coefficients(self.mesh, self.w_map)

    @functools.cached_property
    def solid_geometry(self) -> el.TriGeometry:
        """Affine maps of the solid cells, rows aligned with
        ``u_map.tris``, computed once per space."""
        return el.tri_geometry(self.mesh, self.u_map.tris)


def build_spaces(mesh: Mesh, family: str) -> Spaces:
    if family not in FAMILIES:
        raise AssemblyError(f"unknown element family {family!r}; "
                            f"choose from {FAMILIES}")
    u_kind = el.P1B if family == "mini" else el.VP2
    u_map = el.build_dofmap(mesh, u_kind, SOLID)
    p_map = el.build_dofmap(mesh, el.P1, SOLID)
    w_map = el.build_dofmap(mesh, el.BDM1, FLUID)

    # Dirichlet u dofs: both components on Gamma_D vertices and edges
    gd_edges = mesh.edges_with_tag(GAMMA_D)
    gd_verts = np.unique(mesh.edges[gd_edges]) if len(gd_edges) else \
        np.empty(0, dtype=np.int64)
    fixed = np.zeros(u_map.ndof, dtype=bool)
    on_vertex = (u_map.entity == 0) & np.isin(u_map.entity_id, gd_verts)
    fixed |= on_vertex
    if len(gd_edges):
        fixed |= (u_map.entity == 1) & np.isin(u_map.entity_id, gd_edges)

    n_u, n_w, n_p = u_map.ndof, w_map.ndof, p_map.ndof
    full_fixed = np.zeros(n_u + n_w + n_p, dtype=bool)
    full_fixed[:n_u] = fixed
    free = np.flatnonzero(~full_fixed)
    pos = np.full(n_u + n_w + n_p, -1, dtype=np.int64)
    pos[free] = np.arange(len(free))
    layout = BlockLayout(n_u, n_w, n_p, free, pos)

    if mesh.subdomain_tris(SOLID).size and not len(gd_edges):
        warnings.warn("no Gamma_D edges: the solid admits rigid motions "
                      "(zero eigenvalues of the stiffness)", stacklevel=2)

    uv = np.full(mesh.num_vertices, -1, dtype=np.int64)
    ue = np.full(mesh.num_edges, -1, dtype=np.int64)
    for table, entity in ((uv, 0), (ue, 1)):
        sel = (u_map.entity == entity) & (u_map.component == 0)
        table[u_map.entity_id[sel]] = np.flatnonzero(sel) // 2
    return Spaces(mesh, family, u_map, p_map, w_map, layout, uv, ue)


# ----------------------------------------------------------------------
# local matrices
# ----------------------------------------------------------------------

def _symmetrize(K):
    """Exact local symmetry; (K + K^T)/2 is bitwise symmetric."""
    return 0.5 * (K + K.transpose(0, 2, 1))


def _vector_expand(S1, S2):
    """Vector-element matrix K[(a,c),(b,d)] = delta_cd S1[a,b]
    + S2[a,b,d,c] with interleaved components."""
    nt, ns = S1.shape[0], S1.shape[1]
    K = np.empty((nt, 2 * ns, 2 * ns))
    K[:, 0::2, 0::2] = S1 + S2[:, :, :, 0, 0]
    K[:, 0::2, 1::2] = S2[:, :, :, 1, 0]
    K[:, 1::2, 0::2] = S2[:, :, :, 0, 1]
    K[:, 1::2, 1::2] = S1 + S2[:, :, :, 1, 1]
    return K


def _solid_tables(spaces, materials):
    """Displacement values and physical gradients, P1 pressure values,
    volume weights and (mu, lambda^-1) at the quadrature points of the
    solid cells."""
    q = el.quadrature(QUAD_DEGREE)
    geo = spaces.solid_geometry
    val_u, grad_u = el.scalar_tables(spaces.u_map.kind, geo, q.points)
    val_p, _, _ = el.scalar_basis_at(el.P1, q.points)
    dv = q.weights[None, :] * geo.det[:, None]
    mu, il = materials.lame(el.physical_points(geo, q.points))
    return val_u, grad_u, val_p, dv, mu, il


CELL_BLOCK = 256          # cells per block of _point_sums' temporaries


def _point_sums(w, left, right):
    """sum_q sum_r (w[t, q] left[t, q, i, r]) right[t, q, j, r], shape
    (nt, m, n); ``left`` and ``right`` may be reference tables of shape
    (1, nq, ., r).

    Each point's r terms are added first and the points then in
    quadrature order, the order of the three-operand einsum this
    replaces, so the local matrices are the same to the bit.  A BLAS
    matmul sums in another order with fused multiply-adds and turns
    exact cancellations, such as the MINI vertex-bubble couplings under
    a constant mu, into roundoff entries of the sparsity pattern.  Cells
    go in blocks of CELL_BLOCK, so the temporaries stay small.
    """
    nt = len(w)
    left = np.broadcast_to(left, (nt,) + left.shape[1:])
    right = np.broadcast_to(right, (nt,) + right.shape[1:])
    out = np.zeros((nt, left.shape[2], right.shape[2]))
    for start in range(0, nt, CELL_BLOCK):
        cells = slice(start, start + CELL_BLOCK)
        acc, lb, rb = out[cells], left[cells], right[cells]
        for k in range(w.shape[1]):
            wl = w[cells, k, None, None] * lb[:, k]
            term = wl[:, :, None, 0] * rb[:, k, None, :, 0]
            for r in range(1, left.shape[3]):
                term += wl[:, :, None, r] * rb[:, k, None, :, r]
            acc += term
    return out


def _solid_blocks(spaces, materials):
    """Local blocks (row dofs, column dofs, A part, B part or None) of
    the solid cells, from one build of their quadrature tables."""
    val_u, grad_u, val_p, dv, muq, ilq = _solid_tables(spaces, materials)
    nt, nq, ns = grad_u.shape[:3]
    mdv = muq * dv
    S1 = _point_sums(mdv, grad_u, grad_u)
    # S2[t, a, b, d, c] = sum_q mu dv d_d phi_a d_c phi_b from the
    # products of the flattened (a, d) and (b, c) columns
    G = grad_u.reshape(nt, nq, 2 * ns, 1)
    S2 = _point_sums(mdv, G, G).reshape(nt, ns, 2, ns, 2).transpose(
        0, 1, 3, 2, 4)
    Kuu = _symmetrize(_vector_expand(S1, S2))

    U = val_u[None, ..., None]
    Ms = _symmetrize(materials.rho_s * _point_sums(dv, U, U))
    Muu = np.zeros_like(Kuu)
    Muu[:, 0::2, 0::2] = Ms
    Muu[:, 1::2, 1::2] = Ms

    # -int p div v: dof (a,c) couples through d_c phi_a
    P1 = val_p[None, ..., None]
    Bup = -_point_sums(dv, P1, G).transpose(0, 2, 1)
    App = _symmetrize(-_point_sums(ilq * dv, P1, P1))

    udofs = spaces.u_map.cell2dof
    pdofs = spaces.p_map.cell2dof + spaces.layout.off_p
    return [(udofs, udofs, Kuu, Muu),
            (udofs, pdofs, Bup, None),
            (pdofs, udofs, Bup.transpose(0, 2, 1), None),
            (pdofs, pdofs, App, None)]


def _fluid_blocks(mesh, spaces, materials):
    """Local blocks of the fluid cells and of the free-surface edges."""
    coeff, geo = spaces.bdm
    q = el.quadrature(QUAD_DEGREE)
    cpts = el.physical_points(geo, q.points) - geo.centroid[:, None, :]
    valw, divs = el.bdm_eval(coeff, cpts)
    c2rf = materials.c ** 2 * materials.rho_f
    Kww = _symmetrize(c2rf * np.einsum("t,ti,tj->tij", geo.area, divs,
                                       divs))
    dvf = q.weights[None, :] * geo.det[:, None]
    Mww = _symmetrize(materials.rho_f * _point_sums(dvf, valw, valw))
    off_w = spaces.layout.off_w
    wdofs = spaces.w_map.cell2dof + off_w
    blocks = [(wdofs, wdofs, Kww, Mww)]
    if len(mesh.edges_with_tag(GAMMA_0)):
        Ke, edofs = _gamma0_edge_matrices(mesh, spaces, coeff, geo,
                                          materials)
        blocks.append((edofs + off_w, edofs + off_w, Ke, None))
    return blocks


def _gamma0_edge_matrices(mesh, spaces, coeff, geo_f, materials):
    """g rho_f (w.n)(tau.n) on the free-surface edges, by edge quadrature."""
    g0 = mesh.edges_with_tag(GAMMA_0)
    tid = mesh.edge_tris[g0, 0]
    k = el.tri_positions(spaces.w_map.tris)[tid]
    a, tang, nrm, length = mesh.edge_frames(g0)
    tq, wq = el.edge_gauss(3)
    Ke = np.zeros((len(g0), 6, 6))
    grf = materials.g * materials.rho_f
    for t, w in zip(tq, wq):
        x = (a + t * tang - geo_f.centroid[k])[:, None, :]
        vals, _ = el.bdm_eval(coeff[k], x)
        vn = np.einsum("eqjc,ec->ej", vals, nrm)
        Ke += grf * (w * length)[:, None, None] * \
            np.einsum("ei,ej->eij", vn, vn)
    return _symmetrize(Ke), spaces.w_map.cell2dof[k]


def _cell_order_csr(blocks, lay):
    """Scatter local blocks into the reduced CSR pair (A, B).

    Each local entry is keyed by its reduced position
    pos[row] * n_free + pos[col]; entries on Dirichlet dofs (pos -1)
    drop out.  One ``np.unique`` of the keys gives the pattern of both
    matrices, and ``np.add.at`` adds the contributions to each entry one
    at a time in the order the blocks list them, cell by cell.  An entry
    and its mirror thus sum the same values in the same order, so A and
    B are bitwise symmetric; entries that cancel exactly are not stored,
    and the arrays of each matrix hold its own entries only.
    """
    n = lay.n_free
    # keys fit in 32 bits up to n_free = 46340, which halves the memory
    # of the sort in np.unique
    pos = lay.pos.astype(np.int32 if n * n < 2 ** 31 else np.int64)
    keeps, keys = [], []
    for rows, cols, _, _ in blocks:
        r = pos[rows][:, :, None]
        c = pos[cols][:, None, :]
        keeps.append(((r >= 0) & (c >= 0)).ravel())
        keys.append((r * n + c).ravel()[keeps[-1]])
    # the per-block keys are released before np.unique, which keeps the
    # scatter's peak memory low
    sizes = [len(k) for k in keys]
    keys = np.concatenate(keys)
    pattern, inv = np.unique(keys, return_inverse=True)
    del keys
    segments = np.split(inv, np.cumsum(sizes)[:-1])
    rows, cols = np.divmod(pattern, n)

    def fill(part):         # part 2: the A matrices of the blocks, 3: B
        data = np.zeros(len(pattern))
        for block, keep, seg in zip(blocks, keeps, segments):
            if block[part] is not None:
                np.add.at(data, seg, block[part].ravel()[keep])
        stored = data != 0.0
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[stored], minlength=n), out=indptr[1:])
        return sp.csr_matrix((data[stored], cols[stored], indptr),
                             shape=(n, n))

    return fill(2), fill(3)


def assemble_pencil(mesh: Mesh, spaces: Spaces, materials: MaterialField):
    """Reduced sparse stiffness A and mass B (Dirichlet dofs removed),
    assembled in one pass; B is identically zero on the pressure block."""
    blocks = []
    if len(spaces.u_map.tris):
        blocks += _solid_blocks(spaces, materials)
    if len(spaces.w_map.tris):
        blocks += _fluid_blocks(mesh, spaces, materials)
    return _cell_order_csr(blocks, spaces.layout)


# ----------------------------------------------------------------------
# interface constraint
# ----------------------------------------------------------------------

def _edge_trace_table(order, t):
    """Scalar C0 trace values along an edge at parameters t.

    order 1: endpoint basis; order 2: endpoints + midpoint dof.  The
    parameter runs from the lower to the higher global vertex id.
    """
    t = np.asarray(t, float)
    if order == 1:
        return np.stack([1.0 - t, t], axis=1)
    return np.stack([(1.0 - t) * (1.0 - 2.0 * t),
                     t * (2.0 * t - 1.0),
                     4.0 * t * (1.0 - t)], axis=1)


def assemble_interface(mesh: Mesh, spaces: Spaces):
    """Constraint rows int_E (u.n - w.n) zeta_m dt = 0 per interface edge.

    With the moments normalized by edge length, the coefficient of the
    fluid moment dof (E, m) is exactly -1, so the rows double as an
    explicit elimination map for the interface fluid dofs.  Returns the
    reduced-column matrix and, per row, the reduced index of that dof.
    """
    lay = spaces.layout
    ifc = mesh.edges_with_tag(INTERFACE)
    ne = len(ifc)
    tq, wq = el.edge_gauss(3)
    zeta = np.stack([np.ones_like(tq), el.SQRT3 * (2.0 * tq - 1.0)])
    trace = _edge_trace_table(1 if spaces.family == "mini" else 2, tq)
    moments = np.einsum("q,mq,qa->ma", wq, zeta, trace)    # (2, ntr)
    _, _, nrm, _ = mesh.edge_frames(ifc)

    # row 2 r + m of edge r: moment m against each trace dof a and
    # component c at column 2 s_a + c, then -1 on the fluid moment dof m
    sdofs = [spaces.u_vertex_dof[mesh.edges[ifc, 0]],
             spaces.u_vertex_dof[mesh.edges[ifc, 1]]]
    if spaces.family != "mini":
        sdofs.append(spaces.u_edge_dof[ifc])
    width = 2 * len(sdofs)
    ucols = 2 * np.stack(sdofs, axis=1)[:, :, None] + np.arange(2)
    wcols = lay.off_w + 2 * np.searchsorted(
        spaces.w_map.entity_id[0::2], ifc)[:, None] + np.arange(2)
    cols = np.concatenate([
        np.broadcast_to(ucols.reshape(ne, 1, width), (ne, 2, width)),
        wcols[:, :, None]], axis=2)
    uvals = moments[None, :, :, None] * nrm[:, None, None, :]
    vals = np.concatenate([uvals.reshape(ne, 2, width),
                           np.full((ne, 2, 1), -1.0)], axis=2)
    rows = np.broadcast_to(np.arange(2 * ne).reshape(ne, 2, 1), cols.shape)
    cols = lay.pos[cols]
    keep = cols >= 0
    C = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                      shape=(2 * ne, lay.n_free))
    return C, lay.pos[wcols].ravel()


# ----------------------------------------------------------------------
# constraint reduction
# ----------------------------------------------------------------------

def nullspace_basis(system) -> sp.csr_matrix:
    """Sparse basis Z of ker C with x = Z y.

    When the system carries the assembled interface metadata, the fluid
    moment dof of each row (coefficient exactly -1, see
    ``assemble_interface``) is eliminated in favor of the solid trace
    moments.  Otherwise a dense SVD null space is used (small systems).
    """
    n = system.n
    C = system.C
    if C is None or C.shape[0] == 0:
        return sp.identity(n, format="csr")
    if system.interface_wdofs is not None:
        elim = np.asarray(system.interface_wdofs, dtype=np.int64)
        keep = np.setdiff1d(np.arange(n), elim)
        kpos = np.full(n, -1, dtype=np.int64)
        kpos[keep] = np.arange(len(keep))
        Cc = C.tocoo()
        # row: sum_c v_c x_c - x_elim = 0  ->  x_elim = sum v_c x_c
        off = Cc.col != elim[Cc.row]
        rows = np.concatenate([keep, elim[Cc.row[off]]])
        cols = np.concatenate([np.arange(len(keep)), kpos[Cc.col[off]]])
        vals = np.concatenate([np.ones(len(keep)), Cc.data[off]])
        Z = sp.coo_matrix((vals, (rows, cols)), shape=(n, len(keep)))
        return Z.tocsr()
    if n > ORACLE_CAP:
        raise AssemblyError("generic constraint elimination needs the "
                            "assembled interface metadata for large "
                            "systems")
    return sp.csr_matrix(svd_nullspace(C))


def svd_nullspace(C) -> np.ndarray:
    """Dense basis of ker C: unit vectors on the columns C does not
    touch, then an SVD null space of the touched columns."""
    Cd = C.toarray()
    n = Cd.shape[1]
    touched = np.flatnonzero(np.any(Cd != 0.0, axis=0))
    Zt = la.null_space(Cd[:, touched])
    keep = np.setdiff1d(np.arange(n), touched)
    Z = np.zeros((n, len(keep) + Zt.shape[1]))
    Z[keep, np.arange(len(keep))] = 1.0
    Z[touched, len(keep):] = Zt
    return Z


def equilibration(system) -> np.ndarray | None:
    """Diagonal scaling x = D x~ balancing the pressure block.

    In physical units the Herrmann pressure is about lambda = O(E) times
    larger than the displacements, which spreads the eigenvector across
    nine orders of magnitude and stalls Lanczos at coarse residuals.
    Scaling the pressure dofs by the stiffness/coupling ratio restores a
    balanced pencil; eigenvalues are unchanged and the symmetry is kept.
    """
    lay = system.layout
    if lay is None or lay.n_p == 0 or lay.nfree_u == 0:
        return None
    su, _, sp_ = lay.reduced_slices()
    A = system.A
    a_uu = abs(A[su, su]).max() if su.stop > su.start else 0.0
    a_up = abs(A[su, sp_]).max()
    if a_up == 0.0 or a_uu == 0.0:
        return None
    d = np.ones(lay.n_free)
    d[sp_] = a_uu / a_up
    return d


# ----------------------------------------------------------------------
# block system
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSystem:
    """Reduced matrices of the constrained pencil A x = kappa B x,
    C x = 0."""

    A: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    layout: BlockLayout = None
    spaces: Spaces = None
    interface_wdofs: np.ndarray = None

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @functools.cached_property
    def basis(self) -> sp.csr_matrix:
        """The basis W = D Z of the constrained pencil, built once.

        Z is the basis of ker C from ``nullspace_basis`` and D the
        pressure scaling of ``equilibration``.  C has no pressure
        columns, so C D = C and W still spans ker C: x = W y satisfies
        the constraint for every y.  The reduced matrices W^T A W and
        W^T B W are not kept: each factor and each run forms what it
        needs (``reduce``) and drops it.
        """
        W = nullspace_basis(self)
        d = equilibration(self)
        if d is not None:
            W = (sp.diags(d) @ W).tocsr()
        return W

    def reduce(self, M) -> sp.csc_matrix:
        """W^T M W in csc format, for M = A or B."""
        W = self.basis
        return (W.T @ M @ W).tocsc()

    @functools.cached_property
    def count_orders(self) -> dict:
        """Pivot-free orderings of the reduced operator that
        ``eigensolve.ShiftFactor`` has made, kept for the system's later
        factors."""
        return {}

    @classmethod
    def from_matrices(cls, A, B, C=None):
        """Wrap raw (dense or sparse) matrices, e.g. for tests."""
        A = sp.csr_matrix(A)
        B = sp.csr_matrix(B)
        if C is not None and not sp.issparse(C):
            C = sp.csr_matrix(np.atleast_2d(C))
        return cls(A, B, C)

    def export_matrix_market(self, directory, stem="system"):
        import os
        import scipy.io as sio
        os.makedirs(directory, exist_ok=True)
        paths = []
        for name, mat in (("A", self.A), ("B", self.B), ("C", self.C)):
            if mat is None:
                continue
            path = os.path.join(directory, f"{stem}_{name}.mtx")
            sio.mmwrite(path, sp.coo_matrix(mat))
            paths.append(path)
        return paths


def build_block_system(mesh: Mesh, family: str,
                       materials: MaterialField) -> BlockSystem:
    spaces = build_spaces(mesh, family)
    A, B = assemble_pencil(mesh, spaces, materials)
    C, wdofs = assemble_interface(mesh, spaces)
    return BlockSystem(A, B, C, spaces.layout, spaces, wdofs)
