"""Residual-based a posteriori error indicators.

For an eigenpair (kappa = omega^2, u, w, p) the estimator collects
coefficient-weighted element residuals, inter-element jumps and interface
contributions:

  solid   R1 = div(2 mu_h eps(u)) - grad p + omega^2 rho_s u,
          R2 = div u + lam^-1 p,
          J  = jump of (2 mu_h eps(u) - p I) n,
  fluid   R1 = c^2 rho_f grad(div w) + omega^2 rho_f w,
          R2 = rot(omega^2 rho_f w),
          J1 = jump of c^2 rho_f (div w) n,   J2 = jump of
          omega^2 rho_f w x n,
  coupling   (2 mu_h eps(u) - p I) n - c^2 rho_f (div w) n on the
          interface,

with mu_h the elementwise linear L2 projection of mu and the data
oscillation Theta measuring (mu - mu_h) eps(u).  On the free surface the
flux residual includes the g rho_f (w.n) sloshing term, mirroring the
boundary condition there.

Boundary edges of the fluid (free surface and interface) carry no
tangential term: an exact mode has omega^2 rho_f w = grad p with the
fluid pressure p = -c^2 rho_f div w, so w x n equals the tangential
derivative of p over omega^2 rho_f, which does not vanish on either
boundary.  Only the interior jump of w x n is a residual.

Fields are contracted before they are mapped.  On the shared volume
quadrature points each field's cell coefficients are contracted with
the reference-element tables of its basis (values, gradients and
Hessians), one matmul per table for all triangles, and only then does
each triangle's affine map B act on the small per-point results:
gradients as B^-T g, Hessians as B^-T H B^-1.  An edge's points lie at
one of six placements on its triangle (local edge and direction), so
each edge takes the reference table of its placement, contracted with
its triangle's coefficients before the same map.  The BDM fluid field
is linear on each triangle, so its cell dofs are contracted with the
basis coefficients of ``Spaces.bdm`` into six monomial coefficients
first and evaluated at points after, by ``elements.linear_values`` as
the basis itself is.

``estimate_mode`` computes one mode's estimate in one pass, which builds
each of its tables once: E(x) and nu(x) at the solid quadrature points,
the projection of mu, the fluid monomials with div w, the triangle
positions of the u and w dof maps and the frames of each edge set.  The
solid geometry comes from ``Spaces.solid_geometry``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import elements as el
from .assembly import MaterialField, Spaces
from .eigensolve import EigenPair
from .meshing import (Mesh, SOLID, FLUID, INTERIOR, GAMMA_N, GAMMA_0,
                      INTERFACE)

DEFAULT_DEGREE = 5
EDGE_POINTS = 3          # Gauss points per edge


class EstimatorError(Exception):
    pass


class Weights:
    """Coefficient weights evaluated pointwise: (2 mu_h)^(-1/2),
    [(2 mu_h)^-1 + lam^-1]^-1 and (2 mu_h)^(-1/2) / sqrt(2) in the solid,
    (c^2 rho_f)^(-1/2) and min{rho_f, (omega^2 rho_f)^(-1/2)} / sqrt(2)
    in the fluid."""

    @staticmethod
    def solid(mu_h, inv_lambda):
        r1 = 1.0 / np.sqrt(2.0 * mu_h)
        r2 = 1.0 / (1.0 / (2.0 * mu_h) + inv_lambda)
        return r1, r2, r1 / np.sqrt(2.0)

    @staticmethod
    def fluid(materials: MaterialField, kappa: float):
        if kappa <= 0:
            raise EstimatorError("fluid weights need omega > 0; kernel "
                                 "modes have no estimator")
        rf = 1.0 / np.sqrt(materials.c ** 2 * materials.rho_f)
        re = min(rf, 1.0 / np.sqrt(kappa * materials.rho_f)) / np.sqrt(2.0)
        return rf, re


@dataclass(frozen=True)
class IndicatorSet:
    """Local estimator contributions and their aggregates."""

    solid_tris: np.ndarray = None
    eta2_K_S: np.ndarray = None
    theta2_K_S: np.ndarray = None
    solid_edges: np.ndarray = None
    eta2_J_S: np.ndarray = None
    fluid_tris: np.ndarray = None
    eta2_K_F: np.ndarray = None
    fluid_edges: np.ndarray = None
    eta2_J_F: np.ndarray = None
    interface_edges: np.ndarray = None
    eta2_E_I: np.ndarray = None

    @property
    def eta2(self) -> float:
        total = 0.0
        for arr in (self.eta2_K_S, self.eta2_J_S, self.eta2_K_F,
                    self.eta2_J_F, self.eta2_E_I):
            if arr is not None:
                total += float(arr.sum())
        return total

    @property
    def theta2(self) -> float:
        return float(self.theta2_K_S.sum()) \
            if self.theta2_K_S is not None else 0.0

    def element_totals(self, mesh: Mesh) -> np.ndarray:
        """Per-triangle totals for marking: edge terms split half/half
        between neighbors, boundary edges in full, interface edges in
        full to both sides."""
        eta = np.zeros(mesh.num_triangles)
        if self.eta2_K_S is not None:
            eta[self.solid_tris] += self.eta2_K_S
        if self.eta2_K_F is not None:
            eta[self.fluid_tris] += self.eta2_K_F
        for edges, vals in ((self.solid_edges, self.eta2_J_S),
                            (self.fluid_edges, self.eta2_J_F)):
            if edges is None:
                continue
            t0 = mesh.edge_tris[edges, 0]
            t1 = mesh.edge_tris[edges, 1]
            interior = t1 >= 0
            np.add.at(eta, t0[interior], 0.5 * vals[interior])
            np.add.at(eta, t1[interior], 0.5 * vals[interior])
            np.add.at(eta, t0[~interior], vals[~interior])
        if self.interface_edges is not None:
            t0 = mesh.edge_tris[self.interface_edges, 0]
            t1 = mesh.edge_tris[self.interface_edges, 1]
            np.add.at(eta, t0, self.eta2_E_I)
            np.add.at(eta, t1, self.eta2_E_I)
        return eta


# ----------------------------------------------------------------------
# elementwise projection of mu
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MuProjection:
    """Elementwise L2 projection of mu onto linear functions on the solid
    triangles: three barycentric coefficients per element, and its
    elementwise constant gradient."""

    coeff: np.ndarray        # (nt, 3)
    grad: np.ndarray         # (nt, 2)

    def at(self, bary) -> np.ndarray:
        """(nt, nq) values at shared barycentric points."""
        return np.einsum("tk,qk->tq", self.coeff, bary)


def project_mu(geo, q, dv, muq) -> MuProjection:
    """Projection of mu, given as ``muq`` with volume weights ``dv`` at
    the points of the rule ``q`` on the triangles ``geo``."""
    # barycentric mass matrix is area/12 * (I + ones)
    rhs = np.einsum("tq,qk->tk", muq * dv, q.points)
    M = (np.eye(3) + np.ones((3, 3))) / 12.0
    coeff = np.linalg.solve(M[None] * geo.area[:, None, None],
                            rhs[:, :, None])[:, :, 0]
    dl = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    grad_ref = coeff @ dl                      # (nt, 2) in ref coords
    grad = np.einsum("td,tdc->tc", grad_ref, geo.inv_jac)
    return MuProjection(coeff, grad)


# ----------------------------------------------------------------------
# field evaluation helpers
# ----------------------------------------------------------------------

def _contract(table, coeff):
    """sum_s table[q, s, ...] coeff[t, s, ...], shape (nt, nq, ...).

    One matmul of a reference table (nq, ns, ...) with the cell
    coefficients (nt, ns, ...) of every triangle at once.
    """
    ns = table.shape[1]
    rows = np.moveaxis(table, 1, -1).reshape(-1, ns)
    cols = np.moveaxis(coeff, 0, -1).reshape(ns, -1)
    out = (rows @ cols).reshape(table.shape[:1] + table.shape[2:]
                                + coeff.shape[2:] + coeff.shape[:1])
    return np.moveaxis(out, -1, 0)


def _solid_fields(spaces, mode, bary):
    """u, grad u, Hessian of u, p and grad p at the shared barycentric
    points ``bary`` of every solid triangle.

    grad u is (nt, nq, 2, 2) with [..., c, d] = d u_c / d x_d and the
    Hessian (nt, nq, 2, 2, 2) with [..., c, a, b] = d^2 u_c / dx_a dx_b.
    """
    umap, pmap = spaces.u_map, spaces.p_map
    inv = spaces.solid_geometry.inv_jac
    val, gref, href = el.scalar_basis_at(umap.kind, bary)
    uc = mode.u[umap.cell2dof].reshape(len(umap.tris), -1, 2)
    u_val = _contract(val, uc)                           # (nt, nq, c)
    # reference derivatives [..., d, c] map as B^-T
    u_grad = np.swapaxes(_contract(gref, uc), -1, -2) @ inv[:, None]
    u_href = np.moveaxis(_contract(href, uc), -1, -3)    # [..., c, a, b]
    u_hess = np.swapaxes(inv, -1, -2)[:, None, None] @ u_href \
        @ inv[:, None, None]
    pval, pgref, _ = el.scalar_basis_at(el.P1, bary)
    pc = mode.p[pmap.cell2dof][..., None]
    p_val = _contract(pval, pc)[..., 0]
    p_grad = (np.swapaxes(_contract(pgref, pc), -1, -2)
              @ inv[:, None])[:, :, 0]
    return u_val, u_grad, u_hess, p_val, p_grad


def _strain(u_grad):
    return 0.5 * (u_grad + np.swapaxes(u_grad, -1, -2))


# ----------------------------------------------------------------------
# solid terms
# ----------------------------------------------------------------------

def _solid_tables(spaces, materials, q):
    """Volume weights, mu and lambda^-1 at the quadrature points of every
    solid triangle (one evaluation of E and nu) and the projection of
    mu."""
    geo = spaces.solid_geometry
    dv = q.weights[None, :] * geo.det[:, None]
    mu_q, il_q = materials.lame(el.physical_points(geo, q.points))
    return dv, mu_q, il_q, project_mu(geo, q, dv, mu_q)


def _solid_residuals(mesh, spaces, mode, rho_s, q, dv, mu_q, il_q, proj):
    """Element residuals and data oscillation of the solid triangles."""
    u_val, u_grad, u_hess, p_val, p_grad = _solid_fields(spaces, mode,
                                                         q.points)
    mu_h = proj.at(q.points)
    eps = _strain(u_grad)                      # (nt, nq, 2, 2)
    # div(2 mu_h eps(u)) = mu_h (lap u + grad div u) + 2 eps(u) grad mu_h
    lap_u = u_hess[..., 0, 0] + u_hess[..., 1, 1]        # (nt, nq, 2)
    div_u = u_grad[..., 0, 0] + u_grad[..., 1, 1]        # (nt, nq)
    grad_div = np.stack([u_hess[..., 0, 0, 0] + u_hess[..., 1, 0, 1],
                         u_hess[..., 0, 1, 0] + u_hess[..., 1, 1, 1]],
                        axis=-1)
    div_stress = mu_h[..., None] * (lap_u + grad_div) \
        + 2.0 * np.einsum("tqij,tj->tqi", eps, proj.grad)
    R1 = div_stress - p_grad + mode.kappa * rho_s * u_val
    R2 = div_u + il_q * p_val

    rho1, rho2, _ = Weights.solid(mu_h, il_q)
    hK2 = mesh.tri_diameters(spaces.u_map.tris) ** 2
    eta_K = hK2 * np.einsum("tq,tq->t", dv, rho1 ** 2 *
                            np.einsum("tqi,tqi->tq", R1, R1)) \
        + np.einsum("tq,tq->t", dv, rho2 * R2 ** 2)
    theta_K = np.einsum("tq,tq->t", dv, rho1 ** 2 * (mu_q - mu_h) ** 2
                        * np.einsum("tqij,tqij->tq", eps, eps))
    return eta_K, theta_K


def _edge_bary(tq):
    """Barycentric coordinates (6, nq, 3) of the edge points a + t (b - a)
    at the six placements of an edge on a triangle: placement 2 i is its
    local edge i with a at vertex i + 1, placement 2 i + 1 the same edge
    with a at vertex i + 2 (mod 3)."""
    bary = np.zeros((6, len(tq), 3))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        bary[2 * i, :, j] = bary[2 * i + 1, :, k] = 1.0 - tq
        bary[2 * i, :, k] = bary[2 * i + 1, :, j] = tq
    return bary


def _solid_traction(mesh, spaces, mode, proj, upos, edges, tri, nrm, tq):
    """(2 mu_h eps(u) - p I) n and mu_h at edge quadrature points, from
    the solid triangle ``tri`` of each edge, with n its frame normal."""
    k = upos[tri]
    local = np.argmax(mesh.tri_edges[tri] == edges[:, None], axis=1)
    place = 2 * local + (mesh.triangles[tri, (local + 1) % 3]
                         != mesh.edges[edges, 0])
    places = _edge_bary(tq)
    _, gref, _ = el.scalar_basis_at(spaces.u_map.kind, places.reshape(-1, 3))
    gref = np.swapaxes(gref.reshape(6, len(tq), -1, 2), -1, -2)
    uc = mode.u[spaces.u_map.cell2dof[k]].reshape(len(edges), -1, 2)
    # each edge's table contracted with its triangle's coefficients,
    # then the (d, c) result mapped
    gu = gref[place] @ uc[:, None]
    inv = spaces.solid_geometry.inv_jac[k]
    u_grad = np.swapaxes(gu, -1, -2) @ inv[:, None]
    bary = places[place]                       # (ne, nq, 3)
    # P1 basis values are the barycentric coordinates
    p = (bary @ mode.p[spaces.p_map.cell2dof[k]][:, :, None])[..., 0]
    mu_h = np.einsum("ek,eqk->eq", proj.coeff[k], bary)
    eps_n = (_strain(u_grad) @ nrm[:, None, :, None])[..., 0]
    traction = 2.0 * mu_h[..., None] * eps_n - p[..., None] * nrm[:, None]
    return traction, mu_h


def _solid_jumps(mesh, spaces, mode, proj, upos):
    """Traction jumps on the interior solid edges and tractions on the
    Neumann edges: (edges, eta2 per edge)."""
    tag = mesh.edge_tag
    t0, t1 = mesh.edge_tris[:, 0], mesh.edge_tris[:, 1]
    solid0 = mesh.tri_tag[np.clip(t0, 0, None)] == SOLID
    interior = (tag == INTERIOR) & (t1 >= 0) & solid0
    neumann = (tag == GAMMA_N)
    edges = np.flatnonzero(interior | neumann).astype(np.int32)
    if not len(edges):
        return edges, np.zeros(0)
    tqe, wqe = el.edge_gauss(EDGE_POINTS)
    _, _, nrm, length = mesh.edge_frames(edges)
    tr0, mu0 = _solid_traction(mesh, spaces, mode, proj, upos, edges,
                               t0[edges], nrm, tqe)
    is_int = interior[edges]
    J = tr0.copy()
    mu_edge = mu0.copy()
    if is_int.any():
        sub = edges[is_int]
        tr1, mu1 = _solid_traction(mesh, spaces, mode, proj, upos, sub,
                                   t1[sub], nrm[is_int], tqe)
        J[is_int] = 0.5 * (tr0[is_int] - tr1)
        mu_edge[is_int] = 0.5 * (mu0[is_int] + mu1)
    rhoE2 = 1.0 / (2.0 * mu_edge) / 2.0        # (rho_E^S)^2 pointwise
    J2 = np.einsum("eqi,eqi->eq", J, J)
    eta = length ** 2 * np.einsum("q,eq->e", wqe, rhoE2 * J2)
    return edges, eta


# ----------------------------------------------------------------------
# fluid terms
# ----------------------------------------------------------------------

def _fluid_eval(spaces, mode):
    """w on each fluid triangle as monomial coefficients a (nt, 6), with
    div w and rot w (nt,).

    The cell dofs are contracted with the BDM coefficient tensors of
    ``Spaces.bdm``: w = (a0 + a2 X + a4 Y, a1 + a3 X + a5 Y) in
    coordinates (X, Y) centered at the centroid, so div w = a2 + a5 and
    rot w = a3 - a4 are elementwise constant.
    """
    coeff, _ = spaces.bdm
    wc = mode.w[spaces.w_map.cell2dof]
    mono = (wc[:, None, :] @ coeff)[:, 0]
    # a2 and a5 can be much larger than their sum, so div w is taken from
    # the basis divergences, which keeps the jumps of div w accurate
    div = np.einsum("tj,tj->t", coeff[:, :, 2] + coeff[:, :, 5], wc)
    return mono, div, mono[:, 3] - mono[:, 4]


def _fluid_residuals(mesh, spaces, kappa, rho_f, rf, q, mono, rot_w):
    """Element residuals of the fluid triangles.

    The lowest-order fluid element has elementwise-constant divergence,
    so grad(div w) vanishes and the volume residual reduces to the
    omega^2 rho_f terms.
    """
    _, geo = spaces.bdm
    cpts = el.physical_points(geo, q.points) - geo.centroid[:, None, :]
    w_val = el.linear_values(mono, cpts)
    dv = q.weights[None, :] * geo.det[:, None]
    # R1 = c^2 rho_f grad(div w) + kappa rho_f w; the first term is zero
    # elementwise for BDM1
    R1sq = (kappa * rho_f) ** 2 * np.einsum("tqc,tqc->tq", w_val, w_val)
    R2sq = (kappa * rho_f * rot_w) ** 2
    hK2 = mesh.tri_diameters(spaces.w_map.tris) ** 2
    return hK2 * rf ** 2 * (np.einsum("tq,tq->t", dv, R1sq)
                            + R2sq * geo.area)


def _fluid_jumps(mesh, spaces, kappa, materials, re, mono, div_w, wpos):
    """Jumps on the interior fluid edges and the sloshing flux residual
    on the free surface: (edges, eta2 per edge)."""
    tag = mesh.edge_tag
    t0, t1 = mesh.edge_tris[:, 0], mesh.edge_tris[:, 1]
    fluid0 = mesh.tri_tag[np.clip(t0, 0, None)] == FLUID
    interior = (tag == INTERIOR) & (t1 >= 0) & fluid0
    surface = tag == GAMMA_0
    edges = np.flatnonzero(interior | surface).astype(np.int32)
    if not len(edges):
        return edges, np.zeros(0)
    _, geo = spaces.bdm
    c2rf = materials.c ** 2 * materials.rho_f
    rho_f = materials.rho_f
    tqe, wqe = el.edge_gauss(EDGE_POINTS)
    a, tang, nrm, length = mesh.edge_frames(edges)
    pts = a[:, None, :] + tqe[None, :, None] * tang[:, None, :]

    k0 = wpos[t0[edges]]
    w0 = el.linear_values(mono[k0], pts - geo.centroid[k0][:, None, :])
    div0 = div_w[k0]
    is_int = interior[edges]
    eta = np.zeros(len(edges))

    if is_int.any():
        k1 = wpos[t1[edges[is_int]]]
        w1 = el.linear_values(mono[k1],
                              pts[is_int] - geo.centroid[k1][:, None, :])
        jump_div = 0.5 * c2rf * (div0[is_int] - div_w[k1])   # along n0
        dw = 0.5 * (w0[is_int] - w1)
        n0 = nrm[is_int]
        jump_cross = kappa * rho_f * (dw[..., 0] * n0[:, None, 1]
                                      - dw[..., 1] * n0[:, None, 0])
        j1 = jump_div[:, None] ** 2 * np.ones_like(jump_cross)
        eta[is_int] = length[is_int] ** 2 * re ** 2 * np.einsum(
            "q,eq->e", wqe, j1 + jump_cross ** 2)

    if (~is_int).any():
        sub = ~is_int
        # the sloshing flux residual needs the outward normal
        mids = mesh.vertices[mesh.edges[edges[sub]]].mean(axis=1)
        cent = geo.centroid[k0[sub]]
        flip = np.einsum("ec,ec->e", nrm[sub], mids - cent) < 0
        n0 = np.where(flip[:, None], -nrm[sub], nrm[sub])
        wn = np.einsum("eqc,ec->eq", w0[sub], n0)
        flux = c2rf * div0[sub][:, None] + materials.g * rho_f * wn
        eta[sub] = length[sub] ** 2 * re ** 2 * np.einsum(
            "q,eq->e", wqe, flux ** 2)
    return edges, eta


# ----------------------------------------------------------------------
# interface terms and the estimate
# ----------------------------------------------------------------------

def _interface_balance(mesh, spaces, mode, materials, re, proj, upos,
                       div_w, wpos):
    """Stress balance on the interface edges: (edges, eta2 per edge)."""
    edges = mesh.edges_with_tag(INTERFACE)
    tqe, wqe = el.edge_gauss(EDGE_POINTS)
    _, _, nrm, length = mesh.edge_frames(edges)
    t0, t1 = mesh.edge_tris[edges, 0], mesh.edge_tris[edges, 1]
    solid0 = mesh.tri_tag[t0] == SOLID
    traction, mu_edge = _solid_traction(mesh, spaces, mode, proj, upos,
                                        edges, np.where(solid0, t0, t1),
                                        nrm, tqe)
    div_tr = div_w[wpos[np.where(solid0, t1, t0)]]

    c2rf = materials.c ** 2 * materials.rho_f
    rhoE_s = 1.0 / np.sqrt(2.0 * mu_edge) / np.sqrt(2.0)
    rho_i = np.minimum(re, rhoE_s)

    balance = traction - c2rf * div_tr[:, None, None] * nrm[:, None, :]
    bal2 = np.einsum("eqi,eqi->eq", balance, balance)
    eta = length ** 2 * np.einsum("q,eq->e", wqe, rho_i ** 2 * bal2)
    return edges, eta


def estimate_mode(mesh: Mesh, spaces: Spaces, mode: EigenPair,
                  materials: MaterialField,
                  quad_degree: int = DEFAULT_DEGREE):
    """The estimator of one mode in one pass: (eta2, theta2, IndicatorSet).

    The interface terms need both subdomains; the arrays of a missing
    part are None.  A kernel mode (omega = 0) has no estimator: its fluid
    weights raise ``EstimatorError`` before any table is built.
    """
    rf, re = Weights.fluid(materials, mode.kappa)
    q = el.quadrature(quad_degree)
    parts = {}
    if len(spaces.u_map.tris):
        if len(mode.u) != spaces.u_map.ndof:
            raise EstimatorError("mode does not carry solid fields for "
                                 "these spaces")
        dv, mu_q, il_q, proj = _solid_tables(spaces, materials, q)
        upos = el.tri_positions(spaces.u_map.tris)
        eta_K, theta_K = _solid_residuals(mesh, spaces, mode,
                                          materials.rho_s, q, dv, mu_q,
                                          il_q, proj)
        edges, eta_J = _solid_jumps(mesh, spaces, mode, proj, upos)
        parts.update(solid_tris=spaces.u_map.tris, eta2_K_S=eta_K,
                     theta2_K_S=theta_K, solid_edges=edges, eta2_J_S=eta_J)
    if len(spaces.w_map.tris):
        mono, div_w, rot_w = _fluid_eval(spaces, mode)
        wpos = el.tri_positions(spaces.w_map.tris)
        eta_K = _fluid_residuals(mesh, spaces, mode.kappa, materials.rho_f,
                                 rf, q, mono, rot_w)
        edges, eta_J = _fluid_jumps(mesh, spaces, mode.kappa, materials, re,
                                    mono, div_w, wpos)
        parts.update(fluid_tris=spaces.w_map.tris, eta2_K_F=eta_K,
                     fluid_edges=edges, eta2_J_F=eta_J)
        if len(spaces.u_map.tris):
            edges, eta_I = _interface_balance(mesh, spaces, mode, materials,
                                              re, proj, upos, div_w, wpos)
            parts.update(interface_edges=edges, eta2_E_I=eta_I)
    indicators = IndicatorSet(**parts)
    return indicators.eta2, indicators.theta2, indicators
