"""Adaptive solve-estimate-mark-refine loop with mode tracking.

Marking uses the maximum strategy: refine every triangle whose indicator
reaches the fraction theta of the largest one.  Across refinements the
tracked eigenmode is identified by the largest mass-weighted overlap with
the previous eigenvector interpolated onto the new mesh, falling back to
the nearest frequency when overlaps are ambiguous.  The bisected meshes
are nested, so the previous mode is transferred through the bisection
parent map (``Mesh.parent``): each new dof point is evaluated in the
ancestor of a new cell that holds it, without any point-location search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import elements as el
from .assembly import build_block_system
from .config import RunConfig
from .eigensolve import EigenPair
from .estimator import estimate_mode
from .meshing import Mesh, bisect, build_cavity_mesh, validate
from .study import StudyError, solve_window


class AdaptivityError(Exception):
    pass


def mark(indicators, theta: float):
    """Ids of entries with indicator >= theta * max(indicator)."""
    vals = np.asarray(indicators, float)
    if vals.size == 0:
        raise AdaptivityError("empty indicator array")
    if not 0.0 < theta <= 1.0:
        raise AdaptivityError("theta must lie in (0, 1]")
    cut = theta * vals.max()
    return np.flatnonzero(vals >= cut).astype(np.int64)


def effectivity(err: float, eta2: float) -> float:
    """Quotient err / eta^2 of eigenvalue error and squared estimator."""
    if eta2 <= 0.0:
        if err > 0.0:
            raise AdaptivityError(
                "zero estimator with nonzero error; indicators are "
                "inconsistent with the supplied reference")
        return 0.0
    return err / eta2


@dataclass
class AdaptiveHistory:
    """Append-only per-iteration records of the adaptive loop."""

    geometry: str
    family: str
    nu: float
    mode_index: int
    records: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def append(self, **kwargs):
        if self.records and kwargs["dofs"] <= self.records[-1]["dofs"]:
            raise AdaptivityError("dof counts must increase across "
                                  "iterations")
        self.records.append(kwargs)

    def column(self, key) -> np.ndarray:
        return np.array([rec[key] for rec in self.records])

    def to_csv(self) -> str:
        cols = ("iteration", "dofs", "cells", "omega", "eta2", "theta2",
                "err", "eff", "wall_time")
        lines = [",".join(cols)]
        for rec in self.records:
            vals = []
            for c in cols:
                v = rec[c]
                vals.append(str(v) if isinstance(v, int)
                            else ("" if v is None else f"{v:.12e}"))
            lines.append(",".join(vals))
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# interpolation between nested meshes (for mode tracking)
# ----------------------------------------------------------------------

def _dof_cells(dofmap, dofs):
    """Position (into dofmap.tris) of one cell holding each given dof."""
    holder = np.empty(dofmap.ndof, dtype=np.int64)
    holder[dofmap.cell2dof] = np.arange(len(dofmap.tris))[:, None]
    return holder[dofs]


def _dof_points(mesh: Mesh, dofmap, dofs):
    """Vertex or edge-midpoint location of each given Lagrange dof."""
    ids = dofmap.entity_id[dofs]
    on_edge = dofmap.entity[dofs] == 1
    pts = np.empty((len(dofs), 2))
    pts[~on_edge] = mesh.vertices[ids[~on_edge]]
    pts[on_edge] = mesh.vertices[mesh.edges[ids[on_edge]]].mean(axis=1)
    return pts


def _locate(old_mesh: Mesh, old_map, new_mesh: Mesh, new_map, cells, pts):
    """Ancestors of the new cells ``cells`` (positions into old_map.tris)
    and the barycentric coordinates there of the points pts (n, m, 2),
    which lie in those new cells."""
    if new_mesh.parent is None:
        raise AdaptivityError("meshes are not nested")
    parent = new_mesh.parent[new_map.tris[cells]]
    # ancestors outside the old subdomain (or the old mesh) map to -1
    k = el.tri_positions(old_map.tris, parent.max(initial=-1) + 1)[parent]
    if np.any(k < 0):
        raise AdaptivityError("meshes are not nested")
    bary = el.barycentric(el.tri_geometry(old_mesh, old_map.tris[k]), pts)
    if bary.min(initial=0.0) < -1e-6:
        raise AdaptivityError("meshes are not nested")
    return k, np.clip(bary, 0.0, 1.0)


def _eval_scalar_field(dofmap, coeffs, k, bary):
    val, _, _ = el.scalar_basis_at(dofmap.kind, bary)
    c = coeffs[dofmap.cell2dof[k]]
    if dofmap.kind.vector:
        return np.stack([np.einsum("ns,ns->n", val, c[:, 0::2]),
                         np.einsum("ns,ns->n", val, c[:, 1::2])], axis=-1)
    return np.einsum("ns,ns->n", val, c)


def interpolate_mode(old_mesh: Mesh, old_spaces, mode: EigenPair,
                     new_mesh: Mesh, new_spaces):
    """Nodal/moment interpolation of an eigenpair onto a mesh bisected
    from old_mesh.

    Every new dof point is evaluated in the ancestor, through
    ``new_mesh.parent``, of one new cell that holds the dof.
    """
    u_new = np.zeros(new_spaces.u_map.ndof)
    p_new = np.zeros(new_spaces.p_map.ndof)
    if len(old_spaces.u_map.tris):
        # vertex and (Taylor-Hood) edge-midpoint dofs; bubbles stay zero
        umap = new_spaces.u_map
        dofs = np.flatnonzero((umap.entity < 2) & (umap.component == 0))
        k, bary = _locate(old_mesh, old_spaces.u_map, new_mesh, umap,
                          _dof_cells(umap, dofs),
                          _dof_points(new_mesh, umap, dofs)[:, None])
        vals = _eval_scalar_field(old_spaces.u_map, mode.u, k, bary[:, 0])
        u_new[dofs] = vals[:, 0]
        u_new[dofs + 1] = vals[:, 1]
        pmap = new_spaces.p_map
        dofs = np.arange(pmap.ndof)
        k, bary = _locate(old_mesh, old_spaces.p_map, new_mesh, pmap,
                          _dof_cells(pmap, dofs),
                          _dof_points(new_mesh, pmap, dofs)[:, None])
        p_new[:] = _eval_scalar_field(old_spaces.p_map, mode.p, k,
                                      bary[:, 0])
    w_new = np.zeros(new_spaces.w_map.ndof)
    if len(old_spaces.w_map.tris):
        # both normal moments of every new fluid edge from 3 Gauss points
        wmap = new_spaces.w_map
        dofs = np.arange(0, wmap.ndof, 2)
        eids = wmap.entity_id[dofs]
        a, tang, nrm, _ = new_mesh.edge_frames(eids)
        tq, wq = el.edge_gauss(3)
        pts = a[:, None, :] + tq[None, :, None] * tang[:, None, :]
        k, _ = _locate(old_mesh, old_spaces.w_map, new_mesh, wmap,
                       _dof_cells(wmap, dofs), pts)
        bdm_coeff, geo = old_spaces.bdm
        vals, _ = el.bdm_eval(bdm_coeff[k], pts - geo.centroid[k, None])
        wv = np.einsum("nqjc,nj->nqc", vals,
                       mode.w[old_spaces.w_map.cell2dof[k]])
        wn = np.einsum("nqc,nc->nq", wv, nrm)
        w_new[0::2] = wn @ wq
        w_new[1::2] = wn @ (wq * el.SQRT3 * (2.0 * tq - 1.0))
    return new_spaces.layout.gather(u_new, w_new, p_new)


def track_mode(prev_mesh, prev_spaces, prev_mode, mesh, spaces, system,
               candidates, history: AdaptiveHistory, nearest_omega):
    """Pick the candidate maximizing the B-weighted overlap with the
    previous mode; fall back to nearest omega on ambiguity."""
    x_interp = interpolate_mode(prev_mesh, prev_spaces, prev_mode, mesh,
                                spaces)
    Bx = system.B @ x_interp
    norm_i = np.sqrt(max(x_interp @ Bx, 1e-300))
    overlaps = np.array([abs(p.x @ Bx) /
                         (norm_i * np.sqrt(max(p.x @ (system.B @ p.x),
                                               1e-300)))
                         for p in candidates])
    order = np.argsort(-overlaps)
    best = order[0]
    if len(order) > 1 and overlaps[order[1]] > 0.95 * overlaps[best]:
        history.warnings.append(
            f"ambiguous mode tracking (overlaps "
            f"{overlaps[best]:.3f} vs {overlaps[order[1]]:.3f}); "
            "using nearest frequency")
        return min(candidates,
                   key=lambda p: abs(p.omega - nearest_omega))
    return candidates[best]


# ----------------------------------------------------------------------
# the adaptive loop
# ----------------------------------------------------------------------

def adaptive_solve(config: RunConfig) -> AdaptiveHistory:
    """Iterate solve -> filter -> estimate -> mark -> bisect to a budget.

    The tracked mode, marking fraction and budgets come from ``config``;
    err is reported against config.reference_omega when supplied (the
    mesh-independent extrapolated frequency), otherwise left empty.
    """
    mode_index = config.mode_index
    mats = config.materials()
    ref = None
    if len(config.reference_omega) >= mode_index:
        ref = config.reference_omega[mode_index - 1]

    history = AdaptiveHistory(config.geometry, config.family, config.nu,
                              mode_index)
    mesh = build_cavity_mesh(config.geometry_spec(), config.initial_level)
    prev = None
    # the window count of the previous iteration guesses the next one's
    expect = config.n_modes
    for iteration in range(config.max_iterations):
        t0 = time.perf_counter()
        system = build_block_system(mesh, config.family, mats)
        spaces = system.spaces
        pairs, window = solve_window(system, config.window,
                                     seed=config.seed, expect=expect)
        expect = window.window_count
        if len(pairs) < mode_index:
            raise StudyError(f"adaptive iteration {iteration}: only "
                             f"{len(pairs)} modes in window")
        if prev is None:
            mode = pairs[mode_index - 1]
        else:
            mode = track_mode(*prev, mesh, spaces, system, pairs, history,
                              nearest_omega=history.records[-1]["omega"])
        eta2, theta2, indicators = estimate_mode(mesh, spaces, mode, mats)
        err = abs(mode.kappa - ref ** 2) if ref is not None else None
        eff = effectivity(err, eta2) if err is not None else None
        history.append(iteration=iteration, dofs=system.n,
                       cells=mesh.num_triangles, omega=mode.omega,
                       eta2=eta2, theta2=theta2, err=err, eff=eff,
                       wall_time=time.perf_counter() - t0,
                       )
        if system.n >= config.max_dofs or \
                iteration == config.max_iterations - 1:
            break
        totals = indicators.element_totals(mesh)
        marked = mark(np.sqrt(np.maximum(totals, 0.0)), config.theta)
        refined = bisect(mesh, marked)
        report = validate(refined)
        if not report.ok:
            raise AdaptivityError(
                f"refined mesh invalid: {report.failures()}")
        prev = (mesh, spaces, mode)
        mesh = refined
    return history
