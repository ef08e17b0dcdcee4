"""The benchmark's workloads: inputs made from the seed, one pass each.

Every pass goes through the package's public API (``elastoacoustic.*``
looked up at call time, so a ``Tracer`` sees it) and returns a plain,
JSON-ready record of what the program produced; ``checks.py`` judges it.
The seed sets the Lanczos start vector and, in ``locking-varcoef``, the
coefficients of E(x); the program receives only the generated inputs.
"""

from __future__ import annotations

import os

import numpy as np

import elastoacoustic as ea
from elastoacoustic.config import RunConfig

PAPER = dict(rho_s=7700.0, e_modulus=1.44e11, nu=0.35, rho_f=1000.0,
             c=1430.0, g=9.8)
WINDOW = (400.0, 2800.0)

# uniform-th: the convergence table; the level-6 system has 21,529
# unknowns, where sparse LU and shift-invert Lanczos dominate.
UNIFORM_LEVELS = (2, 4, 6)
UNIFORM_MODES = 4

# adaptive-mini: the re-entrant vessel, tracked mode 1, to ~10^4 unknowns
ADAPT_START = 2
ADAPT_MAX_DOFS = 10000
ADAPT_THETA = 0.5
ADAPT_NU = 0.35
ADAPT_TOL = 0.05        # time_to_tol_s: first eta2 / kappa below this

# locking-varcoef: nu toward 1/2 with a seeded, spatially varying E(x)
LOCK_NUS = (0.35, 0.49, 0.499, 0.5)
LOCK_LEVELS = (1, 2, 3)

# the coarse level of every workload's geometry and family on which the
# dense reference and the assembly properties are checked
REFERENCE_LEVEL = 1

WORKLOADS = {
    "uniform-th": ("omega1", "taylor-hood"),
    "adaptive-mini": ("omega2", "mini"),
    "locking-varcoef": ("omega2", "taylor-hood"),
}


def lanczos_seed(seed: int) -> int:
    return int(seed) % 2 ** 31


def young_field(seed: int):
    """E(x) = E0 (1 + a x + b y^2) with (a, b) drawn from the seed.

    The quadratic term lies outside the estimator's linear projection of
    mu, so the data-oscillation term is nonzero.
    """
    rng = np.random.default_rng(lanczos_seed(seed))
    a = float(rng.uniform(0.15, 0.25))
    b = float(rng.uniform(0.05, 0.15))
    e0 = PAPER["e_modulus"]

    def young(x):
        return e0 * (1.0 + a * x[:, 0] + b * x[:, 1] ** 2)

    return young


def materials(workload: str, seed: int, nu=None) -> ea.MaterialField:
    """The workload's materials; ``nu`` picks a case of the sweep."""
    dens = dict(rho_s=PAPER["rho_s"], rho_f=PAPER["rho_f"], c=PAPER["c"],
                g=PAPER["g"])
    if workload == "locking-varcoef":
        return ea.MaterialField(E=young_field(seed), nu=nu, **dens)
    nu = ADAPT_NU if workload == "adaptive-mini" else PAPER["nu"]
    return ea.MaterialField(E=PAPER["e_modulus"], nu=nu, **dens)


def reference_cases(workload: str, seed: int):
    """(label, mesh, family, materials) of the coarse checked systems."""
    geometry, family = WORKLOADS[workload]
    mesh = ea.build_cavity_mesh(ea.meshing.PRESETS[geometry](),
                                REFERENCE_LEVEL)
    nus = LOCK_NUS if workload == "locking-varcoef" else (None,)
    return [(f"{geometry}/{family}/N={REFERENCE_LEVEL}"
             + (f"/nu={nu}" if nu is not None else ""),
             mesh, family, materials(workload, seed, nu)) for nu in nus]


def warm_up(workload: str, seed: int):
    """One small window solve of the workload's family and geometry."""
    geometry, family = WORKLOADS[workload]
    mesh = ea.build_cavity_mesh(ea.meshing.PRESETS[geometry](), 1)
    system = ea.build_block_system(mesh, family, ea.MaterialField())
    pairs, _ = ea.solve_window(system, WINDOW, seed=lanczos_seed(seed))
    if not pairs:
        raise RuntimeError("warm-up window solve found no modes")


def run_uniform(seed: int, out_dir: str, levels=UNIFORM_LEVELS) -> dict:
    cfg = RunConfig(geometry="omega1", family="taylor-hood",
                    levels=levels, n_modes=UNIFORM_MODES,
                    window=WINDOW, seed=lanczos_seed(seed), workers=1,
                    **PAPER)
    table = ea.run_uniform_study(cfg)
    return {"levels": list(table.levels), "dofs": list(table.dofs),
            "omegas": [list(row) for row in table.omegas],
            "orders": list(table.orders),
            "extrapolated": list(table.extrapolated)}


def run_adaptive(seed: int, out_dir: str, start=ADAPT_START,
                 max_dofs=ADAPT_MAX_DOFS) -> dict:
    cfg = RunConfig(geometry="omega2", family="mini", initial_level=start,
                    max_dofs=max_dofs, theta=ADAPT_THETA,
                    mode_index=1, window=WINDOW, seed=lanczos_seed(seed),
                    workers=1, **{**PAPER, "nu": ADAPT_NU})
    history = ea.adaptive_solve(cfg)
    return {key: history.column(key).tolist()
            for key in ("dofs", "cells", "omega", "eta2", "theta2")}


def run_locking(seed: int, out_dir: str, levels=LOCK_LEVELS) -> dict:
    cases = []
    for nu in LOCK_NUS:
        mats = materials("locking-varcoef", seed, nu)
        for level in levels:
            mesh = ea.build_cavity_mesh(ea.omega2(), level)
            system = ea.build_block_system(mesh, "taylor-hood", mats)
            pairs, _ = ea.solve_window(system, WINDOW,
                                       seed=lanczos_seed(seed))
            theta2, files = [], []
            for i, mode in enumerate(pairs):
                _, th2, indicators = ea.estimate_mode(mesh, system.spaces,
                                                      mode, mats)
                theta2.append(th2)
                files.append(ea.export_fields(
                    mesh, mode,
                    os.path.join(out_dir, f"nu{nu}_N{level}_m{i + 1}.vtk"),
                    spaces=system.spaces, indicators=indicators))
            cases.append({"nu": nu, "level": level, "dofs": system.n,
                          "omegas": [p.omega for p in pairs],
                          "theta2": theta2, "vtk": files,
                          "points": mesh.num_vertices,
                          "cells": mesh.num_triangles})
    return {"cases": cases}


def time_to_tol(workload, spans):
    """Seconds from the pass start to the workload's accuracy target.

    adaptive-mini: the end of the first estimate with eta2 / kappa below
    ADAPT_TOL.  The other workloads fix their accuracy by their ladder,
    so the target is the end of the pass.
    """
    root = next(s for s in spans if s.parent < 0)
    if workload != "adaptive-mini":
        return root.end - root.start
    for s in spans:
        if s.name == "estimator.estimate_mode" and \
                s.counts["eta2"] < ADAPT_TOL * s.counts["kappa"]:
            return s.end - root.start
    return None


PASSES = {
    "uniform-th": run_uniform,
    "adaptive-mini": run_adaptive,
    "locking-varcoef": run_locking,
}
