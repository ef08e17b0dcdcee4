"""Correctness checks of the benchmark's outputs.

Every check returns a list of failure messages (empty when it passes)
and compares against properties the method must have or against the
benchmark's own dense reference, never against stored earlier output.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as la

import elastoacoustic as ea

EIG_RTOL = 1e-8          # in-window kappa, program vs dense reference
RESIDUAL_TOL = 1e-7      # |Z^T (A x - kappa B x)| relative, every pair
CONSTRAINT_TOL = 1e-10   # |C x| / |x_uw|, every pair
SYMMETRY_TOL = 1e-12     # max |B - B^T| / max |B|
ENERGY_RTOL = 1e-10      # x^T B x of a constant fluid field vs rho_f |F|
ETA_DROP = 10.0          # adaptive-mini: eta2 falls at least this much
NU_PAIR = (0.499, 0.5)   # locking-varcoef: these two omegas agree
NU_LIMIT_RTOL = 2e-3     # to this relative gap


# ----------------------------------------------------------------------
# dense reference, independent of the program's eigensolver
# ----------------------------------------------------------------------

def dense_reference(system) -> np.ndarray:
    """All eigenvalues of the constrained pencil, ascending.

    The pressure is eliminated by Schur complement while its block
    -lambda^-1 M_p is nonzero, or kept as the constraint B_p v = 0 when
    the block vanishes (nu = 1/2).  The interface rows C (and those
    constraints) are then removed by an orthonormal null-space basis,
    and the remaining symmetric-definite pencil goes to ``eigh``.
    """
    sp_ = system.layout.reduced_slices()[2]
    nv = sp_.start
    A = system.A.toarray()
    B = system.B.toarray()
    C = system.C.toarray()[:, :nv]
    a_vv, a_vp, a_pp = A[:nv, :nv], A[:nv, sp_], A[sp_, sp_]
    if np.abs(a_pp).max() > 0.0:
        S = a_vv - a_vp @ np.linalg.solve(a_pp, a_vp.T)
        G = C
    else:
        S = a_vv
        G = np.vstack([C, a_vp.T])
    G = G / np.linalg.norm(G, axis=1)[:, None]
    Z = la.null_space(G)
    K = Z.T @ S @ Z
    M = Z.T @ B[:nv, :nv] @ Z
    return la.eigh(0.5 * (K + K.T), 0.5 * (M + M.T), eigvals_only=True)


def reference_check(system, pairs, window) -> list:
    """In-window eigenvalues and per-pair residuals of ``pairs`` (as
    returned by ``solve_window`` on ``system``) against dense algebra."""
    fails = []
    k_lo, k_hi = window[0] ** 2, window[1] ** 2
    ref = dense_reference(system)
    ref = ref[(ref >= k_lo) & (ref <= k_hi)]
    got = np.sort([p.kappa for p in pairs])
    if len(got) != len(ref):
        return [f"{len(got)} window modes, dense reference has {len(ref)}"]
    rel = np.abs(got - ref) / ref
    if len(rel) and rel.max() > EIG_RTOL:
        fails.append(f"kappa differs from the dense reference by "
                     f"{rel.max():.2e} > {EIG_RTOL:.0e}")
    A, B, C = system.A, system.B, system.C
    Z = la.null_space(C.toarray())
    nv = system.layout.reduced_slices()[2].start
    for i, p in enumerate(pairs):
        x = p.x
        ax, bx = A @ x, B @ x
        den = np.linalg.norm(Z.T @ ax) + abs(p.kappa) * np.linalg.norm(
            Z.T @ bx)
        res = np.linalg.norm(Z.T @ (ax - p.kappa * bx)) / den
        cx = np.linalg.norm(C @ x) / np.linalg.norm(x[:nv])
        if not res <= RESIDUAL_TOL:
            fails.append(f"pair {i}: residual {res:.2e} > {RESIDUAL_TOL}")
        if not cx <= CONSTRAINT_TOL:
            fails.append(f"pair {i}: |Cx| {cx:.2e} > {CONSTRAINT_TOL}")
    return fails


def assembly_check(mesh, system, rho_f) -> list:
    """B symmetric with a zero pressure block; a constant unit fluid
    displacement has kinetic energy rho_f |Omega_F|."""
    fails = []
    B = system.B
    scale = abs(B).max()
    asym = abs(B - B.T).max() / scale
    if not asym <= SYMMETRY_TOL:
        fails.append(f"B not symmetric: {asym:.2e}")
    sp_ = system.layout.reduced_slices()[2]
    if abs(B[:, sp_]).max() != 0.0 or abs(B[sp_, :]).max() != 0.0:
        fails.append("B has nonzero pressure entries")
    lay = system.layout
    direction = np.array([0.6, 0.8])
    w = ea.bdm_interpolate(mesh, lambda x: np.tile(direction, (len(x), 1)))
    x = lay.gather(np.zeros(lay.n_u), w, np.zeros(lay.n_p))
    energy = float(x @ (B @ x))
    expect = rho_f * float(mesh.areas(mesh.subdomain_tris(ea.FLUID)).sum())
    if not abs(energy - expect) <= ENERGY_RTOL * expect:
        fails.append(f"constant fluid field energy {energy:.12e}, "
                     f"expected rho_f |Omega_F| = {expect:.12e}")
    return fails


# ----------------------------------------------------------------------
# properties of each workload's result
# ----------------------------------------------------------------------

def check_uniform(result, window_counts) -> list:
    """Constant window count, every branch decreasing with level, and
    an extrapolated limit below the finest value with positive order."""
    fails = []
    if len(set(window_counts)) != 1:
        fails.append(f"window mode counts differ by level: {window_counts}")
    om = np.array(result["omegas"])
    if om.shape[0] < 3:
        fails.append(f"only {om.shape[0]} levels")
    steps = np.diff(om, axis=0)
    if not (steps < 0).all():
        fails.append("a branch does not decrease with level")
    for m, (we, t) in enumerate(zip(result["extrapolated"],
                                    result["orders"])):
        if not (we < om[-1, m] and t > 0):
            fails.append(f"mode {m + 1}: limit {we:.6f} vs finest "
                         f"{om[-1, m]:.6f}, order {t:.3f}")
    if len(result["extrapolated"]) != om.shape[1]:
        fails.append("missing extrapolated limits")
    return fails


def check_adaptive(result) -> list:
    """Unknowns strictly increase, omega never increases after the first
    iteration, and eta2 falls by at least ETA_DROP."""
    fails = []
    dofs = np.array(result["dofs"])
    om = np.array(result["omega"])
    eta2 = np.array(result["eta2"])
    if len(dofs) < 3:
        fails.append(f"only {len(dofs)} iterations")
    if not (np.diff(dofs) > 0).all():
        fails.append("unknowns do not increase strictly")
    if not (om[1:] <= om[:-1]).all():
        fails.append("omega increases after the first iteration")
    if not eta2[-1] * ETA_DROP <= eta2[0]:
        fails.append(f"eta2 fell only x{eta2[0] / eta2[-1]:.2f}, "
                     f"needs x{ETA_DROP:g}")
    return fails


def read_vtk(path):
    """(points, cells) of a legacy ASCII unstructured grid written by
    ``export_fields``; raises ValueError when a section is short or a
    value is not finite."""
    with open(path) as f:
        lines = f.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    pos = 4
    if len(lines) < pos or lines[3] != "DATASET UNSTRUCTURED_GRID":
        raise ValueError("not an unstructured-grid file")

    def take(n, width):
        nonlocal pos
        block = lines[pos:pos + n]
        if len(block) != n:
            raise ValueError(f"section at line {pos + 1} is short")
        for line in block:
            vals = [float(v) for v in line.split()]
            if len(vals) != width or not all(map(math.isfinite, vals)):
                raise ValueError(f"bad line {line!r}")
        pos += n

    def header(word):
        nonlocal pos
        if pos >= len(lines) or not lines[pos].startswith(word):
            raise ValueError(f"expected {word} at line {pos + 1}")
        pos += 1
        return lines[pos - 1].split()

    nv = int(header("POINTS")[1])
    take(nv, 3)
    nt = int(header("CELLS")[1])
    take(nt, 4)
    header("CELL_TYPES")
    take(nt, 1)
    for count_word, n in (("POINT_DATA", nv), ("CELL_DATA", nt)):
        if int(header(count_word)[1]) != n:
            raise ValueError(f"{count_word} count mismatch")
        while pos < len(lines) and lines[pos].startswith(("VECTORS ",
                                                          "SCALARS ")):
            vector = lines[pos].startswith("VECTORS")
            pos += 1
            if not vector:
                header("LOOKUP_TABLE")
            take(n, 3 if vector else 1)
    if pos != len(lines):
        raise ValueError(f"unexpected content at line {pos + 1}")
    return nv, nt


def check_locking(result) -> list:
    """Equal mode counts across nu, omega(0.499) ~ omega(0.5), nonzero
    data oscillation, and every VTK file readable with the mesh's
    point and cell counts."""
    fails = []
    by_level = {}
    for case in result["cases"]:
        by_level.setdefault(case["level"], {})[case["nu"]] = case
        if not case["omegas"]:
            fails.append(f"nu={case['nu']} N={case['level']}: no modes")
        if not all(t > 0 for t in case["theta2"]):
            fails.append(f"nu={case['nu']} N={case['level']}: theta2 = 0")
        for path in case["vtk"]:
            try:
                counts = read_vtk(path)
            except (OSError, ValueError) as err:
                fails.append(f"{path}: {err}")
                continue
            if counts != (case["points"], case["cells"]):
                fails.append(f"{path}: {counts} points/cells, mesh has "
                             f"{(case['points'], case['cells'])}")
    for level, cases in sorted(by_level.items()):
        counts = {nu: len(c["omegas"]) for nu, c in cases.items()}
        if len(set(counts.values())) != 1:
            fails.append(f"N={level}: mode counts differ across nu "
                         f"{counts}")
            continue
        a, b = (np.array(cases[nu]["omegas"]) for nu in NU_PAIR)
        gap = np.abs(a - b) / b
        if len(gap) and gap.max() > NU_LIMIT_RTOL:
            fails.append(f"N={level}: omega at nu={NU_PAIR[0]} and "
                         f"{NU_PAIR[1]} differ by {gap.max():.2e}")
    return fails
