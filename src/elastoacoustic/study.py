"""Uniform convergence studies, rate fitting and eigenvalue extrapolation.

The windowed spectral solve finds every eigenvalue in the requested
frequency window.  Completeness is proved by a count: the negative
pivots of an LDL^T factorization of the shifted pencil at the two ends
of the window differ by the number N of eigenvalues between them
(Sylvester's law of inertia), and the window is done once N distinct
pairs are found.  The pairs come from spectrum slicing (Ericsson & Ruhe,
Math. Comp. 35, 1980; Grimes, Lewis & Simon, SIAM J. Matrix Anal. Appl.
15, 1994): a shift-invert run at the window's lower end asks for the N
eigenvalues just above it, so the kappa = 0 kernel and everything else
below the window lies on the side the run discards.  Only if a pair
fails its residual test does a further run climb from the midpoint
below it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .assembly import build_block_system
from .config import RunConfig
from .eigensolve import (SpectrumReport, count_below, solve_pencil,
                         filter_modes, EigenSolveError)
from .meshing import build_cavity_mesh


class StudyError(Exception):
    pass


LANCZOS_TOL = 0.0         # ARPACK's machine precision
RESIDUAL_TOL = 1e-7       # in-window pairs
SAME_KAPPA = 1e-8         # relative distance below which two kappa are one
SIGMA0 = 1.0              # first shift of lowest_physical
SIGMA_CAP = 1e14          # lowest_physical gives up at this shift
LOWEST_RESIDUAL_TOL = 1e-6  # pairs of lowest_physical


def solve_window(system, omega_window, seed=20260808):
    """Physical eigenpairs with omega inside the window, ascending.

    The window (k_lo, k_hi) in kappa = omega^2 holds
    N = count_below(k_hi) - count_below(k_lo) eigenvalues, and the
    search ends once N distinct pairs in it (residual <= RESIDUAL_TOL,
    merged within SAME_KAPPA) are kept.  The runs climb the window from
    its lower end: a run at shift sigma, first k_lo, asks for the pairs
    just above sigma, N minus those already kept below sigma.  If fewer
    than N are kept, the next shift is the midpoint between the lowest
    in-window Ritz value that failed the residual test (k_hi after a
    partial run) and the highest kept pair, or sigma, below it.  A run
    that adds no pair raises StudyError.  A run that returns all its
    pairs and has none failing in the window has searched the window up
    to k_hi, so if it closes with a number of pairs other than N, a
    member of a close or multiple pair was missed, and StudyError names
    both numbers.  The window must start above 0 rad/s: kappa = 0 is
    the fluid's curl kernel, where the count is singular.

    Returns (pairs_in_window, full_filtered_report); the report carries
    N as ``window_count``, the number of runs as ``rungs``, their shifts
    as ``shifts`` and the largest residual of the window's pairs as
    ``max_residual``, sums the runs' and the counts' factorizations and
    the runs' inverse applications, and keeps the runs' largest factor
    fill.
    """
    w_lo, w_hi = omega_window
    if not 0 < w_lo < w_hi:
        raise StudyError(f"invalid frequency window {omega_window}: it "
                         "must satisfy 0 < w_lo < w_hi")
    k_lo, k_hi = w_lo ** 2, w_hi ** 2
    counted = {}
    n_window = count_below(system, k_hi, counted) - \
        count_below(system, k_lo, counted)
    collected = {}
    notes, requested, shifts = (), 0, []
    factorizations = counted["factorizations"]
    lu_nnz = inverse_applications = 0

    def in_window(p):
        return k_lo <= p.kappa <= k_hi and p.residual <= RESIDUAL_TOL

    def same(a, b):
        return abs(a - b) <= SAME_KAPPA * max(abs(a), abs(b))

    sigma, kept = k_lo, []
    while len(kept) < n_window:
        k = n_window - sum(kk < sigma for kk in kept)
        report = solve_pencil(system, sigma=sigma, n_modes=k,
                              tol=LANCZOS_TOL, seed=seed, above=True)
        shifts.append(sigma)
        notes = notes + report.notes
        requested = max(requested, k)
        factorizations += report.factorizations
        lu_nnz = max(lu_nnz, report.lu_nnz)
        inverse_applications += report.inverse_applications
        for p in report.pairs:
            for kk in list(collected):
                if same(kk, p.kappa):
                    if p.residual < collected[kk].residual:
                        collected.pop(kk)
                        collected[p.kappa] = p
                    break
            else:
                collected[p.kappa] = p
        found = len(kept)
        kept = [kk for kk, p in collected.items() if in_window(p)]
        if len(kept) == found:
            raise StudyError(
                f"the run at shift {sigma:.6e} adds no pair to the window "
                f"({w_lo:.6g}, {w_hi:.6g}) rad/s: {found} of {n_window} "
                f"found, {len(report.pairs)} of {k} pairs converged")
        failed = [p.kappa for p in report.pairs
                  if sigma < p.kappa <= k_hi
                  and not any(same(p.kappa, kk) for kk in kept)]
        if failed:
            top = min(failed)
        elif len(report.pairs) < k:
            top = k_hi
        else:
            break
        sigma = 0.5 * (max([kk for kk in kept if kk < top] + [sigma])
                       + top)
    merged = SpectrumReport(requested,
                            tuple(collected[kk] for kk in
                                  sorted(collected)),
                            k_lo, notes=notes,
                            factorizations=factorizations, lu_nnz=lu_nnz,
                            inverse_applications=inverse_applications,
                            rungs=len(shifts), window_count=n_window,
                            shifts=tuple(shifts), max_residual=max(
                                (collected[kk].residual for kk in kept),
                                default=None))
    filtered = filter_modes(merged)
    pairs = [p for p in filtered.pairs if in_window(p)]
    if len(pairs) != n_window:
        raise StudyError(
            f"the inertia count puts {n_window} eigenvalues in the window "
            f"({w_lo:.6g}, {w_hi:.6g}) rad/s, but its runs closed with "
            f"{len(pairs)} found")
    return pairs, filtered


def lowest_physical(system, n, seed=20260808):
    """The n smallest physical (non-kernel) eigenpairs.

    The shift climbs from SIGMA0 by factors of 8.  A solve certifies the
    range (0, 2 sigma): once a kernel-cluster member shows up among the
    returned pairs, everything strictly closer to the shift - in
    particular every physical eigenvalue below 2 sigma - has been
    captured.  On kernel-free problems a fully-above-2-sigma return
    certifies instead (the k nearest are then the k lowest).
    """
    k = max(2 * n + 4, 12)
    k = min(k, max(system.n - 2, 1))
    sigma = SIGMA0
    candidates = {}

    def merge(report):
        for p in filter_modes(report).pairs:
            if p.residual > 1e-3:
                # smeared kernel copies and unconverged directions
                continue
            match = [kk for kk in candidates
                     if abs(kk - p.kappa) <= 1e-7 * abs(kk)]
            if match:
                if p.residual < candidates[match[0]].residual:
                    candidates.pop(match[0])
                    candidates[p.kappa] = p
            else:
                candidates[p.kappa] = p

    filtered = None
    while sigma < SIGMA_CAP:
        report = solve_pencil(system, sigma=sigma, n_modes=k,
                              tol=LANCZOS_TOL, seed=seed)
        filtered = filter_modes(report)
        merge(report)
        bag_contact = filtered.n_kernel >= 1
        kappas = report.kappas
        above = len(kappas) > 0 and kappas.min() >= 2.0 * sigma
        certified = 2.0 * sigma if bag_contact else \
            (np.inf if above else 0.0)
        lowest = [kk for kk in sorted(candidates) if kk <= certified][:n]
        if len(lowest) >= n:
            # polish candidates whose vectors are not yet converged by
            # re-solving with the shift next to them
            for _ in range(6):
                bad = [kk for kk in lowest
                       if candidates[kk].residual > LOWEST_RESIDUAL_TOL]
                if not bad:
                    break
                polish = bad[0] * 1.001 + 1e-6 * SIGMA0
                merge(solve_pencil(system, sigma=polish,
                                   n_modes=min(6, k), tol=LANCZOS_TOL,
                                   seed=seed))
                lowest = [kk for kk in sorted(candidates)
                          if kk <= certified][:n]
            pairs = [candidates[kk] for kk in lowest]
            if all(p.residual <= LOWEST_RESIDUAL_TOL for p in pairs):
                return pairs, filtered
        sigma *= 8.0
    raise StudyError(f"could not certify the {n} lowest physical modes "
                     f"below shift {SIGMA_CAP:g}")


# ----------------------------------------------------------------------
# rate fitting and extrapolation
# ----------------------------------------------------------------------

def fit_rate(h_values, errors) -> float:
    """Least-squares slope of log(error) against log(h)."""
    h = np.asarray(h_values, float)
    e = np.asarray(errors, float)
    if len(h) < 3 or len(h) != len(e):
        raise StudyError("need at least 3 (h, error) pairs")
    if np.any(h <= 0) or np.any(e <= 0):
        raise StudyError("rate fit needs positive h and errors")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


def extrapolate(N_values, omegas):
    """Fit omega(N) = omega_extr + C N^(-t), returning
    (omega_extr, t, C).

    Deterministic initialization: t0 = 2, omega0 = last omega, C0 from
    the first point.  Non-convergence returns the best iterate with a
    flag via StudyError only for invalid input.
    """
    N = np.asarray(N_values, float)
    w = np.asarray(omegas, float)
    if len(N) < 3 or len(N) != len(w):
        raise StudyError("need at least 3 (N, omega) pairs")
    if np.any(N <= 0) or np.any(w <= 0):
        raise StudyError("extrapolation needs positive data")
    w0, t0 = w[-1], 2.0
    C0 = (w[0] - w0) * N[0] ** t0

    def resid(params):
        we, C, t = params
        return we + C * N ** (-t) - w

    sol = least_squares(resid, [w0, C0, t0], method="lm", xtol=1e-14,
                        ftol=1e-14, max_nfev=10000)
    we, C, t = sol.x
    return float(we), float(t), float(C)


# ----------------------------------------------------------------------
# uniform study
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceTable:
    """Per-level frequencies with fitted orders and extrapolated limits."""

    levels: tuple                 # N values, ascending
    dofs: tuple
    omegas: tuple                 # tuple per level, one omega per mode
    orders: tuple                 # fitted order per mode
    extrapolated: tuple           # omega_extr per mode
    family: str = ""
    geometry: str = ""

    @property
    def n_modes(self) -> int:
        return len(self.omegas[0]) if self.omegas else 0

    def mode_column(self, mode: int) -> np.ndarray:
        return np.array([row[mode] for row in self.omegas])

    def to_csv(self) -> str:
        header = ["N", "dofs"] + \
            [f"omega_{i + 1}" for i in range(self.n_modes)]
        lines = [",".join(header)]
        for N, d, row in zip(self.levels, self.dofs, self.omegas):
            lines.append(",".join([str(N), str(d)]
                                  + [f"{w:.12e}" for w in row]))
        if self.orders:
            lines.append(",".join(["order", ""]
                                  + [f"{t:.6f}" for t in self.orders]))
            lines.append(",".join(["omega_extr", ""]
                                  + [f"{w:.12e}" for w in
                                     self.extrapolated]))
        return "\n".join(lines) + "\n"


def _solve_level(config: RunConfig, N: int, nu=None):
    mats = config.materials(nu)
    mesh = build_cavity_mesh(config.geometry_spec(), N)
    system = build_block_system(mesh, config.family, mats,
                                config.assembly_degree)
    pairs, _ = solve_window(system, config.window, seed=config.seed)
    if len(pairs) < config.n_modes:
        raise StudyError(
            f"level N={N}: only {len(pairs)} physical modes in the window "
            f"{config.window}, requested {config.n_modes}")
    omegas = tuple(p.omega for p in pairs[:config.n_modes])
    return N, system.n, omegas


def run_uniform_study(config: RunConfig, nu=None) -> ConvergenceTable:
    """Build, assemble, solve and filter per mesh level; fit each mode."""
    levels = tuple(sorted(config.levels))
    if not levels:
        return ConvergenceTable((), (), (), (), (),
                                config.family, config.geometry)
    rows = []
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            futures = [pool.submit(_solve_level, config, N, nu)
                       for N in levels]
            for N, fut in zip(levels, futures):
                try:
                    rows.append(fut.result())
                except (StudyError, EigenSolveError) as err:
                    raise StudyError(f"solve failed at N={N}: {err}") \
                        from err
    else:
        for N in levels:
            try:
                rows.append(_solve_level(config, N, nu))
            except (StudyError, EigenSolveError) as err:
                raise StudyError(f"solve failed at N={N}: {err}") from err
    dofs = tuple(r[1] for r in rows)
    omegas = tuple(r[2] for r in rows)
    orders, extrap = [], []
    if len(levels) >= 3:
        for m in range(config.n_modes):
            col = [row[m] for row in omegas]
            we, t, _ = extrapolate(levels, col)
            orders.append(t)
            extrap.append(we)
    return ConvergenceTable(levels, dofs, omegas, tuple(orders),
                            tuple(extrap), config.family, config.geometry)
