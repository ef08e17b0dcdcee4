"""Uniform convergence studies, rate fitting and eigenvalue extrapolation.

The windowed spectral solve finds every eigenvalue in the requested
frequency window.  Completeness is proved by a count: the negative
pivots of an LDL^T factorization of the shifted pencil at the two ends
of the window differ by the number N of eigenvalues between them
(Sylvester's law of inertia).  The pairs come from spectrum slicing
(Ericsson & Ruhe, Math. Comp. 35, 1980; Grimes, Lewis & Simon, SIAM J.
Matrix Anal. Appl. 15, 1994): a shift-invert run at the window's lower
end asks for the eigenvalues just above it, so the kappa = 0 kernel and
everything else below the window lies on the side the run discards.
Each shift is factored once, and the factor serves both its runs and its
count; the count at the lower end is read after the run there, so that
run asks for the caller's guess of N.  Each run owns a slice of the
window, from its shift to its lowest pair that fails the residual test,
and only then does a further run climb from the midpoint below that
pair, once that shift's count shows no pair missing below it, so no pair
is found twice and none is merged.  The window is certified by its
count, its residuals and the B-orthogonality of its vectors: exactly N
pairs, each converged, no two of them the same mode.  Every run is of
this one kind (``solve_pencil``), and a shift whose operator cannot be
factored raises.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .assembly import build_block_system
from .config import RunConfig
from .eigensolve import (DEFAULT_SEED, ShiftFactor, SpectrumReport,
                         count_below, solve_pencil, filter_modes,
                         EigenSolveError)
from .meshing import build_cavity_mesh


class StudyError(Exception):
    pass


RESIDUAL_TOL = 1e-7       # in-window pairs
GRAM_TOL = 0.5            # largest |x_i^T B x_j| of two kept pairs, i != j
MAX_FIT_STEPS = 100       # Gauss-Newton steps of one extrapolate fit
T_RANGE = 230.0           # largest |t| ln N of a fit: N^(-t) within 1e+-100


def solve_window(system, omega_window, seed=DEFAULT_SEED,
                 expect=RunConfig.n_modes):
    """Physical eigenpairs with omega inside the window, ascending.

    The window (k_lo, k_hi) in kappa = omega^2 holds
    N = count_below(k_hi) - count_below(k_lo) eigenvalues.  Each shift
    is factored once (``ShiftFactor``), and its factor serves both the
    runs at the shift and its count.  The count at k_lo is read after
    the run there (reading it first would hold copies of the factor
    through the run), so that run asks for ``expect`` pairs, the
    caller's guess of N; a short guess runs again on the same factor,
    asking for N, and a long one returns pairs above k_hi, which are
    dropped.  The runs climb the window from k_lo, and each owns a slice
    of it: a run at shift sigma asks for the pairs just above sigma, N
    less those kept so far (all below sigma), and keeps its in-window
    pairs from sigma up to its lowest in-window pair whose residual
    exceeds RESIDUAL_TOL.  If one fails, or the run is partial (its
    bound is then k_hi), the next run starts at the midpoint between
    that bound and the highest kept pair; otherwise the run has searched
    the window to k_hi and the search ends.  A further shift's count,
    read before its run, certifies the slice below it: while it puts
    more eigenvalues in [k_lo, sigma) than are kept, the shift moves
    halfway down to the highest kept pair, and StudyError is raised once
    the two are within RESIDUAL_TOL, where the count no longer tells them
    apart.  A run that keeps no pair raises StudyError.  The window is
    certified by its count, its residuals and the B-orthogonality of its
    vectors, and StudyError names what fails: exactly N pairs, each with
    a residual <= RESIDUAL_TOL, and no off-diagonal entry of the B-Gram
    matrix of their B-normalised vectors above GRAM_TOL, so a duplicate
    cannot stand in for a missed pair.  The window must start above
    0 rad/s: kappa = 0 is the fluid's curl kernel, where the count is
    singular.

    Returns (pairs_in_window, report); the report holds exactly those
    pairs and carries N as ``window_count``, the number of runs as
    ``rungs``, their shifts as ``shifts`` and the pairs they asked for
    as ``asked``, whether any took the dense fallback or was partial,
    and the largest residual of the pairs as ``max_residual``; it counts
    every factorization of the window, sums the runs' inverse
    applications and keeps the runs' largest factor fill.
    """
    w_lo, w_hi = omega_window
    if not 0 < w_lo < w_hi:
        raise StudyError(f"invalid frequency window {omega_window}: it "
                         "must satisfy 0 < w_lo < w_hi")
    k_lo, k_hi = w_lo ** 2, w_hi ** 2
    work = {}
    above = count_below(system, k_hi, work)
    runs, kept = [], []

    def run(factor, k):
        runs.append(solve_pencil(system, sigma=factor.sigma, n_modes=k,
                                 seed=seed, factor=factor))
        return runs[-1]

    sigma, below = k_lo, None
    while below is None or len(kept) < n_window:
        factor = ShiftFactor(system, sigma, work)
        if below is None:
            rep = run(factor, expect)
            below = factor.count()
            n_window = above - below
            if n_window > expect:
                rep = run(factor, n_window)
        elif factor.count() > below + len(kept):
            del factor
            highest = max(p.kappa for p in kept)
            sigma = 0.5 * (highest + sigma)
            if sigma - highest <= RESIDUAL_TOL * highest:
                raise StudyError(
                    f"the inertia count misses a pair just above "
                    f"kappa {highest:.12e} in the window ({w_lo:.6g}, "
                    f"{w_hi:.6g}) rad/s: {len(kept)} of {n_window} found")
            continue
        else:
            rep = run(factor, n_window - len(kept))
        del factor
        if n_window == 0:
            break
        failed = [p.kappa for p in rep.pairs
                  if sigma <= p.kappa <= k_hi and p.residual > RESIDUAL_TOL]
        top = min(failed, default=k_hi)
        mine = [p for p in rep.pairs
                if sigma <= p.kappa <= top and p.residual <= RESIDUAL_TOL]
        if not mine:
            raise StudyError(
                f"the run at shift {sigma:.6e} adds no pair to the window "
                f"({w_lo:.6g}, {w_hi:.6g}) rad/s: {len(kept)} of "
                f"{n_window} found, {len(rep.pairs)} of {rep.requested} "
                "pairs converged")
        kept += mine
        if not failed and len(rep.pairs) == rep.requested:
            break
        sigma = 0.5 * (max(p.kappa for p in mine) + top)
    report = filter_modes(SpectrumReport(
        max(r.requested for r in runs), tuple(kept), k_lo,
        notes=sum((r.notes for r in runs), ()),
        factorizations=work["factorizations"],
        lu_nnz=max(r.lu_nnz for r in runs),
        inverse_applications=sum(r.inverse_applications for r in runs),
        rungs=len(runs), window_count=n_window,
        shifts=tuple(r.shift for r in runs),
        asked=tuple(r.requested for r in runs),
        max_residual=max((p.residual for p in kept), default=None),
        dense_fallback=any(r.dense_fallback for r in runs),
        partial=any(r.partial for r in runs)))
    pairs = list(report.pairs)
    if len(pairs) != n_window:
        raise StudyError(
            f"the inertia count puts {n_window} eigenvalues in the window "
            f"({w_lo:.6g}, {w_hi:.6g}) rad/s, but its runs closed with "
            f"{len(pairs)} found")
    if len(pairs) > 1:
        X = np.column_stack([p.x for p in pairs])
        gram = np.abs(X.T @ (system.B @ X))
        np.fill_diagonal(gram, 0.0)
        i, j = sorted(np.unravel_index(np.argmax(gram), gram.shape))
        if gram[i, j] > GRAM_TOL:
            raise StudyError(
                f"the pairs at kappa {pairs[i].kappa:.12e} and "
                f"{pairs[j].kappa:.12e} in the window ({w_lo:.6g}, "
                f"{w_hi:.6g}) rad/s are not B-orthogonal "
                f"(|x_i^T B x_j| = {gram[i, j]:.3g}): one duplicates "
                "the other")
    return pairs, report


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


def _fit_linear(x, y):
    """Least-squares (a, C) of y ~ a + C x, the residual a + C x - y,
    the centred x and its squared norm."""
    xc = x - x.mean()
    s = xc @ xc
    C = (xc @ (y - y.mean())) / s if s > 0 else 0.0
    a = y.mean() - C * x.mean()
    return a, C, a + C * x - y, xc, s


def extrapolate(N_values, omegas):
    """Fit omega(N) = omega_extr + C N^(-t), returning
    (omega_extr, t, C).

    The fit is by variable projection (Golub & Pereyra, SIAM J. Numer.
    Anal. 10, 1973).  For a fixed t the model is linear in
    (omega_extr, C), whose least-squares values solve the centred 2 x 2
    problem on the columns [1, N^(-t)]; the omegas enter relative to
    omega[-1].  The residual r(t) then depends on t alone, and
    Gauss-Newton searches t from t0 = 2 with Kaufman's projected
    derivative J = P (d/dt N^(-t)) C, P the projector onto the
    complement of the two columns, for which J . r is the exact
    derivative of |r|^2 / 2.  A step that raises |r| by more than the
    data's roundoff tol = n eps |omega| is halved until it does not,
    and the search keeps the step and stops as soon as a step no longer
    reduces |r| by more than tol.  Each step is one linear solve, five
    per fit on the printed reference rows.

    Degenerate data: the search stops at once when |J| <= tol, since t
    is then not determined by the data.  A constant column returns
    (omega[-1], 2.0, 0.0), and a column that varies by roundoff keeps
    t = 2 instead of drifting on a C of roundoff size.  A column that
    is not monotone can drive t outward; t stays where |t| ln N <=
    T_RANGE, so every value stays finite.  StudyError is raised only
    for invalid input (fewer than three pairs, lengths that differ, or
    an N or omega that is not positive and finite).
    """
    N = np.asarray(N_values, float)
    w = np.asarray(omegas, float)
    if len(N) < 3 or len(N) != len(w):
        raise StudyError("need at least 3 (N, omega) pairs")
    if not (np.all(N > 0) and np.all(w > 0)
            and np.all(np.isfinite(N)) and np.all(np.isfinite(w))):
        raise StudyError("extrapolation needs positive, finite data")
    y = w - w[-1]
    ln_N = np.log(N)
    tol = len(w) * np.finfo(float).eps * np.linalg.norm(w)
    t = 2.0
    x = np.exp(-t * ln_N)
    a, C, r, xc, s = _fit_linear(x, y)
    norm = np.linalg.norm(r)
    for _ in range(MAX_FIT_STEPS):
        J = -C * ln_N * x
        J -= J.mean()
        if s > 0:
            J -= (xc @ J) / s * xc
        if np.linalg.norm(J) <= tol:
            break
        step = -(J @ r) / (J @ J)
        t_max = T_RANGE / np.abs(ln_N).max()
        while True:
            t_new = min(max(t + step, -t_max), t_max)
            x = np.exp(-t_new * ln_N)
            a, C, r, xc, s = _fit_linear(x, y)
            if np.linalg.norm(r) <= norm + tol:
                break
            step *= 0.5
        t, last = t_new, norm
        norm = np.linalg.norm(r)
        if norm >= last - tol:
            break
    return float(w[-1] + a), float(t), float(C)


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


def _solve_level(config: RunConfig, N: int):
    mats = config.materials()
    mesh = build_cavity_mesh(config.geometry_spec(), N)
    system = build_block_system(mesh, config.family, mats)
    pairs, _ = solve_window(system, config.window, seed=config.seed,
                            expect=config.n_modes)
    if len(pairs) < config.n_modes:
        raise StudyError(
            f"level N={N}: only {len(pairs)} physical modes in the window "
            f"{config.window}, requested {config.n_modes}")
    omegas = tuple(p.omega for p in pairs[:config.n_modes])
    return N, system.n, omegas


def run_uniform_study(config: RunConfig) -> ConvergenceTable:
    """Build, assemble, solve and filter per mesh level; fit each mode."""
    levels = tuple(sorted(config.levels))
    if not levels:
        return ConvergenceTable((), (), (), (), (),
                                config.family, config.geometry)
    rows = []
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            futures = [pool.submit(_solve_level, config, N)
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
                rows.append(_solve_level(config, N))
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
