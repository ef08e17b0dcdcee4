"""Constrained symmetric generalized eigensolver.

Solves A x = kappa B x subject to C x = 0 for the eigenvalues just above
a shift, via shift-invert Lanczos on the pencil (W^T A W, W^T B W)
reduced on the basis the system builds once (``BlockSystem.basis``):
with W = D Z, Z eliminating one fluid moment dof per interface row and
D balancing the pressure block, every x = W y satisfies the constraint.
The reduced matrices are not kept on the system: each factor forms
W^T A W - sigma W^T B W and drops the parts before it factors, and each
run forms W^T B W (and W^T A W on the dense path) and drops it when it
returns, so no copy of the pencil sits beside a factor and its inertia
count.  Shift-invert maps each eigenvalue
kappa to 1/(kappa - sigma), so the modes just above sigma are the
largest algebraically; everything below sigma, the kappa = 0 kernel
included, stays out of the Krylov space.  This one-sided run is the only
Lanczos solve: ``study.solve_window`` climbs a window with it from the
window's lower end.  Each shift is factored once (``ShiftFactor``), and
the factor serves twice, as in spectrum slicing (Grimes, Lewis & Simon,
SIAM J. Matrix Anal. Appl. 15, 1994): its inverse drives the runs at the
shift, and its negative pivots count the eigenvalues below the shift by
Sylvester's law of inertia (``count_below`` makes a factor for a count
alone).  The shifted operator W^T (A - sigma B) W is symmetric in pattern
and value, so it is factored as a pivot-free LDL^T in SuperLU's
symmetric mode with a diagonal pivot threshold of 0 (minimum degree on
A^T + A; X. S. Li, ACM TOMS 31, 2005), which has less than half the fill
of the default unsymmetric ordering.  At nu = 1/2 the pressure diagonal
is exactly zero, so each zero-diagonal dof is ordered just after its
last neighbour, where its pivot has filled in.  A shift whose
factorization fails (sigma an eigenvalue) or still pivots off the
diagonal raises EigenSolveError.  Systems too small for a Krylov run
take the same spectral transformation densely (Ericsson & Ruhe, Math.
Comp. 35, 1980): with B = E E^T, the eigenvalues theta of the symmetric
E^T (A - sigma B)^{-1} E, from a Bunch-Kaufman solve, are
1/(kappa - sigma), so eigenvalues near sigma are accurate at every nu,
and the singular pressure block at nu = 1/2 needs no special case: its
infinite eigenvalues are theta = 0.  On an SVD null-space basis of C in
place of the elimination, that dense path is the brute-force oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla

from .assembly import (ORACLE_CAP, BlockSystem, equilibration,
                       svd_nullspace)

DEFAULT_SEED = 20260808
KERNEL_TOL = 1e-8          # filter_modes' threshold (see there)


class EigenSolveError(Exception):
    pass


@dataclass(frozen=True)
class EigenPair:
    """One converged mode of the constrained pencil."""

    kappa: float              # omega^2, 1/s^2
    omega: float              # sqrt(max(kappa, 0))
    u: np.ndarray             # solid displacement dofs (Dirichlet zeros)
    w: np.ndarray             # fluid displacement dofs
    p: np.ndarray             # solid pressure dofs
    x: np.ndarray             # reduced solution vector
    residual: float           # |W^T (A x - kappa B x)|, relative
    kernel: bool = False      # kappa = 0 mode; a run above sigma > 0 has none


@dataclass(frozen=True)
class SpectrumReport:
    requested: int
    pairs: tuple
    shift: float
    n_kernel: int = 0
    notes: tuple = ()
    factorizations: int = 0       # sparse LDL^T factorizations made
    lu_nnz: int = 0               # fill of the factors, SuperLU.nnz
    inverse_applications: int = 0  # solves with the factored operator
    rungs: int = 1                # shift-invert solves summed here
    window_count: int = None      # eigenvalues in the window, by inertia
    shifts: tuple = ()            # a window's run shifts, in order
    asked: tuple = ()             # the pairs each of those runs asked for
    max_residual: float = None    # a window's largest accepted residual
    dense_fallback: bool = False  # a run took the dense reduction
    partial: bool = False         # a run converged fewer pairs than asked

    @property
    def kappas(self) -> np.ndarray:
        return np.array([p.kappa for p in self.pairs])

    @property
    def omegas(self) -> np.ndarray:
        return np.array([p.omega for p in self.pairs])

    def to_csv(self) -> str:
        lines = ["mode_index,kappa,omega,residual,kernel_flag"]
        for i, p in enumerate(self.pairs):
            lines.append(f"{i},{p.kappa:.12e},{p.omega:.12e},"
                         f"{p.residual:.3e},{int(p.kernel)}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# dense spectral transformation
# ----------------------------------------------------------------------

def _dense_shifted(A, B, sigma):
    """Every finite eigenpair of the dense symmetric pencil (A, B) as
    theta = 1/(kappa - sigma), ascending, with B-normalised vectors.

    B = E E^T, E a Cholesky factor on the structurally non-empty rows of
    B.  With Y = (A - sigma B)^{-1} E from a Bunch-Kaufman solve, theta,
    z are the eigenpairs of E^T Y and x = Y z / theta.  A theta at most
    n eps max|theta| is an infinite eigenvalue and is dropped.  An
    A - sigma B singular to working precision (sigma an eigenvalue, or a
    singular pencil) raises EigenSolveError naming the shift.
    """
    n = A.shape[0]
    rows = np.flatnonzero(np.abs(B).sum(axis=1) != 0.0)
    E = np.zeros((n, len(rows)))
    E[rows] = la.cholesky(B[np.ix_(rows, rows)]).T
    with warnings.catch_warnings():
        warnings.simplefilter("error", la.LinAlgWarning)
        try:
            Y = la.solve(A - sigma * B, E, assume_a="sym")
        except (la.LinAlgError, la.LinAlgWarning) as err:
            raise EigenSolveError(f"dense factorization at shift "
                                  f"{sigma:.6e}: {err}") from err
    T = E.T @ Y
    theta, z = la.eigh(0.5 * (T + T.T))
    tol = n * np.finfo(float).eps * np.abs(theta).max(initial=0.0)
    finite = np.abs(theta) > tol
    theta = theta[finite]
    return theta, Y @ z[:, finite] / theta


def dense_oracle(system: BlockSystem, sigma: float) -> np.ndarray:
    """Brute-force spectrum: every finite eigenvalue, ascending, of the
    dense pencil reduced on an SVD null-space basis of C, from the
    spectral transformation at sigma (``_dense_shifted``).

    Eigenvalues are accurate relative to their distance from sigma, so a
    caller passes the lower end of the window it checks.  Sigma must not
    be an eigenvalue (kappa = 0 is one on a system with fluid), and an
    eigenvalue farther from sigma than about 1/(n eps) times the distance
    of the nearest one cannot be told from an infinite one and is
    dropped.  Limited to 2000 unknowns.
    """
    if system.n > ORACLE_CAP:
        raise EigenSolveError(
            f"dense oracle limited to {ORACLE_CAP} dofs, got {system.n}")
    C = system.C
    if C is None or C.shape[0] == 0:
        W = np.eye(system.n)
    else:
        W = svd_nullspace(C)
    d = equilibration(system)
    if d is not None:
        W = d[:, None] * W
    A = W.T @ system.A.toarray() @ W
    B = W.T @ system.B.toarray() @ W
    A = 0.5 * (A + A.T)
    B = 0.5 * (B + B.T)
    theta, _ = _dense_shifted(A, B, sigma)
    return np.sort(sigma + 1.0 / theta)


# ----------------------------------------------------------------------
# one pivot-free factorization per shift
# ----------------------------------------------------------------------

class ShiftFactor:
    """A pivot-free LDL^T of W^T (A - sigma B) W, serving both the
    shift-invert runs at sigma and the inertia count there.

    The operator is factored in SuperLU's symmetric mode with a diagonal
    pivot threshold of 0 on a minimum degree ordering.  Where the
    diagonal has exact zeros (the pressure block at nu = 1/2) that
    factorization pivots off the diagonal, so each zero-diagonal dof is
    moved to just after its last neighbour in the ordering, where
    eliminating the neighbours has filled its pivot, and the operator is
    factored again in that order.  That ordering depends on the pattern
    alone, so only the first factor of a system makes the minimum degree
    factorization, and later ones reuse its ordering.  A factorization
    that fails (sigma an eigenvalue) or still pivots off the diagonal
    raises EigenSolveError.  ``work`` (a dict) receives the
    factorizations made under the key "factorizations".
    """

    def __init__(self, system: BlockSystem, sigma: float, work=None):
        self.sigma = float(sigma)
        A, B = system.reduce(system.A), system.reduce(system.B)
        M = (A - self.sigma * B).tocsc()
        del A, B
        M.eliminate_zeros()
        zero = M.diagonal() == 0.0
        self.order = None
        if zero.any():
            self.order = _pivot_free_order(system, M, zero, self.sigma,
                                           work)
            M = M[self.order][:, self.order].tocsc()
            self.lu = _ldl(M, "NATURAL", self.sigma, work)
        else:
            self.lu = _ldl(M, "MMD_AT_PLUS_A", self.sigma, work)
        del M
        if not np.array_equal(self.lu.perm_r, self.lu.perm_c):
            raise EigenSolveError(f"pivot-free factorization at shift "
                                  f"{self.sigma:.6e}: it pivots off the "
                                  "diagonal")
        self.nnz = int(self.lu.nnz)

    def solve(self, x):
        """(W^T (A - sigma B) W)^{-1} x."""
        if self.order is None:
            return self.lu.solve(x)
        y = np.empty_like(x)
        y[self.order] = self.lu.solve(x[self.order])
        return y

    def count(self) -> int:
        """Negative pivots of the factor.

        By Sylvester's law of inertia this is the number of eigenvalues
        of the reduced pencil below sigma plus a sigma-independent offset
        from the pressure block, so the difference of two counts is the
        number of eigenvalues between their shifts.  Reading ``lu.U``
        makes scipy cache CSC copies of L and U on the factor, freed only
        with it, so a count read before a run holds them through it.
        """
        return int((self.lu.U.diagonal() < 0.0).sum())


def count_below(system: BlockSystem, sigma: float, work=None) -> int:
    """The inertia count at sigma (``ShiftFactor.count``) of a factor
    made for it alone; ``work`` as for ``ShiftFactor``."""
    return ShiftFactor(system, sigma, work).count()


def _pivot_free_order(system, M, zero, sigma, work):
    """The minimum degree ordering of M with each zero-diagonal dof
    delayed, made on the first factor of the system and kept in
    ``BlockSystem.count_orders`` under the zero-diagonal set: both depend
    on the pattern of M alone, which every shift shares."""
    key = zero.tobytes()
    if key not in system.count_orders:
        lu = _ldl(M, "MMD_AT_PLUS_A", sigma, work)
        system.count_orders[key] = _delay_zero_diagonal(
            M, np.argsort(lu.perm_c), zero)
    return system.count_orders[key]


def _ldl(M, permc_spec, sigma, work):
    """Symmetric-mode LU of M preferring every diagonal pivot; with
    perm_r == perm_c it is an LDL^T with D = diag(U)."""
    if work is not None:
        work["factorizations"] = work.get("factorizations", 0) + 1
    try:
        return spla.splu(M, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as err:
        raise EigenSolveError(f"pivot-free factorization at shift "
                              f"{sigma:.6e} (inertia count and "
                              f"shift-invert runs): {err}") from err


# ----------------------------------------------------------------------
# shift-invert Lanczos
# ----------------------------------------------------------------------

def solve_pencil(system: BlockSystem, sigma: float, n_modes: int = 6,
                 seed: int = DEFAULT_SEED, factor=None) -> SpectrumReport:
    """The ``n_modes`` eigenpairs just above the shift, ascending in
    kappa.

    A Krylov space is iterated on the inverse of the shifted reduced
    operator applied to W^T B W (deterministic seeded start vector, full
    reorthogonalization, ARPACK's tolerance 0, i.e. machine precision).
    The inverse is ``factor``, a ``ShiftFactor`` at sigma the caller
    holds; without one the shift is factored for this run alone.
    Shift-invert maps each eigenvalue kappa to 1/(kappa - sigma), so the
    modes above sigma are its largest algebraically (ARPACK's "LA"),
    Krylov dimension min(n - 1, max(2 n_modes + 1, n_modes + 8, 24), 220)
    but at least n_modes + 8, and everything below sigma, the kappa = 0
    kernel included, is on the side ARPACK discards.  A shift whose
    operator cannot be factored raises EigenSolveError naming it, as does
    a failed ARPACK run.  A system too small for that Krylov space takes
    the dense spectral transformation at sigma (``_dense_shifted``) and
    its ``n_modes`` largest positive theta, the eigenvalues just above
    sigma (``dense_fallback``); a run that stops with fewer converged
    pairs than asked for returns those (``partial``).
    Eigenvectors are x = W y in the system's own unknowns.  The report
    counts the factorizations the solve made, the factor fill and the
    inverse applications.
    """
    if n_modes < 1:
        raise EigenSolveError("n_modes must be >= 1")
    W = system.basis
    n = W.shape[1]
    notes, work, partial = [], {}, False
    dense = n_modes >= n // 2 or n <= max(4 * n_modes + 4, 60)
    if dense:
        notes.append("dense fallback")
        theta, vecs = _dense_shifted(system.reduce(system.A).toarray(),
                                     system.reduce(system.B).toarray(),
                                     sigma)
        take = np.flatnonzero(theta > 0.0)[::-1][:n_modes]
        kappas, vecs = sigma + 1.0 / theta[take], vecs[:, take]
    else:
        if factor is None:
            factor = ShiftFactor(system, sigma, work)
        try:
            kappas, vecs = _arpack(system.reduce(system.B), factor,
                                   n_modes, seed, work)
        except spla.ArpackNoConvergence as err:
            kappas, vecs = err.eigenvalues, err.eigenvectors
            notes.append(f"arpack converged only {len(kappas)}/{n_modes} "
                         "pairs")
            partial = True
        except spla.ArpackError as err:
            raise EigenSolveError(f"arpack failed: {err}") from err

    pairs = tuple(_make_pair(system, float(kappas[k]), W @ vecs[:, k])
                  for k in np.argsort(kappas, kind="stable"))
    return SpectrumReport(n_modes, pairs, float(sigma), notes=tuple(notes),
                          dense_fallback=dense, partial=partial, **work)


def _arpack(B, factor, n_modes, seed, work):
    """ARPACK shift-invert solve on ``factor`` with the inner product of
    the reduced B; ``work`` receives the report's counts."""
    n = B.shape[0]
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    ncv = min(n - 1, max(min(max(2 * n_modes + 1, 24), 220), n_modes + 8))
    work["lu_nnz"] = factor.nnz
    work["inverse_applications"] = 0

    def inverse(x):
        work["inverse_applications"] += 1
        return factor.solve(x)

    op = spla.LinearOperator((n, n), matvec=inverse)
    # ARPACK's shift-invert mode applies only the inverse and B: eigsh
    # reads its first argument (A) for the shape and dtype alone, so the
    # reduced A need not be formed
    return spla.eigsh(B, k=n_modes, M=B, sigma=factor.sigma, which="LA",
                      v0=v0, ncv=ncv, tol=0.0, OPinv=op,
                      maxiter=max(400, 40 * n_modes))


def _delay_zero_diagonal(M, order, zero):
    """``order`` with each zero-diagonal dof moved to just after the last
    of its nonzero-diagonal neighbours."""
    pos = np.empty(len(order))
    pos[order] = np.arange(len(order))
    key = pos.copy()
    coo = M.tocoo()
    link = zero[coo.row] & ~zero[coo.col]
    np.maximum.at(key, coo.row[link], pos[coo.col[link]] + 0.5)
    return np.lexsort((pos, key))


def _make_pair(system: BlockSystem, kappa, x):
    W = system.basis
    Ax = system.A @ x
    Bx = system.B @ x
    xbx = float(x @ Bx)
    if xbx > 1e-300:
        s = 1.0 / np.sqrt(xbx)
    else:
        s = 1.0 / np.linalg.norm(x)
    x, Ax, Bx = x * s, Ax * s, Bx * s
    # restrict the residual to ker C; the complement carries only the
    # constraint forces
    r = W.T @ (Ax - kappa * Bx)
    denom = np.linalg.norm(W.T @ Ax) + abs(kappa) * np.linalg.norm(W.T @ Bx)
    residual = float(np.linalg.norm(r) / denom) if denom > 0 else 0.0
    omega = float(np.sqrt(kappa)) if kappa >= 0 else 0.0
    if system.layout is not None:
        u, w, p = system.layout.split(x)
    else:
        u = w = p = np.empty(0)
    return EigenPair(float(kappa), omega, u, w, p, x, residual)


def filter_modes(report: SpectrumReport) -> SpectrumReport:
    """Drop the curl-kernel modes (kappa = 0 to solver precision).

    Modes with kappa <= KERNEL_TOL * kappa_ref are flagged as kernel and
    removed from the physical list; kappa_ref is the largest requested
    eigenvalue scale, i.e. the larger of the top reported eigenvalue and
    the shift.  A run above a shift k_lo > 0 returns no kernel mode, so
    in ``solve_window`` this drops nothing; it stays, with KERNEL_TOL,
    ``EigenPair.kernel``, ``SpectrumReport.n_kernel`` and the CSV's
    kernel_flag column, while perfbench's tracer (``LAYER_TARGETS``)
    wraps it by name.
    """
    if not report.pairs:
        return report
    kappa_ref = max(p.kappa for p in report.pairs)
    kappa_ref = max(kappa_ref, abs(report.shift))
    if kappa_ref <= 0:
        kappa_ref = max(abs(p.kappa) for p in report.pairs)
    physical, kernel = [], 0
    for p in report.pairs:
        if p.kappa <= KERNEL_TOL * kappa_ref:
            kernel += 1
        else:
            physical.append(replace(p, kernel=False,
                                    omega=float(np.sqrt(p.kappa))))
    notes = report.notes
    if not physical:
        notes = notes + ("all modes filtered as kernel; "
                         "physical spectrum empty",)
    return replace(report, pairs=tuple(physical),
                   n_kernel=report.n_kernel + kernel, notes=notes)
