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
count.  Shift-invert maps each eigenvalue kappa to theta =
1/(kappa - sigma), so the modes just above sigma are the largest theta;
everything below sigma, the kappa = 0 kernel included, stays out of the
wanted end.  This one-sided run is the only Lanczos solve:
``study.solve_window`` climbs a window with it from the window's lower
end.

The run is a Lanczos process in numpy in the W^T B W inner product,
with full reorthogonalization (two passes of classical Gram-Schmidt),
started from the inverse applied to B v0, which leaves out the infinite
eigenvalues of the singular pressure block.  It stops as soon as each of
the wanted theta has a Ritz estimate |beta s_last| <= LANCZOS_TOL
|theta|.  For k pairs on n unknowns its basis holds at most
min(n - 1, max(min(max(2 k + 1, 24), 220), k + 8)) vectors; when it is
full the run restarts thickly (Wu & Simon, SIAM J. Matrix Anal. Appl.
22, 2000), locking the converged wanted pairs and keeping the others
with the next largest.  Each vector returned is the inverse applied to
B times its Ritz vector, over theta, which purges what roundoff puts
into the null space of B (Ericsson & Ruhe, Math. Comp. 35, 1980).

Each shift is factored once (``ShiftFactor``), and the factor serves
twice, as in spectrum slicing (Grimes, Lewis & Simon, SIAM J. Matrix
Anal. Appl. 15, 1994): its inverse drives the runs at the shift, and its
negative pivots count the eigenvalues below the shift by Sylvester's law
of inertia (``count_below`` makes a factor for a count alone).  The
shifted operator W^T (A - sigma B) W is symmetric in pattern and value,
so it is factored as a pivot-free LDL^T in SuperLU's symmetric mode with
a diagonal pivot threshold of 0 (X. S. Li, ACM TOMS 31, 2005).  The
first factor of a system orders it by minimum degree on A^T + A, which
has less than half the fill of the default unsymmetric ordering; at
nu = 1/2 the pressure diagonal is exactly zero, so each zero-diagonal
dof is ordered just after its last neighbour, where its pivot has filled
in.  Every later factor is made in that ordering.  A shift whose
factorization fails (sigma an eigenvalue) or still pivots off the
diagonal raises EigenSolveError.  Systems too small for a Krylov run
take the same spectral transformation densely (Ericsson & Ruhe): with
B = E E^T, the eigenvalues theta of the symmetric E^T (A - sigma B)^{-1}
E, from a Bunch-Kaufman solve, are 1/(kappa - sigma), so eigenvalues
near sigma are accurate at every nu, and the singular pressure block at
nu = 1/2 needs no special case: its infinite eigenvalues are theta = 0.
On an SVD null-space basis of C in place of the elimination, that dense
path is the brute-force oracle.
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
LANCZOS_TOL = 1e-11        # a converged theta's Ritz estimate, relative


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
    pivot threshold of 0.  The first factor of a system makes the
    ordering: a minimum degree factorization, whose ordering is kept with
    each zero-diagonal dof (the pressure block at nu = 1/2) moved to just
    after its last neighbour, where eliminating the neighbours has filled
    its pivot.  Without such dofs that factorization is the factor; with
    them it pivots off the diagonal, and the operator is factored again.
    The ordering depends on the pattern alone, so every later factor of
    the system is made in its natural order on the operator permuted into
    it (``BlockSystem.count_orders``, keyed by the zero-diagonal set).  A
    factorization that fails (sigma an eigenvalue) or still pivots off
    the diagonal raises EigenSolveError.  ``work`` (a dict) receives the
    factorizations made under the key "factorizations".
    """

    def __init__(self, system: BlockSystem, sigma: float, work=None):
        self.sigma = float(sigma)
        A, B = system.reduce(system.A), system.reduce(system.B)
        M = (A - self.sigma * B).tocsc()
        del A, B
        M.eliminate_zeros()
        zero = M.diagonal() == 0.0
        key = zero.tobytes()
        self.order = system.count_orders.get(key)
        if self.order is None:
            lu = _ldl(M, "MMD_AT_PLUS_A", self.sigma, work)
            system.count_orders[key] = _delay_zero_diagonal(
                M, np.argsort(lu.perm_c), zero)
            if zero.any():
                # that factor pivots off the diagonal: drop it before
                # factoring again
                self.order = system.count_orders[key]
                del lu
            else:
                self.lu = lu
        if self.order is not None:
            M = M[self.order][:, self.order].tocsc()
            self.lu = _ldl(M, "NATURAL", self.sigma, work)
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

    A thick-restart Lanczos run (``_lanczos``) on the inverse of the
    shifted reduced operator applied to W^T B W finds them as the largest
    theta = 1/(kappa - sigma), so everything below sigma, the kappa = 0
    kernel included, is on the side the run discards.  The inverse is
    ``factor``, a ``ShiftFactor`` at sigma the caller holds; without one
    the shift is factored for this run alone.  A shift whose operator
    cannot be factored, or whose inverse is not finite, raises
    EigenSolveError naming it.  A system too small for the run's Krylov
    space takes the dense spectral transformation at sigma
    (``_dense_shifted``) and its ``n_modes`` largest positive theta, the
    eigenvalues just above sigma (``dense_fallback``); a run that stops
    with fewer converged pairs than asked for returns those
    (``partial``).  Eigenvectors are x = W y in the system's own
    unknowns.  The report counts the factorizations the solve made, the
    factor fill and the inverse applications.
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
        theta, vecs = theta[take], vecs[:, take]
    else:
        if factor is None:
            factor = ShiftFactor(system, sigma, work)
        theta, vecs = _lanczos(system.reduce(system.B), factor, n_modes,
                               seed, work)
        if len(theta) < n_modes:
            notes.append(f"lanczos converged only {len(theta)}/{n_modes} "
                         "pairs")
            partial = True
    kappas = sigma + 1.0 / theta
    pairs = tuple(_make_pair(system, float(kappas[k]), W @ vecs[:, k])
                  for k in np.argsort(kappas, kind="stable"))
    return SpectrumReport(n_modes, pairs, float(sigma), notes=tuple(notes),
                          dense_fallback=dense, partial=partial, **work)


def _lanczos(B, factor, n_modes, seed, work):
    """The converged ones of the ``n_modes`` largest positive theta of
    the inverse of ``factor`` applied to B, and their vectors, one per
    column; ``work`` receives the report's counts.

    The run starts from the inverse applied to B v0, v0 a seeded normal
    vector, which leaves out the infinite eigenvalues of a singular B,
    and B-orthogonalizes every new vector against the whole basis twice
    (CGS2).  It stops once each wanted theta has a Ritz estimate
    |beta s_last| <= LANCZOS_TOL theta.  The basis holds at most
    ``_krylov_dim`` vectors; when it is full, the run restarts thickly
    (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 2000): the converged
    wanted Ritz vectors are locked, stay in the basis as vectors the run
    B-orthogonalizes against and leave the projected matrix, and the
    unconverged wanted ones, with the next largest up to half the free
    room, start it again.  A run stops short, returning what has
    converged, once it has applied the inverse as often as B has rows or
    its Krylov space is invariant.
    """
    n = B.shape[0]
    cap = _krylov_dim(n, n_modes)
    rng = np.random.default_rng(seed)
    work["lu_nnz"] = factor.nnz
    work["inverse_applications"] = 0

    def b_norm(x):
        Bx = B @ x
        beta = float(np.sqrt(max(x @ Bx, 0.0)))
        if not np.isfinite(beta):
            raise EigenSolveError(f"shift-invert run at shift "
                                  f"{factor.sigma:.6e}: the inverse is not "
                                  "finite")
        return Bx, beta

    # basis rows, their B products, the inverse applied to their B
    # products and the projected matrix on the rows not locked; only the
    # rows in use are touched
    V, BV, U = np.empty((cap, n)), np.empty((cap, n)), np.empty((cap, n))
    T = np.zeros((cap, cap))
    thetas, vecs = [], []        # the locked pairs
    work["inverse_applications"] += 1
    f = factor.solve(B @ rng.standard_normal(n))
    Bf, beta = b_norm(f)
    j = 0
    while True:
        lock = len(thetas)
        V[j], BV[j] = f / beta, Bf / beta
        work["inverse_applications"] += 1
        U[j] = factor.solve(BV[j])
        f = U[j].copy()
        # B-orthogonalize against every row, twice; the coefficients on
        # the locked rows are converged residuals
        c = BV[:j + 1] @ f
        f -= c @ V[:j + 1]
        c2 = BV[:j + 1] @ f
        f -= c2 @ V[:j + 1]
        T[lock:j + 1, j] = T[j, lock:j + 1] = (c + c2)[lock:]
        Bf, beta = b_norm(f)
        j += 1
        theta, S = np.linalg.eigh(T[lock:j, lock:j])
        # wanted: the largest positive theta, the eigenvalues above sigma
        top = np.arange(len(theta))[::-1]
        wanted = top[theta[top] > 0.0][:n_modes - lock]
        done = beta * np.abs(S[-1, wanted]) <= LANCZOS_TOL * theta[wanted]
        new = wanted[done]
        # an invariant Krylov space (beta at roundoff) holds no more pairs
        stop = (len(new) == n_modes - lock
                or work["inverse_applications"] >= n
                or beta <= j * np.finfo(float).eps * np.abs(theta).max())
        if not stop and j < cap:
            continue
        # lock the converged wanted pairs.  Each vector returned is the
        # inverse applied to B y, over theta, for its Ritz vector y (the
        # purification of Ericsson & Ruhe): a combination of the rows of
        # U, it leaves out what roundoff puts into the rows of V in the
        # null space of B, which the B inner product does not see
        thetas.extend(theta[new])
        vecs.extend(S[:, new].T @ U[lock:j] / theta[new, None])
        if stop:
            break
        # restart from the locked rows, the unconverged wanted Ritz
        # vectors and the next largest, up to half the free room
        rest = top[~np.isin(top, new)]
        keep = np.concatenate(
            [new, rest[:n_modes - lock - len(new) + (cap - n_modes) // 2]])
        V[lock:lock + len(keep)] = S[:, keep].T @ V[lock:j]
        BV[lock:lock + len(keep)] = S[:, keep].T @ BV[lock:j]
        U[lock:lock + len(keep)] = S[:, keep].T @ U[lock:j]
        j = lock + len(keep)
        T[lock:, lock:] = 0.0
        T[range(lock, j), range(lock, j)] = theta[keep]
    return np.array(thetas), np.array(vecs).reshape(len(vecs), n).T


def _krylov_dim(n, n_modes):
    """The largest basis of a run for ``n_modes`` pairs on n unknowns."""
    return min(n - 1, max(min(max(2 * n_modes + 1, 24), 220), n_modes + 8))


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
