"""Constrained symmetric generalized eigensolver.

Solves A x = kappa B x subject to C x = 0 for the eigenvalues just above
a shift, via shift-invert Lanczos on the reduced pencil the system
builds once (``BlockSystem.pencil``): with W = D Z, Z eliminating one
fluid moment dof per interface row and D balancing the pressure block,
every x = W y satisfies the constraint, and (W^T A W, W^T B W) is shared
by all shifts solved on the system.  Shift-invert maps each eigenvalue
kappa to 1/(kappa - sigma), so the modes just above sigma are the
largest algebraically; everything below sigma, the kappa = 0 kernel
included, stays out of the Krylov space.  This one-sided run is the only
Lanczos solve: ``study.solve_window`` climbs a window with it from the
window's lower end, and ``count_below`` proves the window complete.  The
shifted operator W^T (A - sigma B) W is symmetric in pattern and value,
so each shift is factored in SuperLU's symmetric mode (minimum degree on
A^T + A, diagonal pivots preferred; X. S. Li, ACM TOMS 31, 2005), which
has less than half the fill of the default unsymmetric ordering; a shift
on which that factorization fails (sigma an eigenvalue) raises
EigenSolveError.  ``count_below`` counts the eigenvalues below a shift
by Sylvester's law of inertia: the negative pivots of a pivot-free LDL^T
of the shifted operator, factored with a diagonal pivot threshold of 0.
At nu = 1/2 the pressure diagonal is exactly zero, so each zero-diagonal
dof is ordered just after its last neighbour, where its pivot has filled
in; a count whose factorization still pivots off the diagonal raises.  A
dense reduction path doubles as the brute-force oracle for small
systems, with an SVD null-space basis of C in place of the elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla

from .assembly import (ORACLE_CAP, BlockSystem, equilibration,
                       svd_nullspace)

DEFAULT_SEED = 20260808
KERNEL_TOL = 1e-8          # filter_modes' threshold (see there)
# pressure-block eigenvalues below SPLIT_TOL times the largest are zero
SPLIT_TOL = 1e-10


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
    factorizations: int = 0       # sparse LU factorizations of A - sigma B
    lu_nnz: int = 0               # fill of the factors, SuperLU.nnz
    inverse_applications: int = 0  # solves with the factored operator
    rungs: int = 1                # shift-invert solves summed here
    window_count: int = None      # eigenvalues in the window, by inertia
    shifts: tuple = ()            # a window's run shifts, in order
    max_residual: float = None    # a window's largest accepted residual

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
# dense symmetric solve with a singular mass block
# ----------------------------------------------------------------------

def _dense_constrained(A, B, want_vectors=False):
    """All finite eigenvalues of the symmetric pencil (A, B), B PSD with
    its null space spanned by the structurally empty rows of B."""
    A = np.asarray(A)
    B = np.asarray(B)
    n = A.shape[0]
    bnnz = np.abs(B).sum(axis=1)
    idx_p = np.flatnonzero(bnnz == 0.0)
    idx_r = np.flatnonzero(bnnz != 0.0)
    if len(idx_r) == 0:
        return (np.empty(0), np.empty((n, 0))) if want_vectors \
            else np.empty(0)
    A11 = A[np.ix_(idx_r, idx_r)]
    B11 = B[np.ix_(idx_r, idx_r)]
    if len(idx_p) == 0:
        vals, vecs = la.eigh(A11, B11)
        X = np.zeros((n, len(vals)))
        X[idx_r] = vecs
        return (vals, X) if want_vectors else vals
    A10 = A[np.ix_(idx_r, idx_p)]
    A00 = A[np.ix_(idx_p, idx_p)]
    d, Q = la.eigh(A00)
    dmax = np.abs(d).max(initial=0.0)
    # the incompressible limit zeroes the pressure block exactly; a mixed
    # field splits by the block's own scale
    big = np.abs(d) > SPLIT_TOL * dmax if dmax > 0.0 \
        else np.zeros(len(d), dtype=bool)
    As = A11
    if big.any():
        Qb = Q[:, big]
        As = A11 - (A10 @ Qb) @ np.diag(1.0 / d[big]) @ (A10 @ Qb).T
        As = 0.5 * (As + As.T)
    if (~big).any():
        G = (A10 @ Q[:, ~big]).T       # constraints G x1 = 0
        # rank decisions against the global matrix scale, so reduction
        # roundoff cannot masquerade as a constraint
        scale = max(np.abs(A).max(), 1.0)
        u_, s_, vt = np.linalg.svd(G, full_matrices=True)
        rank = int((s_ > 1e-12 * scale).sum())
        W = vt[rank:].T
        if W.shape[1] == 0:
            vals = np.empty(0)
            vecs = np.empty((len(idx_r), 0))
        else:
            vals, y = la.eigh(W.T @ As @ W, W.T @ B11 @ W)
            vecs = W @ y
    else:
        vals, vecs = la.eigh(As, B11)
    if not want_vectors:
        return vals
    X = np.zeros((n, len(vals)))
    X[idx_r] = vecs
    if big.any():
        X[idx_p] = -Q[:, big] @ np.diag(1.0 / d[big]) @ (A10 @ Q[:, big]).T \
            @ vecs
    return vals, X


def dense_oracle(system: BlockSystem) -> np.ndarray:
    """Brute-force spectrum: explicit null-space basis of C, dense
    symmetric reduction, all finite eigenvalues sorted ascending.
    Limited to 2000 unknowns."""
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
    vals = _dense_constrained(A, B)
    return np.sort(vals)


# ----------------------------------------------------------------------
# shift-invert Lanczos
# ----------------------------------------------------------------------

def solve_pencil(system: BlockSystem, sigma: float, n_modes: int = 6,
                 seed: int = DEFAULT_SEED) -> SpectrumReport:
    """The ``n_modes`` eigenpairs just above the shift, ascending in
    kappa.

    The shifted reduced operator is factored once and a Krylov space is
    iterated on its inverse applied to W^T B W (deterministic seeded
    start vector, full reorthogonalization, ARPACK's tolerance 0, i.e.
    machine precision).  Shift-invert maps each eigenvalue kappa to
    1/(kappa - sigma), so the modes above sigma are its largest
    algebraically (ARPACK's "LA"), Krylov dimension
    min(n - 1, max(2 n_modes + 1, n_modes + 8, 24), 220) but at least
    n_modes + 8, and everything below sigma, the kappa = 0 kernel
    included, is on the side ARPACK discards.  A shift whose operator
    cannot be factored raises EigenSolveError naming it.  Small systems,
    and those up to the dense oracle's size on which ARPACK fails, take
    the dense reduction and its ``n_modes`` smallest eigenvalues above
    sigma.  Eigenvectors are x = W y in the system's own unknowns.  The
    report counts the factorizations, the factor fill and the inverse
    applications the solve made.
    """
    if n_modes < 1:
        raise EigenSolveError("n_modes must be >= 1")
    W, A, B = system.pencil
    n = A.shape[0]
    kappas, notes, work = None, ["dense fallback"], {}
    if n_modes < n // 2 and n > max(4 * n_modes + 4, 60):
        try:
            kappas, vecs, notes = _arpack(A, B, sigma, n_modes, seed, work)
        except spla.ArpackError as err:
            if n > ORACLE_CAP:
                raise EigenSolveError(f"arpack failed: {err}") from err
            notes = [f"arpack failed ({err}); dense fallback"]
    if kappas is None:
        vals, vecs = _dense_constrained(A.toarray(), B.toarray(),
                                        want_vectors=True)
        take = np.flatnonzero(vals > sigma)
        take = take[np.argsort(vals[take], kind="stable")[:n_modes]]
        kappas, vecs = vals[take], vecs[:, take]

    pairs = tuple(_make_pair(system, float(kappas[k]), W @ vecs[:, k])
                  for k in np.argsort(kappas, kind="stable"))
    return SpectrumReport(n_modes, pairs, float(sigma), notes=tuple(notes),
                          **work)


def _arpack(A, B, sigma, n_modes, seed, work):
    """ARPACK shift-invert solve; ``work`` receives the report's counts."""
    n = A.shape[0]
    notes = []
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    ncv = min(n - 1, max(min(max(2 * n_modes + 1, 24), 220), n_modes + 8))
    sigma = float(sigma)
    work["factorizations"] = 1
    try:
        # a diagonal pivot below 0.01 of its column is swapped off the
        # diagonal, which bounds element growth; such a factor gives no
        # inertia, so count_below makes its own
        lu = spla.splu((A - sigma * B).tocsc(),
                       permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01,
                       options={"SymmetricMode": True})
    except RuntimeError as err:
        raise EigenSolveError(f"shift-invert factorization at shift "
                              f"{sigma:.6e}: {err}") from err
    work["lu_nnz"] = int(lu.nnz)
    work["inverse_applications"] = 0

    def inverse(x):
        work["inverse_applications"] += 1
        return lu.solve(x)

    op = spla.LinearOperator((n, n), matvec=inverse)
    try:
        vals, vecs = spla.eigsh(A, k=n_modes, M=B, sigma=sigma, which="LA",
                                v0=v0, ncv=ncv, tol=0.0, OPinv=op,
                                maxiter=max(400, 40 * n_modes))
    except spla.ArpackNoConvergence as err:
        vals, vecs = err.eigenvalues, err.eigenvectors
        notes.append(f"arpack converged only {len(vals)}/{n_modes} pairs")
    return vals, vecs, notes


# ----------------------------------------------------------------------
# inertia count
# ----------------------------------------------------------------------

def count_below(system: BlockSystem, sigma: float, work=None) -> int:
    """Negative pivots of a pivot-free LDL^T of W^T (A - sigma B) W.

    By Sylvester's law of inertia this is the number of eigenvalues of
    the reduced pencil below sigma plus a sigma-independent offset from
    the pressure block, so count_below(k_hi) - count_below(k_lo) is the
    number of eigenvalues in [k_lo, k_hi).  The operator is factored in
    SuperLU's symmetric mode with a diagonal pivot threshold of 0 on a
    minimum degree ordering.  Where the diagonal has exact zeros (the
    pressure block at nu = 1/2) that factorization pivots off the
    diagonal, so each zero-diagonal dof is moved to just after its last
    neighbour in the ordering, where eliminating the neighbours has
    filled its pivot, and the operator is factored again in that order.
    That ordering depends on the pattern alone, so only the first count
    of a system makes the minimum degree factorization, and later counts
    reuse its ordering.  A factorization that still pivots off the
    diagonal raises EigenSolveError.  ``work`` (a dict) receives the
    factorizations made under the key "factorizations".
    """
    M = (system.pencil[1] - sigma * system.pencil[2]).tocsc()
    M.eliminate_zeros()
    zero = M.diagonal() == 0.0
    if zero.any():
        order = _pivot_free_order(system, M, zero, sigma, work)
        M = M[order][:, order].tocsc()
        lu = _ldl(M, "NATURAL", sigma, work)
    else:
        lu = _ldl(M, "MMD_AT_PLUS_A", sigma, work)
    del M
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise EigenSolveError(f"inertia count at shift {sigma:.6e}: the "
                              "factorization pivots off the diagonal")
    # reading lu.U makes scipy cache CSC copies of L and U on the factor
    # object, freed only with it, so a count's factor is not kept for a
    # Lanczos run at the same shift
    return int((lu.U.diagonal() < 0.0).sum())


def _pivot_free_order(system, M, zero, sigma, work):
    """The minimum degree ordering of M with each zero-diagonal dof
    delayed, made on the first count of the system and kept in
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
        raise EigenSolveError(f"inertia count at shift {sigma:.6e}: "
                              f"{err}") from err


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
    W = system.pencil[0]
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
