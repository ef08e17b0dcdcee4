"""Constrained symmetric generalized eigensolver.

Solves A x = kappa B x subject to C x = 0 for the eigenvalues nearest a
shift, via shift-invert Lanczos on the constraint null space.  The
constraint is removed either by eliminating one fluid moment dof per row
(the assembled rows carry an exact -1 there) or by a saddle-point
augmentation kept as a cross-check.  A dense reduction path doubles as
the brute-force oracle for small systems.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import BlockSystem

DEFAULT_SEED = 20260808
DEFAULT_SHIFT = (2.0 * np.pi * 50.0) ** 2   # below the first physical mode
KERNEL_TOL = 1e-8
ORACLE_CAP = 2000


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
    residual: float           # |A x - kappa B x| on the constraint null
                              # space, relative
    kernel: bool = False


@dataclass(frozen=True)
class SpectrumReport:
    requested: int
    pairs: tuple
    shift: float
    n_kernel: int = 0
    n_discarded: int = 0
    notes: tuple = ()

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
# constraint reduction
# ----------------------------------------------------------------------

def nullspace_basis(system: BlockSystem) -> sp.csr_matrix:
    """Sparse basis Z of ker C with x = Z y.

    When the system carries the assembled interface metadata, the fluid
    moment dof of each row is eliminated in favor of the solid trace
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
        raise EigenSolveError("generic constraint elimination needs the "
                              "assembled interface metadata for large "
                              "systems")
    touched = np.unique(C.tocoo().col)
    Zt = la.null_space(C.toarray()[:, touched])
    keep = np.setdiff1d(np.arange(n), touched)
    Z = np.zeros((n, len(keep) + Zt.shape[1]))
    Z[keep, np.arange(len(keep))] = 1.0
    Z[touched, len(keep):] = Zt
    return sp.csr_matrix(Z)


def _equilibration(system: BlockSystem) -> np.ndarray | None:
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
    su, sw, sp = lay.reduced_slices()
    A = system.A
    a_uu = abs(A[su, su]).max() if su.stop > su.start else 0.0
    a_up = abs(A[su, sp]).max()
    if a_up == 0.0 or a_uu == 0.0:
        return None
    d = np.ones(lay.n_free)
    d[sp] = a_uu / a_up
    return d


def _apply_scaling(system: BlockSystem, d: np.ndarray) -> BlockSystem:
    D = sp.diags(d)
    return BlockSystem((D @ system.A @ D).tocsr(),
                       (D @ system.B @ D).tocsr(),
                       (system.C @ D).tocsr() if system.C is not None
                       else None,
                       system.layout, system.spaces, system.interface_wdofs)


def _reduced_pencil(system: BlockSystem, method: str):
    if method == "nullspace":
        Z = nullspace_basis(system)
        A = (Z.T @ system.A @ Z).tocsc()
        B = (Z.T @ system.B @ Z).tocsc()
        return A, B, Z, 0
    if method == "saddle":
        C = system.C
        if C is None or C.shape[0] == 0:
            return system.A.tocsc(), system.B.tocsc(), None, 0
        m = C.shape[0]
        A = sp.bmat([[system.A, C.T], [C, None]], format="csc")
        B = sp.bmat([[system.B, None],
                     [None, sp.csr_matrix((m, m))]], format="csc")
        return A, B, None, m
    raise EigenSolveError(f"unknown constraint method {method!r}")


# ----------------------------------------------------------------------
# dense symmetric solve with a singular mass block
# ----------------------------------------------------------------------

def _dense_constrained(A, B, tol_scale=1e-10, want_vectors=False):
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
    big = np.abs(d) > tol_scale * dmax if dmax > 0.0 \
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
    d = _equilibration(system)
    if d is not None:
        system = _apply_scaling(system, d)
    C = system.C
    n = system.n
    if C is None or C.shape[0] == 0:
        Z = np.eye(n)
    else:
        Cd = C.toarray()
        touched = np.flatnonzero(np.any(Cd != 0.0, axis=0))
        Zt = la.null_space(Cd[:, touched])
        keep = np.setdiff1d(np.arange(n), touched)
        Z = np.zeros((n, len(keep) + Zt.shape[1]))
        Z[keep, np.arange(len(keep))] = 1.0
        Z[touched, len(keep):] = Zt
    A = Z.T @ system.A.toarray() @ Z
    B = Z.T @ system.B.toarray() @ Z
    A = 0.5 * (A + A.T)
    B = 0.5 * (B + B.T)
    vals = _dense_constrained(A, B)
    return np.sort(vals)


# ----------------------------------------------------------------------
# shift-invert Lanczos
# ----------------------------------------------------------------------

def solve_pencil(system: BlockSystem, sigma: float = DEFAULT_SHIFT,
                 n_modes: int = 6, tol: float = 1e-9,
                 method: str = "nullspace",
                 seed: int = DEFAULT_SEED) -> SpectrumReport:
    """Eigenpairs nearest the shift, ascending in kappa.

    The shifted operator is factored once and a Krylov space is iterated
    on its inverse applied to B (deterministic seeded start vector, full
    reorthogonalization, Krylov dimension 4 n_modes).  Small systems fall
    back to the dense reduction.
    """
    if n_modes < 1:
        raise EigenSolveError("n_modes must be >= 1")
    d = _equilibration(system)
    scaled = _apply_scaling(system, d) if d is not None else system
    A, B, Z, n_mult = _reduced_pencil(scaled, method)
    n = A.shape[0]
    notes = []

    small = n_modes >= (n - n_mult) // 2 or n <= max(4 * n_modes + 4, 60)
    if small:
        vals, vecs = _dense_constrained(A.toarray(), B.toarray(),
                                        want_vectors=True)
        order = np.argsort(np.abs(vals - sigma), kind="stable")
        take = order[:n_modes]
        kappas, vecs = vals[take], vecs[:, take]
        notes.append("dense fallback")
    else:
        try:
            kappas, vecs, extra = _arpack_nearest(A, B, sigma, n_modes,
                                                  tol, seed, n_mult)
        except spla.ArpackError as err:
            if n > ORACLE_CAP:
                raise EigenSolveError(f"arpack failed: {err}") from err
            vals, vecs = _dense_constrained(A.toarray(), B.toarray(),
                                            want_vectors=True)
            order = np.argsort(np.abs(vals - sigma), kind="stable")
            take = order[:n_modes]
            kappas, vecs = vals[take], vecs[:, take]
            extra = [f"arpack failed ({err}); dense fallback"]
        notes.extend(extra)

    order = np.argsort(kappas, kind="stable")
    kappas, vecs = kappas[order], vecs[:, order]
    Zres = Z if Z is not None else nullspace_basis(scaled)
    pairs = []
    for k, kap in enumerate(kappas):
        y = vecs[:, k]
        if n_mult:
            y = y[:-n_mult]
        xs = (Z @ y) if Z is not None else y
        # residual measured on the balanced pencil, fields in physical
        # scaling
        pairs.append(_make_pair(scaled, float(kap), xs, Zres,
                                unscale=d, original=system))
    return SpectrumReport(n_modes, tuple(pairs), float(sigma),
                          notes=tuple(notes))


def _arpack_nearest(A, B, sigma, n_modes, tol, seed, n_mult):
    n = A.shape[0]
    notes = []
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    ncv = min(n - 1, max(4 * n_modes, n_modes + 12, 48), 220)
    shift = float(sigma)
    lu = None
    for attempt in range(4):
        try:
            lu = spla.splu((A - shift * B).tocsc())
            break
        except RuntimeError:
            notes.append(f"factorization failed at shift {shift:.6e}; "
                         "retrying with perturbed shift")
            shift = shift * 1.02 + 1.0
    if lu is None:
        raise EigenSolveError("shifted operator could not be factored")
    op = spla.LinearOperator((n, n), matvec=lu.solve)
    try:
        vals, vecs = spla.eigsh(A, k=n_modes, M=B, sigma=shift,
                                which="LM", v0=v0, ncv=ncv, tol=tol,
                                OPinv=op, maxiter=max(400, 40 * n_modes))
    except spla.ArpackNoConvergence as err:
        vals, vecs = err.eigenvalues, err.eigenvectors
        notes.append(f"arpack converged only {len(vals)}/{n_modes} pairs")
    return vals, vecs, notes


def _make_pair(system: BlockSystem, kappa, x, Zres, unscale=None,
               original=None):
    A, B = system.A, system.B
    Ax = A @ x
    Bx = B @ x
    xbx = float(x @ Bx)
    if xbx > 1e-300:
        s = 1.0 / np.sqrt(xbx)
    else:
        s = 1.0 / np.linalg.norm(x)
    x, Ax, Bx = x * s, Ax * s, Bx * s
    # restrict the residual to ker C; the complement carries only the
    # constraint forces
    r = Zres.T @ (Ax - kappa * Bx)
    denom = np.linalg.norm(Zres.T @ Ax) \
        + abs(kappa) * np.linalg.norm(Zres.T @ Bx)
    residual = float(np.linalg.norm(r) / denom) if denom > 0 else 0.0
    omega = float(np.sqrt(kappa)) if kappa >= 0 else 0.0
    if unscale is not None:
        x = x * unscale
    target = original if original is not None else system
    if target.layout is not None:
        u, w, p = target.layout.split(x)
    else:
        u = w = p = np.empty(0)
    return EigenPair(float(kappa), omega, u, w, p, x, residual)


def filter_modes(report: SpectrumReport,
                 kernel_tol: float = KERNEL_TOL) -> SpectrumReport:
    """Drop the curl-kernel modes (kappa = 0 to solver precision).

    Modes with kappa <= kernel_tol * kappa_ref are flagged as kernel and
    removed from the physical list; kappa_ref is the largest requested
    eigenvalue scale, i.e. the larger of the top reported eigenvalue and
    the shift.
    """
    if not report.pairs:
        return report
    kappa_ref = max(p.kappa for p in report.pairs)
    kappa_ref = max(kappa_ref, abs(report.shift))
    if kappa_ref <= 0:
        kappa_ref = max(abs(p.kappa) for p in report.pairs)
    physical, kernel = [], 0
    for p in report.pairs:
        if p.kappa <= kernel_tol * kappa_ref:
            kernel += 1
        else:
            physical.append(replace(p, kernel=False,
                                    omega=float(np.sqrt(p.kappa))))
    notes = report.notes
    if not physical:
        notes = notes + ("all modes filtered as kernel; "
                         "physical spectrum empty",)
    return SpectrumReport(report.requested, tuple(physical), report.shift,
                          n_kernel=report.n_kernel + kernel,
                          n_discarded=report.n_discarded, notes=notes)
