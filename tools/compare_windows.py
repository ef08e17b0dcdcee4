"""Compare the windowed solves of two source trees of this package.

    python tools/compare_windows.py OLD_TREE NEW_TREE

Each tree is imported in a process of its own (``PYTHONPATH=TREE/src``,
one BLAS thread, since the Krylov runs of the wide windows take more or
fewer inverse applications with the thread count) and solves the same
sweep with ``study.solve_window`` at its defaults: omega1 and omega2,
both element families, nu in {0.35, 0.49, 0.499, 0.5}, mesh levels 1-3,
and the windows (400, 2800), (150, 12000) and (150, 30000) rad/s.  One
line per window gives both trees' factorizations, inverse applications
and runs, and their dense_fallback and partial flags; the summary gives
the largest relative difference of the in-window kappa, whether every
count agrees, the work and the flags summed over the sweep, and the
stored entries (nnz) of A, B and C summed over its systems, which are
reported only, as is each tree's largest accepted residual over the
sweep (``SpectrumReport.max_residual``) with the window it comes from.
Each system's mesh is hashed (SHA-256 of ``MESH_ARRAYS``): one line per
system says whether the two trees built the same mesh bit for bit, and
the summary counts the equal meshes, also reported only.  Each tree's
peak RSS, the ``ru_maxrss`` of its sweep process in MB (1024 KiB), is
reported only too: it spreads by tens of MB over repeated runs of one
tree, so a memory claim rests on the benchmark's ``peak_rss_mb``.  The
exit status is 1 when a count differs, a window fails on one side only,
a kappa differs by more than 1e-9 relative, or the trees differ on a
flag.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import subprocess
import sys

GEOMETRIES = ("omega1", "omega2")
FAMILIES = ("mini", "taylor-hood")
NUS = (0.35, 0.49, 0.499, 0.5)
LEVELS = (1, 2, 3)
WINDOWS = ((400.0, 2800.0), (150.0, 12000.0), (150.0, 30000.0))
KAPPA_TOL = 1e-9
WORK = ("factorizations", "inverse_applications", "rungs")
FLAGS = ("dense_fallback", "partial")
MATRICES = ("A", "B", "C")
MESH_ARRAYS = ("vertices", "triangles", "tri_tag", "tri_refedge", "edges",
               "edge_tag")


def systems():
    return list(itertools.product(GEOMETRIES, FAMILIES, NUS, LEVELS))


def sweep():
    return [system + (window,) for system in systems()
            for window in WINDOWS]


def mesh_digest(mesh):
    """SHA-256 of the mesh arrays, with their dtypes and shapes."""
    digest = hashlib.sha256()
    for name in MESH_ARRAYS:
        arr = getattr(mesh, name)
        digest.update(f"{name} {arr.dtype} {arr.shape}".encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def solve_sweep():
    """Solve every window of the sweep with the package on sys.path: the
    nnz of each system's matrices, each system's mesh digest, one JSON
    record per window in sweep order, and the peak RSS of the process in
    MB."""
    import elastoacoustic as ea

    nnz, meshes, out = dict.fromkeys(MATRICES, 0), [], []
    for geometry, family, nu, level in systems():
        mesh = ea.build_cavity_mesh(ea.meshing.PRESETS[geometry](), level)
        meshes.append(mesh_digest(mesh))
        system = ea.build_block_system(mesh, family,
                                       ea.MaterialField(nu=nu))
        for name in MATRICES:
            nnz[name] += getattr(system, name).nnz
        for window in WINDOWS:
            try:
                pairs, rep = ea.solve_window(system, window)
            except (ea.study.StudyError,
                    ea.eigensolve.EigenSolveError) as err:
                out.append({"error": str(err)})
                continue
            out.append({"kappas": [p.kappa for p in pairs],
                        "count": rep.window_count,
                        "max_residual": rep.max_residual,
                        **{k: getattr(rep, k) for k in WORK + FLAGS}})
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"nnz": nnz, "meshes": meshes, "windows": out,
            "peak_rss_mb": peak}


def run_tree(tree, script=__file__):
    """The JSON that ``script --worker`` prints with TREE on sys.path."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.abspath(script),
                           "--worker"], env=env, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{tree}: the sweep failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def compare(old, new):
    """Printed lines and the exit status of the comparison of two sweep
    results."""
    old_nnz, new_nnz = old["nnz"], new["nnz"]
    old_rss, new_rss = old["peak_rss_mb"], new["peak_rss_mb"]
    meshes_equal = [a == b for a, b in zip(old["meshes"], new["meshes"])]
    old, new = old["windows"], new["windows"]
    lines, worst, counts_equal, mismatched = [], 0.0, True, 0
    flags_equal = True
    residuals = {"old": (0.0, None), "new": (0.0, None)}
    totals = {side: dict.fromkeys(WORK + FLAGS, 0)
              for side in ("old", "new")}
    for i, (case, a, b) in enumerate(zip(sweep(), old, new)):
        geometry, family, nu, level, (w_lo, w_hi) = case
        system = f"{geometry} {family:11s} nu={nu:<5} N={level}"
        if i % len(WINDOWS) == 0:
            same = meshes_equal[i // len(WINDOWS)]
            lines.append(f"{system}  mesh {'equal' if same else 'differs'}")
        label = f"{system} ({w_lo:g}, {w_hi:g})"
        for side, rec in (("old", a), ("new", b)):
            res = rec.get("max_residual")
            if res is not None and res > residuals[side][0]:
                residuals[side] = (res, label)
        if "error" in a or "error" in b:
            both = "error" in a and "error" in b
            mismatched += not both
            lines.append(f"{label}  old: {a.get('error', 'ok')}  "
                         f"new: {b.get('error', 'ok')}")
            continue
        if a["count"] != b["count"] or len(a["kappas"]) != len(b["kappas"]):
            counts_equal = False
            lines.append(f"{label}  count {a['count']} -> {b['count']}")
            continue
        for ka, kb in zip(a["kappas"], b["kappas"]):
            worst = max(worst, abs(kb - ka) / abs(ka))
        flags_equal &= all(a[k] == b[k] for k in FLAGS)
        for side, rec in (("old", a), ("new", b)):
            for k in WORK + FLAGS:
                totals[side][k] += rec[k]
        lines.append(f"{label}  count {a['count']:3d}  "
                     + "  ".join(f"{k} {a[k]} -> {b[k]}"
                                 for k in WORK + FLAGS))
    lines.append(f"windows: {len(old)}, failing on one side only: "
                 f"{mismatched}")
    lines.append(f"largest relative kappa difference: {worst:.3e} "
                 f"(bound {KAPPA_TOL:g})")
    lines.append(f"counts equal: {counts_equal}")
    lines.append(f"flags equal: {flags_equal}")
    lines.append("work over the sweep: " + ", ".join(
        f"{k} {totals['old'][k]} -> {totals['new'][k]}" for k in WORK))
    lines.append("windows flagged over the sweep: " + ", ".join(
        f"{k} {totals['old'][k]} -> {totals['new'][k]}" for k in FLAGS))
    lines.append("largest accepted residual over the sweep: " + " -> ".join(
        f"{res:.3e} ({where})" for res, where in residuals.values()))
    lines.append("nnz over the sweep systems: " + ", ".join(
        f"{k} {old_nnz[k]} -> {new_nnz[k]}" for k in MATRICES))
    lines.append(f"meshes equal {sum(meshes_equal)}/{len(meshes_equal)}")
    lines.append(f"peak RSS of the sweep process: {old_rss:.2f} -> "
                 f"{new_rss:.2f} MB")
    ok = (counts_equal and flags_equal and not mismatched
          and worst <= KAPPA_TOL)
    return lines, 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="*", metavar="TREE",
                        help="the old and the new source tree")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(solve_sweep(), sys.stdout)
        return 0
    if len(args.trees) != 2:
        parser.error("give the old and the new source tree")
    old, new = (run_tree(tree) for tree in args.trees)
    lines, status = compare(old, new)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
