"""Command-line driver for meshes, eigensolves, studies and adaptivity.

Subcommands:
  mesh    build, validate and refine a vessel mesh
  solve   one eigensolve on a fixed mesh level
  study   uniform convergence study with rate fits and extrapolation
  adapt   adaptive refinement loop for one tracked mode
  fit     rate fit / extrapolation from an existing study CSV

Every run writes a JSON manifest with the resolved parameters and the
package/dependency versions next to its outputs; ``solve`` adds the
window's inertia count of eigenvalues, its work (Lanczos runs as
``rungs``, sparse factorizations, inverse applications, largest factor
fill), the runs' shifts and the largest residual of its pairs.  Its
``spectrum.csv`` holds every eigenpair of the window, one row each, as
many as the count, while ``--modes`` limits the modes printed and
exported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .adaptivity import adaptive_solve
from .assembly import build_block_system
from .config import RunConfig, load_config
from .estimator import estimate_mode
from .meshing import (build_cavity_mesh, bisect, validate, write_mesh,
                      read_mesh)
from .study import (run_uniform_study, solve_window, fit_rate,
                    extrapolate)
from .vtkio import export_fields


def _add_common(p):
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--geometry", help="geometry preset name")
    p.add_argument("--family", help="element family "
                   "(mini | taylor-hood)")
    p.add_argument("--nu", type=float, help="Poisson ratio")
    p.add_argument("--levels", help="comma-separated mesh levels N")
    p.add_argument("--modes", type=int, dest="n_modes",
                   help="number of modes")
    p.add_argument("--theta", type=float, help="marking fraction")
    p.add_argument("--out", dest="out_dir", help="output directory")


def _config_from_args(args) -> RunConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    else:
        cfg = RunConfig()
    overrides = {}
    for key in ("geometry", "family", "nu", "n_modes", "theta", "out_dir"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    if getattr(args, "levels", None):
        overrides["levels"] = tuple(int(v) for v in
                                    args.levels.split(","))
    if "nu" in overrides:
        # --nu replaces the file's list of Poisson ratios too
        overrides["nu_list"] = ()
    return cfg.with_overrides(**overrides)


def _out_dir(cfg: RunConfig) -> str:
    path = cfg.resolved_out_dir()
    os.makedirs(path, exist_ok=True)
    return path

def _write_manifest(cfg: RunConfig, out, command, extra=None):
    import scipy
    manifest = {
        "command": command,
        "package": "elastoacoustic",
        "version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "parameters": {k: (list(v) if isinstance(v, tuple) else v)
                       for k, v in vars(cfg).items()},
    }
    if extra:
        manifest.update(extra)
    path = os.path.join(out, "manifest.json")
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def cmd_mesh(args) -> int:
    cfg = _config_from_args(args)
    out = _out_dir(cfg)
    if args.input:
        mesh = read_mesh(args.input)
    else:
        mesh = build_cavity_mesh(cfg.geometry_spec(), args.level)
    for _ in range(args.refine):
        mesh = bisect(mesh, range(mesh.num_triangles))
    report = validate(mesh)
    print(report)
    path = os.path.join(out, "mesh.txt")
    write_mesh(mesh, path)
    print(f"vertices={mesh.num_vertices} triangles={mesh.num_triangles} "
          f"edges={mesh.num_edges}")
    print(f"wrote {path}")
    _write_manifest(cfg, out, "mesh")
    return 0 if report.ok else 1


def cmd_solve(args) -> int:
    cfg = _config_from_args(args)
    out = _out_dir(cfg)
    mesh = build_cavity_mesh(cfg.geometry_spec(), args.level)
    system = build_block_system(mesh, cfg.family, cfg.materials())
    pairs, full = solve_window(system, cfg.window, seed=cfg.seed,
                               expect=cfg.n_modes)
    pairs = pairs[:cfg.n_modes]
    csv_path = os.path.join(out, "spectrum.csv")
    with open(csv_path, "w") as f:
        f.write(full.to_csv())
    for i, p in enumerate(pairs):
        print(f"mode {i + 1}: omega = {p.omega:.6f} rad/s "
              f"(kappa = {p.kappa:.6e}, residual {p.residual:.1e})")
        if args.vtk:
            vtk_path = os.path.join(out, f"mode_{i + 1}.vtk")
            indicators = None
            if args.indicators:
                _, _, indicators = estimate_mode(
                    mesh, system.spaces, p, cfg.materials())
            export_fields(mesh, p, vtk_path, system.spaces, indicators)
            print(f"wrote {vtk_path}")
    print(f"wrote {csv_path}")
    if args.matrices:
        for path in system.export_matrix_market(out):
            print(f"wrote {path}")
    _write_manifest(cfg, out, "solve",
                    {"level": args.level, "dofs": system.n,
                     "window": {"count": full.window_count,
                                "rungs": full.rungs,
                                "factorizations": full.factorizations,
                                "inverse_applications":
                                    full.inverse_applications,
                                "lu_nnz": full.lu_nnz,
                                "shifts": list(full.shifts),
                                "asked": list(full.asked),
                                "dense_fallback": full.dense_fallback,
                                "partial": full.partial,
                                "max_residual": full.max_residual}})
    return 0


def cmd_study(args) -> int:
    cfg = _config_from_args(args)
    out = _out_dir(cfg)
    nus = cfg.nu_list if cfg.nu_list else (cfg.nu,)
    for nu in nus:
        table = run_uniform_study(cfg.with_overrides(nu=nu))
        tag = f"nu{nu:g}".replace(".", "p")
        path = os.path.join(out, f"study_{cfg.geometry}_{cfg.family}_"
                            f"{tag}.csv")
        with open(path, "w") as f:
            f.write(table.to_csv())
        print(f"nu = {nu:g}")
        for m in range(table.n_modes):
            col = table.mode_column(m)
            print(f"  mode {m + 1}: " +
                  " ".join(f"{w:.4f}" for w in col) +
                  (f"  order {table.orders[m]:.2f} "
                   f"extr {table.extrapolated[m]:.4f}"
                   if table.orders else ""))
        print(f"wrote {path}")
    _write_manifest(cfg, out, "study")
    return 0


def cmd_adapt(args) -> int:
    cfg = _config_from_args(args)
    out = _out_dir(cfg)
    nus = cfg.nu_list if cfg.nu_list else (cfg.nu,)
    for nu in nus:
        history = adaptive_solve(cfg.with_overrides(nu=nu))
        tag = f"nu{nu:g}".replace(".", "p")
        path = os.path.join(
            out, f"adapt_{cfg.geometry}_mode{cfg.mode_index}_{tag}.csv")
        with open(path, "w") as f:
            f.write(history.to_csv())
        last = history.records[-1]
        print(f"nu = {nu:g}: {len(history.records)} iterations, "
              f"final dofs {last['dofs']}, omega {last['omega']:.4f}")
        for w in history.warnings:
            print(f"  warning: {w}")
        print(f"wrote {path}")
    _write_manifest(cfg, out, "adapt")
    return 0


def cmd_fit(args) -> int:
    data = np.genfromtxt(args.csv, delimiter=",", names=True,
                         dtype=float, encoding=None)
    N = np.asarray(data["N"], float)
    good = np.isfinite(N)
    N = N[good]
    cols = [name for name in data.dtype.names
            if name.startswith("omega_") and not name.endswith("extr")]
    for name in cols:
        w = np.asarray(data[name], float)[good]
        we, t, C = extrapolate(N, w)
        errs = np.abs(w ** 2 - we ** 2)
        # a zero error (a constant column) has no logarithm, so no rate
        rate = f"{fit_rate(1.0 / N, errs):.3f}" if errs.all() else "n/a"
        print(f"{name}: omega_extr = {we:.4f}, order t = {t:.3f}, "
              f"eigenvalue-error rate = {rate}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="elastoacoustic",
        description="Natural vibration frequencies of a fluid in an "
                    "elastic vessel (mixed FEM, a posteriori estimator, "
                    "adaptive refinement)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="build/validate/refine a mesh")
    _add_common(p)
    p.add_argument("--level", type=int, default=2,
                   help="refinement level N")
    p.add_argument("--refine", type=int, default=0,
                   help="uniform bisection passes after build")
    p.add_argument("--input", help="read a native mesh file instead of "
                   "building")
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("solve", help="one eigensolve")
    _add_common(p)
    p.add_argument("--level", type=int, default=8)
    p.add_argument("--vtk", action="store_true",
                   help="export mode shapes as VTK files")
    p.add_argument("--indicators", action="store_true",
                   help="attach estimator cell data to the VTK output")
    p.add_argument("--matrices", action="store_true",
                   help="export A, B, C in Matrix Market format")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("study", help="uniform convergence study")
    _add_common(p)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("adapt", help="adaptive refinement loop")
    _add_common(p)
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("fit", help="rate fit / extrapolation from a "
                       "study CSV")
    p.add_argument("csv", help="CSV produced by the study subcommand")
    p.set_defaults(func=cmd_fit)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
