"""Compare the cavity meshes that two source trees of this package build.

    python tools/compare_meshes.py OLD_TREE NEW_TREE

Each tree is imported in a process of its own (``PYTHONPATH=TREE/src``)
and builds every preset with each clamp rule (omega1 also with a dry
freeboard, omega2 also with a lower step) at levels 1-14, and bisects
the level-2 and level-4 meshes twice: first every third triangle, then
every fifth triangle of the result.  Each mesh is hashed with
``compare_windows.mesh_digest``.  One line per mesh that differs and a
count of the equal ones are printed; the exit status is 1 when any mesh
differs or is built by one tree only.
"""

from __future__ import annotations

import argparse
import json
import sys

from compare_windows import mesh_digest, run_tree

LEVELS = range(1, 15)
BISECTED_LEVELS = (2, 4)
CLAMPS = ("sides", "bottom", "outer")


def specs():
    """(label, preset name, keyword arguments) of every geometry built."""
    cases = [("unit_square_fluid", "unit_square_fluid", {})]
    for clamp in CLAMPS:
        cases += [
            (f"omega1 {clamp}", "omega1", {"clamp": clamp}),
            (f"omega1 freeboard {clamp}", "omega1",
             {"clamp": clamp, "wall_height": 1.3}),
            (f"omega2 {clamp}", "omega2", {"clamp": clamp}),
            (f"unit_square_solid {clamp}", "unit_square_solid",
             {"clamp": clamp}),
        ]
    cases.append(("omega2 step=0.3", "omega2", {"step": 0.3}))
    return cases


def build_meshes():
    """Digest of each mesh, keyed by its label, with the package on
    sys.path."""
    import elastoacoustic as ea

    out = {}
    for label, preset, kwargs in specs():
        spec = ea.meshing.PRESETS[preset](**kwargs)
        for level in LEVELS:
            mesh = ea.build_cavity_mesh(spec, level)
            out[f"{label} N={level}"] = mesh_digest(mesh)
            if level in BISECTED_LEVELS:
                for step in (3, 5):
                    mesh = ea.meshing.bisect(
                        mesh, range(0, mesh.num_triangles, step))
                    out[f"{label} N={level} bisect/{step}"] = \
                        mesh_digest(mesh)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="*", metavar="TREE",
                        help="the old and the new source tree")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(build_meshes(), sys.stdout)
        return 0
    if len(args.trees) != 2:
        parser.error("give the old and the new source tree")
    old, new = (run_tree(tree, __file__) for tree in args.trees)
    labels = sorted(old.keys() | new.keys())
    differ = [label for label in labels if old.get(label) != new.get(label)]
    for label in differ:
        print(f"{label}  differs")
    print(f"meshes equal {len(labels) - len(differ)}/{len(labels)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
