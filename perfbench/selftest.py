"""Self-test of the benchmark's checks, on the smallest inputs.

    python3 perfbench/selftest.py

Runs the dense reference and every property check on small real results
and shows that each check rejects a deliberately perturbed copy: a
shifted eigenvalue, a pressure entry in the mass matrix, a non-monotone
sequence, a vanished oscillation term or a truncated VTK file.  Prints
one line per case and exits 1 if any case goes the wrong way.  Takes a
few seconds.
"""

import copy
import os
import shutil
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from worker import BLAS_ENV  # noqa: E402

os.environ.update(BLAS_ENV)

import scipy.sparse as sp  # noqa: E402

import elastoacoustic as ea  # noqa: E402
import checks  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import PROBE_TARGETS, Tracer  # noqa: E402

SEED = 7
bad = []


def expect(name, fails, should_fail):
    ok = bool(fails) == should_fail
    verdict = "rejected" if fails else "accepted"
    print(f"selftest: {name}: {verdict}" + ("" if ok else "  <-- WRONG"))
    for message in fails:
        print(f"    {message}")
    if not ok:
        bad.append(name)


def reference_cases():
    for family in ("mini", "taylor-hood"):
        for nu in (0.35, 0.5):
            mesh = ea.build_cavity_mesh(ea.omega1(), 1)
            mats = ea.MaterialField(nu=nu)
            system = ea.build_block_system(mesh, family, mats)
            pairs, _ = ea.solve_window(system, wl.WINDOW, seed=SEED)
            tag = f"{family} nu={nu}"
            expect(f"reference {tag}",
                   checks.reference_check(system, pairs, wl.WINDOW), False)
            shifted = [replace(pairs[0], kappa=pairs[0].kappa * (1 + 1e-6))]
            expect(f"reference {tag}, shifted eigenvalue",
                   checks.reference_check(system, shifted + pairs[1:],
                                          wl.WINDOW), True)
            expect(f"assembly {tag}",
                   checks.assembly_check(mesh, system, mats.rho_f), False)
            p0 = system.layout.reduced_slices()[2].start
            B = system.B.tolil()
            B[0, p0] = B[p0, 0] = 1e-3 * abs(system.B).max()
            expect(f"assembly {tag}, pressure entry in B",
                   checks.assembly_check(mesh, replace(system,
                                                       B=sp.csr_matrix(B)),
                                         mats.rho_f), True)


def uniform():
    with Tracer(PROBE_TARGETS) as tracer:
        result = wl.run_uniform(SEED, None, levels=(2, 3, 4))
    counts = [s.counts["in_window"] for s in tracer.spans]
    expect("uniform", checks.check_uniform(result, counts), False)
    swapped = copy.deepcopy(result)
    swapped["omegas"][1], swapped["omegas"][2] = \
        swapped["omegas"][2], swapped["omegas"][1]
    expect("uniform, non-monotone levels",
           checks.check_uniform(swapped, counts), True)
    expect("uniform, window count changes",
           checks.check_uniform(result, counts[:-1] + [counts[-1] + 1]),
           True)


def adaptive():
    result = wl.run_adaptive(SEED, None, start=1, max_dofs=4000)
    expect("adaptive", checks.check_adaptive(result), False)
    for key, name in (("dofs", "unknowns"), ("omega", "omega")):
        rising = copy.deepcopy(result)
        rising[key][2], rising[key][3] = rising[key][3], rising[key][2]
        expect(f"adaptive, non-monotone {name}",
               checks.check_adaptive(rising), True)
    flat = dict(result, eta2=[result["eta2"][0]] * len(result["eta2"]))
    expect("adaptive, eta2 does not fall", checks.check_adaptive(flat),
           True)


def locking():
    out = os.path.join(HERE, "out", "selftest")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    result = wl.run_locking(SEED, out, levels=(1,))
    expect("locking", checks.check_locking(result), False)
    off = copy.deepcopy(result)
    case = next(c for c in off["cases"] if c["nu"] == 0.499)
    case["omegas"][0] *= 1.01
    expect("locking, omega(0.499) away from omega(0.5)",
           checks.check_locking(off), True)
    zero = copy.deepcopy(result)
    zero["cases"][0]["theta2"][0] = 0.0
    expect("locking, vanished oscillation", checks.check_locking(zero),
           True)
    path = result["cases"][0]["vtk"][0]
    with open(path) as f:
        text = f.read()
    with open(path, "w") as f:
        f.write(text[:len(text) // 2])
    expect("locking, truncated VTK file", checks.check_locking(result),
           True)
    with open(path, "w") as f:
        f.write(text.replace("\n0\n", "\nnan\n", 1))
    expect("locking, non-finite VTK value", checks.check_locking(result),
           True)


def main():
    reference_cases()
    uniform()
    adaptive()
    locking()
    print(f"selftest: {'FAILED ' + ', '.join(bad) if bad else 'all ok'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
