"""Compare the extrapolation fits of two source trees of this package.

    python tools/compare_fits.py OLD_TREE NEW_TREE

Each tree's ``study.extrapolate`` runs in a process of its own
(``PYTHONPATH=TREE/src``) on the same rows:

- the four printed reference rows of the open and re-entrant vessels
  (four levels each, rounded to four decimals, so their fits leave a
  residual);
- the four mode columns of the ``uniform-th`` table (omega1,
  Taylor-Hood, levels 2, 4, 6, as ``perfbench`` solves it at seed 1),
  three levels, so the model interpolates them;
- 200 synthetic rows of 3-5 levels from ``numpy.random.default_rng``
  (seed 20260808): omega(N) = omega* + C N^(-t) with t in [0.8, 2.5]
  and a coarsest-level relative error between 1e-4 and 5e-2; the rows
  of four or five levels are rounded to four decimals, the rows of
  three are exact.

The sum of squared residuals of each fit is evaluated here, in 50-digit
decimal arithmetic from the returned doubles, so that the two trees'
sums compare to far below their own roundoff.  The output gives, per
group of rows, the largest relative differences of omega_extr and t and
the largest and smallest ratio new/old of the sums of squares.  The exit
status is 1 when a tree fails on a row the other fits, when the new sum
of squares exceeds the old by more than 1e-12 relative on any row (a
sum below (n eps |omega|)^2, the residual that rounding the fitted
values to doubles can leave, counts as that floor), or when omega_extr
or t differ by more than 1e-9 relative on a row of three levels.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from decimal import Decimal, localcontext

import numpy as np

PRINTED = (
    ([8, 10, 12, 14], [443.7421, 443.5416, 443.4114, 443.3204]),
    ([8, 10, 12, 14], [1471.5727, 1471.1864, 1470.9341, 1470.7567]),
    ([8, 10, 12, 14], [452.4554, 449.4600, 447.7540, 446.6792]),
    ([10, 12, 14, 16], [399.6299, 399.4973, 399.4046, 399.3362]),
)
UNIFORM_TH_LEVELS = [2, 4, 6]
UNIFORM_TH_OMEGAS = (
    [462.50934963015686, 460.0782757620573, 459.3163960225485],
    [487.7613506361912, 485.2682738113025, 484.4959138851484],
    [2067.2745065848403, 2062.4325023327056, 2061.1422158521323],
    [2765.982227643453, 2752.2818278356103, 2748.6054645339686],
)
SEED = 20260808
N_SYNTHETIC = 200
SSR_TOL = 1e-12           # relative excess of the new sum of squares
THREE_LEVEL_TOL = 1e-9    # relative omega_extr and t difference, 3 levels


def synthetic_rows():
    rng = np.random.default_rng(SEED)
    rows = []
    for _ in range(N_SYNTHETIC):
        n = int(rng.integers(3, 6))
        N = int(rng.integers(2, 11)) + int(rng.integers(1, 3)) * np.arange(n)
        t = rng.uniform(0.8, 2.5)
        w_star = rng.uniform(100.0, 3000.0)
        C = w_star * 10.0 ** rng.uniform(-4.0, np.log10(5e-2)) * N[0] ** t
        w = w_star + C * N.astype(float) ** -t
        if n > 3:
            w = np.round(w, 4)
        rows.append((N.tolist(), w.tolist()))
    return rows


def groups():
    """(name, rows) for each group of rows, in output order."""
    uniform = tuple((UNIFORM_TH_LEVELS, col) for col in UNIFORM_TH_OMEGAS)
    return (("printed rows", PRINTED), ("uniform-th table", uniform),
            ("synthetic rows", synthetic_rows()))


def fit_all():
    """Fit every row with the package on sys.path: [omega_extr, t, C] or
    {"error": ...} per row, grouped as ``groups``."""
    from elastoacoustic import study

    out = []
    for _, rows in groups():
        fits = []
        for N, w in rows:
            try:
                fits.append(list(study.extrapolate(N, w)))
            except study.StudyError as err:
                fits.append({"error": str(err)})
        out.append(fits)
    return out


def sum_squares(N, w, fit):
    """sum (omega_extr + C N^(-t) - w)^2 in 50-digit arithmetic."""
    we, t, C = (Decimal(v) for v in fit)
    with localcontext() as ctx:
        ctx.prec = 50
        return float(sum((we + C * (-t * Decimal(n).ln()).exp()
                          - Decimal(v)) ** 2 for n, v in zip(N, w)))


def run_tree(tree, script=__file__):
    """The JSON that ``script --worker`` prints with TREE on sys.path."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, os.path.abspath(script),
                           "--worker"], env=env, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{tree}: the fits failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def rel(a, b):
    return abs(b - a) / max(abs(a), abs(b), np.finfo(float).tiny)


def compare(old, new):
    """Printed lines and the exit status of the comparison of two sets of
    fits."""
    lines, status = [], 0
    for (name, rows), old_fits, new_fits in zip(groups(), old, new):
        d_w = d_t = 0.0
        ratios = []
        for (N, w), a, b in zip(rows, old_fits, new_fits):
            if isinstance(a, dict) or isinstance(b, dict):
                if isinstance(a, dict) != isinstance(b, dict):
                    status = 1
                    lines.append(f"{name} N={N}: old {a}, new {b}")
                continue
            floor = (len(w) * np.finfo(float).eps * np.linalg.norm(w)) ** 2
            s_old = max(sum_squares(N, w, a), floor)
            s_new = max(sum_squares(N, w, b), floor)
            ratios.append(s_new / s_old)
            if s_new > s_old * (1.0 + SSR_TOL):
                status = 1
                lines.append(f"{name} N={N}: sum of squares {s_old:.6e} "
                             f"-> {s_new:.6e}")
            dw, dt = rel(a[0], b[0]), rel(a[1], b[1])
            d_w, d_t = max(d_w, dw), max(d_t, dt)
            if len(N) == 3 and max(dw, dt) > THREE_LEVEL_TOL:
                status = 1
                lines.append(f"{name} N={N}: omega_extr {a[0]!r} -> "
                             f"{b[0]!r}, t {a[1]!r} -> {b[1]!r}")
        lines.append(f"{name} ({len(rows)}): largest relative difference "
                     f"omega_extr {d_w:.3e}, t {d_t:.3e}; sum of squares "
                     f"new/old {min(ratios, default=1):.12f} to "
                     f"{max(ratios, default=1):.12f}")
    return lines, status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="*", metavar="TREE",
                        help="the old and the new source tree")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(fit_all(), sys.stdout)
        return 0
    if len(args.trees) != 2:
        parser.error("give the old and the new source tree")
    old, new = (run_tree(tree) for tree in args.trees)
    lines, status = compare(old, new)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
