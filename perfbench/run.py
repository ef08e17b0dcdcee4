"""Benchmark of the elastoacoustic package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass of the workload runs
in a fresh process (``worker.py``), one after another, until the next
one would end after S seconds; ``--trace 0`` makes two at least.  The
last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` the first half of the time goes to
untraced passes and the rest to traced ones, and the object holds the
per-layer metrics and the tracing overhead.  Outputs of the program are checked after the passes
(see ``checks.py``); spans, VTK files and the result are kept under
``perfbench/out/<workload>/``.  See README.md for the workloads and
metrics.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

from worker import BLAS_ENV  # noqa: E402  (stdlib only, no numpy yet)

os.environ.update(BLAS_ENV)

RUN_LIMIT_S = 150.0     # no pass starts after this; checks fit in 180 s
SETUP_SAMPLES = 3
WORKLOAD_NAMES = ("uniform-th", "adaptive-mini", "locking-varcoef")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class Runner:
    """Starts worker processes one at a time and keeps their records."""

    def __init__(self, workload, seed, out_dir, started):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.started = started
        self.records = []          # (mode, record) of successful passes
        self.attempted = 0          # passes started
        self.failed = 0
        self.setups = []

    def spawn(self, mode):
        pass_dir = os.path.join(self.out_dir,
                                f"{mode}{len(os.listdir(self.out_dir))}")
        os.makedirs(pass_dir)
        result = os.path.join(pass_dir, "result.json")
        timeout = max(5.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        spawned = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode, "--spawned", repr(spawned),
               "--result", result, "--out", pass_dir]
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {mode} pass timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"perfbench: {mode} pass exited {proc.returncode}",
                  file=sys.stderr)
            return None
        with open(result) as f:
            record = json.load(f)
        self.setups.append(record["setup_s"])
        return record

    def measure(self, mode, until, at_least=1):
        """Whole passes, ``at_least`` of them, then more until the next
        one would end after ``until``."""
        for done in itertools.count(1):
            t0 = time.monotonic()
            record = self.spawn(mode)
            self.attempted += 1
            if record is None:
                self.failed += 1
            else:
                self.records.append((mode, record))
            now = time.monotonic()
            if (done >= at_least and now + (now - t0) > until) or \
                    now - self.started > RUN_LIMIT_S:
                return

    def fill_setups(self):
        while len(self.setups) < SETUP_SAMPLES:
            if self.spawn("setup") is None:
                fail("set-up probe failed")


def check_outputs(runner):
    """Failure messages of the dense reference, the assembly properties
    and every pass's workload properties."""
    import elastoacoustic as ea
    import checks
    import tracing
    import workloads

    w, seed = runner.workload, runner.seed
    fails = []
    for label, mesh, family, mats in workloads.reference_cases(w, seed):
        system = ea.build_block_system(mesh, family, mats)
        pairs, _ = ea.solve_window(system, workloads.WINDOW,
                                   seed=workloads.lanczos_seed(seed))
        fails += [f"{label}: {m}" for m in
                  checks.reference_check(system, pairs, workloads.WINDOW)
                  + checks.assembly_check(mesh, system, mats.rho_f)]
    for mode, rec in runner.records:
        out, spans = rec["output"], tracing.read_spans(rec["spans"])
        if w == "uniform-th":
            counts = [s.counts["in_window"] for s in spans
                      if s.name == "study.solve_window"]
            found = checks.check_uniform(out, counts)
        elif w == "adaptive-mini":
            found = checks.check_adaptive(out)
            if workloads.time_to_tol(w, spans) is None:
                found.append(f"eta2/kappa never fell below "
                             f"{workloads.ADAPT_TOL}")
        else:
            found = checks.check_locking(out)
        if mode == "traced":
            m = tracing.layer_metrics(spans)
            wall, total = m["trace.wall_s"][0], m["trace.self_sum_s"][0]
            if abs(total - wall) > 1e-9 * (1.0 + wall):
                found.append(f"self times sum to {total}, wall {wall}")
        fails += [f"{mode} pass: {m}" for m in found]
    return fails


def end_to_end(runner):
    import tracing
    import workloads

    passes = [rec for mode, rec in runner.records if mode == "untraced"]
    walls, rates, tols = [], [], []
    for rec in passes:
        spans = tracing.read_spans(rec["spans"])
        dofs = sum(s.counts["dofs"] for s in spans
                   if s.name == "study.solve_window")
        walls.append(rec["wall_s"])
        rates.append(dofs / rec["wall_s"])
        # a pass that misses the target fails its check; keep its wall
        tol = workloads.time_to_tol(runner.workload, spans)
        tols.append(rec["wall_s"] if tol is None else tol)
    med = statistics.median
    return {
        "wall_s": (med(walls), "s"),
        "setup_s": (med(runner.setups), "s"),
        "peak_rss_mb": (med(rec["rss_mb"] for rec in passes), "MB"),
        "dofs_per_s": (med(rates), "1/s"),
        "time_to_tol_s": (med(tols), "s"),
    }


def per_layer(runner):
    import tracing

    by_mode = {"untraced": [], "traced": []}
    for mode, rec in runner.records:
        by_mode[mode].append(rec)
    layer = [tracing.layer_metrics(tracing.read_spans(rec["spans"]))
             for rec in by_mode["traced"]]
    m = {name: (statistics.median(x[name][0] for x in layer), unit)
         for name, (_, unit) in layer[0].items()}
    untraced = statistics.median(r["wall_s"] for r in by_mode["untraced"])
    m["trace.untraced_wall_s"] = (untraced, "s")
    m["trace.overhead_s"] = (m["trace.wall_s"][0] - untraced, "s")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "elastoacoustic",
                                       "__init__.py")):
        fail(f"package sources not found under {SRC}")
    sys.path.insert(0, SRC)

    out_dir = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    runner = Runner(args.workload, args.seed, out_dir, started)
    t0 = time.monotonic()
    if args.trace:
        runner.measure("untraced", t0 + 0.5 * args.seconds)
        runner.measure("traced", t0 + args.seconds)
    else:
        # two passes at least, so one slow pass is never the median alone
        runner.measure("untraced", t0 + args.seconds, at_least=2)
    modes = {mode for mode, _ in runner.records}
    if "untraced" not in modes or (args.trace and "traced" not in modes):
        fail("no pass of the workload completed")
    runner.fill_setups()

    fails = check_outputs(runner)
    for message in fails:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    metrics = per_layer(runner) if args.trace else end_to_end(runner)
    result = {"correct": not fails, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    line = json.dumps(result)
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        f.write(line + "\n")
    print(line)
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
