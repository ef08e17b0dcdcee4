"""One measured pass of a workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
        --spawned T --result FILE --out DIR

MODE is ``setup`` (import and warm up only), ``untraced`` (one pass
with the light counters of ``trace.PROBE_TARGETS``) or ``traced`` (one
pass with a span at every layer boundary).  ``--spawned`` is the
``time.monotonic()`` reading of the parent just before it started this
process; the set-up time runs from there to the end of the warm-up.
The result file gets the timings, peak memory, the pass's output and
the path of its spans.
"""

import argparse
import json
import os
import resource
import sys
import time

# fixed BLAS thread count, set before numpy loads
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "untraced", "traced"),
                    required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [SRC, HERE]

    import workloads
    from tracing import LAYER_TARGETS, PROBE_TARGETS, Tracer

    workloads.warm_up(args.workload, args.seed)
    record = {"setup_s": time.monotonic() - args.spawned}
    if args.mode != "setup":
        tracer = Tracer(LAYER_TARGETS if args.mode == "traced"
                        else PROBE_TARGETS)
        with tracer, tracer.root() as root:
            output = workloads.PASSES[args.workload](args.seed, args.out)
        spans = os.path.splitext(args.result)[0] + ".spans.jsonl"
        tracer.write(spans)
        record.update(
            wall_s=root.end - root.start,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            output=output, spans=spans)
    with open(args.result, "w") as f:
        json.dump(record, f)


if __name__ == "__main__":
    main()
