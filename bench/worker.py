"""One benchmark cycle in a fresh process: import, seeded set-up, build, verify.

    python3 bench/worker.py --workload NAME --seed N --workdir DIR [--inproc] [--trace] [--props]

Prints one JSON object: the CLOCK_MONOTONIC time at which set-up ended,
the build and verify times, the operation tally, and optionally the
trace nodes and the workload's property record.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from procs import now
from spans import Tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cycle(workload):
    """Run every step once; return phase times and the operation tally."""
    times = {"build": 0.0, "verify": 0.0}
    failed = 0
    errors = []
    steps = workload.steps()
    for phase, label, fn in steps:
        start = now()
        try:
            fn()
        except Exception as exc:  # every failure is counted, then the cycle goes on
            failed += 1
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
        times[phase] += now() - start
    return {"build_s": times["build"], "verify_s": times["verify"], "t_end": now(),
            "attempted": len(steps), "failed": failed, "errors": errors}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--run-id", default="")
    parser.add_argument("--inproc", action="store_true", help="call cli.main in this process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--props", action="store_true", help="add the property record")
    args = parser.parse_args(argv)

    import mbsheaf
    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(mbsheaf.__file__).startswith(src):
        sys.exit(f"mbsheaf imported from {mbsheaf.__file__}, not from {src}")
    workload = WORKLOADS[args.workload](mbsheaf, random.Random(args.seed), args.workdir,
                                        dict(os.environ), inproc=args.inproc)
    t_ready = now()
    if args.trace:
        workload.tracer = Tracer(args.run_id)
        workload.tracer.install()
    result = run_cycle(workload)
    result.update(t_ready=t_ready, child_rss_kb=workload.child_rss_kb, inputs=workload.inputs)
    if args.trace:
        workload.tracer.close()
        result["nodes"] = workload.tracer.nodes
    if args.props:
        result["properties"] = workload.properties()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
