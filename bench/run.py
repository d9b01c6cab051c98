"""Benchmark of mbsheaf: construction then verification, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
Each cycle is a fresh worker process (bench/worker.py), one at a time
(a closed loop with one client): import mbsheaf, make the seeded inputs,
build, verify.  Cycles repeat until S seconds have passed, and at least
MIN_CYCLES times.

--trace 0 reports the end-to-end metrics, each a median over the cycles
except peak_rss_mb, the largest peak RSS of any process of the run.
The speed of a shared machine swings by half within seconds, and each
CPU swings on its own, so the run keeps to one CPU and a fixed reference
job (bench/refjob.py) runs in a fresh process before the first cycle and
after every cycle.  Timings are given in reference seconds: each cycle's
measured time times REFERENCE[phase] over the time the reference job took
for that phase (its set-up for setup_s, its work for the others), once
for the job run just before the cycle and once for the one just after;
a timing's median and percentile are taken over both.  The measured
medians are kept in the record and printed beside them.

--trace 1 alternates untraced and traced cycles of the same in-process
calls and reports the per-layer metrics of bench/spans.py together with
the tracing overhead: the median of traced minus untraced wall_s over
the pairs of cycles.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
The full record (environment, samples, property record, trace nodes) is
written to bench/out/<workload>-seed<N>-trace<T>.json.  Exit status: 0
when every operation gave the expected output, 1 when one did not or the
reference job failed, 2 when the checkout holds no mbsheaf sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys

from procs import now, run_child
from spans import LAYER_METRICS, layer_metrics
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")

END_TO_END = (
    ("setup_s", "s"),       # spawn to `import mbsheaf` done and seeded inputs ready
    ("build_s", "s"),       # construction steps of one cycle
    ("verify_s", "s"),      # verification steps of one cycle
    ("wall_s", "s"),        # spawn to the last verdict
    ("peak_rss_mb", "MB"),  # largest peak RSS of any process of the run
)
# Set-up and work time of bench/refjob.py on the reference machine: a
# cycle after which the job took these times is reported unscaled.
REFERENCE = {"setup": 0.06, "work": 0.2}
SCALED_BY = {"setup_s": "setup", "build_s": "work", "verify_s": "work", "wall_s": "work"}
MIN_CYCLES = 3
WORKER_TIMEOUT = 100        # seconds; a run must end within 180
RUN_CAP = 120               # seconds after which no cycle starts, even before MIN_CYCLES


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def read_report(path):
    """The JSON object on the last line of a child's stdout, or None."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.loads(fh.read().splitlines()[-1])
    except (OSError, IndexError, ValueError):
        return None


def reference_sample(workdir):
    """Run bench/refjob.py once; return its {"setup", "work"} seconds, or None if it failed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    stdout_path = os.path.join(workdir, "refjob.out")
    t_spawn = now()
    code, _rss_kb = run_child([sys.executable, os.path.join(BENCH, "refjob.py")], env, ROOT,
                              stdout_path, WORKER_TIMEOUT)
    report = read_report(stdout_path)
    if code != 0 or report is None or not report["ok"]:
        return None
    return {"setup": report["t_ready"] - t_spawn, "work": report["t_end"] - report["t_ready"]}


def scaled(cycle, ref):
    """A cycle's timings in reference seconds, by one reference job run next to it."""
    return {name: cycle[name] * REFERENCE[phase] / ref[phase]
            for name, phase in SCALED_BY.items()}


def spawn_cycle(args, workdir, run_id, inproc=False, trace=False, props=False):
    """One worker process; returns its report plus spawn-relative times and RSS."""
    argv = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", workdir, "--run-id", run_id]
    argv += ["--inproc"] * inproc + ["--trace"] * trace + ["--props"] * props
    stdout_path = os.path.join(workdir, "worker.out")
    t_spawn = now()
    code, rss_kb = run_child(argv, worker_env(), ROOT, stdout_path, WORKER_TIMEOUT)
    report = read_report(stdout_path)
    if code != 0 or report is None:
        return {"attempted": 1, "failed": 1, "errors": [f"worker exit {code}"], "ok": False}
    report["setup_s"] = report.pop("t_ready") - t_spawn
    report["wall_s"] = report.pop("t_end") - t_spawn
    report["peak_rss_kb"] = max(rss_kb, report.pop("child_rss_kb"))
    report["ok"] = True
    return report


def percentiles(values):
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    k = n - 10
    if k >= 1:
        out[f"p{100 * k // n}"] = ordered[k - 1]
    return out


def git_commit():
    """Commit of the checkout from .git, or "unknown" outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    return {"commit": git_commit(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "platform": platform.platform()}


def keep_going(started, lengths, deadline):
    """Start another cycle until MIN_CYCLES, then while the median cycle still fits."""
    if len(lengths) < MIN_CYCLES:
        return now() < started + RUN_CAP
    return now() + statistics.median(lengths) <= deadline


def timed_run(args, workdir):
    started = now()
    deadline = started + args.seconds
    cycles, lengths, refs = [], [], [reference_sample(workdir)]
    while keep_going(started, lengths, deadline):
        t = now()
        cycles.append(spawn_cycle(args, workdir, f"{args.seed}:{len(cycles)}",
                                  props=not cycles))
        refs.append(reference_sample(workdir))
        lengths.append(now() - t)
    good = [c for c in cycles if c["ok"]]
    # refs[i] ran just before cycles[i], refs[i + 1] just after it
    samples = [scaled(c, r) for i, c in enumerate(cycles) if c["ok"]
               for r in refs[i:i + 2] if r is not None]
    stats = {name: percentiles([x[name] for x in samples]) for name in SCALED_BY} if samples else {}
    metrics = {name: stats[name]["median"] for name in stats}
    if good:
        metrics["peak_rss_mb"] = max(c["peak_rss_kb"] for c in good) / 1024
    measured = {name: statistics.median(c[name] for c in good) for name in stats}
    record = {"stats": stats, "measured_median": measured, "reference": refs,
              "properties": cycles[0].get("properties"),
              "inputs": cycles[0].get("inputs"),
              "samples": [{k: c.get(k) for k in ("setup_s", "build_s", "verify_s", "wall_s",
                                                 "peak_rss_kb", "failed")} for c in cycles]}
    return cycles, metrics, END_TO_END, record


def traced_run(args, workdir):
    started = now()
    deadline = started + args.seconds
    plain, traced, lengths = [], [], []
    while keep_going(started, lengths, deadline):
        t = now()
        n = len(traced)
        plain.append(spawn_cycle(args, workdir, f"{args.seed}:{n}:plain", inproc=True))
        traced.append(spawn_cycle(args, workdir, f"{args.seed}:{n}", inproc=True, trace=True))
        lengths.append(now() - t)
    per_cycle = [layer_metrics(c["nodes"]) for c in traced if c["ok"]]
    metrics, units = {}, []
    for name, unit, _target, kind in LAYER_METRICS:
        values = [m[name] for m in per_cycle]
        if values:
            metrics[name] = values[0] if kind in ("calls", "bytes") else statistics.median(values)
        units.append((name, unit))
    repeat = all(m[name] == per_cycle[0][name] for m in per_cycle
                 for name, _u, _t, kind in LAYER_METRICS if kind in ("calls", "bytes"))
    # Each traced cycle runs right after its untraced twin, so their
    # difference cancels most of the drift in machine speed.
    pairs = [(t["wall_s"], p["wall_s"]) for t, p in zip(traced, plain) if t["ok"] and p["ok"]]
    if pairs:
        metrics["trace.overhead_s"] = statistics.median(t - p for t, p in pairs)
    units.append(("trace.overhead_s", "s"))
    record = {"counts_repeat": repeat, "per_cycle": per_cycle, "wall_s_traced_untraced": pairs,
              "nodes": traced[0].get("nodes")}
    return plain + traced, metrics, units, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through the finally clauses, which kill and reap the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "mbsheaf", "__init__.py")):
        print(f"error: no mbsheaf sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    env = environment()
    # Each CPU of a shared machine changes speed on its own, so the
    # reference job and the workers all run on one CPU, which they inherit.
    env["cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["cpu"]})
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = traced_run if args.trace else timed_run
        cycles, metrics, units, record = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(c["attempted"] for c in cycles)
    failed = sum(c["failed"] for c in cycles)
    errors = sorted({e for c in cycles for e in c["errors"]})
    reference_failed = None in record.get("reference", ())
    if reference_failed:
        errors.append("reference job failed")
    correct = failed == 0 and not reference_failed and len(metrics) == len(units)
    record.update(workload=args.workload, why=WORKLOADS[args.workload].why, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, cycles=len(cycles),
                  environment=env, attempted=attempted, failed=failed,
                  fail_frac=failed / attempted, errors=errors, metrics=metrics)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  cycles {len(cycles)}")
    for name, unit in units:
        extra = ""
        if name in record.get("stats", {}):
            extra = "  " + "  ".join(f"{k} {v:.6g}" if k != "n" else f"n {v}"
                                     for k, v in record["stats"][name].items())
            extra += f"  (measured median {record['measured_median'][name]:.6g})"
        print(f"  {name:28s} {metrics.get(name, float('nan')):14.6g} {unit:6s}{extra}")
    print(f"  {'fail_frac':28s} {failed / attempted:14.6g} {'ratio':6s}  ({failed}/{attempted})")
    for error in errors:
        print(f"  FAILED {error}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units if name in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
