"""Fold run records into one baseline: per workload and metric, every run's
value with its median and quartiles, and each run's unscaled medians.

    python3 bench/summarize.py bench/out/*.json > bench/baseline/baseline.json
"""

from __future__ import annotations

import json
import statistics
import sys


def main(paths):
    runs = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        runs.setdefault((record["workload"], record["trace"]), []).append(record)
    out = {}
    for (workload, trace), records in sorted(runs.items()):
        records.sort(key=lambda r: r["seed"])
        entry = out.setdefault(workload, {"why": records[0]["why"]})
        metrics = {}
        for name in records[0]["metrics"]:
            values = [r["metrics"][name] for r in records]
            row = {"median": statistics.median(values), "values": values}
            if len(values) >= 2:
                q1, _q2, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3)
            metrics[name] = row
        entry["trace" if trace else "end_to_end"] = {
            "seeds": [r["seed"] for r in records], "seconds": records[0]["seconds"],
            "fail_frac": sum(r["failed"] for r in records) / sum(r["attempted"] for r in records),
            "metrics": metrics}
        if trace:
            entry["trace"]["counts_repeat"] = all(r["counts_repeat"] for r in records)
        else:
            entry["end_to_end"]["measured_median"] = {
                name: [r["measured_median"][name] for r in records]
                for name in records[0]["measured_median"]}
            entry["properties"] = records[0]["properties"]
        entry["environment"] = records[0]["environment"]
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
