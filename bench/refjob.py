"""Reference job: a fixed, mbsheaf-free piece of interpreter work in a fresh process.

    python3 bench/refjob.py

run.py starts it before every cycle, the same way it starts a worker, and
scales each run's timings by how long this job took in that run (see
run.speed_factors).  The machine's speed drifts between runs; the job
allocates fresh objects and does the tuple, dict, integer and Fraction
work the program does, so its time drifts with the program's.  It prints
one JSON object: the CLOCK_MONOTONIC time at which set-up ended, the time
at which the work ended, and whether the work gave its known result.
"""

from __future__ import annotations

import json
import time

t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)

from fractions import Fraction  # noqa: E402  (timed as work, not set-up)

CHECKSUM = 411741


def work():
    rows = [tuple((i * 31 + j * 17) % 3 for j in range(24)) for i in range(20000)]
    cols = list(zip(*rows[:24]))
    tally = {}
    for row in rows:
        key = sum(x * y for x, y in zip(row, cols[row[0]]))
        tally[key] = tally.get(key, 0) + 1
    total = sum((Fraction(k, v + 1) for k, v in tally.items()), Fraction(0))
    mat = [[Fraction((i + j) % 5, 1 + (i * j) % 3) for j in range(20)] for i in range(20)]
    prod = [[sum(a * b for a, b in zip(row, col)) for col in zip(*mat)] for row in mat]
    ordered = sorted(rows)
    trace = sum(prod[i][i] for i in range(20))
    return hash((total, trace, ordered[0], ordered[-1], len(tally))) % 100000007


if __name__ == "__main__":
    ok = work() == CHECKSUM
    print(json.dumps({"t_ready": t_ready, "t_end": time.clock_gettime(time.CLOCK_MONOTONIC),
                      "ok": ok}))
