"""Tests of the benchmark's own logic.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import mbsheaf  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import run_cycle  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def node(nid, parent, name, total, calls=1, nbytes=0):
    return {"id": nid, "parent": parent, "name": name, "calls": calls,
            "total_s": total, "bytes": nbytes, "run": "t"}


# A cycle of 10 s: check_mbs (6 s) composes and multiplies, the support
# check (3 s) runs inside the coperversity check (3.5 s) and eliminates.
TREE = [
    node(0, None, "bench.cycle", 10.0),
    node(1, 0, "sheaf.check_mbs", 6.0),
    node(2, 1, "sheaf.compose", 2.0, calls=40),
    node(3, 2, "linalg.matmul", 1.5, calls=70),
    node(4, 1, "linalg.matmul", 1.0, calls=30),
    node(5, 0, "cousin.coperversity", 3.5),
    node(6, 5, "cousin.support", 3.0),
    node(7, 6, "cousin.stalk_complex", 2.0),
    node(8, 7, "linalg.rref", 1.25, calls=9),
    node(9, 0, "io.emit", 0.25, nbytes=1000),
]


def test_metric_names_are_valid_and_match_benchmark_json():
    names = [n for n, _u in run.END_TO_END] + [m[0] for m in spans.LAYER_METRICS]
    names.append("trace.overhead_s")
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = [(m[0], m[1]) for m in spans.LAYER_METRICS] + [("trace.overhead_s", "s")]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: cls.why for name, cls in workloads.WORKLOADS.items()}


def test_self_times_on_a_synthetic_tree():
    got = spans.self_times(TREE)
    want = {"bench": 10.0 - 6.0 - 3.5 - 0.25,
            "sheaf": (6.0 - 2.0 - 1.0) + (2.0 - 1.5),
            "linalg": 1.5 + 1.0 + 1.25,
            "cousin": (3.5 - 3.0) + (3.0 - 2.0) + (2.0 - 1.25),
            "io": 0.25}
    assert got == pytest.approx(want)
    assert sum(got.values()) == pytest.approx(10.0)


def test_layer_metrics_on_a_synthetic_tree():
    got = spans.layer_metrics(TREE)
    assert got["sheaf.check_mbs_s"] == 6.0
    assert got["sheaf.compose_calls"] == 40
    assert got["linalg.matmul_calls"] == 100
    assert got["linalg.matmul_s"] == 2.5
    assert got["cousin.support_s"] == 3.0
    assert got["cousin.stalk_complex_calls"] == 1
    assert got["io.bytes"] == 1000
    assert got["fq.build_eq_s"] == 0
    assert got["linalg.self_s"] == pytest.approx(3.75)


def test_tracer_counts_repeat_and_uninstall_restores():
    import mbsheaf.cli
    matmul = mbsheaf.RationalMatrix.__matmul__
    check = mbsheaf.check_mbs
    counts = []
    for _ in range(2):
        tracer = spans.Tracer("t")
        tracer.install()
        try:
            E = mbsheaf.build_e1(mbsheaf.enumerate_xi(mbsheaf.build_coxeter("A", 2)))
            assert mbsheaf.check_mbs(E).ok
        finally:
            tracer.close()
        got = spans.layer_metrics(tracer.nodes)
        counts.append({k: v for k, v in got.items() if k.endswith("_calls")})
        assert got["faces.build_s"] > 0 and got["sheaf.check_mbs_s"] > 0
    assert counts[0] == counts[1] and counts[0]["linalg.matmul_calls"] > 0
    assert mbsheaf.RationalMatrix.__matmul__ is matmul
    assert mbsheaf.check_mbs is check and mbsheaf.cli.check_mbs is check


def test_reference_job_result_and_scaling():
    import refjob
    assert refjob.work() == refjob.CHECKSUM
    cycle = {"setup_s": 0.3, "build_s": 1.0, "verify_s": 2.0, "wall_s": 3.5}
    # a reference job that took twice its reference time halves every timing
    ref = {phase: 2 * t for phase, t in run.REFERENCE.items()}
    assert run.scaled(cycle, ref) == pytest.approx({k: v / 2 for k, v in cycle.items()})
    ref["setup"] = run.REFERENCE["setup"]   # set-up is scaled by the job's own set-up only
    assert run.scaled(cycle, ref)["setup_s"] == pytest.approx(0.3)


def test_signed_permutation_inverse():
    for seed in range(5):
        u, uinv = workloads.signed_permutation(random.Random(seed), 3)
        assert workloads.exact_matmul(u, uinv) == [[int(i == j) for j in range(3)] for i in range(3)]


@pytest.fixture
def cli_workload(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.E1Cli, "DATA", (("A", 2),))
    return workloads.E1Cli(mbsheaf, random.Random(7), str(tmp_path), dict(os.environ),
                           inproc=True)


def test_cli_cycle_passes(cli_workload):
    result = run_cycle(cli_workload)
    assert (result["attempted"], result["failed"]) == (3, 0), result["errors"]


def test_wrong_digest_counts_as_failed(cli_workload, monkeypatch):
    monkeypatch.setitem(workloads.E1_DUMP_SHA256, "A2", "0" * 64)
    result = run_cycle(cli_workload)
    assert result["failed"] / result["attempted"] > 0
    assert any("dump sha256" in e for e in result["errors"])


def test_wrong_verdict_counts_as_failed(cli_workload):
    run_cycle(cli_workload)   # writes the A2 dump
    # the broken file now holds a valid sheaf, so `check` passes where it must fail
    shutil.copyfile(cli_workload.dump_path("A2"), cli_workload.broken_path)
    result = run_cycle(cli_workload)
    assert result["failed"] / result["attempted"] > 0
    assert any("check broken G2" in e and "exit 0" in e for e in result["errors"])


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "e1-cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
