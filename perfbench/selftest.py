"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Run from the root of a checkout; takes about half a minute.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads                     # noqa: E402
from child import Runner             # noqa: E402
from tracing import COUNTERS, Tracer  # noqa: E402
from levylab import cli              # noqa: E402

FAST = workloads.WORKLOADS["single-path"]


def _runner(workload, work, reference="default"):
    if reference == "default":
        reference = workloads.load_reference()[workload.name]
    config = workloads.write_config(workload, work)
    return Runner(workload, config, os.path.join(work, "out"), reference, cli.main)


def _in_tmp(fn):
    def wrapped():
        work = tempfile.mkdtemp(prefix="perfbench-test-", dir=ROOT)
        try:
            fn(work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    wrapped.__name__ = fn.__name__
    return wrapped


@_in_tmp
def test_span_self_times_sum_to_op_time(work):
    tracer = Tracer()
    op = _runner(FAST, work).op(workloads.op_seed(0, 1), tracer)
    assert op["ok"], op["reason"]
    assert tracer.names[0] == "cli.main" and tracer.parents[0] == -1
    root = tracer.ends[0] - tracer.starts[0]
    assert math.isclose(sum(tracer.self_times()), root, rel_tol=1e-9)
    assert math.isclose(sum(tracer.layer_self().values()), root, rel_tol=1e-9)
    assert root <= op["wall_s"]
    assert tracer.counts["integrator.steps"] > 0 and not tracer._patches


def _traced_run_counters() -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", FAST.name, "--seed", "3", "--seconds", "1",
                           "--trace", "1"], cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return {k: v for k, v in result["metrics"].items() if k in COUNTERS}


def test_counters_repeat_across_traced_runs():
    first, second = _traced_run_counters(), _traced_run_counters()
    assert first == second
    assert first["integrator.steps"]["value"] > 0


@_in_tmp
def test_rejected_config_is_a_failed_op(work):
    bad = copy.deepcopy(FAST.config)
    bad["run"]["n_paths_typo"] = 1
    workload = workloads.Workload(FAST.name, FAST.command, bad, FAST.summary_file,
                                  FAST.pinned, FAST.csv_rows_file)
    op = _runner(workload, work).op(workloads.op_seed(0, 0))
    assert op["rc"] == 2 and not op["ok"]
    assert "config error" in op["reason"]


@_in_tmp
def test_gate_rejects_a_changed_reference_field(work):
    reference = copy.deepcopy(workloads.load_reference()[FAST.name])
    reference["step"] *= 1 + 1e-9
    op = _runner(FAST, work, reference).op(workloads.op_seed(0, 0))
    assert not op["ok"] and "step" in op["reason"]


@_in_tmp
def test_workload_seed_changes_op_seeds_not_reference_fields(work):
    seeds = {s: [workloads.op_seed(s, i) for i in range(50)] for s in (1, 2)}
    assert len(set(seeds[1]) | set(seeds[2])) == 100
    runner = _runner(FAST, work, reference=None)
    summaries = [json.loads(runner.op(seeds[s][0])["summary"]) for s in (1, 2)]
    assert summaries[0]["seed"] != summaries[1]["seed"]
    pinned = [workloads.pinned_fields(FAST, s) for s in summaries]
    assert pinned[0] == pinned[1] == workloads.load_reference()[FAST.name]


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
