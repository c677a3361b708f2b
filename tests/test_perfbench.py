"""The benchmark's pinned summary fields, checked without the benchmark.

Op 0 of workload seed 1 of every workload runs in process, with the config,
argv and gate of ``perfbench/workloads.py`` (read only), so a change to a
field that ``perfbench/reference.json`` pins fails here, not only in a
benchmark run.
"""

import importlib.util
import os
import sys

import pytest

from levylab.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # for its dataclasses
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_benchmark_op_matches_the_reference_fields(name, tmp_path):
    w = workloads.WORKLOADS[name]
    config_path = workloads.write_config(w, str(tmp_path))
    out = str(tmp_path / "out")
    rc = main(workloads.argv(w, config_path, out, workloads.op_seed(1, 0)))
    ok, reason, _ = workloads.gate(w, rc, out, workloads.load_reference()[name])
    assert ok, reason
