"""Smoke tests of the scripts under ``tools/``, run as a user runs them or in process."""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys

import levylab as L
from levylab.config import canonical_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_ab_time_compares_a_checkout_with_itself():
    # one pair of the cheapest workload, both sides loaded from this checkout
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_time.py"), "--parent", ROOT,
         "--workload", "single-path", "--ops", "1"],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "same output bytes in 1 of 1 pairs" in run.stdout.splitlines()[-1]


def test_ab_time_step_layer_compares_a_checkout_with_itself():
    # one pair of every case, both sides loaded from this checkout
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_time.py"), "--parent", ROOT,
         "--layer", "step", "--ops", "1"],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 8 and all("same states in 1 of 1" in line for line in lines[1:])


def test_ab_time_setup_layer_compares_a_checkout_with_itself():
    # one pair of fresh processes, both importing this checkout
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_time.py"), "--parent", ROOT,
         "--layer", "setup", "--ops", "1"],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 4 and lines[-1].endswith(" of 1")


def test_ab_time_bl_layer_compares_a_checkout_with_itself():
    # one pair of the law test's statistic, both sides loaded from this checkout
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_time.py"), "--parent", ROOT,
         "--layer", "bl", "--ops", "1"],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 5 and lines[-1].endswith("same beta and err bits in 1 of 1 pairs")


def _output_hashes():
    spec = importlib.util.spec_from_file_location(
        "output_hashes", os.path.join(ROOT, "tools", "output_hashes.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_hashes_checker_and_shift_groups_hash_every_checked_preset():
    # in process: the two groups that hash the checker's outputs and the shift bounds
    tool = _output_hashes()
    names = list(tool.CHECKED)
    checker = tool.checker_lines()
    assert [line.rsplit(" ", 1)[0] for line in checker] == [
        f"check-{name} {part}" for name in names for part in ("report", "constants")]
    shift = tool.shift_bound_lines()
    assert [line.rsplit(" ", 1)[0] for line in shift] == [f"shift-{n} bounds" for n in names]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.rsplit(" ", 1)[1])
               for line in checker + shift)
    m = tool.CHECKED["example61"]()
    bounds = L.coefficient_shift_bounds(m, 0.7, L.theorem_constants(m).radius_r)
    assert shift[0].endswith(hashlib.sha256(canonical_json(bounds).encode()).hexdigest())
    assert tool.shift_bound_lines() == shift and tool.checker_lines() == checker
