"""Smoke tests of the scripts under ``tools/``, run as a user runs them."""

import os
import subprocess
import sys

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
