"""Workload definitions, op configs and the per-op correctness gate.

Each workload is one levylab subcommand on one JSON config.  The config
is written once per run; ops differ only in the ``--seed`` they pass,
which is derived from the workload seed and the op index, so every
field that does not depend on the noise is the same for every op and is
pinned in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

# Thread-count variables pinned to 1 for every benchmark process.
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REL_TOL = 1e-12

# The scalar model of the README written out as a config (the CLI's
# example61 model), used by the single-path workload.
_README_SCALAR_MODEL = {
    "semigroup": {"eigenvalues": [4.0], "K": 1.0, "omega": 4.0},
    "wiener": {"mode_variances": [1.0]},
    "jumps": {
        "small_rate": 1.0,
        "small_marks": {"kind": "uniform_shell", "lo": 0.1, "hi": 1.0, "signed": True},
        "truncation_delta": 0.1,
        "large_rate": 1.0,
        "large_marks": {"kind": "uniform_shell", "lo": 1.0, "hi": 2.0, "signed": True},
        "moment_p": 2.05,
    },
    "coefficients": {
        "drift": {"terms": [{
            "profile": {"kind": "harmonic", "amps": [0.125, 0.125],
                        "freqs": [1.0, math.sqrt(3.0)],
                        "phases": [0.0, math.pi / 2.0]},
            "state_map": {"kind": "linear", "scale": 1.0}}]},
        "diffusion": {"terms": [{
            "profile": {"kind": "trig_reciprocal", "outer": "cos", "amp": 0.2,
                        "offset": 2.0, "inner_amps": [1.0, 1.0],
                        "inner_freqs": [1.0, math.sqrt(2.0)]},
            "state_map": {"kind": "linear", "scale": 1.0}}]},
        "small_jump": {"terms": [{
            "profile": {"kind": "constant", "value": 0.2},
            "state_map": {"kind": "linear", "scale": 1.0}}], "mark_mode": "ignore"},
        "large_jump": {"terms": [{
            "profile": {"kind": "trig_reciprocal", "outer": "sin", "amp": 0.25,
                        "offset": 3.0, "inner_amps": [1.0, 1.0],
                        "inner_freqs": [1.0, math.pi],
                        "inner_phases": [math.pi / 2.0, math.pi / 2.0]},
            "state_map": {"kind": "linear", "scale": 1.0}}], "mark_mode": "ignore"},
        "A0": 1.0,
        "lipschitz_L": 0.25,
        "moment_p": 2.05,
    },
}

# presets.periodic_model() written out as a config: every coefficient is
# 2 pi periodic, so tau = 2 pi is an exact period of the solution law.
_PERIODIC_MODEL = {
    "semigroup": {"eigenvalues": [1.0], "K": 1.0, "omega": 1.0},
    "wiener": {"mode_variances": [1.0]},
    "jumps": {
        "small_rate": 0.5,
        "small_marks": {"kind": "uniform_shell", "lo": 0.1, "hi": 1.0, "signed": True},
        "truncation_delta": 0.1,
        "large_rate": 0.5,
        "large_marks": {"kind": "uniform_shell", "lo": 1.0, "hi": 2.0, "signed": True},
        "moment_p": 2.05,
    },
    "coefficients": {
        "drift": {"terms": [
            {"profile": {"kind": "harmonic", "amps": [1.0], "freqs": [1.0],
                         "phases": [0.0], "recurrence_class": "periodic"},
             "state_map": {"kind": "ones", "scale": 1.0}},
            {"profile": {"kind": "constant", "value": -0.1},
             "state_map": {"kind": "linear", "scale": 1.0}}]},
        "diffusion": {"terms": [{
            "profile": {"kind": "constant", "value": 0.3},
            "state_map": {"kind": "ones", "scale": 1.0}}]},
        "small_jump": {"terms": [{
            "profile": {"kind": "constant", "value": 0.2},
            "state_map": {"kind": "ones", "scale": 1.0}}], "mark_mode": "scalar"},
        "large_jump": {"terms": [{
            "profile": {"kind": "harmonic", "amps": [0.2], "freqs": [1.0],
                        "phases": [math.pi / 2.0], "recurrence_class": "periodic"},
            "state_map": {"kind": "ones", "scale": 1.0}}], "mark_mode": "scalar"},
        "A0": 1.0,
        "lipschitz_L": 0.1,
        "moment_p": 2.05,
    },
}


@dataclass(frozen=True)
class Workload:
    """One CLI subcommand on one config; ``pinned`` lists the summary
    fields (dotted paths) that must not depend on the noise."""

    name: str
    command: str
    config: dict
    summary_file: str
    pinned: tuple[str, ...]
    csv_rows_file: str | None = None     # CSV whose row count must equal n_grid


_PIPELINE_PINS = ("conditions", "constants", "bounded.t_pull", "bounded.margin",
                  "bounded.radius")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="scalar-pipeline", command="example61",
        config={"run": {"window": [0.0, 4.0], "step": 0.01, "n_paths": 100,
                        "seed": 1, "tolerance": 0.05},
                "experiment": {"kind": "example61", "scan_window": 50.0}},
        summary_file="example61_summary.json",
        pinned=_PIPELINE_PINS + ("almost_periods.taus",)),
    Workload(
        name="heat-pipeline", command="example62",
        config={"run": {"window": [0.0, 1.0], "step": 0.005, "n_paths": 256,
                        "seed": 1, "tolerance": 0.05},
                "experiment": {"kind": "example62", "n_modes": 32}},
        summary_file="example62_summary.json",
        pinned=_PIPELINE_PINS),
    Workload(
        name="law-recurrence", command="recurrence",
        config={"model": _PERIODIC_MODEL,
                "run": {"window": [0.0, 4.0], "step": 0.01, "n_paths": 200,
                        "seed": 1, "tolerance": 0.05},
                "experiment": {"kind": "recurrence", "epsilon": 0.05,
                               "scan_window": 50.0, "tau": 2.0 * math.pi, "n_boot": 20}},
        summary_file="recurrence_report.json",
        pinned=("scan.taus", "distributional.tau")),
    Workload(
        name="single-path", command="simulate",
        config={"model": _README_SCALAR_MODEL,
                "run": {"window": [0.0, 40.0], "step": 0.005, "n_paths": 1,
                        "seed": 1, "tolerance": 0.02},
                "experiment": {"kind": "simulate", "y0": [1.0]}},
        summary_file="simulate_summary.json",
        pinned=("window", "step"),
        csv_rows_file="path.csv"),
)}


def op_seed(workload_seed: int, index: int) -> int:
    """Seed passed to op ``index`` of a run with ``workload_seed``."""
    digest = hashlib.sha256(f"{int(workload_seed)}:{int(index)}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def write_config(workload: Workload, directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload.name}.json")
    with open(path, "w") as fh:
        json.dump(workload.config, fh)
    return path


def argv(workload: Workload, config_path: str, out_dir: str, seed: int) -> list[str]:
    return [workload.command, "--config", config_path, "--seed", str(seed),
            "--threads", "1", "--out", out_dir]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def lookup(summary: dict, dotted: str):
    node = summary
    for key in dotted.split("."):
        node = node[key]
    return node


_NON_FINITE = ("nan", "inf", "-inf")


def _non_finite_paths(node, path="") -> list[str]:
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in _non_finite_paths(v, f"{path}.{k}".lstrip("."))]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in _non_finite_paths(v, f"{path}[{i}]")]
    if isinstance(node, float) and not math.isfinite(node):
        return [path]
    if isinstance(node, str) and node in _NON_FINITE:
        return [path]
    return []


def _matches(value, ref) -> bool:
    if isinstance(ref, dict):
        return (isinstance(value, dict) and value.keys() == ref.keys()
                and all(_matches(value[k], ref[k]) for k in ref))
    if isinstance(ref, list):
        return (isinstance(value, list) and len(value) == len(ref)
                and all(_matches(v, r) for v, r in zip(value, ref)))
    if isinstance(ref, bool) or isinstance(value, bool) or isinstance(ref, str):
        return value == ref
    if isinstance(ref, (int, float)) and isinstance(value, (int, float)):
        return abs(value - ref) <= REL_TOL * max(abs(ref), abs(value))
    return False


def gate(workload: Workload, rc: int, out_dir: str, reference: dict | None):
    """Check one op's outputs.  Returns ``(ok, reason, summary_text)``."""
    if rc != 0:
        return False, f"exit code {rc}", None
    try:
        with open(os.path.join(out_dir, workload.summary_file)) as fh:
            text = fh.read()
        summary = json.loads(text, parse_constant=lambda c: float(c))
    except (OSError, ValueError) as exc:
        return False, f"summary unreadable: {exc}", None
    bad = [p for p in _non_finite_paths(summary)
           if not any(p == pin or p.startswith(pin + ".") for pin in workload.pinned)]
    if bad:
        return False, f"non-finite summary field {bad[0]}", text
    if reference is not None:
        for pin in workload.pinned:
            try:
                value = lookup(summary, pin)
            except (KeyError, TypeError):
                return False, f"summary lacks {pin}", text
            if not _matches(value, reference[pin]):
                return False, f"{pin} differs from the reference", text
    if workload.csv_rows_file is not None:
        try:
            with open(os.path.join(out_dir, workload.csv_rows_file)) as fh:
                rows = sum(1 for _ in fh) - 1
        except OSError as exc:
            return False, f"csv unreadable: {exc}", text
        if rows != summary.get("n_grid"):
            return False, f"csv has {rows} rows, n_grid is {summary.get('n_grid')}", text
    return True, "", text


def pinned_fields(workload: Workload, summary: dict) -> dict:
    return {pin: lookup(summary, pin) for pin in workload.pinned}
