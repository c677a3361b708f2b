"""Print the SHA-256 of every output of the CLI on the benchmark workloads.

    python3 tools/output_hashes.py [--seeds 5 77]

Run from anywhere; the package is imported from the ``src/`` of the
checkout this file sits in, and the workloads from its
``perfbench/workloads.py`` (read only).  For each workload seed, ops 0 and
1 of every workload run their command in process, with the seed that the
benchmark passes them (``workloads.op_seed``).  No workload runs
``check``, ``bounded`` or ``stability``, so these run too, at the same
seeds, on the ``model`` section of each workload that has one.

Each run prints one line per output file, one for its stdout (the output
directory written as ``<out>``) and one for its exit code; an ``all`` line
hashes the lines before it.  Then come ops 0 and 1 of a forced example61
(scalar-pipeline with ``forcing: 1.0``, whose law is not a point mass) at
each seed and an ``all`` line.  Last come two lines per preset of
``CHECKED`` (example61 with and without forcing, example62 at 1, 8, 32 and
128 modes, and the small benches), the hashes of the ``canonical_json`` of
its ``check_conditions`` report and of its ``theorem_constants``, which no
seed changes, and an ``all`` line.  Last of all come one line per
``CHECKED`` preset, the hash of the ``canonical_json`` of its
``coefficient_shift_bounds`` at a shift of 0.7 on its invariant-ball radius
``theorem_constants(m).radius_r``, and a last ``all`` line.  Each group is
appended after the ones before it, so lists printed before a group existed
still compare line by line.  Two checkouts write the same bytes when they
print the same lines.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads                   # noqa: E402
from levylab import presets         # noqa: E402
from levylab.cli import main as cli_main   # noqa: E402
from levylab.config import canonical_json   # noqa: E402
from levylab.model import check_conditions, theorem_constants   # noqa: E402
from levylab.recurrence import coefficient_shift_bounds   # noqa: E402

# the run and experiment sections of the commands that no workload runs
EXTRA_RUN = {"window": [0.0, 2.0], "step": 0.01, "n_paths": 50, "seed": 1,
             "tolerance": 0.05}
EXTRA_EXPERIMENTS = {"check": {}, "bounded": {}, "stability": {"y0a": 1.0, "y0b": 3.0}}
_SCALAR = workloads.WORKLOADS["scalar-pipeline"].config
FORCED = {**_SCALAR, "experiment": {**_SCALAR["experiment"], "forcing": 1.0}}


# the presets whose checker outputs are hashed
CHECKED = {
    "example61": presets.example61_model,
    "example61-forced": lambda: presets.example61_model(forcing=1.0),
    **{f"example62-{n}": (lambda n=n: presets.example62_model(n_modes=n))
       for n in (1, 8, 32, 128)},
    "periodic": presets.periodic_model,
    "stationary": presets.stationary_model,
    "ou_jump": presets.ou_jump_model,
    "linear_decay": presets.linear_decay_model,
    "forced_linear": presets.forced_linear_model,
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def runs(seed: int):
    """(label, command, config) of every run at one workload seed."""
    for w in workloads.WORKLOADS.values():
        for op in (0, 1):
            yield f"{w.name}/{seed}/{op}", w.command, w.config, workloads.op_seed(seed, op)
    for w in workloads.WORKLOADS.values():
        if "model" not in w.config:
            continue
        for command, experiment in EXTRA_EXPERIMENTS.items():
            config = {"model": w.config["model"], "run": EXTRA_RUN,
                      "experiment": {"kind": command, **experiment}}
            for op in (0, 1):
                yield (f"{command}@{w.name}/{seed}/{op}", command, config,
                       workloads.op_seed(seed, op))


def forced_runs(seed: int):
    """(label, command, config) of the forced example61 runs at one workload seed."""
    for op in (0, 1):
        yield f"forced-example61/{seed}/{op}", "example61", FORCED, workloads.op_seed(seed, op)


def hash_run(command: str, config: dict, seed: int) -> list[tuple[str, str]]:
    """(name, SHA-256) of every output file, the stdout and the exit code of one run."""
    with tempfile.TemporaryDirectory() as work:
        config_path = os.path.join(work, "config.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        out = os.path.join(work, "out")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli_main([command, "--config", config_path, "--seed", str(seed), "--out", out])
        files = sorted(os.listdir(out)) if os.path.isdir(out) else []
        rows = []
        for name in files:
            with open(os.path.join(out, name), "rb") as fh:
                rows.append((name, _sha(fh.read())))
    rows.append(("stdout", _sha(stdout.getvalue().replace(out, "<out>").encode())))
    rows.append(("exit", str(rc)))
    return rows


def checker_lines() -> list[str]:
    """The hash lines of the checker's report and constants on every ``CHECKED`` preset."""
    lines = []
    for name, build in CHECKED.items():
        model = build()
        for part, obj in (("report", check_conditions(model).to_dict()),
                          ("constants", theorem_constants(model))):
            lines.append(f"check-{name} {part} {_sha(canonical_json(obj).encode())}")
    return lines


def shift_bound_lines() -> list[str]:
    """The hash lines of the shift bounds at tau = 0.7 on every ``CHECKED`` preset."""
    lines = []
    for name, build in CHECKED.items():
        model = build()
        bounds = coefficient_shift_bounds(model, 0.7, theorem_constants(model).radius_r)
        lines.append(f"shift-{name} bounds {_sha(canonical_json(bounds).encode())}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[5, 77],
                        help="workload seeds (default: 5 77)")
    args = parser.parse_args(argv)
    lines = []
    for group in (runs, forced_runs):
        for seed in args.seeds:
            for label, command, config, op_seed in group(seed):
                for name, digest in hash_run(command, config, op_seed):
                    lines.append(f"{label} {name} {digest}")
                    print(lines[-1], flush=True)
        print(f"all {_sha(chr(10).join(lines).encode())}")
    for group in (checker_lines, shift_bound_lines):
        for line in group():
            lines.append(line)
            print(line, flush=True)
        print(f"all {_sha(chr(10).join(lines).encode())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
