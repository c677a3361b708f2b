"""levylab benchmark: end-to-end and per-layer figures of the CLI pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a levylab checkout; the package is imported from
``src/``.  Each run measures one workload (see ``workloads.py`` and
``BENCHMARK.json``) in a child process with one thread and BLAS pinned to
one thread, as a closed loop of ops for ``--seconds`` seconds.  The
workload seed makes every op's seed; the outputs of every op are checked
(``workloads.gate``).

``--trace 0`` reports the end-to-end metrics: set-up time (median of
five process starts spread over the run), the median over ops of each
op's wall time divided by the calibration kernel timed around it in the
same process, peak resident memory and the share of ops that passed
their checks.  The raw median op wall time is printed and recorded too,
but is not a metric: other tenants of the machine move it by more than
any bound could absorb, while the calibrated ratio cancels most of that.

``--trace 1`` reports the per-layer metrics from a run in which every
other op is traced (``tracing.py``).  A table of the metrics goes to
stdout; the last line of stdout is the result as one JSON object.  The
full record of the run (every op, the environment, git describe) is
written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads
from tracing import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
# Set-up only processes, half before and half after the measuring one:
# the machine's speed drifts over tens of seconds, so set-up is sampled
# at both ends of the run.
SETUP_PROBES = 4
RUN_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in workloads.BLAS_PINS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"    # every set-up compiles the same sources
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, extra: list[str], deadline: float) -> dict:
    """Run ``child.py`` once and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORKDIR]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)] + extra, cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"benchmark process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                             cwd=ROOT, capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def end_to_end(result: dict, setups: list[float]) -> dict:
    attempted = result["attempted"]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "op_p50_rel": {"value": result["op_p50_rel"], "unit": "ratio"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "success_rate": {"value": (attempted - result["failed"]) / attempted,
                         "unit": "share"},
    }


def per_layer(result: dict) -> dict:
    return {name: {"value": float(result["layers"][name]), "unit": unit}
            for name, unit in LAYER_METRICS}


def print_table(args, result: dict, metrics: dict):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {result['attempted']} ({result['op_count']} timed untraced)  "
          f"failed {result['failed']}")
    for op in result["ops"]:
        if not op["ok"]:
            print(f"  failed op seed {op['seed']}: {op['reason']}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"  op wall median {result['op_p50_s']:.4g} s, calibration kernel median "
          f"{result['calib_p50_s']:.4g} s (raw times, not gated)")
    if args.trace:
        for title, key in (("self time by layer", "layer_self_s"),
                           ("stage time by layer", "stage_s")):
            times = result[key]
            top = sorted(times, key=times.get, reverse=True)
            print(f"  {title} (s, median traced op): "
                  + ", ".join(f"{k} {times[k]:.4g}" for k in top))
        print(f"  dominant layer: {result['dominant_layer']}")
        if result["missing_bindings"]:
            print("  not traced (absent in this version): "
                  + ", ".join(result["missing_bindings"]))
        for error in result["hook_errors"]:
            print(f"  counter not taken: {error}")
    print("env " + json.dumps(result["env"], sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "levylab", "cli.py")):
        print(f"no levylab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        def probes() -> list[float]:
            return [spawn(args, ["--setup-only"], deadline)["setup_s"]
                    for _ in range(SETUP_PROBES // 2)]
        setups = probes()
        result = spawn(args, [], deadline)
        setups += [result["setup_s"]] + probes()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result["setup_samples_s"] = setups
    result["env"]["git_describe"] = git_describe()

    metrics = per_layer(result) if args.trace else end_to_end(result, setups)
    result["metrics"] = metrics
    os.makedirs(os.path.join(WORKDIR, "results"), exist_ok=True)
    record = os.path.join(WORKDIR, "results",
                          f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(record, "w") as fh:
        json.dump(result, fh, indent=1)

    print_table(args, result, metrics)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
