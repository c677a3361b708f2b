"""One benchmark run of one workload, in a process of its own.

Started by ``run.py`` with BLAS pinned to one thread.  It imports
levylab, writes the workload's config and then runs a closed loop of ops
for the given number of seconds: each op is one in-process call of
``levylab.cli.main(argv)``, and between ops a calibration kernel runs
for ``CALIB_SHARE`` of an op.  Each op's wall time is divided by the mean
kernel time in the two gaps around it; the median of these ratios is
``op_p50_rel``.  The kernel slows down with the op when other processes
contend for the core, so the ratio moves far less from run to run than
the raw time.

Op 0 is a warm-up whose time is not counted.  After the loop op 0 runs
again, timed like the others, and its summary must be byte-identical to
the first time.  The result is printed as one JSON line on stdout.

With ``--trace 1`` every odd-numbered op runs under the span tracer and
every even-numbered op runs without it, so one run gives both the
per-layer figures and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import workloads
from tracing import COUNTERS, ROOT, Tracer

MIN_LOOP_OPS = 2
# Kernel time between ops as a share of an op.  A kernel samples the
# machine for 0.1 s while an op spans seconds; covering the same share of
# every op keeps the kernel's own noise from dominating on long ops.
CALIB_SHARE = 0.15

_CAL_RNG = np.random.default_rng(12345)
_CAL_BLOCK = _CAL_RNG.standard_normal((256, 32))
_CAL_RATES = np.array([4.0])


def calibration_kernel() -> float:
    """Fixed work with levylab's mix, about 0.1 s on one core: a step
    loop on one-element arrays (like the single-path integrator), a loop
    over a (256, 32) block (like an ensemble chunk) and pure Python."""
    y, acc = np.ones(1), 0.0
    for i in range(2900):
        t = np.asarray(i * 1e-3)
        decay = np.exp(-_CAL_RATES * 0.01)
        phi = -np.expm1(-_CAL_RATES * 0.01) / _CAL_RATES
        y = decay * y + phi * np.where(t > 0, np.sin(t + y), 0.0) * 0.2
        acc += float(y[0])
    for _ in range(1000):
        acc += float(np.sum(np.exp(-_CAL_BLOCK * 0.01) * _CAL_BLOCK))
    s = 0
    for i in range(400_000):
        s += i * i % 7
    return acc + s


def timed_calibration(op_s: float) -> list[float]:
    """Kernel times for one gap between ops: enough kernels to cover
    ``CALIB_SHARE`` of an op of ``op_s`` seconds, and at least one."""
    times = []
    while not times or sum(times) < CALIB_SHARE * op_s:
        t0 = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t0)
    return times


class Runner:
    """Runs and checks ops of one workload; owns the output directory."""

    def __init__(self, workload, config_path, out_dir, reference, cli_main):
        self.workload = workload
        self.config_path = config_path
        self.out_dir = out_dir
        self.reference = reference
        self.cli_main = cli_main

    def op(self, seed: int, tracer: Tracer | None = None) -> dict:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = workloads.argv(self.workload, self.config_path, self.out_dir, seed)
        sink = io.StringIO()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                c0, t0 = time.process_time(), time.perf_counter()
                root = tracer.open(ROOT) if tracer is not None else None
                raised = ""
                try:
                    rc = self.cli_main(argv)
                except SystemExit as exc:       # argparse rejects the argv
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception as exc:        # a traceback is a failed op
                    rc, raised = -1, f"raised {exc!r}"
                finally:
                    if tracer is not None:
                        tracer.close(root)
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        finally:
            if tracer is not None:
                tracer.uninstall()
        ok, reason, text = workloads.gate(self.workload, rc, self.out_dir, self.reference)
        said = sink.getvalue().strip().splitlines()
        if raised:
            reason += f": {raised}"
        elif rc != 0 and said:
            reason += f": {said[-1]}"
        return {"seed": seed, "rc": rc, "ok": ok, "reason": reason, "wall_s": wall,
                "cpu_s": cpu, "summary": text}


def median(values):
    return statistics.median(values) if values else 0.0


def run(args) -> dict:
    from levylab import cli
    import scipy

    workload = workloads.WORKLOADS[args.workload]
    work = os.path.join(args.workdir, f"{workload.name}-s{args.seed}-p{os.getpid()}")
    config_path = workloads.write_config(workload, work)
    setup_s = time.monotonic() - args.t_spawn
    if args.setup_only:
        shutil.rmtree(work, ignore_errors=True)
        return {"setup_s": setup_s}

    reference = workloads.load_reference()[workload.name]
    runner = Runner(workload, config_path, os.path.join(work, "out"), reference, cli.main)
    tracer = Tracer() if args.trace else None

    ops, calib, spans = [], [], None
    traced_metrics, traced_layers, traced_stages = [], [], []
    first = runner.op(workloads.op_seed(args.seed, 0))          # warm-up
    ops.append(first)
    start = time.perf_counter()
    calib.append(timed_calibration(first["wall_s"]))
    index = 1
    while True:
        elapsed = time.perf_counter() - start
        typical = median([o["wall_s"] for o in ops[1:]]) + sum(calib[-1])
        if index > MIN_LOOP_OPS and elapsed + typical > args.seconds:
            break
        traced = tracer is not None and index % 2 == 1
        record = runner.op(workloads.op_seed(args.seed, index), tracer if traced else None)
        record["traced"] = traced
        if traced:
            traced_metrics.append(tracer.op_metrics())
            traced_layers.append(tracer.layer_self())
            traced_stages.append(tracer.stage_times())
            if spans is None:
                spans = tracer.dump()
        ops.append(record)
        calib.append(timed_calibration(record["wall_s"]))
        index += 1
    again = runner.op(workloads.op_seed(args.seed, 0))           # determinism check
    again["traced"] = False
    if again["ok"] and again["summary"] != first["summary"]:
        again["ok"], again["reason"] = False, "op 0 summary differs when re-run"
    ops.append(again)
    calib.append(timed_calibration(again["wall_s"]))
    for k in range(1, len(ops)):    # each timed op against the kernels around it
        ops[k]["rel"] = ops[k]["wall_s"] / statistics.mean(calib[k - 1] + calib[k])
    shutil.rmtree(work, ignore_errors=True)

    timed = [o for o in ops[1:] if o["ok"]] or ops[1:]
    untraced = [o for o in timed if not o.get("traced")]
    op_p50 = median([o["wall_s"] for o in untraced])
    calib_p50 = median([t for gap in calib for t in gap])
    result = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "setup_s": setup_s,
        "attempted": len(ops), "failed": sum(not o["ok"] for o in ops),
        "ops": [{k: v for k, v in o.items() if k != "summary"} for o in ops],
        "calib_s": calib,
        "op_p50_s": op_p50, "op_count": len(untraced),
        "calib_p50_s": calib_p50,
        "op_p50_rel": median([o["rel"] for o in untraced]),
        "op_p50_over_calib_p50": op_p50 / calib_p50,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "scipy": scipy.__version__, "nproc": os.cpu_count(),
                "blas_pins": {k: os.environ.get(k) for k in workloads.BLAS_PINS}},
    }
    if tracer is not None:
        result["missing_bindings"] = tracer.missing
        result["hook_errors"] = sorted(tracer.hook_errors)
        result["layers"] = _trace_summary(traced_metrics, timed, calib_p50)
        result["layer_self_s"] = _medians(traced_layers)
        result["stage_s"] = _medians(traced_stages)
        result["dominant_layer"] = max(result["stage_s"], key=result["stage_s"].get)
        result["spans_file"] = os.path.join(
            args.workdir, f"spans-{workload.name}-s{args.seed}.json")
        with open(result["spans_file"], "w") as fh:
            json.dump(spans, fh)
    return result


def _medians(dicts: list[dict]) -> dict:
    keys = sorted({k for d in dicts for k in d})
    return {k: median([d.get(k, 0.0) for d in dicts]) for k in keys}


def _trace_summary(traced_metrics, timed, calib_p50) -> dict:
    """Median timings over the traced ops; counters of the first one."""
    out = {}
    for name in traced_metrics[0]:
        if name in COUNTERS:
            out[name] = traced_metrics[0][name]
        else:
            out[name] = median([m[name] for m in traced_metrics])
    traced = median([o["wall_s"] for o in timed if o.get("traced")])
    plain = median([o["wall_s"] for o in timed if not o.get("traced")])
    out["env.calib_s"] = calib_p50
    out["trace.overhead_share"] = traced / plain - 1.0 if plain else 0.0
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t-spawn", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result = run(args)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
