"""Time the ops of one benchmark workload on this checkout and on another,
alternating in one process, the step loop of the path drivers alone, the
law test's bounded-Lipschitz distances alone, or the set-up of fresh
processes.

    python3 tools/ab_time.py --parent PATH --workload NAME --ops N [--seed S]
    python3 tools/ab_time.py --parent PATH --layer step --ops N [--seed S]
    python3 tools/ab_time.py --parent PATH --layer bl --ops N [--seed S]
    python3 tools/ab_time.py --parent PATH --layer setup --ops N

Run from anywhere.  The ``src/levylab`` of the checkout this file sits in
is loaded as the package ``levylab`` and that of the checkout at PATH as
``levylab_parent``; the workloads come from this checkout's
``perfbench/workloads.py`` (read only), with BLAS pinned to one thread as
the benchmark pins it.  After one untimed warm-up op per side, each of N
pairs runs op k of the workload seed S (default 1) on both sides, the
parent first in even pairs and the change first in odd ones, each an
in-process call of the side's ``cli.main`` timed in CPU time.

Prints each side's median CPU time per op, the median over pairs of the
change's time divided by the parent's, the number of pairs in which the
change used less time, and the number in which both sides wrote the same
bytes.  CPU time is not the benchmark's ``op_p50_rel``, but on a shared
machine it moves less with other tenants than wall time does, and the
alternation puts any drift on both sides alike.

``--layer step`` times the step loop instead, in CPU microseconds per
path-step: the ``advance`` of ``levylab.ensemble._run_chunk``, the one
loop of both path drivers (steps, jumps and finiteness checks), over all
Wiener slabs of one chunk of paths, whose noise is drawn and whose kernels
are built before the clock starts.  The cases are the models of the
benchmark's workloads: the README scalar model
(``presets.example61_model``) on one path over the single-path workload's
window and step, the same model on 100 paths and on a full chunk of
``ensemble.CHUNK`` paths, the model stacked with its shift by 0.7 on a
full chunk (the two blocks of ``coupled_gap``, as the recurrence gap runs
them), the ``periodic`` preset on 200 paths, alone and stacked with its
shift by pi (stacked states on a slot of one column, where the README model
has three), and the 32-mode heat model on 256 paths.  The one-path case
steps the state that ``integrate`` steps, ``ensemble.path_state`` (a 0-d
scalar for this one-component model; the (dim,) state on a checkout without
that function), on the uniform grid;
``integrate`` runs the same loop on the grid refined by its jump times, and
``--workload single-path`` times it.  Each of N pairs runs every case on
both sides, alternating which side goes first; the states the loop writes
are compared byte for byte.  Each case's line names how many of its steps
hold a jump, the steps on which the loop applies jumps.  The layer has a
bias of a few per cent between identical checkouts: a copy of a checkout
timed against it read 0.97-1.04 per case at 10 pairs, so a step-layer
shift of under about 5% is not a result.

``--layer bl`` times the law test's statistic alone: each side's
``recurrence.distributional_report``, in CPU time, on one bounded ensemble
of the law-recurrence workload (built by this checkout, before the clock
starts, as ``distributional_almost_period_test`` builds it at the seed of
op 0 of workload seed S).  That is the workload's bounded-Lipschitz
distances: the observed pair and the pooled resamples at every law-test
time.  Each of N pairs runs it on both sides, alternating which side goes
first.  It prints each side's median, the median per-pair ratio, the
number of pairs in which the change was faster and the number in which
both sides gave the same ``float.hex`` of every beta and error bar.

``--layer setup`` times what the benchmark's ``setup_s`` mostly is: N pairs
of fresh processes per checkout, alternating which goes first, each running
``import levylab.cli, scipy`` from a copy of the checkout's ``src`` without
``__pycache__`` and with ``PYTHONDONTWRITEBYTECODE=1`` (every process
compiles the same sources, as the benchmark's fresh checkouts do), timed
in wall time from spawn to exit.  It prints
each side's median, the median per-pair ratio and the number of pairs in
which the change was faster.  Process start-up moves with the machine's
load, so read it over 20 pairs or more before trusting a few per cent.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads   # noqa: E402

# --layer step cases: (preset and its arguments, shift, paths, window, max_step);
# with a shift, the model is stacked with its translate by it, as in coupled_gap
STEP_CASES = {
    "single-path": (("example61_model", {}), None, 1, (0.0, 40.0), 0.005),
    "example61": (("example61_model", {}), None, 100, (0.0, 10.0), 0.01),
    "example61-chunk": (("example61_model", {}), None, "CHUNK", (0.0, 10.0), 0.01),
    "coupled-chunk": (("example61_model", {}), 0.7, "CHUNK", (0.0, 10.0), 0.01),
    "periodic": (("periodic_model", {}), None, 200, (0.0, 10.0), 0.01),
    "periodic-stacked": (("periodic_model", {}), math.pi, 200, (0.0, 10.0), 0.01),
    "heat32": (("example62_model", {"n_modes": 32}), None, 256, (0.0, 1.0), 0.005),
}


def load_cli(name: str, checkout: str):
    """The ``cli`` module of the ``src/levylab`` of ``checkout``, loaded as ``name``."""
    package = os.path.join(os.path.abspath(checkout), "src", "levylab")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run_op(cli, workload, seed: int) -> tuple[float, str]:
    """CPU seconds of one op and the SHA-256 of its exit code and output files."""
    with tempfile.TemporaryDirectory() as work:
        config, out = workloads.write_config(workload, work), os.path.join(work, "out")
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.process_time()
            rc = cli.main(workloads.argv(workload, config, out, seed))
            cpu = time.process_time() - start
        digest = hashlib.sha256(str(rc).encode())
        for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
            with open(os.path.join(out, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return cpu, digest.hexdigest()


def step_case(package, case, seed: int):
    """A runner of the step loop of ``case`` on the ``levylab`` ``package``, which
    returns the CPU microseconds per path-step (of each block) and the bytes of
    the end states, and the number of steps and of those that hold a jump.  The
    noise is drawn and the kernel built once, here."""
    import numpy as np   # loaded with the packages, after the BLAS pins
    (preset, kwargs), shift, n_paths, (t0, t1), max_step = STEP_CASES[case]
    ens = package.ensemble
    n_paths = ens.CHUNK if n_paths == "CHUNK" else n_paths
    model = getattr(package.presets, preset)(**kwargs)
    models = (model,) if shift is None else (model, model.shifted(shift))
    n_models = len(models)
    grid = package.integrator.refined_grid(t0, t1, max_step, [t1])
    obs_idx = np.array([grid.size - 1])
    step = package.integrator.step_kernel(models, grid)
    events, slabs = ens._draw_chunk(model, grid, (t0, t1), seed, range(n_paths))
    slabs = [(lo, dw.copy()) for lo, dw in slabs]   # the slabs share one buffer
    y0 = package.integrator.initial_states(1.0, n_paths, model.dim)
    y0 = np.stack([y0] * n_models) if n_models > 1 else y0
    if case == "single-path":   # the state integrate steps
        y0 = ens.path_state(model, 1.0) if hasattr(ens, "path_state") else y0[0]

    def run():
        out = np.empty((1, n_models, n_paths, model.dim))
        advance = ens._run_chunk(models, step, grid, obs_idx, y0, events, out)
        start = time.process_time()
        for slab in slabs:
            advance(*slab)
        cpu = time.process_time() - start
        return cpu / (n_paths * (grid.size - 1)) * 1e6, out.tobytes()

    step_of = np.clip(np.searchsorted(grid, events[0]) - 1, 0, grid.size - 2)
    return run, grid.size - 1, np.unique(step_of).size


def main_step_layer(args) -> int:
    load_cli("levylab_parent", args.parent), load_cli("levylab", ROOT)
    packages = {"parent": sys.modules["levylab_parent"], "change": sys.modules["levylab"]}
    print(f"step loop, CPU us per path-step: {args.ops} pairs, noise seed {args.seed}")
    for case in STEP_CASES:
        cases = {side: step_case(package, case, args.seed)
                 for side, package in packages.items()}
        runs = {side: run for side, (run, _, _) in cases.items()}
        _, steps, jump_steps = cases["change"]   # the same noise on both sides
        for run in runs.values():   # warm-up
            run()
        times = {side: [] for side in runs}
        same = 0
        for k in range(args.ops):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            outs = set()
            for side in order:
                us, out = runs[side]()
                times[side].append(us)
                outs.add(out)
            same += len(outs) == 1
        ratios = [c / p for c, p in zip(times["change"], times["parent"])]
        print(f"  {case} ({jump_steps} of {steps} steps hold a jump): "
              f"parent {statistics.median(times['parent']):.3f}, "
              f"change {statistics.median(times['change']):.3f}, "
              f"change / parent median {statistics.median(ratios):.4f}, "
              f"faster in {sum(r < 1.0 for r in ratios)} of {args.ops}, "
              f"same states in {same} of {args.ops}")
    return 0


def main_bl_layer(args) -> int:
    import numpy as np   # loaded with the packages, after the BLAS pins
    load_cli("levylab_parent", args.parent), load_cli("levylab", ROOT)
    packages = {"parent": sys.modules["levylab_parent"], "change": sys.modules["levylab"]}
    change = packages["change"]
    cfg = change.config.parse_config(workloads.WORKLOADS["law-recurrence"].config)
    run, tau, n_boot = cfg.run, cfg.experiment["tau"], cfg.experiment["n_boot"]
    t_grid = change.cli._law_grid(run, cfg.experiment["t_grid_n"])
    seed = workloads.op_seed(args.seed, 0)
    res = change.pullback.bounded_ensemble(
        cfg.model, (t_grid[0], t_grid[-1] + tau), run.tolerance, run.n_paths, seed,
        np.unique(np.concatenate([t_grid, t_grid + tau])), run.step)

    def report(side):
        start = time.process_time()
        rep = packages[side].recurrence.distributional_report(res, tau, t_grid, seed, n_boot)
        cpu = time.process_time() - start
        return cpu, [float(v).hex() for v in (*rep.beta, *rep.err)]

    for side in packages:   # warm-up
        report(side)
    times = {side: [] for side in packages}
    same = 0
    for k in range(args.ops):
        outs = set()
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            cpu, out = report(side)
            times[side].append(cpu)
            outs.add(tuple(out))
        same += len(outs) == 1
    ratios = [c / p for c, p in zip(times["change"], times["parent"])]
    print(f"bl: {args.ops} pairs of distributional_report on one law-recurrence ensemble "
          f"({run.n_paths} paths, {t_grid.size} times, n_boot {n_boot})")
    for side, values in times.items():
        print(f"  {side}: median CPU time {statistics.median(values) * 1e3:.2f} ms")
    print(f"  change / parent per pair: median {statistics.median(ratios):.4f}; "
          f"change faster in {sum(r < 1.0 for r in ratios)} of {args.ops}")
    print(f"  same beta and err bits in {same} of {args.ops} pairs")
    return 0


def setup_seconds(src: str) -> float:
    """Wall seconds of one fresh process importing ``levylab.cli`` and scipy from ``src``."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "import levylab.cli, scipy"], env=env, check=True)
    return time.monotonic() - start


def main_setup_layer(args) -> int:
    times = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as work:
        srcs = {side: shutil.copytree(os.path.join(checkout, "src"), os.path.join(work, side),
                                      ignore=shutil.ignore_patterns("__pycache__"))
                for side, checkout in (("parent", args.parent), ("change", ROOT))}
        for k in range(args.ops):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                times[side].append(setup_seconds(srcs[side]))
    ratios = [c / p for c, p in zip(times["change"], times["parent"])]
    print(f"setup: {args.ops} pairs of fresh processes importing levylab.cli and scipy")
    for side, values in times.items():
        print(f"  {side}: median wall time {statistics.median(values):.4f} s")
    print(f"  change / parent per pair: median {statistics.median(ratios):.4f}; "
          f"change faster in {sum(r < 1.0 for r in ratios)} of {args.ops}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="root of the checkout to compare with")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="the workload whose ops to time (--layer op)")
    parser.add_argument("--layer", choices=("op", "step", "bl", "setup"), default="op",
                        help="time whole ops (default), the step loop, the law test's "
                             "BL distances or process set-up")
    parser.add_argument("--ops", type=int, required=True, help="number of pairs")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed, or noise seed of --layer step (default: 1)")
    args = parser.parse_args(argv)
    if args.ops < 1 or args.seed < 0:
        parser.error("--ops must be >= 1 and --seed >= 0")
    if args.layer == "op" and args.workload is None:
        parser.error("--workload is required with --layer op")
    if not os.path.isfile(os.path.join(args.parent, "src", "levylab", "cli.py")):
        parser.error(f"no levylab sources under {os.path.join(args.parent, 'src')}")
    for var in workloads.BLAS_PINS:   # before numpy loads with the first package
        os.environ[var] = "1"
    if args.layer == "step":
        return main_step_layer(args)
    if args.layer == "bl":
        return main_bl_layer(args)
    if args.layer == "setup":
        return main_setup_layer(args)
    sides = {"parent": load_cli("levylab_parent", args.parent),
             "change": load_cli("levylab", ROOT)}
    workload = workloads.WORKLOADS[args.workload]
    for cli in sides.values():   # warm-up
        run_op(cli, workload, workloads.op_seed(args.seed, 0))
    times = {side: [] for side in sides}
    same = 0
    for k in range(1, args.ops + 1):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        digests = set()
        for side in order:
            cpu, digest = run_op(sides[side], workload, workloads.op_seed(args.seed, k))
            times[side].append(cpu)
            digests.add(digest)
        same += len(digests) == 1
    ratios = [c / p for c, p in zip(times["change"], times["parent"])]
    print(f"{args.workload}: {args.ops} pairs, workload seed {args.seed}")
    for side, values in times.items():
        print(f"  {side}: median CPU time per op {statistics.median(values):.4f} s")
    print(f"  change / parent per pair: median {statistics.median(ratios):.4f}; "
          f"change faster in {sum(r < 1.0 for r in ratios)} of {args.ops}")
    print(f"  same output bytes in {same} of {args.ops} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
