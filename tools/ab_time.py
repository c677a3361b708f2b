"""Time the ops of one benchmark workload on this checkout and on another,
alternating in one process.

    python3 tools/ab_time.py --parent PATH --workload NAME --ops N [--seed S]

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
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads   # noqa: E402


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="root of the checkout to compare with")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--ops", type=int, required=True, help="number of pairs")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default: 1)")
    args = parser.parse_args(argv)
    if args.ops < 1 or args.seed < 0:
        parser.error("--ops must be >= 1 and --seed >= 0")
    if not os.path.isfile(os.path.join(args.parent, "src", "levylab", "cli.py")):
        parser.error(f"no levylab sources under {os.path.join(args.parent, 'src')}")
    for var in workloads.BLAS_PINS:   # before numpy loads with the first package
        os.environ[var] = "1"
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
