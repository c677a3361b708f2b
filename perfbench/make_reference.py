"""Regenerate ``reference.json``: the noise-independent summary fields of
every workload, from one op each.

    python3 perfbench/make_reference.py

Run it from the root of a checkout only when a change to the program is
meant to change these fields, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads                     # noqa: E402
from child import Runner             # noqa: E402


def main() -> int:
    from levylab import cli
    reference = {}
    work = tempfile.mkdtemp(prefix="perfbench-ref-", dir=os.path.dirname(HERE))
    try:
        for name, workload in workloads.WORKLOADS.items():
            config = workloads.write_config(workload, work)
            op = Runner(workload, config, os.path.join(work, "out"), None,
                        cli.main).op(workloads.op_seed(0, 0))
            if not op["ok"]:
                print(f"{name}: {op['reason']}", file=sys.stderr)
                return 1
            reference[name] = workloads.pinned_fields(workload, json.loads(op["summary"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
