#!/usr/bin/env python3
"""Print the outcome of every benchmark menu op as sorted JSON.

    python3 scripts/menu_digests.py > digests.json

Runs each op of each workload's menu in perfbench/workloads.py once, in this
process, and prints op key -> exit code, verdict, precondition condition,
estimated constant, route agreement, report sha256 and error.  Two commits
whose outputs compare equal under `cmp` give every menu op the same outcome
and the same report bytes; a re-record of perfbench/reference.json can diff
two outputs to list the ops that move.  BLAS runs on one thread, so the
digests do not depend on the machine's core count.
"""

import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads  # after the thread caps: it imports numpy

    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for wl in workloads.WORKLOADS.values():
            state, _ = wl.setup(Path(tmp) / wl.name, 0)
            for op in wl.menu():
                outcome, _ = wl.execute(op, state)
                table[op.key] = dataclasses.asdict(outcome)
    print(json.dumps(table, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
