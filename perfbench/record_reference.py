#!/usr/bin/env python3
"""Write reference.json: the expected outcome of every op the workloads can emit.

    python3 perfbench/record_reference.py

Runs each op of each workload's menu once, single-client, and records its
exit code, verdict or precondition condition, and estimated_constant.  The
benchmark compares every op outcome against this table, so rerun this only
at a commit whose outcomes are known to be right.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import SRC, cap_threads  # noqa: E402


def main() -> int:
    cap_threads()
    sys.path.insert(0, str(SRC))
    import workloads
    workdir = HERE.parent / ".bench_tmp" / f"reference-{os.getpid()}"
    table = {}
    for wl in workloads.WORKLOADS.values():
        start = time.perf_counter()
        state, _ = wl.setup(workdir, 0)
        for op in wl.menu():
            outcome, _ = wl.execute(op, state)
            if outcome.error is not None:
                raise SystemExit(f"{op.key}: {outcome.error}")
            table[op.key] = outcome.as_reference()
        print(f"{wl.name}: {len(wl.menu())} ops in {time.perf_counter() - start:.1f} s")
    (HERE / "reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
