#!/usr/bin/env python3
"""Print the outcome of every benchmark menu op as sorted JSON, or compare
it with an earlier such output.

    python3 scripts/menu_digests.py > digests.json
    python3 scripts/menu_digests.py --against digests.json

Runs each op of each workload's menu in perfbench/workloads.py once, in this
process, and prints op key -> exit code, verdict, precondition condition,
estimated constant, route agreement, report sha256 and error.  Two commits
whose outputs compare equal under `cmp` give every menu op the same outcome
and the same report bytes; a re-record of perfbench/reference.json can diff
two outputs to list the ops that move.  BLAS runs on one thread, so the
digests do not depend on the machine's core count.

With --against OLD.json (an earlier output of this script) it prints, in
place of the JSON, how the ops moved since: how many moved their report
bytes alone, the largest relative move of a constant, and one line for each
op whose exit code, verdict, precondition or error moved, whose constant
moved by more than the benchmark's REL_TOL relative, whose route agreement
is above its ROUTE_TOL, or that is in one output only.  It exits 1 when it
names any op.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def compare(old: dict, new: dict, rel_tol: float, route_tol: float) -> tuple[list, int, float]:
    """(lines naming each moved op, ops whose report bytes alone moved,
    largest relative constant move) from old to new."""
    named, bytes_only, largest = [], 0, 0.0
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            named.append(f"{key}: in the {'new' if a is None else 'old'} digests only")
            continue
        why = [f"{field} {a[field]!r} -> {b[field]!r}"
               for field in ("exit", "verdict", "condition", "error") if a[field] != b[field]]
        was, now = a["constant"], b["constant"]
        if was != now:
            finite = None not in (was, now) and math.isfinite(was) and was != 0.0
            rel = abs(now - was) / abs(was) if finite else math.inf
            largest = max(largest, rel)
            if not rel <= rel_tol:
                why.append(f"constant {was!r} -> {now!r} ({rel:.1e} relative)")
        agreement = b["route_agreement"]
        if agreement is not None and not agreement <= route_tol:
            why.append(f"route agreement {agreement!r} above {route_tol:g}")
        if why:
            named.append(f"{key}: " + "; ".join(why))
        elif a["digest"] != b["digest"]:
            bytes_only += 1
    return named, bytes_only, largest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, metavar="OLD.json",
                        help="an earlier output to compare with")
    args = parser.parse_args()
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
    if args.against is None:
        print(json.dumps(table, indent=1, sort_keys=True))
        return 0
    old = json.loads(args.against.read_text())
    named, bytes_only, largest = compare(old, table, workloads.REL_TOL, workloads.ROUTE_TOL)
    print(f"{len(table)} ops, {len(old)} before: {len(named)} moved beyond the gates, "
          f"{bytes_only} moved their report bytes alone; "
          f"largest constant move {largest:.1e} relative")
    print("\n".join(named) or "no op moved beyond the gates")
    return 1 if named else 0


if __name__ == "__main__":
    sys.exit(main())
