#!/usr/bin/env python3
"""Run the full theorem-verification matrix and write reports.

For each modulus in the sweep this runs the forward tail estimate, the p = 2
converse (with the two-route difference-norm consistency check), the
equivalence, the transform-integrability criterion, and the cumulative-weight
variants, writing one JSON report per cell into --outdir and printing a
verdict table.  Each cell is a `dhankel titchmarsh` run (cells() gives its
arguments) through the CLI's own code, on one tail grid and one resolved
(40, 512) pair shared by the cells, so its report is byte-identical to what
`dhankel titchmarsh <its arguments> --format json` writes.  A bad
--radius-lambda ends with one `error:` line and exit code 1.  Everything is
deterministic; rerunning reproduces identical report bytes.
"""

import argparse
import sys
import time
from pathlib import Path

from dhankel import cli

MODULI = [
    "power:gamma=0.3",
    "power:gamma=0.5",
    "power:gamma=0.7",
    "power_log:gamma=0.5,theta=1.0",
    "power_log:gamma=0.5,theta=-1.0",
    "log_inverse:beta=2.0",
]

# report name suffix -> titchmarsh arguments of the tail cells
TAIL_CELLS = {"main1_part1": ["--theorem", "main1_part1"],
              "main1_part2": ["--theorem", "main1_part2"],
              "equivalence": ["--theorem", "equivalence"],
              "fourier_nu1.5": ["--theorem", "fourier_Lnu", "--nu", "1.5"],
              "main2_part2": ["--theorem", "main2_part2"],
              "inclusion": ["--theorem", "inclusion_Womega"]}
ROUTE_CELL = ["--theorem", "main1_part2", "--route-check", "--radius-x", "40",
              "--radius-lambda", "512", "--h-min-exp", "6"]


def cells(radius_lambda):
    """(report name, titchmarsh arguments) of every cell, in table order."""
    for modulus in MODULI:
        tag = modulus.replace(":", "_").replace(",", "_").replace("=", "")
        for name, args in TAIL_CELLS.items():
            yield (f"{tag}__{name}", ["--modulus", modulus, *args,
                                      "--radius-lambda", repr(radius_lambda)])
        yield f"{tag}__part2_route_check", ["--modulus", modulus, *ROUTE_CELL]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", type=Path, default=Path("out"))
    ap.add_argument("--radius-lambda", type=float, default=8192.0)
    ns = ap.parse_args(argv)
    ns.outdir.mkdir(parents=True, exist_ok=True)

    parser = cli.build_parser()
    grids, rows = {}, []
    try:
        for name, args in cells(ns.radius_lambda):
            start = time.perf_counter()
            cell = parser.parse_args(["titchmarsh", *args])
            # all tail cells share their grid, all route cells their pair
            if cell.route_check not in grids:
                grids[cell.route_check] = cli.titchmarsh_grids(cell)
            try:
                rep, notes = cli.titchmarsh_report(cell, *grids[cell.route_check])
                verdict = rep.verdict
                (ns.outdir / f"{name}.json").write_text(rep.to_json(), newline="")
                sys.stderr.writelines(notes)
            except cli.PreconditionError as exc:
                verdict = f"precondition:{exc.condition}"
            rows.append((name, verdict, time.perf_counter() - start))
    except cli.DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    width = max(len(r[0]) for r in rows)
    print(f"\n{'run'.ljust(width)}  {'verdict':22s}  {'time':>11}")
    for name, verdict, dt in rows:
        print(f"{name.ljust(width)}  {verdict:22s}  {dt * 1e3:8.1f} ms")
    print(f"\nreports in {ns.outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
