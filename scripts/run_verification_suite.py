#!/usr/bin/env python3
"""Run the full theorem-verification matrix and write reports.

For each modulus in the sweep this runs the forward tail estimate, the p = 2
converse (with the two-route difference-norm consistency check), the
equivalence, the transform-integrability criterion, and the cumulative-weight
variants, writing one JSON report per cell into --outdir and printing a
verdict table.  Each report's extra["config"] records the grids and the h
grid that shaped its cell: radii, node counts and h exponents.  Everything
is deterministic; rerunning reproduces identical report bytes.
"""

import argparse
import sys
import time
from pathlib import Path

import dhankel as dh

MODULI = [
    "power:gamma=0.3",
    "power:gamma=0.5",
    "power:gamma=0.7",
    "power_log:gamma=0.5,theta=1.0",
    "power_log:gamma=0.5,theta=-1.0",
    "log_inverse:beta=2.0",
]

ALPHA = 0.5
# (h_max_exp, h_min_exp) of the tail cells' and the route cells' h grids;
# verify_fourier_Lnu's default h grid spans the same exponents as the tail's
H_TAIL, H_ROUTE = (3, 10), (3, 6)


def run_cell(name, fn, config, outdir, rows):
    start = time.perf_counter()
    try:
        rep = fn()
        verdict = rep.verdict
        rep.extra["config"] = config
        (outdir / f"{name}.json").write_text(rep.to_json(), newline="")
    except dh.PreconditionError as exc:
        verdict = f"precondition:{exc.condition}"
    rows.append((name, verdict, time.perf_counter() - start))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", type=Path, default=Path("out"))
    ap.add_argument("--radius-lambda", type=float, default=8192.0)
    ns = ap.parse_args(argv)
    ns.outdir.mkdir(parents=True, exist_ok=True)

    lg_tail = dh.make_tail_grid(ALPHA, ns.radius_lambda)
    xg_route, lg_route = dh.make_resolved_grids(ALPHA, 40.0, 512.0)
    h_full = dh.dyadic_h_grid(0.5, *H_TAIL)
    h_route = dh.dyadic_h_grid(0.5, *H_ROUTE)
    # the settings that shaped each kind of cell, and the node counts
    tail = {"alpha": ALPHA, "radius_lambda": ns.radius_lambda,
            "lambda_nodes": lg_tail.nodes.size, "h_max_exp": H_TAIL[0],
            "h_min_exp": H_TAIL[1], "profile": "sharp_tail"}
    route = {"alpha": ALPHA, "radius_x": xg_route.radius,
             "x_nodes": xg_route.nodes.size, "radius_lambda": lg_route.radius,
             "lambda_nodes": lg_route.nodes.size, "h_max_exp": H_ROUTE[0],
             "h_min_exp": H_ROUTE[1], "profile": "smooth_tail"}

    rows = []
    for text in MODULI:
        w = dh.parse_family(text)
        tag = text.replace(":", "_").replace(",", "_").replace("=", "")
        g = dh.synthesize_from_tail(
            dh.SynthesisSpec(w, ALPHA, ns.radius_lambda, "sharp_tail"), lg_tail)

        run_cell(f"{tag}__main1_part1",
                 lambda: dh.verify_main1_part1(g, w, 2.0, h_full),
                 tail, ns.outdir, rows)
        run_cell(f"{tag}__main1_part2",
                 lambda: dh.verify_main1_part2(g, w, h_full),
                 tail, ns.outdir, rows)
        run_cell(f"{tag}__equivalence",
                 lambda: dh.verify_equivalence(g, w, h_full),
                 tail, ns.outdir, rows)
        run_cell(f"{tag}__fourier_nu1.5",
                 lambda: dh.verify_fourier_Lnu(g, w, 2.0, 1.5),
                 tail, ns.outdir, rows)
        run_cell(f"{tag}__main2_part2",
                 lambda: dh.verify_main2(g, w, "part2", h_full),
                 tail, ns.outdir, rows)
        run_cell(f"{tag}__inclusion",
                 lambda: dh.verify_inclusion_Womega(g, w, 2.0, h_full),
                 tail, ns.outdir, rows)

        g_smooth = dh.synthesize_from_tail(
            dh.SynthesisSpec(w, ALPHA, lg_route.radius, "smooth_tail"),
            lg_route)
        run_cell(f"{tag}__part2_route_check",
                 lambda: dh.verify_main1_part2(g_smooth, w, h_route,
                                               xgrid=xg_route),
                 route, ns.outdir, rows)

    width = max(len(r[0]) for r in rows)
    print(f"\n{'run'.ljust(width)}  {'verdict':22s}  {'time':>11}")
    for name, verdict, dt in rows:
        print(f"{name.ljust(width)}  {verdict:22s}  {dt * 1e3:8.1f} ms")
    print(f"\nreports in {ns.outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
