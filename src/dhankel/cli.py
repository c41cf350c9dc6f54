"""Command-line interface.

Subcommands:
  transform      forward-transform a named test function, emit spectral CSV
  modulus-check  evaluate the Zygmund conditions of a modulus family
  indices        estimate the Matuszewska-Orlicz growth indices
  titchmarsh     run one theorem verification, emit a report (CSV/JSON)
  synth          synthesize spectral data from a tail target, emit CSV

Exit codes: 0 completed, 1 usage error, 2 precondition failed (e.g. a
Zygmund condition the requested run needs does not hold).

Identical configurations produce bit-identical report files: grids are
deterministic, nothing is timestamped, floats are written with repr.
BLAS/OpenMP parallelism follows the standard variables (OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS, MKL_NUM_THREADS), which must be set before Python
starts.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .modulus import (ConstructionError, estimate_indices, parse_family,
                      zygmund_Z0_constant, zygmund_Z1_constant)
from .specfun import DomainError
from .titchmarsh import (THEOREMS, PreconditionError, SynthesisSpec,
                         VerificationReport, dyadic_h_grid, make_resolved_grids,
                         make_tail_grid, restrict_h_grid, synthesize_from_tail)
from .transform import FunctionSpec, forward
from .quadrature import build_weighted_grid

USAGE_ERROR, PRECONDITION_ERROR = 1, 2

MODULUS_GRAMMAR = ("modulus grammar: power:gamma=0.5 | "
                   "power_log:gamma=0.5,theta=1.0 | log_inverse:beta=2.0 | "
                   "power_logexponent:gamma=0.5,C=1.0,lambda=2.0 | "
                   "power_loglog:gamma=0.5,lambda=1.0")


# Accepted range of every float option; NaN and +-inf fail every one.
_FLOAT_RANGES = {
    "alpha": (lambda v: v > 0.25, "> 1/4"),
    "p": (lambda v: 1.0 < v <= 2.0, "in (1, 2]"),
    "nu": (lambda v: v >= 1.0, ">= 1"),
    "radius_x": (lambda v: v > 0.0, "> 0"),
    "radius_lambda": (lambda v: v > 0.0, "> 0"),
    "delta0": (lambda v: v > 0.0, "> 0"),
}


def _check_floats(ns) -> None:
    """Raise DomainError for the first float option of a parsed namespace
    outside its range; options the subcommand does not carry, or leaves at
    None, are skipped."""
    for name, (in_range, rule) in _FLOAT_RANGES.items():
        v = getattr(ns, name, None)
        if v is not None and not (math.isfinite(v) and in_range(v)):
            raise DomainError(f"--{name.replace('_', '-')} must be finite and "
                              f"{rule}, got {v!r}")


TEST_FUNCTIONS = {
    "sqrt_gauss_annulus": lambda x: np.exp(-((np.sqrt(np.abs(x)) - 2.0) / 0.5) ** 2),
    "gauss": lambda x: np.exp(-x * x),
    "x2_gauss": lambda x: x * x * np.exp(-x * x),
}


def _test_function(name: str) -> FunctionSpec:
    if name not in TEST_FUNCTIONS:
        raise DomainError(f"unknown test function {name!r}; "
                          f"choose from {sorted(TEST_FUNCTIONS)}")
    return FunctionSpec(evaluator=TEST_FUNCTIONS[name], support_radius=16.0)


def _write(path: str, text: str) -> None:
    if path:
        Path(path).write_text(text, newline="")
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _cmd_transform(ns) -> int:
    f = _test_function(ns.function)
    xg = build_weighted_grid(ns.alpha, ns.radius_x, ns.panels, ns.order)
    lg = build_weighted_grid(ns.alpha, ns.radius_lambda, ns.panels, ns.order)
    spec = forward(f, xg, lg)
    _write(ns.output, spec.to_csv())
    return 0


def _cmd_modulus_check(ns) -> int:
    w = parse_family(ns.modulus, ns.delta0)
    conditions = {"Z0": zygmund_Z0_constant, "Z1": zygmund_Z1_constant}
    constants = {name: condition(w) for name, condition in conditions.items()
                 if ns.condition in (name, "both")}
    for name, c in constants.items():
        print(f"{name}=divergent" if c == math.inf else f"{name}={c:.6g}")
    return PRECONDITION_ERROR if math.inf in constants.values() else 0


def _cmd_indices(ns) -> int:
    w = parse_family(ns.modulus, ns.delta0)
    est = estimate_indices(w)
    print(f"m={est.m_lower:.2f} M={est.M_upper:.2f} converged={est.converged}")
    return 0


def _cmd_synth(ns) -> int:
    w = parse_family(ns.modulus, ns.delta0)
    lg = make_tail_grid(ns.alpha, ns.radius_lambda, ns.order)
    spec = SynthesisSpec(modulus=w, alpha=ns.alpha,
                         lambda_radius=ns.radius_lambda, profile=ns.profile)
    g = synthesize_from_tail(spec, lg)
    _write(ns.output, g.to_csv())
    return 0


def titchmarsh_grids(ns):
    """(x grid or None, frequency grid) of a titchmarsh run: a resolved pair
    when the run evaluates a function in physical space (function input or
    --route-check), else a tail grid alone."""
    if ns.synth.startswith("function:") or ns.route_check:
        return make_resolved_grids(ns.alpha, ns.radius_x, ns.radius_lambda,
                                   ns.order)
    return None, make_tail_grid(ns.alpha, ns.radius_lambda, ns.order)


def titchmarsh_report(ns, xg, lg) -> VerificationReport:
    """The report of a titchmarsh run on the grids titchmarsh_grids(ns)
    gives, with the run's settings in extra["config"]; notes on dropped h
    values and on a route check without a second route go to stderr."""
    w = parse_family(ns.modulus, ns.delta0)
    h_all = dyadic_h_grid(w.delta0, ns.h_max_exp, ns.h_min_exp)
    h_grid = restrict_h_grid(h_all, lg)
    if h_grid.size == 0:
        raise DomainError("no usable h: raise --radius-lambda or --h-max-exp")
    if h_grid.size < h_all.size:
        # fourier_Lnu judges partial norms over radii, not the h-ratio trace
        few = ("" if h_grid.size >= 3 or ns.theorem == "fourier_Lnu"
               else f"; the verdict rests on {h_grid.size} ratio(s)")
        print(f"note: {h_all.size - h_grid.size} h value(s) dropped "
              f"(tail 1/h beyond radius_lambda/4){few}", file=sys.stderr)

    profile = "smooth_tail" if ns.route_check else "sharp_tail"
    if ns.synth == "matched" or ns.synth.startswith("mismatched:"):
        w_tail = (w if ns.synth == "matched"
                  else parse_family(ns.synth.split(":", 1)[1], ns.delta0))
        src = synthesize_from_tail(
            SynthesisSpec(w_tail, ns.alpha, ns.radius_lambda, profile), lg)
    elif ns.synth.startswith("function:"):
        src = _test_function(ns.synth.split(":", 1)[1])
    else:
        raise DomainError(f"unknown --synth {ns.synth!r}; use matched, "
                          "mismatched:<modulus>, or function:<name>")

    verify, reads = THEOREMS[ns.theorem]
    rep = verify(src, w, h_grid, xg, lg, ns.p, ns.nu)
    if ns.route_check and rep.extra.get("route_agreement") is None:
        print(f"note: --route-check runs no second route for {ns.theorem}; "
              "the report has no route_agreement", file=sys.stderr)

    # only settings that shaped the run, and the node counts they produced
    config = {
        "alpha": ns.alpha, "radius_lambda": ns.radius_lambda,
        "lambda_nodes": lg.nodes.size, "order": ns.order,
        "modulus": ns.modulus, "theorem": ns.theorem,
        "h_max_exp": ns.h_max_exp, "h_min_exp": ns.h_min_exp,
        "synth": ns.synth, **{name: getattr(ns, name) for name in reads},
    }
    if xg is not None:
        config.update(radius_x=ns.radius_x, x_nodes=xg.nodes.size)
    rep.extra["config"] = config
    return rep


def _cmd_titchmarsh(ns) -> int:
    rep = titchmarsh_report(ns, *titchmarsh_grids(ns))
    text = rep.to_json() if ns.format == "json" else rep.to_csv()
    if ns.output:
        _write(ns.output, text)
    print(f"VERDICT={rep.verdict}")
    return 0


def _add_modulus_args(p) -> None:
    p.add_argument("--modulus", required=True, help=MODULUS_GRAMMAR)
    p.add_argument("--delta0", type=float, default=None,
                   help="domain endpoint (family default when omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhankel",
        description="Deformed Hankel transform and Titchmarsh-type verification")
    sub = parser.add_subparsers(dest="cmd", required=True)

    tr = sub.add_parser("transform", help="forward-transform a test function")
    tr.add_argument("--function", default="sqrt_gauss_annulus",
                    choices=sorted(TEST_FUNCTIONS))
    tr.add_argument("--alpha", type=float, default=0.5)
    tr.add_argument("--radius-x", type=float, default=20.0)
    tr.add_argument("--radius-lambda", type=float, default=64.0)
    tr.add_argument("--panels", type=int, default=64)
    tr.add_argument("--order", type=int, default=16)
    tr.add_argument("--output", default="")
    tr.set_defaults(func=_cmd_transform)

    mc = sub.add_parser("modulus-check", help="Zygmund condition constants")
    _add_modulus_args(mc)
    mc.add_argument("--condition", default="both", choices=["Z0", "Z1", "both"])
    mc.set_defaults(func=_cmd_modulus_check)

    ix = sub.add_parser("indices", help="Matuszewska-Orlicz index estimates")
    _add_modulus_args(ix)
    ix.set_defaults(func=_cmd_indices)

    sy = sub.add_parser("synth", help="synthesize spectral data from a tail")
    _add_modulus_args(sy)
    sy.add_argument("--alpha", type=float, default=0.5)
    sy.add_argument("--radius-lambda", type=float, default=64.0)
    sy.add_argument("--order", type=int, default=16)
    sy.add_argument("--profile", default="sharp_tail",
                    choices=["sharp_tail", "smooth_tail"])
    sy.add_argument("--output", default="")
    sy.set_defaults(func=_cmd_synth)

    tm = sub.add_parser("titchmarsh", help="run one theorem verification")
    _add_modulus_args(tm)
    tm.add_argument("--theorem", default="main1_part1", choices=list(THEOREMS))
    tm.add_argument("--alpha", type=float, default=0.5)
    tm.add_argument("--p", type=float, default=2.0)
    tm.add_argument("--nu", type=float, default=2.0, help="fourier_Lnu only")
    tm.add_argument("--radius-x", type=float, default=20.0)
    tm.add_argument("--radius-lambda", type=float, default=64.0)
    tm.add_argument("--order", type=int, default=16)
    tm.add_argument("--h-max-exp", type=int, default=3)
    tm.add_argument("--h-min-exp", type=int, default=10)
    tm.add_argument("--synth", default="matched",
                    help="matched | mismatched:<modulus> | function:<name>")
    tm.add_argument("--route-check", action="store_true",
                    help="use resolved x/frequency grids; the theorems with "
                         "a second difference-norm route also report the "
                         "two routes' agreement")
    tm.add_argument("--output", default="")
    tm.add_argument("--format", default="csv", choices=["csv", "json"])
    tm.set_defaults(func=_cmd_titchmarsh)
    return parser


# Built once: parsing does not change the parser, and in-process callers
# would otherwise rebuild every subcommand's parser on each call.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        ns = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        _check_floats(ns)
        return ns.func(ns)
    except PreconditionError as exc:
        print(f"precondition failed [{exc.condition}]: {exc}", file=sys.stderr)
        return PRECONDITION_ERROR
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(MODULUS_GRAMMAR, file=sys.stderr)
        return USAGE_ERROR
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
