"""Command-line interface.

Subcommands:
  transform      forward-transform a named test function, emit spectral CSV
  modulus-check  evaluate the Zygmund conditions of a modulus family
  indices        estimate the Matuszewska-Orlicz growth indices
  titchmarsh     run one theorem verification, emit a report (CSV/JSON)
  synth          synthesize spectral data from a tail target, emit CSV

Options become values before a command runs: the parser also builds the
modulus and the --synth source, so bad option text is an error before any
grid is built.  Only main picks the exit code: 0 completed, 1 usage error
(DomainError), 2 precondition failed (PreconditionError).

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

from .modulus import (FAMILIES, estimate_indices, parse_family,
                      zygmund_Z0_constant, zygmund_Z1_constant)
from .specfun import DomainError, PreconditionError
from .titchmarsh import (THEOREMS, SynthesisSpec, VerificationReport,
                         dyadic_h_grid, make_resolved_grids, make_tail_grid,
                         restrict_h_grid, synthesize_from_tail)
from .transform import FunctionSpec, forward
from .quadrature import build_weighted_grid

USAGE_ERROR, PRECONDITION_ERROR = 1, 2

# the functions of transform --function and titchmarsh --synth function:<name>
TEST_FUNCTIONS = {name: FunctionSpec(evaluator=f, support_radius=16.0) for name, f in {
    "sqrt_gauss_annulus": lambda x: np.exp(-((np.sqrt(np.abs(x)) - 2.0) / 0.5) ** 2),
    "gauss": lambda x: np.exp(-x * x),
    "x2_gauss": lambda x: x * x * np.exp(-x * x),
}.items()}


def _write(path: str, text: str) -> None:
    if path:
        try:
            Path(path).write_text(text, newline="")
        except OSError as exc:
            raise DomainError(f"cannot write {path!r}: {exc.strerror or exc}") from None
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _cmd_transform(ns) -> None:
    xg = build_weighted_grid(ns.alpha, ns.radius_x, ns.panels, ns.order)
    lg = build_weighted_grid(ns.alpha, ns.radius_lambda, ns.panels, ns.order)
    _write(ns.output, forward(TEST_FUNCTIONS[ns.function], xg, lg).to_csv())


def _cmd_modulus_check(ns) -> None:
    conditions = {"Z0": zygmund_Z0_constant, "Z1": zygmund_Z1_constant}
    constants = {name: condition(ns.omega) for name, condition in conditions.items()
                 if ns.condition in (name, "both")}
    lines = [f"{name}=divergent" if c == math.inf else f"{name}={c:.6g}"
             for name, c in constants.items()]
    if math.inf in constants.values():  # named by the first divergent constant
        raise PreconditionError(", ".join(lines), max(constants, key=constants.get))
    print("\n".join(lines))


def _cmd_indices(ns) -> None:
    est = estimate_indices(ns.omega)
    print(f"m={est.m_lower:.2f} M={est.M_upper:.2f} converged={est.converged}")


def _cmd_synth(ns) -> None:
    lg = make_tail_grid(ns.alpha, ns.radius_lambda, ns.order)
    spec = SynthesisSpec(ns.omega, ns.alpha, ns.radius_lambda, ns.profile)
    _write(ns.output, synthesize_from_tail(spec, lg).to_csv())


def titchmarsh_grids(ns):
    """(x grid or None, frequency grid) of a titchmarsh run: a resolved pair
    for function input or --route-check, else a tail grid alone."""
    if isinstance(ns.source, FunctionSpec) or ns.route_check:
        return make_resolved_grids(ns.alpha, ns.radius_x, ns.radius_lambda, ns.order)
    return None, make_tail_grid(ns.alpha, ns.radius_lambda, ns.order)


def titchmarsh_report(ns, xg, lg) -> tuple[VerificationReport, list[str]]:
    """(report with the CLI's own settings in extra["config"], stderr notes to
    print once it is out, so an error is one line) of a run on
    titchmarsh_grids(ns)."""
    h_all = dyadic_h_grid(ns.omega.delta0, ns.h_max_exp, ns.h_min_exp)
    h_grid = restrict_h_grid(h_all, lg)
    if h_grid.size == 0:
        raise DomainError("no usable h: raise --radius-lambda or --h-max-exp")

    src = ns.source
    if not isinstance(src, FunctionSpec):
        profile = "smooth_tail" if ns.route_check else "sharp_tail"
        src = synthesize_from_tail(
            SynthesisSpec(src, ns.alpha, ns.radius_lambda, profile), lg)

    rep = THEOREMS[ns.theorem](src, ns.omega, h_grid, xg, lg, ns.p, ns.nu)
    notes = []
    if h_grid.size < h_all.size:
        # fourier_Lnu judges partial norms over radii, not the h-ratio trace
        few = ("" if h_grid.size >= 3 or ns.theorem == "fourier_Lnu"
               else f"; the verdict rests on {h_grid.size} ratio(s)")
        notes.append(f"note: {h_all.size - h_grid.size} h value(s) dropped "
                     f"(tail 1/h beyond radius_lambda/4){few}\n")
    if ns.route_check and rep.extra.get("route_agreement") is None:
        notes.append(f"note: --route-check runs no second route for {ns.theorem}; "
                     "the report has no route_agreement\n")

    # only what the CLI alone decided (the verifier's report holds the rest)
    # and the node counts it produced
    config = {"radius_lambda": ns.radius_lambda, "lambda_nodes": lg.nodes.size,
              "order": ns.order, "h_max_exp": ns.h_max_exp,
              "h_min_exp": ns.h_min_exp, "synth": ns.synth}
    if xg is not None:
        config.update(radius_x=ns.radius_x, x_nodes=xg.nodes.size)
    rep.extra["config"] = config
    return rep, notes


def _cmd_titchmarsh(ns) -> None:
    rep, notes = titchmarsh_report(ns, *titchmarsh_grids(ns))
    if ns.output:
        _write(ns.output, rep.to_json() if ns.format == "json" else rep.to_csv())
    sys.stderr.writelines(notes)
    print(f"VERDICT={rep.verdict}")


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors (subparsers' too) are one-line DomainErrors,
    and whose parse_args also gives a command the values of its option text."""

    def error(self, message):
        raise DomainError(message.removeprefix("argument "))

    def parse_args(self, args=None, namespace=None):
        ns = super().parse_args(args, namespace)
        if "modulus" in ns:
            ns.omega = parse_family(ns.modulus, ns.delta0)
        if "synth" in ns:  # the modulus of a synthesized tail, or a test function
            kind, colon, name = ns.synth.partition(":")
            if ns.synth == "matched":
                ns.source = ns.omega
            elif kind == "mismatched" and colon:
                ns.source = parse_family(name, ns.delta0)
            elif kind == "function" and name in TEST_FUNCTIONS:
                ns.source = TEST_FUNCTIONS[name]
            else:
                names = "|".join(TEST_FUNCTIONS)
                raise DomainError(f"unknown --synth {ns.synth!r}; use matched, "
                                  f"mismatched:<modulus> or function:<{names}>")
        return ns


def _float_in(rule: str, in_range):
    """argparse type of a float option: a finite number with in_range(value);
    anything else, NaN and +-inf included, is an error that states the rule."""
    def parse(text: str) -> float:
        try:
            v = float(text)
        except ValueError:
            v = math.nan
        if not (math.isfinite(v) and in_range(v)):
            raise argparse.ArgumentTypeError(f"must be finite and {rule}, got {text!r}")
        return v
    return parse


_POSITIVE = _float_in("> 0", lambda v: v > 0.0)


def _add_modulus_args(p) -> None:
    p.add_argument("--modulus", required=True, help=" | ".join(
        f"{tag}:" + ",".join(f"{name}=" for name in names)
        for tag, (names, *_) in FAMILIES.items()))
    p.add_argument("--delta0", type=_POSITIVE, default=None,
                   help="domain endpoint (family default when omitted)")


def _add_grid_args(p, radius_x: bool) -> None:
    """Options of transform, synth (no x grid, no --radius-x) and titchmarsh."""
    p.add_argument("--alpha", type=_float_in("> 1/4", lambda v: v > 0.25), default=0.5)
    if radius_x:
        p.add_argument("--radius-x", type=_POSITIVE, default=20.0)
    p.add_argument("--radius-lambda", type=_POSITIVE, default=64.0)
    p.add_argument("--order", type=int, default=16)
    p.add_argument("--output", default="")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dhankel", description="Deformed Hankel transform and "
                     "Titchmarsh-type verification")
    sub = parser.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("transform", help="forward-transform a test function")
    tr.add_argument("--function", default="sqrt_gauss_annulus",
                    choices=sorted(TEST_FUNCTIONS))
    _add_grid_args(tr, radius_x=True)
    tr.add_argument("--panels", type=int, default=64)
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
    _add_grid_args(sy, radius_x=False)
    sy.add_argument("--profile", default="sharp_tail",
                    choices=["sharp_tail", "smooth_tail"])
    sy.set_defaults(func=_cmd_synth)

    tm = sub.add_parser("titchmarsh", help="run one theorem verification")
    _add_modulus_args(tm)
    _add_grid_args(tm, radius_x=True)
    tm.add_argument("--theorem", default="main1_part1", choices=list(THEOREMS))
    tm.add_argument("--p", type=_float_in("in (1, 2]", lambda v: 1 < v <= 2), default=2.0)
    tm.add_argument("--nu", type=_float_in(">= 1", lambda v: v >= 1.0), default=2.0,
                    help="fourier_Lnu only")
    tm.add_argument("--h-max-exp", type=int, default=3)
    tm.add_argument("--h-min-exp", type=int, default=10)
    tm.add_argument("--synth", default="matched",
                    help="matched | mismatched:<modulus> | function:<name>")
    tm.add_argument("--route-check", action="store_true",
                    help="use resolved x/frequency grids; the theorems with a second "
                         "difference-norm route also report the two routes' agreement")
    tm.add_argument("--format", default="csv", choices=["csv", "json"])
    tm.set_defaults(func=_cmd_titchmarsh)
    return parser


# Built once, not on each of the many in-process calls of main.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        ns = _PARSER.parse_args(argv)
        ns.func(ns)
    except SystemExit:  # --help, after printing the usage
        return 0
    except PreconditionError as exc:
        print(f"precondition failed [{exc.condition}]: {exc}", file=sys.stderr)
        return PRECONDITION_ERROR
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
