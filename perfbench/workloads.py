"""The three benchmark workloads: op menus, seeded passes and op execution.

An op is one verification a user asks for.  A pass is one round of a
workload's op slots in a seeded order; where a slot leaves the modulus open,
the seed draws it from a fixed menu.  ``menu()`` lists every op a workload's
generator can emit, and reference.json holds the expected outcome of each
(written by record_reference.py at the commit that defined the benchmark).

Importing this module imports numpy and dhankel, so BLAS thread caps must be
set before it is imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import dhankel as dh
import dhankel.cli

# The six moduli of scripts/run_verification_suite.py.
MODULI = ("power:gamma=0.3", "power:gamma=0.5", "power:gamma=0.7",
          "power_log:gamma=0.5,theta=1.0", "power_log:gamma=0.5,theta=-1.0",
          "log_inverse:beta=2.0")
# log_inverse fails Z0 before any kernel work is done, so the workloads that
# draw a modulus per op leave it out: every draw then costs the same.
DRAWN_MODULI = MODULI[:5]
ALPHAS = ("0.3", "0.5", "0.7")

REL_TOL = 1e-9          # estimated_constant against the reference
ROUTE_TOL = 1e-6        # largest accepted route_agreement

_PRECONDITION = re.compile(r"precondition failed \[([^\]]+)\]")


@dataclass(frozen=True)
class Op:
    key: str                  # identifier, also the key of reference.json
    argv: tuple = ()          # CLI arguments (tail_suite, route_cold)
    theorem: str = ""         # library call (warm_apply)
    modulus: str = ""
    function: str = ""
    p: float = 2.0


@dataclass(frozen=True)
class Outcome:
    exit: int                         # 0 completed, 2 precondition failed
    verdict: str | None = None
    condition: str | None = None
    constant: float | None = None
    route_agreement: float | None = None
    digest: str | None = None         # sha256 of the report bytes
    error: str | None = None

    def as_reference(self) -> dict:
        return {"exit": self.exit, "verdict": self.verdict,
                "condition": self.condition,
                "estimated_constant": self.constant}


def mismatch(outcome: Outcome, ref: dict | None) -> str | None:
    """Why an outcome is wrong, or None when it matches the reference."""
    if outcome.error is not None:
        return outcome.error
    if ref is None:
        return "no reference outcome recorded for this op"
    if outcome.exit != ref["exit"]:
        return f"exit {outcome.exit}, expected {ref['exit']}"
    if outcome.condition != ref["condition"]:
        return f"precondition {outcome.condition}, expected {ref['condition']}"
    if outcome.verdict != ref["verdict"]:
        return f"verdict {outcome.verdict}, expected {ref['verdict']}"
    want, got = ref["estimated_constant"], outcome.constant
    if want is not None and not (
            got == want or (math.isfinite(want) and got is not None
                            and abs(got - want) <= REL_TOL * abs(want))):
        return f"estimated_constant {got!r}, expected {want!r}"
    if outcome.route_agreement is not None and not outcome.route_agreement <= ROUTE_TOL:
        return f"route_agreement {outcome.route_agreement!r} above {ROUTE_TOL}"
    return None


def _report_outcome(data: bytes) -> Outcome:
    rep = json.loads(data)
    return Outcome(exit=0, verdict=rep["verdict"],
                   constant=float(rep["estimated_constant"]),
                   route_agreement=rep["extra"].get("route_agreement"),
                   digest=hashlib.sha256(data).hexdigest())


def _cli_op(*argv: str) -> Op:
    return Op(key=" ".join(argv), argv=argv)


def run_cli(argv: tuple, report: Path) -> tuple[Outcome, float]:
    """One `dhankel titchmarsh` run in-process; returns (outcome, seconds)."""
    with contextlib.suppress(FileNotFoundError):
        report.unlink()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dhankel.cli.main([*argv, "--format", "json", "--output", str(report)])
    seconds = time.perf_counter() - start
    if code == 2:
        found = _PRECONDITION.search(err.getvalue())
        return Outcome(exit=2, condition=found.group(1) if found else None), seconds
    if code != 0:
        return Outcome(exit=code, error=f"exit {code}: {err.getvalue().strip()[-200:]}"), seconds
    outcome = _report_outcome(report.read_bytes())
    if f"VERDICT={outcome.verdict}" not in out.getvalue().splitlines():
        outcome = replace(outcome, error="printed VERDICT line differs from the report")
    return outcome, seconds


class CliWorkload:
    """Ops are `dhankel titchmarsh` command lines run through cli.main."""

    def setup(self, workdir: Path, seed: int):
        workdir.mkdir(parents=True, exist_ok=True)
        return workdir / "report.json", []

    def execute(self, op: Op, report: Path) -> tuple[Outcome, float]:
        return run_cli(op.argv, report)


class TailSuite(CliWorkload):
    """The verification-suite matrix on tail-only grids, as CLI runs."""

    name = "tail_suite"
    THEOREMS = (("main1_part1",), ("main1_part2",), ("equivalence",),
                ("fourier_Lnu", "--nu", "1.5"), ("main2_part2",),
                ("inclusion_Womega",))
    RADII = ("8192", "65536")

    def menu(self) -> list[Op]:
        return [_cli_op("titchmarsh", "--theorem", *th, "--modulus", m,
                        "--alpha", a, "--radius-lambda", r)
                for m in MODULI for th in self.THEOREMS
                for a in ALPHAS for r in self.RADII]

    def make_pass(self, rng) -> list[Op]:
        ops = self.menu()
        rng.shuffle(ops)
        return ops


class RouteCold(CliWorkload):
    """`--route-check` CLI runs; each builds fresh grids and a cold kernel matrix."""

    name = "route_cold"
    SLOTS = ([("--theorem", "main1_part2", "--alpha", a, "--radius-lambda", r)
              for a in ALPHAS for r in ("64", "128")]
             + [("--theorem", "main1_part1", "--synth", "function:gauss",
                 "--p", "1.5", "--alpha", a, "--radius-lambda", r)
                for a in ALPHAS for r in ("64", "128")]
             + [("--theorem", "equivalence", "--alpha", "0.5",
                 "--radius-x", "40", "--radius-lambda", "512")])

    @staticmethod
    def _op(slot: tuple, modulus: str) -> Op:
        return _cli_op("titchmarsh", "--route-check", "--modulus", modulus, *slot)

    def menu(self) -> list[Op]:
        return [self._op(s, m) for s in self.SLOTS for m in DRAWN_MODULI]

    def make_pass(self, rng) -> list[Op]:
        ops = [self._op(s, rng.choice(DRAWN_MODULI)) for s in self.SLOTS]
        rng.shuffle(ops)
        return ops


# The test functions of the dhankel CLI, defined here so that the inputs are
# the benchmark's own.
FUNCTIONS = {
    "sqrt_gauss_annulus": lambda x: np.exp(-((np.sqrt(np.abs(x)) - 2.0) / 0.5) ** 2),
    "gauss": lambda x: np.exp(-x * x),
    "x2_gauss": lambda x: x * x * np.exp(-x * x),
}


@dataclass
class WarmState:
    xgrid: object
    lgrid: object


class WarmApply:
    """Library verifications that reuse one resolved grid pair and its cached kernel."""

    name = "warm_apply"
    ALPHA, RADIUS_X, RADIUS_LAMBDA = 0.5, 40.0, 512.0
    SLOTS = ([(th, f, p) for f in FUNCTIONS
              for th, p in (("main1_part1", 1.5), ("main1_part1", 2.0),
                            ("inclusion_Womega", 1.5), ("fourier_Lnu", 2.0))]
             + [("route_main1_part2", "", 2.0), ("route_equivalence", "", 2.0)])

    @staticmethod
    def _op(slot: tuple, modulus: str) -> Op:
        theorem, function, p = slot
        key = f"warm_apply {theorem} modulus={modulus} function={function} p={p}"
        return Op(key=key, theorem=theorem, modulus=modulus, function=function, p=p)

    def menu(self) -> list[Op]:
        return [self._op(s, m) for s in self.SLOTS for m in DRAWN_MODULI]

    def make_pass(self, rng) -> list[Op]:
        ops = [self._op(s, rng.choice(DRAWN_MODULI)) for s in self.SLOTS]
        rng.shuffle(ops)
        return ops

    def setup(self, workdir: Path, seed: int):
        """Build the resolved pair and fill its kernel cache with one pass.

        Returns the state and the warm-up (op, outcome) pairs for checking.
        """
        xg, lg = dh.make_resolved_grids(self.ALPHA, self.RADIUS_X, self.RADIUS_LAMBDA)
        state = WarmState(xg, lg)
        warm = [(op, self.execute(op, state)[0])
                for op in self.make_pass(random.Random(seed))]
        return state, warm

    def execute(self, op: Op, state: WarmState) -> tuple[Outcome, float]:
        start = time.perf_counter()
        try:
            text = self._verify(op, state).to_json()
        except dh.PreconditionError as exc:
            return Outcome(exit=2, condition=exc.condition), time.perf_counter() - start
        seconds = time.perf_counter() - start
        return _report_outcome(text.encode()), seconds

    def _verify(self, op: Op, state: WarmState):
        xg, lg = state.xgrid, state.lgrid
        w = dh.parse_family(op.modulus)
        if op.theorem.startswith("route_"):
            g = dh.synthesize_from_tail(
                dh.SynthesisSpec(w, self.ALPHA, lg.radius, "smooth_tail"), lg)
            h = dh.dyadic_h_grid(w.delta0, 3, 6)
            if op.theorem == "route_main1_part2":
                return dh.verify_main1_part2(g, w, h, xgrid=xg)
            return dh.verify_equivalence(g, w, h, xgrid=xg)
        f = dh.FunctionSpec(evaluator=FUNCTIONS[op.function], support_radius=16.0)
        h = dh.dyadic_h_grid(w.delta0, 3, 10)
        h = h[1.0 / h <= lg.radius / 4.0]
        if op.theorem == "main1_part1":
            return dh.verify_main1_part1(f, w, op.p, h, xgrid=xg, lgrid=lg)
        if op.theorem == "inclusion_Womega":
            return dh.verify_inclusion_Womega(f, w, op.p, h, xgrid=xg, lgrid=lg)
        return dh.verify_fourier_Lnu(f, w, op.p, 1.5, xgrid=xg, lgrid=lg, h_grid=h)


WORKLOADS = {wl.name: wl for wl in (TailSuite(), RouteCold(), WarmApply())}
