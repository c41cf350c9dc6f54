"""Verification harness for the Titchmarsh-type equivalences.

Each verifier estimates the constant in one inequality of the theory on a
dyadic h grid and renders a verdict from the ratio trace:

  * ``bounded``      — ratios stay in a narrow band (< 10x spread) or decay
                       toward h -> 0 (the inequality holds with margin);
  * ``unbounded``    — ratios grow monotonically by >= 10x as h -> 0;
  * ``inconclusive`` — anything else;
  * ``hypothesis_failed`` — an integrability hypothesis checked numerically
                       does not hold (informative outcome, not an error).

Theorem constants are never assumed: the harness reports the sampled
constant and its stability, which is the testable content of "there exists
a constant C".

Verifiers accept spectral data directly wherever the inequality only sees
the transform side; synthesized spectral data is its own transform by
construction, so no x-space grid is required for tail-only runs.  The
two-route consistency check of the difference norm (spectral fast path vs
physical space) runs whenever an x grid is supplied and is reported in
``extra["route_agreement"]``.

Divergence of the lower Zygmund integral is detected at desk scale only up
to rates: integrals diverging slower than any power (iterated-log rates,
e.g. for the cumulative weight of ln^{-2}(e/t)) classify as finite here;
reports carry the sampled constants so the caller can judge.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import erf

from .modulus import (ConstructionError, ModulusSpec, build_W_omega,
                      check_almost_monotone, zygmund_Z0_constant,
                      zygmund_Z1_constant)
from .quadrature import (WeightedGrid, build_graded_grid, build_weighted_grid,
                         panel_integrals, weight_constant)
from .specfun import DomainError
from .transform import (SpectralData, diff_norms, forward, round_trip_norms,
                        spectral_mass, tail_energy, tail_truncated)


class PreconditionError(RuntimeError):
    """A verifier's hypothesis on the modulus or the data does not hold."""

    def __init__(self, message: str, condition: str):
        super().__init__(message)
        self.condition = condition


@dataclass(frozen=True)
class VerificationReport:
    theorem_id: str
    h_grid: np.ndarray
    ratios: np.ndarray
    estimated_constant: float
    verdict: str
    truncation_flags: np.ndarray
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "theorem_id": self.theorem_id,
            "h_grid": [float(h) for h in self.h_grid],
            "ratios": [float(r) for r in self.ratios],
            "estimated_constant": float(self.estimated_constant),
            "verdict": self.verdict,
            "truncation_flags": [bool(b) for b in self.truncation_flags],
            "extra": _jsonable(self.extra),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# theorem={self.theorem_id} verdict={self.verdict} "
                  f"estimated_constant={self.estimated_constant!r}\n")
        for key in sorted(self.extra):
            buf.write(f"# {key}={_scalar_str(self.extra[key])}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["h", "ratio", "truncated"])
        for h, r, t in zip(self.h_grid, self.ratios, self.truncation_flags):
            writer.writerow([repr(float(h)), repr(float(r)), bool(t)])
        return buf.getvalue()


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    return obj


def _scalar_str(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, dict):
        return json.dumps(_jsonable(v), sort_keys=True)
    return str(v)


def alpha_regime(alpha: float) -> str:
    """Label for how the translation operator is grounded at this alpha."""
    return "spectral-translation" if alpha <= 0.5 else "kernel-translation"


# ----------------------------- verdict rule -----------------------------

def render_verdict(h_grid, ratios) -> str:
    """Verdict from a ratio trace ordered by the h grid.

    Monotone growth by >= 10x toward h -> 0 is unbounded; a < 10x band with
    no growing trend, or ratios decaying toward h -> 0 (the bound holds with
    vanishing margin), is bounded; anything else is inconclusive.
    """
    order = np.argsort(np.asarray(h_grid, dtype=float))[::-1]  # h descending
    r = np.asarray(ratios, dtype=float)[order]
    if not np.all(np.isfinite(r)) or np.any(r < 0):
        return "inconclusive"
    rmax = float(np.max(r))
    if rmax == 0.0:
        return "bounded"
    up = bool(np.all(r[1:] >= r[:-1] * 0.98))
    down = bool(np.all(r[1:] <= r[:-1] * 1.02))
    growth = r[-1] / r[0] if r[0] > 0 else math.inf
    rmin = float(np.min(r))
    spread = rmax / rmin if rmin > 0 else math.inf
    if up and growth >= 10.0:
        return "unbounded"
    if down:
        return "bounded"
    if spread < 10.0 and not (up and growth > 3.0):
        return "bounded"
    return "inconclusive"


# ----------------------------- grids & h grids -----------------------------

def dyadic_h_grid(delta0: float, h_max_exp: int = 3, h_min_exp: int = 10) -> np.ndarray:
    """h_k = delta0 * 2^{-k}, k = h_max_exp .. h_min_exp (largest h first)."""
    if not h_max_exp < h_min_exp:
        raise DomainError("h_max_exp must be smaller than h_min_exp")
    return delta0 * 2.0 ** -np.arange(h_max_exp, h_min_exp + 1, dtype=float)


def restrict_h_grid(h_grid, lgrid: WeightedGrid) -> np.ndarray:
    """Drop h whose tail 1/h falls in the unresolved quarter of the grid."""
    h_grid = np.asarray(h_grid, dtype=float)
    return h_grid[~tail_truncated(lgrid, h_grid)]


def make_tail_grid(alpha: float, radius: float, order: int = 16) -> WeightedGrid:
    """Geometric frequency grid for tail-energy work (no x-space dual)."""
    panels = max(8, int(math.ceil(math.log(radius / 0.25) / 0.065)))
    return build_weighted_grid(alpha, radius, panels, order,
                               grading="geometric", first_panel=0.25)


def make_resolved_grids(alpha: float, radius_x: float, radius_lambda: float,
                        order: int = 16):
    """(x grid, frequency grid) pair resolving the kernel's oscillations.

    Each panel sees at most 10 radians of kernel phase.  Use for runs that
    evaluate functions in physical space (inverse synthesis, the physical
    diff-norm route).
    """
    xg = build_graded_grid(alpha, radius_x, order, 10.0, radius_lambda)
    lg = build_graded_grid(alpha, radius_lambda, order, 10.0, radius_x)
    return xg, lg


# ----------------------------- synthesis -----------------------------

@dataclass(frozen=True)
class SynthesisSpec:
    """Configuration of the spectral-tail test-function generator."""

    modulus: ModulusSpec
    alpha: float
    lambda_radius: float
    profile: str = "sharp_tail"   # "sharp_tail" | "smooth_tail"

    def __post_init__(self):
        if not self.lambda_radius > 1:
            raise DomainError("lambda_radius must exceed 1")
        if self.profile not in ("sharp_tail", "smooth_tail"):
            raise DomainError(f"unknown profile {self.profile!r}")


def _phi_of(w: ModulusSpec):
    """Tail target Phi(y) = omega(min(1/y, delta0))^2, Phi(inf) = 0."""
    delta0 = w.delta0

    def phi(y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        fin = np.isfinite(y)
        t = np.minimum(1.0 / np.maximum(y[fin], 1e-300), delta0)
        out[fin] = np.asarray(w.evaluator(t), dtype=float) ** 2
        return out

    return phi


def synthesize_from_tail(spec: SynthesisSpec, lgrid: WeightedGrid) -> SpectralData:
    """Even nonnegative spectral data whose tail tracks Phi(y) = omega^2(1/y).

    sharp_tail assigns each node's cell the exact mass Phi(cell_lo) -
    Phi(cell_hi), with the outermost cell absorbing the full remaining mass,
    so partial sums telescope: the discrete tail from any cell boundary
    equals Phi there exactly (two-sided match up to half-cell jitter).

    smooth_tail samples an analytic windowed density instead: full density on
    a middle band, erf roll-offs below ~16/(2 delta0) and near the grid edge.
    Its tail is one-sided (<= Phi everywhere, = Phi on the full-density band);
    in exchange the synthesized function decays fast in physical space, which
    tail-matching cell masses cannot provide.
    """
    w = spec.modulus
    if lgrid.alpha != spec.alpha:
        raise DomainError("grid alpha does not match the synthesis spec")
    if abs(lgrid.radius - spec.lambda_radius) > 1e-9 * spec.lambda_radius:
        raise DomainError("grid radius does not match lambda_radius")
    cert = check_almost_monotone(w, "almost_decreasing")
    if not cert.passed:
        raise ConstructionError(
            "omega(t)/t is not almost decreasing; not a usable modulus")
    phi = _phi_of(w)
    y = lgrid.pos_nodes
    if spec.profile == "sharp_tail":
        lo = lgrid.cell_lo.copy()
        hi = lgrid.cell_hi.copy()
        hi[-1] = np.inf                      # outermost cell keeps all remaining mass
        # clip cells where Phi wobbles upward (log factors near delta0);
        # genuinely invalid inputs already failed the almost-decreasing check
        mass = np.maximum(phi(lo) - phi(hi), 0.0)
        g2_pos = mass / (2.0 * lgrid.pos_weights)
    else:
        radius = lgrid.radius
        center_lo = 8.0 / w.delta0
        sigma_lo = center_lo / 5.66
        floor_lo = 1.3 / w.delta0
        center_hi = 0.72 * radius
        sigma_hi = 0.055 * radius
        if center_lo + 3.0 * sigma_lo >= center_hi - 3.0 * sigma_hi:
            raise DomainError(
                "lambda_radius too small for the smooth profile windows")
        dens = np.zeros_like(y)
        band = (y > floor_lo) & (y < 0.96 * radius)
        yb = y[band]
        eps = 1e-5
        dphi = (phi(yb * (1 + eps)) - phi(yb * (1 - eps))) / (2.0 * yb * eps)
        u_win = 0.5 * (1.0 + erf((yb - center_lo) / (math.sqrt(2.0) * sigma_lo)))
        w_win = 0.5 * (1.0 + erf((center_hi - yb) / (math.sqrt(2.0) * sigma_hi)))
        dens[band] = np.maximum(-dphi, 0.0) * u_win * w_win
        # density is d(tail)/dy; both signs share it: g(y)^2 = dens/(2 c_a y^{2a-1})
        ca = weight_constant(spec.alpha)
        g2_pos = dens / (2.0 * (ca * y ** (2.0 * spec.alpha - 1.0)))
    g_pos = np.sqrt(g2_pos)
    values = np.concatenate([g_pos[::-1], g_pos])
    return SpectralData(alpha=spec.alpha, lambda_grid=lgrid, values=values)


# ----------------------------- seminorm -----------------------------

def _as_spectral(f_or_g, xgrid, lgrid):
    """(spectral data, x-grid samples) of verifier input: spectral data as
    given with no samples, or a function sampled once on the x grid and
    transformed from those samples."""
    if isinstance(f_or_g, SpectralData):
        return f_or_g, None
    if xgrid is None or lgrid is None:
        raise DomainError("function input needs both grids")
    fx = np.asarray(f_or_g(xgrid.nodes), dtype=float)
    return forward(fx, xgrid, lgrid), fx


def _check_h_grid(w: ModulusSpec, h_grid: np.ndarray) -> None:
    if np.any(h_grid <= 0) or np.any(h_grid > w.delta0):
        raise DomainError("h grid must lie in (0, delta0]")


def _diff_trace(f_or_g, w: ModulusSpec, p: float, h_grid: np.ndarray,
                xgrid: WeightedGrid | None, lgrid: WeightedGrid | None):
    """(spectral data, |T_h f - f|_{p,a} per h): Plancherel route for
    spectral data (p = 2), honest physical route for function input."""
    _check_h_grid(w, h_grid)
    g, fx = _as_spectral(f_or_g, xgrid, lgrid)
    fast, phys = diff_norms(g, h_grid, p, fx=fx, xgrid=xgrid)
    return g, (fast if fx is None else phys)


# ----------------------------- verifiers -----------------------------

def _base_extra(alpha: float, w: ModulusSpec) -> dict:
    return {
        "alpha": alpha,
        "alpha_regime": alpha_regime(alpha),
        "modulus_family": w.family_tag,
        "modulus_params": {k: v for k, v in w.params.items() if k != "source"},
        "delta0": w.delta0,
        # hypotheses on [delta0, inf) are vacuous for grid-truncated data
        "assumed_bounded_below_beyond_delta0": True,
        "assumed_square_integrable_tail": True,
    }


def _lower_zygmund(w: ModulusSpec) -> float:
    z0 = zygmund_Z0_constant(w)
    if not math.isfinite(z0):
        raise PreconditionError(
            "lower Zygmund condition Z0 fails: int_0^t omega(x)/x dx "
            "is not dominated by omega(t)", condition="Z0")
    return z0


def verify_main1_part1(f_or_g, w: ModulusSpec, p: float, h_grid,
                       xgrid: WeightedGrid | None = None,
                       lgrid: WeightedGrid | None = None) -> VerificationReport:
    """Forward direction: spectral tail energy bounded by omega^q(h).

    Requires the lower Zygmund condition (Z0) on omega and a finite
    Lipschitz-class seminorm of the data on the h grid.
    """
    if not 1.0 < p <= 2.0:
        raise DomainError(f"p must lie in (1, 2], got {p}")
    z0 = _lower_zygmund(w)
    h_grid = np.asarray(h_grid, dtype=float)
    # spectral input only has the p = 2 fast path for the seminorm check
    sem_p = 2.0 if isinstance(f_or_g, SpectralData) else p
    g, diffs = _diff_trace(f_or_g, w, sem_p, h_grid, xgrid, lgrid)
    return _forward_report(g, w, p, h_grid, z0, diffs)


def _forward_report(g: SpectralData, w: ModulusSpec, p: float, h_grid, z0: float,
                    diffs: np.ndarray) -> VerificationReport:
    """main1_part1's report from the difference-norm trace of its data."""
    q = p / (p - 1.0)
    omega_h = np.asarray(w.evaluator(h_grid), dtype=float)
    sem = float(np.max(diffs / omega_h))
    if not math.isfinite(sem):
        raise PreconditionError("Lipschitz seminorm is not finite on the h grid",
                                condition="dlip_seminorm")
    ratios = tail_energy(g, h_grid, q) / omega_h ** q
    extra = _base_extra(g.alpha, w)
    extra.update({"p": p, "q": q, "zygmund_Z0": z0, "dlip_seminorm": sem})
    return VerificationReport(
        theorem_id="main1_part1", h_grid=h_grid, ratios=ratios,
        estimated_constant=float(np.max(ratios)),
        verdict=render_verdict(h_grid, ratios),
        truncation_flags=tail_truncated(g.lambda_grid, h_grid), extra=extra)


def verify_main1_part2(g: SpectralData, w: ModulusSpec, h_grid,
                       xgrid: WeightedGrid | None = None) -> VerificationReport:
    """Converse at p = 2: tail decay omega^2(h) forces the Lipschitz bound.

    Requires the upper Zygmund condition (Z1) on omega and the tail
    hypothesis tail(1/h) <= C omega^2(h) on the h grid (checked first).
    Ratios use the spectral fast path; when an x grid is supplied the
    physical route is evaluated too and the worst relative disagreement is
    reported as extra["route_agreement"].
    """
    return _converse(g, w, np.asarray(h_grid, dtype=float), xgrid)[0]


def _converse(g: SpectralData, w: ModulusSpec, h_grid: np.ndarray,
              xgrid: WeightedGrid | None):
    """(main1_part2's report, the Plancherel trace of g it rests on)."""
    z1 = zygmund_Z1_constant(w)
    if not math.isfinite(z1):
        raise PreconditionError(
            "upper Zygmund condition Z1 fails: int_t^d0 omega(x)/x^2 dx "
            "is not dominated by omega(t)/t", condition="Z1")
    omega_h = np.asarray(w.evaluator(h_grid), dtype=float)
    tail_ratios = tail_energy(g, h_grid, 2.0) / omega_h ** 2
    if render_verdict(h_grid, tail_ratios) == "unbounded":
        raise PreconditionError(
            "tail hypothesis fails: tail energy is not dominated by omega^2(h)",
            condition="tail_hypothesis")
    agreement = None
    if xgrid is None:
        trace = diff_norms(g, h_grid)[0]
    else:
        # the Plancherel sum checked against an honest x-space norm
        trace, fast, phys = round_trip_norms(g, h_grid, xgrid)
        agreement = float(np.max(np.abs(fast - phys) / np.maximum(fast, 1e-300)))
    ratios = trace / omega_h
    extra = _base_extra(g.alpha, w)
    extra.update({"p": 2.0, "zygmund_Z1": z1,
                  "tail_constant": float(np.max(tail_ratios)),
                  "route_agreement": agreement})
    report = VerificationReport(
        theorem_id="main1_part2", h_grid=h_grid, ratios=ratios,
        estimated_constant=float(np.max(ratios)),
        verdict=render_verdict(h_grid, ratios),
        truncation_flags=tail_truncated(g.lambda_grid, h_grid), extra=extra)
    return report, trace


def verify_equivalence(g: SpectralData, w: ModulusSpec, h_grid,
                       xgrid: WeightedGrid | None = None) -> VerificationReport:
    """Both directions at p = 2; bounded only when each direction is.

    At p = 2 the forward seminorm check reads the same Plancherel trace of g
    as the converse, so the trace is computed once, by the converse, after
    the hypotheses of both directions have been checked.
    """
    z0 = _lower_zygmund(w)
    h_grid = np.asarray(h_grid, dtype=float)
    _check_h_grid(w, h_grid)
    conv, trace = _converse(g, w, h_grid, xgrid)
    fwd = _forward_report(g, w, 2.0, h_grid, z0, trace)
    both = "bounded" if (fwd.verdict == "bounded" and conv.verdict == "bounded") \
        else ("unbounded" if "unbounded" in (fwd.verdict, conv.verdict)
              else "inconclusive")
    extra = _base_extra(g.alpha, w)
    extra.update({"forward_verdict": fwd.verdict, "converse_verdict": conv.verdict,
                  "forward_constant": fwd.estimated_constant,
                  "converse_constant": conv.estimated_constant,
                  "converse_ratios": [float(r) for r in conv.ratios],
                  "route_agreement": conv.extra["route_agreement"]})
    return replace(fwd, theorem_id="equivalence", verdict=both, extra=extra,
                   estimated_constant=max(fwd.estimated_constant,
                                          conv.estimated_constant))


# ----------------------------- L_nu membership -----------------------------

_NU_DECADES = 12
_NU_GAUSS = 12


def check_transform_integrability(w: ModulusSpec, alpha: float, p: float,
                                  nu: float) -> dict:
    """Numerical check of the two conditions driving L_nu membership:

      (i)  omega^nu(t) / t^{2a(1-nu/q)+1} integrable on [0, 1];
      (ii) omega^nu(h) / h^{2a(1-nu/q)} stays bounded as h -> 0.

    Integrability is declared when the decade contributions of (i) decay by
    at least 2% per decade over the last three decades; (ii) when the
    sampled sequence is non-increasing (within 2%) over the last four
    decades.
    """
    q = p / (p - 1.0)
    s = 2.0 * alpha * (1.0 - nu / q)

    def integrand(u):  # omega^nu(t) / t^{s+1} dt in u = ln t
        t = np.exp(u)
        return np.asarray(w.evaluator(t), dtype=float) ** nu / t ** (s + 1.0) * t

    # decade d covers (delta0*10^-d, delta0*10^-(d-1)], d = 1 .. _NU_DECADES;
    # scalar powers, since numpy's array power can differ in the last bit
    log_edges = np.array([math.log(w.delta0 * 10.0 ** -d)
                          for d in range(_NU_DECADES, -1, -1)])
    sums = panel_integrals(integrand, log_edges, _NU_GAUSS)[::-1]
    r = sums[1:] / sums[:-1]
    integrable = bool(np.all(r[-3:] <= 0.98))
    hs = w.delta0 * 10.0 ** -np.arange(0, _NU_DECADES + 1, dtype=float)
    seq = np.asarray(w.evaluator(hs), dtype=float) ** nu / hs ** s
    limit_ok = bool(np.all(seq[1:][-4:] <= seq[:-1][-4:] * 1.02))
    return {"integrable": integrable, "limit_bounded": limit_ok,
            "accepted": integrable and limit_ok, "exponent": s,
            "decade_ratios": r[-3:].tolist()}


def verify_fourier_Lnu(f_or_g, w: ModulusSpec, p: float, nu: float,
                       xgrid: WeightedGrid | None = None,
                       lgrid: WeightedGrid | None = None,
                       h_grid=None) -> VerificationReport:
    """L_{nu,a} membership of the transform of a Lipschitz-class function.

    When the two integrability conditions fail, the verdict is
    ``hypothesis_failed``; otherwise the nu-norm of the transform is summed
    over nested frequency radii R/8, R/4, R/2, R and must grow < 5% per
    doubling over the last two doublings.
    """
    if not 1.0 < p <= 2.0:
        raise DomainError(f"p must lie in (1, 2], got {p}")
    q = p / (p - 1.0)
    if not 1.0 <= nu <= q:
        raise DomainError(f"nu must lie in [1, q] = [1, {q}], got {nu}")
    _lower_zygmund(w)
    g = _as_spectral(f_or_g, xgrid, lgrid)[0]
    lam = g.lambda_grid
    if h_grid is None:
        h_grid = restrict_h_grid(dyadic_h_grid(w.delta0), lam)
    h_grid = np.asarray(h_grid, dtype=float)
    cond = check_transform_integrability(w, g.alpha, p, nu)
    radii = lam.radius / np.array([8.0, 4.0, 2.0, 1.0])
    partial = spectral_mass(g, nu, radii, beyond=False) ** (1.0 / nu)
    growth = partial[1:] / partial[:-1] - 1.0
    extra = _base_extra(g.alpha, w)
    extra.update({"p": p, "q": q, "nu": nu, "conditions": cond,
                  "radii": radii.tolist(), "partial_norms": partial.tolist(),
                  "growth_per_doubling": growth.tolist()})
    if not cond["accepted"]:
        verdict = "hypothesis_failed"
        constant = math.inf
    else:
        verdict = "bounded" if np.all(growth[-2:] < 0.05) else "inconclusive"
        constant = float(partial[-1])
    ratios = partial / partial[-1]
    return VerificationReport(
        theorem_id="fourier_Lnu", h_grid=h_grid, ratios=ratios,
        estimated_constant=constant, verdict=verdict,
        truncation_flags=tail_truncated(lam, h_grid), extra=extra)


# ----------------------------- W_omega variants -----------------------------

def verify_main2(f_or_g, w: ModulusSpec, mode: str, h_grid,
                 xgrid: WeightedGrid | None = None,
                 lgrid: WeightedGrid | None = None) -> VerificationReport:
    """Run the tail estimate (mode="part1") or its converse (mode="part2")
    with the cumulative weight W_omega in place of omega."""
    if mode not in ("part1", "part2"):
        raise DomainError(f"mode must be part1 or part2, got {mode!r}")
    try:
        w_cum = build_W_omega(w)
    except ConstructionError as exc:
        raise PreconditionError(str(exc), condition="womega_divergent")
    if mode == "part1":
        rep = verify_main1_part1(f_or_g, w_cum, 2.0, h_grid, xgrid=xgrid, lgrid=lgrid)
        theorem_id = "main2_part1"
    else:
        rep = verify_main1_part2(f_or_g, w_cum, h_grid, xgrid=xgrid)
        theorem_id = "main2_part2"
    extra = dict(rep.extra, base_modulus_family=w.family_tag,
                 base_modulus_params=dict(w.params))
    return replace(rep, theorem_id=theorem_id, extra=extra)


def verify_inclusion_Womega(f_or_g, w: ModulusSpec, p: float, h_grid,
                            xgrid: WeightedGrid | None = None,
                            lgrid: WeightedGrid | None = None) -> VerificationReport:
    """Inclusion of the omega class in the W_omega class.

    W_omega dominates omega up to a constant, so the seminorm against
    W_omega cannot exceed a fixed multiple of the one against omega; the
    report carries both seminorms and their ratio.
    """
    try:
        w_cum = build_W_omega(w)
    except ConstructionError as exc:
        raise PreconditionError(str(exc), condition="womega_divergent")
    h_grid = np.asarray(h_grid, dtype=float)
    # one trace, divided by both moduli (they share delta0)
    g, diffs = _diff_trace(f_or_g, w, p, h_grid, xgrid, lgrid)
    trace_w = diffs / np.asarray(w.evaluator(h_grid), dtype=float)
    trace_cum = diffs / np.asarray(w_cum.evaluator(h_grid), dtype=float)
    sem_w, sem_cum = float(np.max(trace_w)), float(np.max(trace_cum))
    ratios = trace_cum / trace_w
    extra = _base_extra(g.alpha, w)
    extra.update({"p": p, "seminorm_omega": sem_w, "seminorm_womega": sem_cum,
                  "seminorm_ratio": sem_cum / sem_w})
    return VerificationReport(
        theorem_id="inclusion_Womega", h_grid=h_grid, ratios=ratios,
        estimated_constant=float(sem_cum / sem_w),
        verdict=render_verdict(h_grid, ratios),
        truncation_flags=tail_truncated(g.lambda_grid, h_grid), extra=extra)
