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

Every verifier takes spectral data, or a function with both grids, and an
h grid in (0, delta0].  Synthesized spectral data is its own transform by
construction, so no x-space grid is required for tail-only runs.  The
two-route consistency check of the difference norm (spectral fast path vs
physical space) of the converse runs whenever an x grid is supplied and is
reported in ``extra["route_agreement"]``.

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

from .modulus import (ModulusSpec, build_W_omega, check_almost_monotone,
                      check_transform_integrability, zygmund_Z0_constant,
                      zygmund_Z1_constant)
from .quadrature import (MAX_PANELS, WeightedGrid, build_graded_grid,
                         check_grid_inputs, conjugate_exponent, weight_constant)
from .specfun import DomainError, PreconditionError
from .transform import (SpectralData, diff_norms, forward, round_trip_norms,
                        spectral_mass, tail_energy, tail_truncated)


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
        return _dumps(vars(self), indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# theorem={self.theorem_id} verdict={self.verdict} "
                  f"estimated_constant={self.estimated_constant!r}\n")
        for key in sorted(self.extra):
            buf.write(f"# {key}={_scalar_str(self.extra[key])}\n")
        writer = csv.writer(buf, lineterminator="\n")
        if "radii" in self.extra:   # fourier_Lnu: ratios per radius, not per h
            writer.writerow(["radius", "ratio"])
            writer.writerows([repr(float(radius)), repr(float(r))]
                             for radius, r in zip(self.extra["radii"], self.ratios))
        else:
            writer.writerow(["h", "ratio", "truncated"])
            writer.writerows([repr(float(h)), repr(float(r)), bool(t)] for h, r, t
                             in zip(self.h_grid, self.ratios, self.truncation_flags))
        return buf.getvalue()


def _dumps(obj, **kwargs) -> str:
    """JSON with sorted keys; numpy arrays and scalars encode as lists and
    Python scalars (np.float64 is a float already)."""
    return json.dumps(obj, sort_keys=True, default=lambda o: o.tolist(), **kwargs)


def _scalar_str(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, dict):
        return _dumps(v)
    return str(v)


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

# Largest |k| of a dyadic h grid: 2^{-k} stays a normal double.
_H_EXP_LIMIT = 1000


def dyadic_h_grid(delta0: float, h_max_exp: int = 3, h_min_exp: int = 10) -> np.ndarray:
    """h_k = delta0 * 2^{-k}, k = h_max_exp .. h_min_exp (largest h first).

    Integer exponents only; every h and 1/h must be a positive finite double.
    """
    if not all(isinstance(k, (int, np.integer)) for k in (h_max_exp, h_min_exp)):
        raise DomainError(f"h exponents must be integers, got {h_max_exp!r} "
                          f"and {h_min_exp!r}")
    if not h_max_exp < h_min_exp:
        raise DomainError("h_max_exp must be smaller than h_min_exp")
    if not (-_H_EXP_LIMIT <= h_max_exp and h_min_exp <= _H_EXP_LIMIT):
        raise DomainError(f"h exponents must lie in [-{_H_EXP_LIMIT}, "
                          f"{_H_EXP_LIMIT}], got {h_max_exp} and {h_min_exp}")
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        h = delta0 * 2.0 ** -np.arange(h_max_exp, h_min_exp + 1, dtype=float)
        if not np.all((h > 0) & np.isfinite(h) & np.isfinite(1.0 / h)):
            raise DomainError("h grid delta0 * 2^-k leaves the range of doubles")
    return h


def restrict_h_grid(h_grid, lgrid: WeightedGrid) -> np.ndarray:
    """Drop h whose tail 1/h falls in the unresolved quarter of the grid."""
    h_grid = np.asarray(h_grid, dtype=float)
    return h_grid[~tail_truncated(lgrid, h_grid)]


def make_tail_grid(alpha: float, radius: float, order: int = 16) -> WeightedGrid:
    """Geometric frequency grid for tail-energy work (no x-space dual): its
    panels grow by one ratio from 0.25 to R, at least 8 of them and one per
    0.065 of ln(R / 0.25); R must exceed that first panel edge."""
    check_grid_inputs(alpha, radius, order)
    panels = max(8, math.ceil(math.log(radius / 0.25) / 0.065))
    rho = (radius / 0.25) ** (1.0 / (panels - 1))
    if not rho > 1.0:
        raise DomainError("the radius of a tail grid must exceed 0.25, its first "
                          f"panel edge, got {radius!r}")
    return build_graded_grid(alpha, radius, order, 0.25, rho)


def make_resolved_grids(alpha: float, radius_x: float, radius_lambda: float,
                        order: int = 16):
    """(x grid, frequency grid) pair resolving the kernel's oscillations.

    Both grids grow by one ratio rho = exp(10 / sqrt(R_x R_lambda)), and
    each starts with a panel of min(25 / R_dual, R / 4), R_dual the other
    grid's radius.  The kernel phase 2 sqrt(lambda x) then changes by at
    most 10 radians across any panel while the dual variable stays within
    R_dual.  Use for runs that evaluate functions in physical space (inverse
    synthesis, the physical diff-norm route).
    """
    for radius in (radius_x, radius_lambda):
        check_grid_inputs(alpha, radius, order)
    product = radius_x * radius_lambda
    try:
        rho = math.exp(10.0 / math.sqrt(product))
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"radius_x * radius_lambda = {product!r} "
                          "is too small for a finite panel ratio rho") from None
    # a product above 100 gives each grid ln(product / 25) / ln rho panels
    if not math.log(product / 25.0) < MAX_PANELS * math.log(rho):
        raise DomainError(f"radius_x * radius_lambda = {product!r} is too large: a "
                          f"grid would need {MAX_PANELS} panels or more")
    return tuple(build_graded_grid(alpha, r, order, min(25.0 / dual, r / 4.0), rho)
                 for r, dual in ((radius_x, radius_lambda), (radius_lambda, radius_x)))


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
    """Tail target Phi(y) = omega(min(1/y, delta0))^2 on finite y."""
    return lambda y: w(np.minimum(1.0 / np.maximum(y, 1e-300), w.delta0)) ** 2


def _erf(x: np.ndarray) -> np.ndarray:
    # math.erf entry by entry where it is not +-1: from |x| = 6 on it rounds
    # to +-1 exactly, and most window entries lie there
    out = np.sign(x)
    inner = np.abs(x) < 6.0
    out[inner] = np.frompyfunc(math.erf, 1, 1)(x[inner]).astype(float)
    return out


def synthesize_from_tail(spec: SynthesisSpec, lgrid: WeightedGrid) -> SpectralData:
    """Even nonnegative spectral data whose tail tracks Phi(y) = omega^2(1/y).

    sharp_tail assigns each node's cell [lo, hi] the exact mass Phi(lo) -
    Phi(hi), with the outermost cell absorbing the full remaining mass,
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
        raise DomainError("omega(t)/t is not almost decreasing; not a usable modulus")
    phi = _phi_of(w)
    y = lgrid.pos_nodes
    if spec.profile == "sharp_tail":
        phi_hi = phi(lgrid.cell_hi)
        phi_lo = np.concatenate([phi(np.zeros(1)), phi_hi[:-1]])
        phi_hi[-1] = 0.0                     # outermost cell keeps all remaining mass
        # clip cells where Phi wobbles upward (log factors near delta0);
        # genuinely invalid inputs already failed the almost-decreasing check
        mass = np.maximum(phi_lo - phi_hi, 0.0)
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
        u_win = 0.5 * (1.0 + _erf((yb - center_lo) / (math.sqrt(2.0) * sigma_lo)))
        w_win = 0.5 * (1.0 + _erf((center_hi - yb) / (math.sqrt(2.0) * sigma_hi)))
        dens[band] = np.maximum(-dphi, 0.0) * u_win * w_win
        # density is d(tail)/dy; both signs share it: g(y)^2 = dens/(2 c_a y^{2a-1})
        ca = weight_constant(spec.alpha)
        g2_pos = dens / (2.0 * (ca * y ** (2.0 * spec.alpha - 1.0)))
    g_pos = np.sqrt(g2_pos)
    values = np.concatenate([g_pos[::-1], g_pos])
    return SpectralData(lambda_grid=lgrid, values=values)


# ----------------------------- verifier input -----------------------------

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


def _checked_h(w: ModulusSpec, h_grid) -> np.ndarray:
    """The h grid as a float array; it must be at most 1-D and nonempty, and
    every h must lie in (0, delta0]."""
    h_grid = np.asarray(h_grid, dtype=float)
    if h_grid.ndim > 1:
        raise DomainError("h grid must be a scalar or 1-D")
    if h_grid.size == 0:
        raise DomainError("h grid is empty")
    if not np.all((h_grid > 0) & (h_grid <= w.delta0)):
        raise DomainError("h grid must lie in (0, delta0]")
    return h_grid


def _report(theorem_id: str, g: SpectralData, w: ModulusSpec, h_grid: np.ndarray,
            ratios: np.ndarray, extra: dict, constant: float | None = None,
            verdict: str | None = None) -> VerificationReport:
    """A verifier's report on data g against w: the constant defaults to the
    largest ratio, the verdict to render_verdict's; extra adds to the setting."""
    return VerificationReport(
        theorem_id=theorem_id, h_grid=h_grid, ratios=ratios,
        estimated_constant=float(np.max(ratios)) if constant is None else constant,
        verdict=render_verdict(h_grid, ratios) if verdict is None else verdict,
        truncation_flags=tail_truncated(g.lambda_grid, h_grid),
        extra={"alpha": g.alpha, "modulus_family": w.family_tag,
               "modulus_params": dict(w.params), "delta0": w.delta0, **extra})


def _lower_zygmund(w: ModulusSpec) -> float:
    z0 = zygmund_Z0_constant(w)
    if not math.isfinite(z0):
        raise PreconditionError(
            "lower Zygmund condition Z0 fails: int_0^t omega(x)/x dx "
            "is not dominated by omega(t)", condition="Z0")
    return z0


# ----------------------------- verifiers -----------------------------

def verify_main1_part1(f_or_g, w: ModulusSpec, p: float, h_grid,
                       xgrid: WeightedGrid | None = None,
                       lgrid: WeightedGrid | None = None) -> VerificationReport:
    """Forward direction: spectral tail energy bounded by omega^q(h),
    q = p/(p - 1).

    Requires the lower Zygmund condition (Z0) on omega and a finite
    Lipschitz-class seminorm of the data at p on the h grid.  Takes spectral
    data, whose seminorm is the Plancherel sum and so exists at p = 2 only,
    or a function with both grids (seminorm at any p in (1, 2]); spectral
    data at p != 2 is a DomainError.
    """
    q = conjugate_exponent(p)
    h_grid = _checked_h(w, h_grid)
    z0 = _lower_zygmund(w)
    g, fx = _as_spectral(f_or_g, xgrid, lgrid)
    diffs = diff_norms(g, h_grid, p, fx=fx, xgrid=xgrid)
    ratios, sem = _forward(g, w, p, h_grid, diffs)
    return _report("main1_part1", g, w, h_grid, ratios,
                   {"p": p, "q": q, "zygmund_Z0": z0, "dlip_seminorm": sem})


def _forward(g: SpectralData, w: ModulusSpec, p: float, h_grid: np.ndarray,
             diffs: np.ndarray):
    """(tail_q(1/h) / omega^q(h), the seminorm max diffs / omega(h)) of g,
    q = p/(p - 1); an omega^q(h) below the normal doubles is a DomainError."""
    q = conjugate_exponent(p)
    omega_h = w(h_grid)
    omega_q = omega_h ** q
    if np.any(omega_q < np.finfo(float).tiny):
        raise DomainError(f"omega(h)^q leaves the normal doubles at p = {p!r} "
                          f"(q = {q!r}); p is too close to 1")
    sem = float(np.max(diffs / omega_h))
    if not math.isfinite(sem):
        raise PreconditionError("Lipschitz seminorm is not finite on the h grid",
                                condition="dlip_seminorm")
    return tail_energy(g, h_grid, q) / omega_q, sem


def verify_main1_part2(f_or_g, w: ModulusSpec, h_grid,
                       xgrid: WeightedGrid | None = None,
                       lgrid: WeightedGrid | None = None) -> VerificationReport:
    """Converse at p = 2: tail decay omega^2(h) forces the Lipschitz bound.

    Requires the upper Zygmund condition (Z1) on omega and the tail
    hypothesis tail(1/h) <= C omega^2(h) on the h grid (checked first).
    Takes spectral data, or a function with both grids, which is sampled on
    the x grid and transformed.  Ratios use the spectral fast path; when an
    x grid is supplied the physical route is evaluated too and the worst
    relative disagreement is reported as extra["route_agreement"].
    """
    h_grid = _checked_h(w, h_grid)
    g = _as_spectral(f_or_g, xgrid, lgrid)[0]
    ratios, _, extra = _converse(g, w, h_grid, xgrid)
    return _report("main1_part2", g, w, h_grid, ratios, extra)


def _converse(g: SpectralData, w: ModulusSpec, h_grid: np.ndarray,
              xgrid: WeightedGrid | None):
    """(main1_part2's ratios, the Plancherel trace they divide, its extra)."""
    z1 = zygmund_Z1_constant(w)
    if not math.isfinite(z1):
        raise PreconditionError(
            "upper Zygmund condition Z1 fails: int_t^d0 omega(x)/x^2 dx "
            "is not dominated by omega(t)/t", condition="Z1")
    omega_h = w(h_grid)
    tail_ratios = tail_energy(g, h_grid, 2.0) / omega_h ** 2
    if render_verdict(h_grid, tail_ratios) == "unbounded":
        raise PreconditionError(
            "tail hypothesis fails: tail energy is not dominated by omega^2(h)",
            condition="tail_hypothesis")
    agreement = None
    if xgrid is None:
        trace = diff_norms(g, h_grid)
    else:
        # the Plancherel sum checked against an honest x-space norm
        trace, fast, phys = round_trip_norms(g, h_grid, xgrid)
        agreement = float(np.max(np.abs(fast - phys) / np.maximum(fast, 1e-300)))
    return trace / omega_h, trace, {"p": 2.0, "zygmund_Z1": z1,
                                    "tail_constant": float(np.max(tail_ratios)),
                                    "route_agreement": agreement}


def verify_equivalence(f_or_g, w: ModulusSpec, h_grid,
                       xgrid: WeightedGrid | None = None,
                       lgrid: WeightedGrid | None = None) -> VerificationReport:
    """Both directions at p = 2; bounded only when each direction is.  Takes
    spectral data or a function with both grids, as main1_part2 does.

    At p = 2 the forward seminorm check reads the same Plancherel trace of
    the data as the converse, so the trace is computed once, by the
    converse, after the hypotheses of both directions have been checked.
    """
    h_grid = _checked_h(w, h_grid)
    _lower_zygmund(w)
    g = _as_spectral(f_or_g, xgrid, lgrid)[0]
    conv, trace, conv_extra = _converse(g, w, h_grid, xgrid)
    fwd = _forward(g, w, 2.0, h_grid, trace)[0]
    verdicts = (render_verdict(h_grid, fwd), render_verdict(h_grid, conv))
    both = ("bounded" if verdicts == ("bounded", "bounded")
            else "unbounded" if "unbounded" in verdicts else "inconclusive")
    fwd_c, conv_c = float(np.max(fwd)), float(np.max(conv))
    return _report("equivalence", g, w, h_grid, fwd,
                   {"forward_verdict": verdicts[0], "converse_verdict": verdicts[1],
                    "forward_constant": fwd_c, "converse_constant": conv_c,
                    "converse_ratios": [float(r) for r in conv],
                    "route_agreement": conv_extra["route_agreement"]},
                   constant=max(fwd_c, conv_c), verdict=both)


# ----------------------------- L_nu membership -----------------------------

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
    q = conjugate_exponent(p)
    if not 1.0 <= nu <= q:
        raise DomainError(f"nu must lie in [1, q] = [1, {q}], got {nu}")
    if h_grid is not None:
        h_grid = _checked_h(w, h_grid)
    _lower_zygmund(w)
    g = _as_spectral(f_or_g, xgrid, lgrid)[0]
    lam = g.lambda_grid
    if h_grid is None:
        h_grid = _checked_h(w, restrict_h_grid(dyadic_h_grid(w.delta0), lam))
    cond = check_transform_integrability(w, g.alpha, p, nu)
    radii = lam.radius / np.array([8.0, 4.0, 2.0, 1.0])
    partial = spectral_mass(g, nu, radii, beyond=False) ** (1.0 / nu)
    growth = partial[1:] / partial[:-1] - 1.0
    verdict = ("hypothesis_failed" if not cond["accepted"] else
               "bounded" if np.all(growth[-2:] < 0.05) else "inconclusive")
    constant = float(partial[-1]) if cond["accepted"] else math.inf
    return _report("fourier_Lnu", g, w, h_grid, partial / partial[-1],
                   {"p": p, "q": q, "nu": nu, "conditions": cond,
                    "radii": radii.tolist(), "partial_norms": partial.tolist(),
                    "growth_per_doubling": growth.tolist()},
                   constant=constant, verdict=verdict)


# ----------------------------- W_omega variants -----------------------------

def verify_main2(f_or_g, w: ModulusSpec, mode: str, h_grid,
                 xgrid: WeightedGrid | None = None,
                 lgrid: WeightedGrid | None = None) -> VerificationReport:
    """Run the tail estimate (mode="part1") or its converse (mode="part2")
    with the cumulative weight W_omega in place of omega, on spectral data
    or a function with both grids.  The report's modulus is W_omega, whose
    params name omega's family as "source"."""
    if mode not in ("part1", "part2"):
        raise DomainError(f"mode must be part1 or part2, got {mode!r}")
    h_grid = _checked_h(w, h_grid)
    w_cum = build_W_omega(w)
    rep = (verify_main1_part1(f_or_g, w_cum, 2.0, h_grid, xgrid=xgrid, lgrid=lgrid)
           if mode == "part1" else
           verify_main1_part2(f_or_g, w_cum, h_grid, xgrid=xgrid, lgrid=lgrid))
    return replace(rep, theorem_id=f"main2_{mode}")


def verify_inclusion_Womega(f_or_g, w: ModulusSpec, p: float, h_grid,
                            xgrid: WeightedGrid | None = None,
                            lgrid: WeightedGrid | None = None) -> VerificationReport:
    """Inclusion of the omega class in the W_omega class.

    W_omega dominates omega up to a constant, so the seminorm against
    W_omega cannot exceed a fixed multiple of the one against omega; the
    report carries both seminorms and their ratio.
    """
    h_grid = _checked_h(w, h_grid)
    w_cum = build_W_omega(w)
    # one trace, divided by both moduli (they share delta0)
    g, fx = _as_spectral(f_or_g, xgrid, lgrid)
    diffs = diff_norms(g, h_grid, p, fx=fx, xgrid=xgrid)
    trace_w = diffs / w(h_grid)
    trace_cum = diffs / w_cum(h_grid)
    sem_w, sem_cum = float(np.max(trace_w)), float(np.max(trace_cum))
    return _report("inclusion_Womega", g, w, h_grid, trace_cum / trace_w,
                   {"p": p, "seminorm_omega": sem_w, "seminorm_womega": sem_cum,
                    "seminorm_ratio": sem_cum / sem_w},
                   constant=sem_cum / sem_w)


# ----------------------------- theorem table -----------------------------

# theorem id -> its verifier's call on (data, modulus, h grid, x grid,
# frequency grid, p, nu); each call looks its verify_* up when it runs, so
# patching this module works (perfbench/tracing.py times them so)
THEOREMS = {
    "main1_part1": lambda s, w, h, xg, lg, p, nu: verify_main1_part1(
        s, w, p, h, xg, lg),
    "main1_part2": lambda s, w, h, xg, lg, p, nu: verify_main1_part2(
        s, w, h, xg, lg),
    "equivalence": lambda s, w, h, xg, lg, p, nu: verify_equivalence(
        s, w, h, xg, lg),
    "fourier_Lnu": lambda s, w, h, xg, lg, p, nu: verify_fourier_Lnu(
        s, w, p, nu, xg, lg, h),
    "main2_part1": lambda s, w, h, xg, lg, p, nu: verify_main2(
        s, w, "part1", h, xg, lg),
    "main2_part2": lambda s, w, h, xg, lg, p, nu: verify_main2(
        s, w, "part2", h, xg, lg),
    "inclusion_Womega": lambda s, w, h, xg, lg, p, nu: verify_inclusion_Womega(
        s, w, p, h, xg, lg),
}
