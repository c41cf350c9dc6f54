"""Moduli of continuity: families, Zygmund conditions, growth indices, W_omega.

A modulus of continuity here is a positive continuous function on (0, delta0]
with limit 0 at the origin, almost increasing, and with omega(t)/t almost
decreasing.  The module provides:

  * built-in parametric families (power, power-log, ... ) plus a parser for
    the CLI family grammar `tag:name=value,...`;
  * almost-monotonicity certificates with a stability flag;
  * the two Zygmund integral conditions
        Z0:  int_0^t omega(x)/x dx      <= C omega(t)
        Z1:  int_t^d0 omega(x)/x^2 dx   <= C omega(t)/t
    returning the sampled constant or math.inf when the sup keeps growing
    as the grid extends toward 0 (divergence sentinel);
  * Matuszewska-Orlicz lower/upper index estimates m(omega), M(omega);
  * the cumulative weight W_omega(t) = int_0^t omega(s)/s ds as a new
    modulus (precomputed, monotone-interpolated).

Divergence detection is asymptotic in nature and desk-scale grids can only
see finitely far: integrands diverging slower than any power (e.g. the
iterated-log rate of int omega/s for omega = 1/ln(e/t)) classify as finite
here.  The sentinel rule is: the running sup grew by more than 10% on each
of the last three decade extensions of the t grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import conjugate_exponent, panel_integrals
from .specfun import DomainError, PreconditionError


FAMILY_PARAMS = {
    "power": ("gamma",),
    "power_log": ("gamma", "theta"),
    "power_loglog": ("gamma", "lambda"),
    "log_inverse": ("beta",),
    "power_logexponent": ("gamma", "C", "lambda"),
}

_LOGLOG_DELTA_MAX = math.exp(-1.0) * 0.95


@dataclass(frozen=True)
class ModulusSpec:
    """An evaluable modulus-of-continuity candidate on (0, delta0]."""

    evaluator: object
    delta0: float
    family_tag: str = "custom"
    params: dict = field(default_factory=dict)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = self.evaluator(t_arr)
        return float(out) if t_arr.ndim == 0 else out


@dataclass(frozen=True)
class MonotonicityCertificate:
    constant: float
    passed: bool


@dataclass(frozen=True)
class IndexEstimate:
    m_lower: float
    M_upper: float
    converged: bool


def _check_vanishes(w: ModulusSpec) -> None:
    ts = w.delta0 * 10.0 ** -np.arange(0, 13, dtype=float)
    with np.errstate(all="ignore"):     # non-finite values are rejected below
        vals = w(ts)
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
        raise DomainError("evaluator must be finite and positive on (0, delta0]")
    if not vals[-1] <= 0.05 * vals[0]:
        raise DomainError("candidate does not vanish at 0")


def make_family(tag: str, params: dict, delta0: float | None = None) -> ModulusSpec:
    """Construct a built-in modulus family; see FAMILY_PARAMS for the names."""
    if tag not in FAMILY_PARAMS:
        raise DomainError(f"unknown family {tag!r}; tag in {'/'.join(FAMILY_PARAMS)}")
    missing = set(FAMILY_PARAMS[tag]) - set(params)
    extra = set(params) - set(FAMILY_PARAMS[tag])
    if missing or extra:
        raise DomainError(
            f"family {tag!r} takes parameters {FAMILY_PARAMS[tag]}, got {sorted(params)}")
    p = {k: float(v) for k, v in params.items()}

    if delta0 is None:
        delta0 = 0.3 if tag == "power_loglog" else 0.5
    # estimate_indices probes down to delta0 * 5e-42, the deepest sample of any
    # check; below the normal doubles, ratios of omega lose digits or turn nan
    depth, tiny = 10.0 ** -_EPS_BOT_EXP * _M_T, np.finfo(float).tiny
    if not delta0 * depth >= tiny:
        raise DomainError(f"delta0 must be at least {tiny / depth:.3g}, got {delta0!r}")

    if tag == "power":
        g = p["gamma"]
        if not 0 < g <= 1:
            raise DomainError("power family needs gamma in (0, 1]")
        ev = lambda t: t ** g
    elif tag == "power_log":
        g, th = p["gamma"], p["theta"]
        if not 0 < g < 1:
            raise DomainError("power_log family needs gamma in (0, 1)")
        if not delta0 < 1:
            raise DomainError("power_log family needs delta0 < 1")
        ev = lambda t: t ** g * np.log(1.0 / t) ** th
    elif tag == "power_loglog":
        g, lam = p["gamma"], p["lambda"]
        if not 0 < g < 1:
            raise DomainError("power_loglog family needs gamma in (0, 1)")
        if not delta0 <= _LOGLOG_DELTA_MAX:
            raise DomainError(
                f"power_loglog needs delta0 <= {_LOGLOG_DELTA_MAX:.3f} (ln ln 1/t > 0)")
        ev = lambda t: t ** g * np.log(np.log(1.0 / t)) ** lam
    elif tag == "log_inverse":
        b = p["beta"]
        if not b > 1:
            raise DomainError("log_inverse family needs beta > 1")
        ev = lambda t: np.log(np.e / t) ** (-b)
    else:  # power_logexponent
        g, cc, lam = p["gamma"], p["C"], p["lambda"]
        if not 0 < g < 1:
            raise DomainError("power_logexponent family needs gamma in (0, 1)")
        if not lam > 0:
            raise DomainError("power_logexponent family needs lambda > 0")
        if not delta0 < 1:
            raise DomainError("power_logexponent family needs delta0 < 1")
        ev = lambda t: t ** (g + cc / np.log(1.0 / t) ** lam)

    w = ModulusSpec(evaluator=ev, delta0=delta0, family_tag=tag, params=p)
    _check_vanishes(w)
    return w


def parse_family(text: str, delta0: float | None = None) -> ModulusSpec:
    """Parse the CLI family grammar, e.g. ``power_log:gamma=0.5,theta=1.0``."""
    grammar = ("expected `tag:name=value,...` with tag in "
               + "/".join(FAMILY_PARAMS))
    tag, sep, rest = text.partition(":")
    if not sep or not tag:
        raise DomainError(f"cannot parse modulus {text!r}; {grammar}")
    params = {}
    for piece in rest.split(","):
        name, sep2, value = piece.partition("=")
        if not sep2 or not name:
            raise DomainError(f"cannot parse modulus {text!r}; {grammar}")
        try:
            params[name.strip()] = float(value)
        except ValueError:
            raise DomainError(
                f"cannot parse modulus {text!r}; bad number {value!r}; {grammar}")
    return make_family(tag.strip(), params, delta0)


# ----------------------------- monotonicity -----------------------------

_MONOTONE_SAMPLES = 2000


def almost_monotone_constant(fn, lo: float, hi: float, direction: str,
                             samples: int = 2000) -> float:
    """Sampled almost-monotonicity constant of an arbitrary positive fn."""
    t = np.geomspace(lo, hi, samples)
    v = np.asarray(fn(t), dtype=float)
    if not np.all(np.isfinite(v)) or np.any(v <= 0):
        raise DomainError("evaluator non-finite or non-positive on samples")
    if direction == "almost_increasing":
        # sup over t <= s of f(t)/f(s): running max / suffix min
        suffix_min = np.minimum.accumulate(v[::-1])[::-1]
        return float(np.max(v / suffix_min))
    if direction == "almost_decreasing":
        # sup over s <= t of f(t)/f(s): value / prefix min
        prefix_min = np.minimum.accumulate(v)
        return float(np.max(v / prefix_min))
    raise DomainError(f"unknown direction {direction!r}")


def check_almost_monotone(w: ModulusSpec, direction: str) -> MonotonicityCertificate:
    """Certify omega almost increasing, or omega(t)/t almost decreasing.

    The certificate passes when the constant is stable (< 1% growth) under
    doubling the sample count and extending the range one decade deeper.
    A genuine violation of almost-monotonicity by even t^{0.01} grows the
    constant by 10^{0.01} per decade, which this threshold detects.
    """
    if direction == "almost_increasing":
        fn = w.evaluator
    elif direction == "almost_decreasing":
        fn = lambda t: w.evaluator(t) / t
    else:
        raise DomainError(f"unknown direction {direction!r}")
    lo = w.delta0 * 1e-10
    c0 = almost_monotone_constant(fn, lo, w.delta0, direction, _MONOTONE_SAMPLES)
    c1 = almost_monotone_constant(fn, lo * 0.1, w.delta0, direction,
                                  2 * _MONOTONE_SAMPLES)
    passed = math.isfinite(c1) and c1 <= c0 * 1.01
    return MonotonicityCertificate(constant=max(c0, c1), passed=passed)


def is_modulus(w: ModulusSpec) -> dict:
    """Run the three modulus-of-continuity checks; returns the certificates."""
    _check_vanishes(w)
    inc = check_almost_monotone(w, "almost_increasing")
    dec = check_almost_monotone(w, "almost_decreasing")
    return {"vanishes_at_zero": True, "almost_increasing": inc,
            "ratio_almost_decreasing": dec,
            "passed": inc.passed and dec.passed}


# ----------------------------- Zygmund conditions -----------------------------

_T_DECADES = 10          # t grid reaches delta0 * 1e-10
_T_PER_DECADE = 8
_EXTRA_DECADES = 12      # inner integral reaches delta0 * 1e-22
_GAUSS_ORDER = 10
_SENTINEL_GROWTH = 1.10
_TAIL_FRACTION = 0.02    # unresolved-tail trigger, see zygmund_Z0_constant


def _log_panels(w: ModulusSpec, decades: int, per_decade: int, integrand):
    """Descending edges x = delta0*10^{-k/per_decade} and the Gauss integral
    over each panel [edges[i+1], edges[i]], in u = ln(1/x) coordinates:
    integrand(u) is the integrand times dx/du, e.g. omega(e^{-u}) for
    omega(x)/x dx."""
    ks = np.arange(0, decades * per_decade + 1)
    edges_t = w.delta0 * 10.0 ** (-ks / per_decade)
    return edges_t, panel_integrals(integrand, np.log(1.0 / edges_t), _GAUSS_ORDER)


def _sampled_sup(ratio: np.ndarray) -> float:
    """Running sup of a ratio on the t grid, or math.inf when it diverges.

    The sup is read at decade depths 4 .. _T_DECADES; divergent when each of
    the last three decade extensions grew it by more than 10%.
    """
    sups = np.array([np.max(ratio[:d * _T_PER_DECADE + 1])
                     for d in range(4, _T_DECADES + 1)])
    r = sups[1:] / sups[:-1]
    return math.inf if np.all(r[-3:] > _SENTINEL_GROWTH) else float(sups[-1])


def zygmund_Z0_constant(w: ModulusSpec) -> float:
    """sup_t of (int_0^t omega/x dx) / omega(t), or math.inf if divergent.

    Two divergence triggers: the sup keeps growing as the t grid extends
    (the sentinel), or the deepest inner decade still contributes more than
    2% of the cumulative integral at the reporting bottom — the truncated
    integral has not converged, so the ratio would keep growing on any
    deeper grid (catches iterated-log rates the sentinel cannot see through
    truncation).
    """
    edges_t, integrals = _log_panels(w, _T_DECADES + _EXTRA_DECADES, _T_PER_DECADE,
                                     lambda u: w.evaluator(np.exp(-u)))
    # cumulative from the bottom: I(edges_t[i]) = sum of panels below it
    cum = np.concatenate([[0.0], np.cumsum(integrals[::-1])])[::-1]
    n_t = _T_DECADES * _T_PER_DECADE + 1
    t = edges_t[:n_t]
    sup = _sampled_sup(cum[:n_t] / w.evaluator(t))
    last_decade = float(np.sum(integrals[-_T_PER_DECADE:]))
    if last_decade > _TAIL_FRACTION * cum[n_t - 1]:
        return math.inf
    return sup


def zygmund_Z1_constant(w: ModulusSpec) -> float:
    """sup_t of t*(int_t^d0 omega/x^2 dx) / omega(t), or math.inf if divergent."""
    edges_t, integrals = _log_panels(w, _T_DECADES, _T_PER_DECADE,
                                     lambda u: w.evaluator(np.exp(-u)) * np.exp(u))
    cum = np.concatenate([[0.0], np.cumsum(integrals)])  # from delta0 down to t
    return _sampled_sup(edges_t * cum / w.evaluator(edges_t))


def check_transform_integrability(w: ModulusSpec, alpha: float, p: float,
                                  nu: float) -> dict:
    """Numerical check of the two conditions driving L_nu membership of the
    transform, with s = 2a(1 - nu/q) and q = p/(p - 1):

      (i)  omega^nu(t) / t^{s+1} integrable on [0, 1];
      (ii) omega^nu(h) / h^s stays bounded as h -> 0.

    Integrability is declared when the decade contributions of (i) decay by
    at least 2% per decade over the last three decades; (ii) when the
    sampled sequence at the decade edges h = delta0*10^-k is non-increasing
    (within 2%) over the last four decades.
    """
    s = 2.0 * alpha * (1.0 - nu / conjugate_exponent(p))
    # omega^nu(t) / t^{s+1} dt = omega^nu(t) / t^s du in u = ln(1/t)
    hs, sums = _log_panels(w, 12, 1, lambda u: np.asarray(
        w.evaluator(np.exp(-u)), dtype=float) ** nu * np.exp(u * s))
    r = sums[1:] / sums[:-1]
    integrable = bool(np.all(r[-3:] <= 0.98))
    seq = np.asarray(w.evaluator(hs), dtype=float) ** nu / hs ** s
    limit_ok = bool(np.all(seq[1:][-4:] <= seq[:-1][-4:] * 1.02))
    return {"integrable": integrable, "limit_bounded": limit_ok,
            "accepted": integrable and limit_ok, "exponent": s,
            "decade_ratios": r[-3:].tolist()}


# ----------------------------- growth indices -----------------------------

_EPS_TOP_EXP = 3.0       # epsilon grid from delta0*1e-3 ...
_EPS_BOT_EXP = 40.0      # ... down to delta0*1e-40 (index bias ~ 1/ln(1/eps))
_EPS_PER_DECADE = 10
_TAIL_DECADES = 2.0

_M_T, _M_UPPER_T = 0.05, 20.0   # t at which the lower/upper index is read


def _limsup_ratio(w: ModulusSpec, t: float, eps: np.ndarray) -> float:
    return float(np.max(w.evaluator(eps * t) / w.evaluator(eps)))


def _index_from_tail(w: ModulusSpec, eps_tail: np.ndarray):
    m = math.log(_limsup_ratio(w, _M_T, eps_tail)) / math.log(_M_T)
    big_m = math.log(_limsup_ratio(w, _M_UPPER_T, eps_tail)) / math.log(_M_UPPER_T)
    return m, big_m


def estimate_indices(w: ModulusSpec) -> IndexEstimate:
    """Matuszewska-Orlicz index estimates.

    The inner limsup_{eps->0} omega(eps t)/omega(eps) is approximated by the
    max over the deepest two decades of a geometric eps grid; the outer limit
    is read at a single t (t = 0.05 for the lower index, t = 20 for the
    upper).  converged is set when shifting the eps tail one decade
    shallower moves both estimates by less than 0.01.
    """
    bot = _EPS_BOT_EXP
    while bot > _EPS_TOP_EXP + 3:
        exps = np.arange(_EPS_TOP_EXP * _EPS_PER_DECADE, bot * _EPS_PER_DECADE + 1)
        eps = w.delta0 * 10.0 ** (-exps / _EPS_PER_DECADE)
        probe = w.evaluator(eps * _M_T)
        if np.all(np.isfinite(probe)) and np.all(probe > 0):
            break
        bot -= 1.0  # underflow guard: shrink the eps range
    tail = eps[eps <= w.delta0 * 10.0 ** -(bot - _TAIL_DECADES)]
    tail_prev = eps[(eps <= w.delta0 * 10.0 ** -(bot - 1.0 - _TAIL_DECADES))
                    & (eps >= w.delta0 * 10.0 ** -(bot - 1.0))]
    m, big_m = _index_from_tail(w, tail)
    m_prev, big_m_prev = _index_from_tail(w, tail_prev)
    converged = abs(m - m_prev) < 0.01 and abs(big_m - big_m_prev) < 0.01
    return IndexEstimate(m_lower=m, M_upper=big_m, converged=converged)


# ----------------------------- cumulative weight -----------------------------

_W_EXTRA_DECADES = 30    # cumulative grid reaches delta0 * 1e-40


def _pchip_end(h0, h1, m0, m1):
    # one-sided three-point derivative, clamped to preserve shape (Moler)
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x, y):
    """Monotone piecewise-cubic Hermite interpolant (PCHIP) through (x, y),
    x increasing, for arguments in [x[0], x[-1]].

    Fritsch-Butland derivatives with Moler's end rule, evaluated in the
    power basis of each interval; every operation is in the order of scipy's
    PchipInterpolator, so the values agree with it bit for bit.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.zeros_like(y)
    # the weighted harmonic mean of the slopes, or 0 where they change
    # sign or one of them vanishes (the divisions there are discarded)
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    d[1:-1] = np.where(flat, 0.0, inner)
    d[0] = _pchip_end(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    c0, c1, c2, c3 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]

    def interp(xv):
        i = np.clip(np.searchsorted(x, xv, side="right") - 1, 0, x.size - 2)
        s = xv - x[i]
        s2 = s * s
        return c3[i] + c2[i] * s + c1[i] * s2 + c0[i] * (s2 * s)

    return interp


def build_W_omega(w: ModulusSpec) -> ModulusSpec:
    """Cumulative weight W(t) = int_0^t omega(s)/s ds as a ModulusSpec.

    Requires omega(s)/s integrable near 0: PreconditionError womega_divergent
    when the bottom-decade increments refuse to fade relative to the
    cumulative value at the reporting scale delta0*1e-10 (rates slower than
    iterated-log escape any finite grid and classify as integrable).
    Values are precomputed on a log grid and monotonically interpolated in
    log-log; below the grid W is extended by the local power law.

    The integral starts at delta0*1e-40, not at 0.  For power families the
    part left out is negligible; for log_inverse:beta=2 it is
    1/ln(e/(delta0*1e-40)) = 0.0107, so W sits 4.0-9.2% below the exact
    1/ln(e/t) on the h grid delta0*2^-3 .. delta0*2^-10.
    """
    per = 24
    total = _T_DECADES + _W_EXTRA_DECADES
    edges_t, integrals = _log_panels(w, total, per, lambda u: w.evaluator(np.exp(-u)))
    cum = np.concatenate([[0.0], np.cumsum(integrals[::-1])])[::-1]

    # bottom-decade increments must fade relative to the reporting scale
    bottom = np.array([np.sum(integrals[k * per:(k + 1) * per])
                       for k in range(total - 3, total)])
    if np.any(bottom > 0.015 * cum[_T_DECADES * per]):
        raise PreconditionError("omega(t)/t is not integrable near 0",
                                condition="womega_divergent")

    t_grid = edges_t[:-1][::-1]
    w_grid = cum[:-1][::-1]
    interp = _pchip(np.log(t_grid), np.log(w_grid))
    t_min = t_grid[0]
    w_min = w_grid[0]
    slope = (math.log(w_grid[per]) - math.log(w_grid[0])) \
        / (math.log(t_grid[per]) - math.log(t_grid[0]))
    delta0 = w.delta0

    def evaluator(t):
        t_arr = np.asarray(t, dtype=float)
        t_clip = np.minimum(t_arr, delta0)
        out = np.empty_like(t_clip)
        low = t_clip < t_min
        out[low] = w_min * (t_clip[low] / t_min) ** slope
        out[~low] = np.exp(interp(np.log(t_clip[~low])))
        return out

    return ModulusSpec(evaluator=evaluator, delta0=w.delta0,
                       family_tag="cumulative",
                       params=dict(w.params, source=w.family_tag))
