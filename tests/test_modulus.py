import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dhankel as dh
from dhankel import modulus
from dhankel.modulus import ModulusSpec, almost_monotone_constant, is_modulus
from dhankel.specfun import DomainError

# corpus used for the index/Zygmund consistency sweeps
CORPUS = [
    ("power", {"gamma": 0.25}),
    ("power", {"gamma": 0.5}),
    ("power", {"gamma": 0.75}),
    ("power", {"gamma": 1.0}),
    ("power_log", {"gamma": 0.5, "theta": 1.0}),
    ("power_log", {"gamma": 0.5, "theta": -1.0}),
    ("power_log", {"gamma": 0.25, "theta": -1.0}),
    ("power_loglog", {"gamma": 0.5, "lambda": 1.0}),
    ("log_inverse", {"beta": 1.5}),
    ("log_inverse", {"beta": 2.0}),
    ("log_inverse", {"beta": 3.0}),
    ("power_logexponent", {"gamma": 0.5, "C": 1.0, "lambda": 2.0}),
]


def family(tag, **params):
    return dh.make_family(tag, params)


# ----------------------------- families -----------------------------

def test_power_evaluation():
    w = family("power", gamma=0.5)
    assert w(0.25) == 0.5


def test_power_log_evaluation():
    w = family("power_log", gamma=0.5, theta=1.0)
    t = math.exp(-4.0)
    assert abs(w(t) - math.exp(-2.0) * 4.0) < 1e-14


def test_log_inverse_evaluation():
    w = family("log_inverse", beta=2.0)
    ts = 0.5 * 10.0 ** -np.arange(0, 10, dtype=float)
    vals = w(ts)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)
    assert abs(w(0.5) - math.log(math.e / 0.5) ** -2) < 1e-14


def test_family_validation():
    with pytest.raises(DomainError):
        family("power", gamma=0.0)
    with pytest.raises(DomainError):
        family("power", gamma=1.2)
    with pytest.raises(DomainError):
        family("log_inverse", beta=1.0)
    with pytest.raises(DomainError):
        family("nonsense", x=1.0)
    with pytest.raises(DomainError):
        family("power")                          # missing parameter
    with pytest.raises(DomainError):
        family("power", gamma=0.5, theta=1.0)    # extra parameter
    with pytest.raises(DomainError):
        dh.make_family("power_loglog", {"gamma": 0.5, "lambda": 1.0}, delta0=0.5)


def test_parse_family_grammar():
    w = dh.parse_family("power_log:gamma=0.5,theta=1.0")
    assert w.family_tag == "power_log"
    assert w.params == {"gamma": 0.5, "theta": 1.0}
    with pytest.raises(DomainError):
        dh.parse_family("power")
    with pytest.raises(DomainError):
        dh.parse_family("power:gamma=abc")


def test_delta0_defaults():
    assert family("power", gamma=0.5).delta0 == 0.5
    assert family("power_loglog", gamma=0.5, **{"lambda": 1.0}).delta0 == 0.3


@pytest.mark.parametrize("delta0", [4.4e-267, 1e-300, 0.0, -1.0, math.nan])
def test_delta0_whose_deepest_probe_is_not_a_normal_double_is_rejected(delta0):
    # estimate_indices probes omega at delta0 * 5e-42; at delta0 = 1e-300 the
    # Zygmund constants were nan and at 1e-290 the index of t was 0.93
    with pytest.raises(DomainError, match="^delta0 must be at least 4.45e-267, got"):
        dh.make_family("power", {"gamma": 1.0}, delta0=delta0)


def test_smallest_accepted_delta0_keeps_exact_indices():
    est = dh.estimate_indices(dh.make_family("power", {"gamma": 1.0}, delta0=4.5e-267))
    assert abs(est.m_lower - 1.0) < 1e-9 and abs(est.M_upper - 1.0) < 1e-9
    assert est.converged


# ----------------------------- monotonicity -----------------------------

def test_almost_increasing_power():
    cert = dh.check_almost_monotone(family("power", gamma=0.5), "almost_increasing")
    assert cert.passed
    assert cert.constant == pytest.approx(1.0, abs=1e-12)


def test_ratio_almost_decreasing_power():
    cert = dh.check_almost_monotone(family("power", gamma=0.5), "almost_decreasing")
    assert cert.passed
    assert cert.constant == pytest.approx(1.0, abs=1e-12)


def test_almost_increasing_power_log_positive_theta():
    # t^{1/2} ln(1/t) turns at t = e^{-2} < delta0, so the constant
    # genuinely exceeds 1 while staying finite and stable
    cert = dh.check_almost_monotone(
        family("power_log", gamma=0.5, theta=1.0), "almost_increasing")
    assert cert.passed
    assert cert.constant > 1.0


def test_almost_increasing_power_log_negative_theta():
    # t^{1/2} / ln(1/t) is strictly increasing: constant exactly 1
    cert = dh.check_almost_monotone(
        family("power_log", gamma=0.5, theta=-1.0), "almost_increasing")
    assert cert.passed
    assert cert.constant == pytest.approx(1.0, abs=1e-12)


def test_shifted_monotonicity_detects_index():
    # omega/t^{gamma-0.01} is almost increasing; omega/t^{gamma+0.01} is not
    w = family("power", gamma=0.5)
    up = ModulusSpec(evaluator=lambda t: w.evaluator(t) / t ** 0.49,
                     delta0=w.delta0)
    down = ModulusSpec(evaluator=lambda t: w.evaluator(t) / t ** 0.51,
                       delta0=w.delta0)
    assert dh.check_almost_monotone(up, "almost_increasing").passed
    assert not dh.check_almost_monotone(down, "almost_increasing").passed


def test_monotone_constant_dense_scan_oracle():
    # brute-force pairwise scan agrees with the suffix-min implementation
    w = family("power_log", gamma=0.5, theta=1.0)
    t = np.geomspace(w.delta0 * 1e-6, w.delta0, 400)
    v = w(t)
    brute = max(v[i] / v[j] for i in range(len(t)) for j in range(i, len(t)))
    fast = almost_monotone_constant(w.evaluator, t[0], t[-1],
                                    "almost_increasing", samples=400)
    assert fast == pytest.approx(brute, rel=1e-9)


# ----------------------------- Zygmund -----------------------------

@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
def test_z0_power_closed_form(gamma):
    z0 = dh.zygmund_Z0_constant(family("power", gamma=gamma))
    assert abs(z0 - 1.0 / gamma) < 0.05 / gamma


def test_z0_log_inverse_diverges():
    assert dh.zygmund_Z0_constant(family("log_inverse", beta=2.0)) == math.inf


def test_z0_power_log_finite():
    assert math.isfinite(dh.zygmund_Z0_constant(
        family("power_log", gamma=0.5, theta=1.0)))


@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
def test_z1_power_closed_form(gamma):
    z1 = dh.zygmund_Z1_constant(family("power", gamma=gamma))
    assert z1 <= 1.0 / (1.0 - gamma) * (1 + 1e-6)
    assert z1 >= 1.0 / (1.0 - gamma) * 0.95


def test_z1_linear_diverges():
    assert dh.zygmund_Z1_constant(family("power", gamma=1.0)) == math.inf


def test_bari_stechkin_membership():
    w = family("power", gamma=0.5)
    assert math.isfinite(dh.zygmund_Z0_constant(w))
    assert math.isfinite(dh.zygmund_Z1_constant(w))


# ----------------------------- indices -----------------------------

@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
def test_indices_pure_power(gamma):
    est = dh.estimate_indices(family("power", gamma=gamma))
    assert abs(est.m_lower - gamma) < 1e-9
    assert abs(est.M_upper - gamma) < 1e-9
    assert est.converged


def test_indices_power_log():
    est = dh.estimate_indices(family("power_log", gamma=0.5, theta=1.0))
    assert abs(est.m_lower - 0.5) < 0.05
    assert abs(est.M_upper - 0.5) < 0.05
    assert est.converged


def test_indices_log_inverse_near_zero():
    est = dh.estimate_indices(family("log_inverse", beta=2.0))
    assert abs(est.m_lower) < 0.05
    assert abs(est.M_upper) < 0.05


@pytest.mark.parametrize("tag,params", CORPUS)
def test_index_order_invariant(tag, params):
    est = dh.estimate_indices(dh.make_family(tag, params))
    assert est.m_lower <= est.M_upper + 0.05


@pytest.mark.parametrize("tag,params", CORPUS)
def test_index_zygmund_consistency(tag, params):
    # finite Z0 <-> positive lower index, finite Z1 <-> upper index < 1
    w = dh.make_family(tag, params)
    est = dh.estimate_indices(w)
    tol = 0.05
    if math.isfinite(dh.zygmund_Z0_constant(w)):
        assert est.m_lower > -tol
    else:
        assert est.m_lower < tol
    if math.isfinite(dh.zygmund_Z1_constant(w)):
        assert est.M_upper < 1 + tol
    else:
        assert est.M_upper > 1 - tol


# ----------------------------- cumulative weight -----------------------------

def test_w_omega_power_closed_form():
    w = family("power", gamma=0.5)
    W = dh.build_W_omega(w)
    ts = np.geomspace(1e-6, 0.5, 200)
    assert np.max(np.abs(W(ts) - 2.0 * np.sqrt(ts)) / (2.0 * np.sqrt(ts))) < 1e-6
    assert W.family_tag == "cumulative"


def test_w_omega_log_inverse_derivative_identity():
    # d/dt W = omega(t)/t; for ln^{-2}(e/t) the antiderivative is ln^{-1}(e/t)
    w = family("log_inverse", beta=2.0)
    W = dh.build_W_omega(w)
    for t in (1e-4, 1e-2, 0.3):
        eps = 1e-6 * t
        deriv = (W(t + eps) - W(t - eps)) / (2 * eps)
        assert abs(deriv - w(t) / t) < 1e-3 * (w(t) / t)
    # and the growth between two points matches the exact increment
    lo, hi = 1e-3, 0.3
    exact = 1 / math.log(math.e / hi) - 1 / math.log(math.e / lo)
    assert abs((W(hi) - W(lo)) - exact) < 1e-6


def test_w_omega_is_modulus():
    W = dh.build_W_omega(family("power", gamma=0.5))
    checks = is_modulus(W)
    assert checks["passed"]


def test_w_omega_dominates_omega():
    for tag, params in (("power", {"gamma": 0.5}), ("log_inverse", {"beta": 2.0})):
        w = dh.make_family(tag, params)
        W = dh.build_W_omega(w)
        ts = np.geomspace(w.delta0 * 1e-8, w.delta0, 500)
        c = np.max(w(ts) / W(ts))
        ts2 = np.geomspace(w.delta0 * 1e-10, w.delta0, 1000)
        c2 = np.max(w(ts2) / W(ts2))
        assert math.isfinite(c2)
        assert c2 <= c * 1.01


def test_w_omega_divergent_integrand():
    # omega(s)/s ~ 1/(s sqrt(ln(1/s))) is not integrable at 0
    w = ModulusSpec(evaluator=lambda t: np.log(np.e / t) ** -0.5, delta0=0.5)
    with pytest.raises(dh.PreconditionError) as err:
        dh.build_W_omega(w)
    assert err.value.condition == "womega_divergent"


# W_omega's interpolant is a numpy PCHIP written to give scipy's bits
PCHIP_FAMILIES = [
    "power:gamma=0.3", "power:gamma=0.5", "power:gamma=1.0",
    "power_log:gamma=0.5,theta=1.0", "power_log:gamma=0.5,theta=-1.0",
    "power_loglog:gamma=0.5,lambda=1.0", "log_inverse:beta=2.0",
    "power_logexponent:gamma=0.5,C=1.0,lambda=2.0",
]


def scipy_pchip(x, y):
    from scipy.interpolate import PchipInterpolator
    return PchipInterpolator(x, y, extrapolate=False)


@pytest.mark.parametrize("text", PCHIP_FAMILIES)
def test_pchip_matches_scipy(text, monkeypatch):
    # the knots (ln t, ln W) of build_W_omega, caught on their way in
    knots, pchip = [], modulus._pchip

    def recording(x, y):
        knots.append((x, y))
        return pchip(x, y)

    monkeypatch.setattr(modulus, "_pchip", recording)
    w = dh.parse_family(text)
    W = dh.build_W_omega(w)
    (x, y), = knots
    mine, ref = pchip(x, y), scipy_pchip(x, y)
    mid = 0.5 * (x[1:] + x[:-1])
    for pts in (x, mid, np.log([w.delta0])):
        assert np.array_equal(mine(pts), ref(pts))
    t = np.exp(mid)
    assert np.array_equal(W(t), np.exp(ref(np.log(t))))


def test_pchip_shape_branches_match_scipy():
    # sign changes, zero slopes and both end clamps, which the monotone
    # W_omega knots never reach
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.uniform(0.1, 2.0, 60))
    y = np.round(rng.normal(size=60), 1)
    y[10:14] = 0.5
    y[:3] = [0.0, 1.0, -2.0]
    y[-3:] = [1.0, 3.0, 3.1]
    pts = np.concatenate([x, np.linspace(x[0], x[-1], 5001)])
    assert np.array_equal(modulus._pchip(x, y)(pts), scipy_pchip(x, y)(pts))


# ----------------------------- derived properties -----------------------------

@pytest.mark.parametrize("tag,params", [
    ("power", {"gamma": 0.25}),
    ("power", {"gamma": 0.75}),
    ("power_log", {"gamma": 0.5, "theta": 1.0}),
    ("power_loglog", {"gamma": 0.5, "lambda": 1.0}),
])
def test_semi_additivity_and_doubling(tag, params):
    w = dh.make_family(tag, params)
    t = np.geomspace(w.delta0 * 1e-8, w.delta0 / 2, 200)
    s = t[::-1] * 0.7
    c1 = np.max(w(np.minimum(t + s, w.delta0)) / (w(t) + w(s)))
    c2 = np.max(w(np.minimum(2 * t, w.delta0)) / w(t))
    assert math.isfinite(c1) and c1 < 10
    assert math.isfinite(c2) and c2 < 10


def dyadic_sum_constant(w, q, h, terms):
    """sum_{k=0}^{terms} omega^q(h/2^k) / omega^q(h)."""
    ks = np.arange(terms + 1)
    return float(np.sum(w.evaluator(h * 0.5 ** ks) ** q) / w.evaluator(h) ** q)


def test_dyadic_sum_stability():
    # cond4-passing families: sum_k omega^q(h/2^k) stays a bounded multiple
    # of omega^q(h), stable as the truncation grows
    for tag, params in (("power", {"gamma": 0.5}),
                        ("power_log", {"gamma": 0.5, "theta": 1.0})):
        w = dh.make_family(tag, params)
        c20 = dyadic_sum_constant(w, 2.0, w.delta0 / 8, 20)
        c40 = dyadic_sum_constant(w, 2.0, w.delta0 / 8, 40)
        assert c40 <= c20 * 1.01


@given(h=st.floats(min_value=1e-6, max_value=0.06))
def test_omega_dominates_h(h):
    # omega(h)/h bounded below when omega(t)/t is almost decreasing
    w = family("power", gamma=0.5)
    assert w(h) / h >= w(w.delta0) / w.delta0
