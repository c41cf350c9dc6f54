import json
import math

import numpy as np
import pytest

import dhankel as dh
import dhankel.titchmarsh
import dhankel.transform
from dhankel.modulus import ModulusSpec
from dhankel.specfun import DomainError
from dhankel.titchmarsh import (THEOREMS, check_transform_integrability,
                                render_verdict, restrict_h_grid)

ALPHA = 0.5
D0 = 0.5


def sharp(w, lg):
    return dh.synthesize_from_tail(
        dh.SynthesisSpec(w, lg.alpha, lg.radius, "sharp_tail"), lg)


def smooth(w, lg):
    return dh.synthesize_from_tail(
        dh.SynthesisSpec(w, lg.alpha, lg.radius, "smooth_tail"), lg)


def phi(w, y):
    return float(w(min(1.0 / y, w.delta0)) ** 2)


# ----------------------------- verdict rule -----------------------------

def test_verdict_flat_band_is_bounded():
    h = dh.dyadic_h_grid(D0)
    assert render_verdict(h, np.full(h.size, 1.3)) == "bounded"


def test_verdict_monotone_growth_is_unbounded():
    h = dh.dyadic_h_grid(D0)
    assert render_verdict(h, (D0 / h) ** 1.2) == "unbounded"


def test_verdict_decay_is_bounded():
    # tail decaying much faster than omega^q: spread is huge but harmless
    h = dh.dyadic_h_grid(D0)
    assert render_verdict(h, h ** 4) == "bounded"


def test_verdict_erratic_is_inconclusive():
    h = dh.dyadic_h_grid(D0)
    r = np.array([1, 40, 0.3, 20, 1, 30, 0.2, 25.0])
    assert render_verdict(h, r) == "inconclusive"


def test_verdict_zero_ratios():
    h = dh.dyadic_h_grid(D0)
    assert render_verdict(h, np.zeros(h.size)) == "bounded"


def test_h_grid_helpers():
    h = dh.dyadic_h_grid(D0, 3, 10)
    assert h.size == 8
    assert h[0] == D0 / 8 and h[-1] == D0 / 1024
    with pytest.raises(DomainError):
        dh.dyadic_h_grid(D0, 5, 5)
    # fractional exponents made h off the dyadic grid; integral floats too
    # are refused, and numpy's integers are taken
    for exps in ((2.5, 7.5), (3, 7.5), (3.0, 10)):
        with pytest.raises(DomainError, match="^h exponents must be integers"):
            dh.dyadic_h_grid(D0, *exps)
    assert np.array_equal(dh.dyadic_h_grid(D0, np.int64(3), 10), h)
    lg = dh.build_weighted_grid(ALPHA, 64.0, 8, 8)
    kept = restrict_h_grid(h, lg)
    assert np.all(1.0 / kept <= 16.0)


@pytest.mark.parametrize("args", [(0.2, 20.0, 64.0), (0.5, -1.0, 64.0),
                                  (0.5, 20.0, 0.0), (0.5, math.nan, 64.0),
                                  (0.5, 20.0, math.inf), (0.5, 1e-300, 64.0),
                                  (0.5, 1e-200, 1e-200)])
def test_resolved_grids_reject_bad_input(args):
    # alpha at most 1/4, radii that are not positive and finite, and radii
    # whose product makes the panel ratio exp(10 / sqrt(R_x R_lambda))
    # overflow (6.4e-299) or divide by zero (the product underflows to 0)
    with pytest.raises(DomainError):
        dh.make_resolved_grids(*args)


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf, 1e308, 0.25])
def test_tail_grid_rejects_bad_radius(radius):
    # radii that are not positive and finite, one whose span radius / 0.25
    # overflows, and one that does not exceed the first panel, 0.25
    with pytest.raises(DomainError):
        dh.make_tail_grid(ALPHA, radius)


def test_tail_and_resolved_grids_grow_by_one_ratio():
    tail = dh.make_tail_grid(ALPHA, 8192.0)
    panels = math.ceil(math.log(8192.0 / 0.25) / 0.065)
    assert tail.pos_nodes.size == 16 * panels
    assert tail.log_ratio == pytest.approx(math.log(8192.0 / 0.25) / (panels - 1))
    xg, lg = dh.make_resolved_grids(ALPHA, 40.0, 512.0)
    assert xg.log_ratio == lg.log_ratio == pytest.approx(10.0 / math.sqrt(40.0 * 512.0))


# ----------------------------- synthesis -----------------------------

def test_sharp_synthesis_telescopes(tail_grid_8192):
    w = dh.make_family("power", {"gamma": 0.5})
    g = sharp(w, tail_grid_8192)
    assert np.all(g.values >= 0)
    assert np.allclose(g.values, g.values[::-1])  # even
    total = float(np.sum(g.lambda_grid.weights * g.values ** 2))
    assert abs(total - w(w.delta0) ** 2) < 1e-12


@pytest.mark.parametrize("gamma", [0.5, 0.9])
def test_sharp_tail_matches_target(tail_grid_8192, gamma):
    w = dh.make_family("power", {"gamma": gamma})
    g = sharp(w, tail_grid_8192)
    for y in (2.0, 4.0, 32.0, 512.0, 4096.0):
        got = dh.tail_energy(g, 1.0 / y, 2.0)
        assert abs(got - phi(w, y)) <= 0.02 * phi(w, y)


def test_sharp_tail_value_at_four(tail_grid_8192):
    w = dh.make_family("power", {"gamma": 0.5})
    g = sharp(w, tail_grid_8192)
    assert dh.tail_energy(g, 0.25, 2.0) == pytest.approx(0.25, rel=0.02)


def test_smooth_synthesis_one_sided(grids_resolved_route):
    _, lg = grids_resolved_route
    w = dh.make_family("power", {"gamma": 0.5})
    g = smooth(w, lg)
    for y in (2.0, 4.0, 16.0, 24.5, 32.0, 64.0):
        got = dh.tail_energy(g, 1.0 / y, 2.0)
        assert got <= phi(w, y) * 1.001
    # full density band: two-sided within the window losses
    for y in (24.5, 32.0, 64.0):
        assert dh.tail_energy(g, 1.0 / y, 2.0) >= 0.8 * phi(w, y)


def test_smooth_synthesis_needs_room():
    w = dh.make_family("power", {"gamma": 0.5})
    lg = dh.make_tail_grid(ALPHA, 40.0)
    with pytest.raises(DomainError):
        smooth(w, lg)


def test_synthesis_rejects_non_modulus(tail_grid_8192):
    bad = ModulusSpec(evaluator=lambda t: t ** 2, delta0=0.5)  # omega/t increasing
    with pytest.raises(DomainError):
        sharp(bad, tail_grid_8192)


def test_synthesis_grid_mismatch(tail_grid_8192):
    w = dh.make_family("power", {"gamma": 0.5})
    with pytest.raises(DomainError):
        dh.synthesize_from_tail(
            dh.SynthesisSpec(w, ALPHA, 4096.0, "sharp_tail"), tail_grid_8192)


# ----------------------------- seminorm -----------------------------

def seminorm(g, w, p, h_grid):
    """sup_h |T_h g - g|_{p,a} / omega(h) over the h grid, plus the trace;
    the h grid is checked first, as the verifiers check it."""
    h_grid = dhankel.titchmarsh._checked_h(w, h_grid)
    diffs = dh.diff_norms(g, h_grid, p)
    ratios = diffs / np.asarray(w.evaluator(h_grid), dtype=float)
    return float(np.max(ratios)), ratios


def test_seminorm_zero_function(tail_grid_8192):
    w = dh.make_family("power", {"gamma": 0.5})
    g = dh.SpectralData(lambda_grid=tail_grid_8192,
                        values=np.zeros(tail_grid_8192.nodes.size))
    val, trace = seminorm(g, w, 2.0, dh.dyadic_h_grid(D0))
    assert val == 0.0 and np.all(trace == 0.0)


def test_seminorm_scale_equivariance(tail_grid_8192):
    w = dh.make_family("power", {"gamma": 0.5})
    g = sharp(w, tail_grid_8192)
    h = dh.dyadic_h_grid(D0)
    base, _ = seminorm(g, w, 2.0, h)
    scaled = dh.SpectralData(lambda_grid=tail_grid_8192,
                             values=3.0 * g.values)
    val, _ = seminorm(scaled, w, 2.0, h)
    assert val == pytest.approx(3.0 * base, rel=1e-12)


def test_seminorm_matched_tail_stable(tail_grid_8192):
    # spectral tail omega^2 with omega = sqrt(t): the seminorm trace stays
    # in a narrow band as h extends toward 0
    w = dh.make_family("power", {"gamma": 0.5})
    g = sharp(w, tail_grid_8192)
    _, trace = seminorm(g, w, 2.0, dh.dyadic_h_grid(D0, 3, 10))
    assert np.max(trace) / np.min(trace) < 3.0


def test_seminorm_domain(tail_grid_8192):
    w = dh.make_family("power", {"gamma": 0.5})
    g = sharp(w, tail_grid_8192)
    with pytest.raises(DomainError):
        seminorm(g, w, 2.0, np.array([1.0]))   # h beyond delta0
    with pytest.raises(DomainError):
        seminorm(g, w, 1.0, np.array([0.1]))


# ----------------------------- forward direction -----------------------------

def test_main1_part1_matched(tail_grid_8192):
    w = dh.make_family("power", {"gamma": 0.5})
    g = sharp(w, tail_grid_8192)
    rep = dh.verify_main1_part1(g, w, 2.0, dh.dyadic_h_grid(D0))
    assert rep.verdict == "bounded"
    assert 0.5 <= rep.estimated_constant <= 2.0
    assert rep.theorem_id == "main1_part1"
    assert not rep.truncation_flags.any()


def test_main1_part1_smooth_bump(grids_resolved_small, bump_spec):
    # superpolynomial spectral decay dominates any omega power
    xg, lg = grids_resolved_small
    w = dh.make_family("power", {"gamma": 0.3})
    h = restrict_h_grid(dh.dyadic_h_grid(D0), lg)
    rep = dh.verify_main1_part1(bump_spec, w, 2.0, h, xgrid=xg, lgrid=lg)
    assert rep.verdict == "bounded"
    # the tail/omega^q ratios collapse toward 0
    assert rep.ratios[-1] <= rep.ratios[0]


def test_main1_part1_mismatched_slope(tail_grid_8192):
    w_tail = dh.make_family("power", {"gamma": 0.3})
    w_test = dh.make_family("power", {"gamma": 0.9})
    g = sharp(w_tail, tail_grid_8192)
    rep = dh.verify_main1_part1(g, w_test, 2.0, dh.dyadic_h_grid(D0))
    assert rep.verdict == "unbounded"
    slope = np.polyfit(np.log(rep.h_grid), np.log(rep.ratios), 1)[0]
    assert abs(slope - (-1.2)) < 0.15


def test_main1_part1_zygmund_precondition(tail_grid_8192):
    w = dh.make_family("log_inverse", {"beta": 2.0})
    g = sharp(w, tail_grid_8192)
    with pytest.raises(dh.PreconditionError) as err:
        dh.verify_main1_part1(g, w, 2.0, dh.dyadic_h_grid(D0))
    assert err.value.condition == "Z0"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_main1_part1_non_finite_data_is_a_domain_error(tail_grid_8192,
                                                       grids_resolved_small,
                                                       bump_spec, bad):
    # a bad input, not a failed hypothesis: NaN spectral data reached the
    # seminorm and was reported as PreconditionError [dlip_seminorm]
    w = dh.make_family("power", {"gamma": 0.5})
    values = sharp(w, tail_grid_8192).values.copy()
    values[-1] = bad
    with pytest.raises(DomainError, match="^spectral values must be finite$"):
        dh.verify_main1_part1(dh.SpectralData(tail_grid_8192, values), w, 2.0,
                              dh.dyadic_h_grid(D0))
    # function input is sampled once, and the samples are checked before
    # the transform
    xg, lg = grids_resolved_small
    h = restrict_h_grid(dh.dyadic_h_grid(D0), lg)
    with pytest.raises(DomainError, match="^samples must be finite$"):
        dh.verify_main1_part1(lambda x: np.where(x > 3.0, bad, bump_spec(x)), w, 2.0, h,
                              xgrid=xg, lgrid=lg)


# ----------------------------- converse direction -----------------------------

def test_main1_part2_matched(tail_grid_8192):
    w = dh.make_family("power", {"gamma": 0.5})
    g = sharp(w, tail_grid_8192)
    rep = dh.verify_main1_part2(g, w, dh.dyadic_h_grid(D0))
    assert rep.verdict == "bounded"
    assert rep.extra["route_agreement"] is None


def test_main1_part2_bandlimited(tail_grid_8192):
    # spectrum confined to |lambda| <= 1 and omega >= c t near 0:
    # the difference norm is O(h), dominated by omega
    lg = tail_grid_8192
    vals = np.where(np.abs(lg.nodes) <= 1.0, 1.0, 0.0)
    g = dh.SpectralData(lambda_grid=lg, values=vals)
    w = dh.make_family("power", {"gamma": 0.9})
    rep = dh.verify_main1_part2(g, w, dh.dyadic_h_grid(D0))
    assert rep.verdict == "bounded"


def test_main1_part2_linear_modulus_rejected(tail_grid_8192):
    w = dh.make_family("power", {"gamma": 1.0})
    vals = np.where(np.abs(tail_grid_8192.nodes) <= 1.0, 1.0, 0.0)
    g = dh.SpectralData(lambda_grid=tail_grid_8192, values=vals)
    with pytest.raises(dh.PreconditionError) as err:
        dh.verify_main1_part2(g, w, dh.dyadic_h_grid(D0))
    assert err.value.condition == "Z1"


def test_main1_part2_tail_hypothesis_rejected(tail_grid_8192):
    # tail ~ t^{0.6} tested against omega = t^{0.9}: hypothesis fails
    g = sharp(dh.make_family("power", {"gamma": 0.3}), tail_grid_8192)
    w = dh.make_family("power", {"gamma": 0.9})
    with pytest.raises(dh.PreconditionError) as err:
        dh.verify_main1_part2(g, w, dh.dyadic_h_grid(D0))
    assert err.value.condition == "tail_hypothesis"


def test_main1_part2_route_agreement(grids_resolved_small):
    # smooth synthesized data on resolved grids: the spectral fast path and
    # the physical-space route must coincide
    xg, lg = grids_resolved_small
    w = dh.make_family("power", {"gamma": 0.5})
    g = smooth(w, lg)
    h = restrict_h_grid(dh.dyadic_h_grid(D0), lg)
    rep = dh.verify_main1_part2(g, w, h, xgrid=xg)
    assert rep.verdict == "bounded"
    assert rep.extra["route_agreement"] < 1e-5


# ----------------------------- equivalence -----------------------------

def test_equivalence_matched(tail_grid_8192):
    w = dh.make_family("power", {"gamma": 0.5})
    g = sharp(w, tail_grid_8192)
    rep = dh.verify_equivalence(g, w, dh.dyadic_h_grid(D0))
    assert rep.verdict == "bounded"
    assert rep.extra["forward_verdict"] == "bounded"
    assert rep.extra["converse_verdict"] == "bounded"


def test_equivalence_power_log(tail_grid_8192):
    w = dh.make_family("power_log", {"gamma": 0.5, "theta": -1.0})
    g = sharp(w, tail_grid_8192)
    rep = dh.verify_equivalence(g, w, dh.dyadic_h_grid(D0))
    assert rep.verdict == "bounded"


def test_equivalence_mismatched(tail_grid_8192):
    g = sharp(dh.make_family("power", {"gamma": 0.3}), tail_grid_8192)
    w = dh.make_family("power", {"gamma": 0.9})
    with pytest.raises(dh.PreconditionError):
        # the converse direction's tail hypothesis fails for this pair
        dh.verify_equivalence(g, w, dh.dyadic_h_grid(D0))
    rep = dh.verify_main1_part1(g, w, 2.0, dh.dyadic_h_grid(D0))
    assert rep.verdict == "unbounded"


# ----------------------------- L_nu membership -----------------------------

def test_integrability_threshold():
    # gamma=0.5, alpha=0.5, p=2: acceptance threshold sits at nu = 1
    w = dh.make_family("power", {"gamma": 0.5})
    for nu in (0.9, 0.95, 1.0):
        assert not check_transform_integrability(w, ALPHA, 2.0, nu)["accepted"]
    for nu in (1.02, 1.25, 2.0):
        assert check_transform_integrability(w, ALPHA, 2.0, nu)["accepted"]


@pytest.mark.parametrize("gamma,alpha,p,nu", [(0.5, 0.5, 2.0, 1.5),
                                               (0.3, 0.7, 1.5, 2.0),
                                               (0.9, 0.3, 1.25, 1.0)])
def test_decade_ratios_of_a_power_are_geometric(gamma, alpha, p, nu):
    # omega = t^gamma: each decade integral of t^{gamma nu - s - 1} is the
    # previous one times 10^{-(gamma nu - s)}
    w = dh.make_family("power", {"gamma": gamma})
    cond = check_transform_integrability(w, alpha, p, nu)
    want = 10.0 ** -(gamma * nu - cond["exponent"])
    assert np.allclose(cond["decade_ratios"], want, rtol=1e-12, atol=0.0)


def test_integrability_at_nu_equals_q():
    # nu = q: the exponent collapses and omega^q(t)/t is integrable
    w = dh.make_family("power", {"gamma": 0.5})
    cond = check_transform_integrability(w, ALPHA, 2.0, 2.0)
    assert cond["exponent"] == 0.0
    assert cond["accepted"]


@pytest.mark.parametrize("p", [1.0, 2.5, math.nan])
def test_integrability_check_rejects_p_outside_one_two(p):
    w = dh.make_family("power", {"gamma": 0.5})
    with pytest.raises(DomainError, match=r"p must lie in \(1, 2\]"):
        check_transform_integrability(w, ALPHA, p, 1.5)


def test_fourier_lnu_accepted(tail_grid_4096):
    w = dh.make_family("power", {"gamma": 0.5})
    g = sharp(w, tail_grid_4096)
    rep = dh.verify_fourier_Lnu(g, w, 2.0, 1.5)
    assert rep.verdict == "bounded"
    assert all(gr < 0.05 for gr in rep.extra["growth_per_doubling"][-2:])


def test_fourier_lnu_below_threshold(tail_grid_4096):
    w = dh.make_family("power", {"gamma": 0.5})
    g = sharp(w, tail_grid_4096)
    rep = dh.verify_fourier_Lnu(g, w, 2.0, 1.0)
    assert rep.verdict == "hypothesis_failed"


def test_fourier_lnu_domain(tail_grid_4096):
    w = dh.make_family("power", {"gamma": 0.5})
    g = sharp(w, tail_grid_4096)
    with pytest.raises(DomainError):
        dh.verify_fourier_Lnu(g, w, 2.0, 2.5)   # nu > q


def test_fourier_lnu_default_h_grid_is_checked():
    # at R = 16 the tail of every default h lies beyond R/4: the default
    # grid is empty, as an explicit empty grid is
    w = dh.make_family("power", {"gamma": 0.5})
    g = sharp(w, dh.make_tail_grid(ALPHA, 16.0))
    for h_grid in (None, []):
        with pytest.raises(DomainError, match="h grid is empty"):
            dh.verify_fourier_Lnu(g, w, 2.0, 1.5, h_grid=h_grid)


# ----------------------------- cumulative-weight variants -----------------------------

def test_main2_matches_rescaled_main1(tail_grid_8192):
    # W(t) = 2 sqrt(t) for omega = sqrt(t): part-1 ratios rescale by 2^{-q}
    w = dh.make_family("power", {"gamma": 0.5})
    g = sharp(w, tail_grid_8192)
    h = dh.dyadic_h_grid(D0)
    base = dh.verify_main1_part1(g, w, 2.0, h)
    cum = dh.verify_main2(g, w, "part1", h)
    assert cum.theorem_id == "main2_part1"
    assert cum.verdict == "bounded"
    assert np.allclose(cum.ratios, base.ratios / 4.0, rtol=1e-6)


def test_main2_part2_log_inverse_completes(tail_grid_8192):
    # omega itself fails Z0, but the converse run against W_omega goes through
    w = dh.make_family("log_inverse", {"beta": 2.0})
    g = sharp(w, tail_grid_8192)
    with pytest.raises(dh.PreconditionError):
        dh.verify_main1_part1(g, w, 2.0, dh.dyadic_h_grid(D0))
    rep = dh.verify_main2(g, w, "part2", dh.dyadic_h_grid(D0))
    assert rep.theorem_id == "main2_part2"
    assert rep.verdict in ("bounded", "inconclusive")


def test_main2_part1_log_inverse_cumulative_still_fails(tail_grid_8192):
    # Z0 of W_omega = ln^{-1}(e/t) diverges too (iterated-log rate): the
    # tail-estimate run against W_omega is honestly rejected
    w = dh.make_family("log_inverse", {"beta": 2.0})
    g = sharp(w, tail_grid_8192)
    with pytest.raises(dh.PreconditionError) as err:
        dh.verify_main2(g, w, "part1", dh.dyadic_h_grid(D0))
    assert err.value.condition == "Z0"


@pytest.mark.parametrize("theorem", ["main2_part1", "main2_part2", "inclusion_Womega"])
def test_divergent_w_omega_is_a_precondition(theorem, tail_grid_8192):
    # omega(s)/s ~ 1/(s sqrt(ln(1/s))) is not integrable at 0: the theorems
    # on W_omega fail their hypothesis, as build_W_omega itself does
    w = ModulusSpec(evaluator=lambda t: np.log(np.e / t) ** -0.5, delta0=D0)
    g = sharp(dh.make_family("power", {"gamma": 0.5}), tail_grid_8192)
    with pytest.raises(dh.PreconditionError) as err:
        verify(theorem, g, w, dh.dyadic_h_grid(D0), None, None)
    assert err.value.condition == "womega_divergent"


def test_inclusion_corpus(tail_grid_8192):
    h = dh.dyadic_h_grid(D0)
    for tag, params in (("power", {"gamma": 0.3}), ("power", {"gamma": 0.5}),
                        ("power", {"gamma": 0.7}),
                        ("power_log", {"gamma": 0.5, "theta": 1.0})):
        w = dh.make_family(tag, params)
        g = sharp(w, tail_grid_8192)
        rep = dh.verify_inclusion_Womega(g, w, 2.0, h)
        assert rep.extra["seminorm_ratio"] <= 1.5
        assert rep.theorem_id == "inclusion_Womega"


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_route_check_reads_kernel_matrix_at_most_three_times(
        grids_resolved_small, monkeypatch):
    # inverse(g) on the x grid, its forward transform and one product for
    # the whole physical-route trace, however long the h grid is
    xg, lg = grids_resolved_small
    w = dh.make_family("power", {"gamma": 0.5})
    g = smooth(w, lg)
    reads = count_calls(monkeypatch, dhankel.transform, "kernel_matrix")
    for h in (dh.dyadic_h_grid(D0, 3, 4), dh.dyadic_h_grid(D0, 3, 10)):
        reads.clear()
        rep = dh.verify_main1_part2(g, w, h, xgrid=xg)
        assert rep.extra["route_agreement"] is not None
        assert len(reads) <= 3


def test_route_check_builds_one_multiplier(grids_resolved_small, monkeypatch):
    # the ratio trace on g and both routes of its round trip share one
    # multiplier matrix B(lambda_j h_k)
    xg, lg = grids_resolved_small
    w = dh.make_family("power", {"gamma": 0.5})
    g = smooth(w, lg)
    builds = count_calls(monkeypatch, dhankel.transform, "kernel_multiplier")
    rep = dh.verify_main1_part2(g, w, dh.dyadic_h_grid(D0, 3, 5), xgrid=xg)
    assert rep.extra["route_agreement"] is not None
    assert len(builds) == 1


@pytest.mark.parametrize("route", [False, True])
def test_equivalence_builds_one_multiplier(route, grids_resolved_small,
                                           tail_grid_8192, monkeypatch):
    # both directions read one Plancherel trace of g, and the route check
    # its round trip, from one multiplier matrix B(lambda_j h_k)
    xg, lg = grids_resolved_small if route else (None, tail_grid_8192)
    w = dh.make_family("power", {"gamma": 0.5})
    g = smooth(w, lg) if route else sharp(w, lg)
    h = restrict_h_grid(dh.dyadic_h_grid(D0), lg)
    builds = count_calls(monkeypatch, dhankel.transform, "kernel_multiplier")
    rep = dh.verify_equivalence(g, w, h, xgrid=xg)
    assert len(builds) == 1
    assert (rep.extra["route_agreement"] is not None) == route
    # the same numbers as the two verifiers run one by one
    fwd = dh.verify_main1_part1(g, w, 2.0, h, xgrid=xg, lgrid=lg)
    conv = dh.verify_main1_part2(g, w, h, xgrid=xg)
    assert np.array_equal(rep.ratios, fwd.ratios)
    assert rep.extra["forward_constant"] == fwd.estimated_constant
    assert rep.extra["converse_ratios"] == conv.ratios.tolist()
    assert rep.extra["route_agreement"] == conv.extra["route_agreement"]
    assert rep.estimated_constant == max(fwd.estimated_constant,
                                         conv.estimated_constant)


def test_inclusion_computes_one_trace(grids_resolved_small, bump_spec,
                                      monkeypatch):
    # the omega and W_omega seminorms divide the same difference-norm trace
    xg, lg = grids_resolved_small
    w = dh.make_family("power", {"gamma": 0.5})
    traces = count_calls(monkeypatch, dhankel.titchmarsh, "diff_norms")
    reads = count_calls(monkeypatch, dhankel.transform, "kernel_matrix")
    rep = dh.verify_inclusion_Womega(bump_spec, w, 1.5, dh.dyadic_h_grid(D0),
                                     xgrid=xg, lgrid=lg)
    assert len(traces) == 1 and len(reads) <= 2
    assert rep.estimated_constant == rep.extra["seminorm_ratio"]


def test_inclusion_log_inverse_completes(tail_grid_8192):
    w = dh.make_family("log_inverse", {"beta": 2.0})
    g = sharp(w, tail_grid_8192)
    rep = dh.verify_inclusion_Womega(g, w, 2.0, dh.dyadic_h_grid(D0))
    assert math.isfinite(rep.extra["seminorm_ratio"])


# ----------------------------- input contract -----------------------------

def verify(theorem, *args):
    """The table's call of theorem on (data, modulus, h grid, x grid,
    frequency grid) at p = 2, nu = 1.5."""
    return THEOREMS[theorem](*args, 2.0, 1.5)


# the verifiers whose report on a function is the report on its transform
# (the other three take the seminorm of a function by the physical route)
SPECTRAL_SIDE = ("main1_part2", "equivalence", "fourier_Lnu", "main2_part2")


@pytest.mark.parametrize("bad_h", [2.0 * D0, 0.0, -D0 / 8, math.nan])
@pytest.mark.parametrize("theorem", list(THEOREMS))
def test_every_verifier_checks_the_h_grid_first(theorem, bad_h, monkeypatch,
                                                grids_resolved_small, bump_spec):
    # an h outside (0, delta0] is a usage error, raised before any Zygmund
    # constant, W_omega or transform is computed
    def untouched(*args, **kwargs):
        raise AssertionError("work done before the h grid was checked")

    for name in ("zygmund_Z0_constant", "zygmund_Z1_constant", "build_W_omega",
                 "forward"):
        monkeypatch.setattr(dhankel.titchmarsh, name, untouched)
    xg, lg = grids_resolved_small
    w = dh.make_family("power", {"gamma": 0.5})
    h = np.array([D0 / 8, bad_h, D0 / 64])
    with pytest.raises(DomainError, match=r"h grid must lie in \(0, delta0\]"):
        verify(theorem, bump_spec, w, h, xg, lg)


@pytest.mark.parametrize("theorem", list(THEOREMS))
def test_every_verifier_rejects_an_empty_h_grid(theorem, grids_resolved_small,
                                                bump_spec):
    xg, lg = grids_resolved_small
    w = dh.make_family("power", {"gamma": 0.5})
    with pytest.raises(DomainError, match="h grid is empty"):
        verify(theorem, bump_spec, w, [], xg, lg)


@pytest.mark.parametrize("theorem", list(THEOREMS))
def test_every_verifier_rejects_a_2d_h_grid(theorem, grids_resolved_small, bump_spec):
    # refused as a usage error, not a numpy broadcast error in the transform
    xg, lg = grids_resolved_small
    w = dh.make_family("power", {"gamma": 0.5})
    with pytest.raises(DomainError, match="h grid must be a scalar or 1-D"):
        verify(theorem, bump_spec, w, [[0.1, 0.05]], xg, lg)


@pytest.mark.parametrize("theorem", ["main1_part1", "main2_part1", "inclusion_Womega"])
def test_seminorm_trace_takes_one_route(theorem, grids_resolved_small, tail_grid_8192,
                                        bump_spec, monkeypatch):
    # the seminorm of a function is its physical route alone: no Plancherel
    # trace is computed beside it; spectral data takes the Plancherel route
    xg, lg = grids_resolved_small
    w = dh.make_family("power", {"gamma": 0.5})
    plancherel = count_calls(monkeypatch, dhankel.transform, "_plancherel")
    physical = count_calls(monkeypatch, dhankel.transform, "_physical")
    verify(theorem, bump_spec, w, dh.dyadic_h_grid(D0), xg, lg)
    assert (len(plancherel), len(physical)) == (0, 1)
    plancherel.clear()
    physical.clear()
    g = sharp(w, tail_grid_8192)
    verify(theorem, g, w, restrict_h_grid(dh.dyadic_h_grid(D0), tail_grid_8192), None, None)
    assert (len(plancherel), len(physical)) == (1, 0)


@pytest.mark.parametrize("theorem", SPECTRAL_SIDE)
def test_function_input_gives_the_report_of_its_transform(
        theorem, grids_resolved_small, bump_spec):
    xg, lg = grids_resolved_small
    w = dh.make_family("power", {"gamma": 0.5})
    h = dh.dyadic_h_grid(D0, 3, 6)
    g = dh.forward(bump_spec, xg, lg)
    rep = verify(theorem, bump_spec, w, h, xg, lg)
    assert rep.to_json() == verify(theorem, g, w, h, xg, lg).to_json()


@pytest.mark.parametrize("theorem", list(THEOREMS))
def test_function_input_needs_both_grids(theorem, grids_resolved_small, bump_spec):
    xg, lg = grids_resolved_small
    w = dh.make_family("power", {"gamma": 0.5})
    for grids in ((xg, None), (None, lg), (None, None)):
        with pytest.raises(DomainError, match="function input needs both grids"):
            verify(theorem, bump_spec, w, dh.dyadic_h_grid(D0), *grids)


# ----------------------------- reports -----------------------------

def test_report_serialization_deterministic(tail_grid_8192):
    w = dh.make_family("power", {"gamma": 0.5})
    g = sharp(w, tail_grid_8192)
    rep = dh.verify_equivalence(g, w, dh.dyadic_h_grid(D0))
    assert rep.to_json() == rep.to_json()
    assert rep.to_csv() == rep.to_csv()
    payload = json.loads(rep.to_json())
    assert payload["theorem_id"] == "equivalence"
    assert payload["verdict"] == "bounded"
    assert len(payload["ratios"]) == len(payload["h_grid"])
    lines = rep.to_csv().splitlines()
    header_rows = [ln for ln in lines if ln.startswith("#")]
    assert header_rows
    data_start = len(header_rows)
    assert lines[data_start] == "h,ratio,truncated"
    assert len(lines) == data_start + 1 + rep.h_grid.size


def test_spectral_data_takes_alpha_from_its_grid(tail_grid_8192):
    # alpha has one owner, the grid: data on an alpha = 0.5 grid cannot claim
    # 0.3, which its reports would record and at which fourier_Lnu would
    # check integrability (omega(t)/t^{1.3} is integrable: inconclusive)
    w = dh.make_family("power", {"gamma": 0.5})
    g = sharp(w, tail_grid_8192)
    with pytest.raises(TypeError):
        dh.SpectralData(alpha=0.3, lambda_grid=tail_grid_8192, values=g.values)
    with pytest.raises(AttributeError):
        g.alpha = 0.3
    assert g.alpha == tail_grid_8192.alpha == ALPHA
    assert dh.verify_main1_part1(g, w, 2.0, dh.dyadic_h_grid(D0)).extra["alpha"] == ALPHA
    # at alpha = 0.5, omega(t)/t^{1.5} = 1/t is not integrable
    assert dh.verify_fourier_Lnu(g, w, 2.0, 1.0).verdict == "hypothesis_failed"
