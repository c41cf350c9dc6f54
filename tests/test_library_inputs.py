"""Every call where data enters the library ends in a finite result or in one
of its two error types, with a one-line message: a derandomized sweep of
dhankel's data-entry names, with warnings as errors."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dhankel as dh
from dhankel.specfun import DomainError

# the conditions a PreconditionError may name: hypotheses of the theory
HYPOTHESES = {"Z0", "Z1", "dlip_seminorm", "tail_hypothesis", "womega_divergent"}
# 64 nodes each, so that one array of values fits either grid
XG = dh.build_weighted_grid(0.5, 20.0, 4, 8)
LG = dh.build_weighted_grid(0.5, 64.0, 4, 8)
NON_FINITE = (math.nan, math.inf, -math.inf)
FINITE = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.7, -40.0, 1e-300, 5e-324,
                          1e6, -1e6]) | st.floats(-1e3, 1e3)


def one_of(*values):
    return st.sampled_from(values)


@st.composite
def arrays(draw, n=LG.nodes.size):
    """n values: one finite value, with one entry drawn apart."""
    values = np.full(n, draw(FINITE))
    values[draw(st.integers(0, n - 1))] = draw(FINITE)
    return values


@st.composite
def bad_arrays(draw, n=LG.nodes.size):
    """n values with one non-finite entry, or n - 1 finite values."""
    values = draw(arrays(n))
    if draw(st.booleans()):
        return values[:-1]
    values[draw(st.integers(0, n - 1))] = draw(one_of(*NON_FINITE))
    return values


# (valid, invalid) values of each piece of data of each entry point that
# the sweep holds to its domain.  A NaN argument of the kernel or of a
# Bessel function is valid, and gives NaN in its own entry alone.
VALUES = (arrays(), bad_arrays())
LP_EXPONENT = (one_of(1.0, 1.5, 2.0, 3.0), one_of(0.5, 0.0, -1.0, *NON_FINITE))
PIECES = {
    "forward": {"samples": VALUES, "lgrid": (
        one_of(LG), one_of(dh.build_weighted_grid(0.7, 64.0, 4, 8)))},
    "inverse": {"values": VALUES,
                "x": (one_of(XG.nodes), one_of(XG.nodes[::-1], np.zeros(3)))},
    "diff_norms": {"values": VALUES,
                   "h": (one_of(0.1, 1e-3, 2.0, 1e-300, 0.0, -0.1), one_of(*NON_FINITE)),
                   "p": (one_of(1.5, 2.0), one_of(1.0, 2.5, 0.5, *NON_FINITE))},
    "tail_energy": {"values": VALUES,
                    "h": (one_of(0.1, 1e-3, 2.0, 1e-300), one_of(0.0, -0.1, *NON_FINITE)),
                    "q": LP_EXPONENT},
    "weighted_norm": {"values": VALUES, "p": LP_EXPONENT},
    "SpectralData": {"values": VALUES},
    "kernel_B": {"u": (FINITE | one_of(math.nan), one_of(math.inf, -math.inf))},
    "bessel_j_normalized": {
        "nu": (one_of(-0.999, -0.4, 0.5, 3.0, 12.0), one_of(-1.0, -2.0, *NON_FINITE)),
        "x": (FINITE | one_of(math.nan), one_of(math.inf, -math.inf))},
}
# the entry points that check a mix of inputs, each of which may be right to
# pass or to raise: the values of each of their pieces
MIXED = {
    "dyadic_h_grid": {"delta0": one_of(0.5, 1e-300, 1e300, 0.0, -0.5, *NON_FINITE),
                      "exponents": one_of((0, 10), (3, 4), (-2, 3), (1500, 2000),
                                          (2.5, 10), (4, 3), (-1500, 10))},
    "make_family": {"tag": one_of("power", "power_log", "log_inverse", "nope"),
                    "value": one_of("0.5", "-1.0", "2.0", "abc", "", "nan", "inf",
                                    "1e-300"),
                    "delta0": one_of(None, 0.5, 0.1, 2.0, 0.0, *NON_FINITE)},
}
MIXED["parse_family"] = MIXED["make_family"]
FAMILY_PARAMS = {"power": ["gamma"], "power_log": ["gamma", "theta"],
                 "log_inverse": ["beta"], "nope": ["gamma"]}


def invoke(name, d):
    """Call the entry point name with the data d; the Plancherel route of
    diff_norms takes spectral values, the physical one samples of f on XG
    and their transform."""
    if name == "forward":
        return dh.forward(d["samples"], XG, d["lgrid"])
    if name == "weighted_norm":
        return dh.weighted_norm(d["values"], LG, d["p"])
    if name == "kernel_B":
        return dh.kernel_B(dh.KernelParams(0.5), d["u"])
    if name == "bessel_j_normalized":
        return dh.bessel_j_normalized(d["nu"], d["x"])
    if name == "dyadic_h_grid":
        return dh.dyadic_h_grid(d["delta0"], *d["exponents"])
    if name in ("make_family", "parse_family"):
        params = dict.fromkeys(FAMILY_PARAMS[d["tag"]], d["value"])
        if name == "make_family":
            return dh.make_family(d["tag"], params, d["delta0"])
        text = d["tag"] + ":" + ",".join(f"{k}={v}" for k, v in params.items())
        return dh.parse_family(text, d["delta0"])
    if name == "diff_norms" and d["route"] == "physical":
        return dh.diff_norms(dh.forward(d["values"], XG, LG), d["h"], d["p"],
                             fx=d["values"], xgrid=XG)
    g = dh.SpectralData(LG, d["values"])
    if name == "inverse":
        return dh.inverse(g, XG)(d["x"])
    if name == "tail_energy":
        return dh.tail_energy(g, d["h"], d["q"])
    if name == "diff_norms":
        return dh.diff_norms(g, d["h"], d["p"])
    return g


@st.composite
def calls(draw):
    """(entry point, its data, whether the data lie in its domain): all
    pieces valid, or all but one; None where the entry point decides."""
    name = draw(st.sampled_from([*PIECES, *MIXED]))
    if name in MIXED:
        return name, {key: draw(values) for key, values in MIXED[name].items()}, None
    pieces = PIECES[name]
    spoiled = draw(st.sampled_from(list(pieces))) if draw(st.booleans()) else None
    d = {key: draw(values[key == spoiled]) for key, values in pieces.items()}
    if name in ("kernel_B", "bessel_j_normalized"):   # a valid entry beside it
        arg = "u" if name == "kernel_B" else "x"
        d[arg] = np.array([draw(FINITE), d[arg]])
    if name == "diff_norms":    # the Plancherel route is p = 2 only
        d["route"] = draw(one_of("physical", "Plancherel"))
        return name, d, spoiled is None and (d["route"] == "physical" or d["p"] == 2.0)
    return name, d, spoiled is None


def finite(result):
    """Whether a result holds finite numbers only; a ModulusSpec's are its
    values on (0, delta0]."""
    if isinstance(result, dh.SpectralData):
        result = result.values
    elif isinstance(result, dh.ModulusSpec):
        result = result(result.delta0 * np.geomspace(1e-6, 1.0, 7))
    return bool(np.all(np.isfinite(result)))


def check(name, d, in_domain):
    """The call ends in a finite result or in one error line, an out-of-domain
    one in an error; in_domain None leaves that to the call."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = invoke(name, d)
    except (DomainError, dh.PreconditionError) as exc:
        assert str(exc) and "\n" not in str(exc), (name, d, str(exc))
        if isinstance(exc, dh.PreconditionError):
            assert exc.condition in HYPOTHESES, (name, d, exc.condition)
        assert in_domain is not True or isinstance(exc, dh.PreconditionError), (name, d, exc)
        return
    assert in_domain is not False, (name, d, "an out-of-domain input did not raise")
    arg = d.get("u", d.get("x")) if name in ("kernel_B", "bessel_j_normalized") else None
    if arg is not None:
        assert np.array_equal(np.isnan(result), np.isnan(arg)), (name, d, result)
        result = np.asarray(result)[~np.isnan(arg)]
    assert finite(result), (name, d, result)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(calls())
def test_every_entry_point_ends_in_a_finite_result_or_one_error_line(call):
    check(*call)


HUGE = ("L^p sums and transforms of data near the largest double overflow in "
        "their intermediate powers and products")
FAR_Z = "beyond z = 1.3e154 the Hankel expansion's 1 / z^2 overflows in z^2"
HIGH_ORDER = "from order 287 on, jv's scale Gamma(nu+1) (2/z)^nu overflows beyond z = 18"
BIG = np.full(LG.nodes.size, 1e300)
LARGEST = np.full(LG.nodes.size, 1.7e308)
OVERFLOWS = {
    "weighted_norm": ("weighted_norm", {"values": BIG, "p": 2.0}, HUGE),
    "tail_energy": ("tail_energy", {"values": BIG, "h": 0.1, "q": 2.0}, HUGE),
    "diff_norms": ("diff_norms", {"values": BIG, "h": 0.1, "p": 2.0,
                                  "route": "Plancherel"}, HUGE),
    "forward": ("forward", {"samples": LARGEST, "lgrid": LG}, HUGE),
    "inverse": ("inverse", {"values": LARGEST, "x": XG.nodes}, HUGE),
    "kernel_B": ("kernel_B", {"u": np.array([1.7e308])}, FAR_Z),
    "bessel_far": ("bessel_j_normalized", {"nu": 0.5, "x": np.array([1e200])}, FAR_Z),
    "bessel_order_300": ("bessel_j_normalized", {"nu": 300.0, "x": np.array([20.0])},
                         HIGH_ORDER),
}


# valid inputs beyond the sweep's magnitudes (at most 1e6) and orders (at
# most 12), each of which ends in an overflow
@pytest.mark.parametrize("name, d", [
    pytest.param(name, d, id=key, marks=pytest.mark.xfail(
        strict=True, raises=RuntimeWarning, reason=defect))
    for key, (name, d, defect) in OVERFLOWS.items()])
def test_valid_inputs_that_overflow(name, d):
    check(name, d, True)
