import decimal
import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import cheb2poly, chebval
from numpy.polynomial.polynomial import polyval
from scipy.special import gammaln, jv

from dhankel import make_resolved_grids
from dhankel.specfun import (_BAND_DEGREE, _CHUNK, _NEAR_DEGREE, DomainError, KernelParams, _band_coefficients,
                             _clenshaw, _hankel_coefficients, _horner,
                             _near_coefficients, bessel_j_normalized, gamma,
                             kernel_B, kernel_parts)

mp.mp.dps = 40
# the oracle's own statement of the fits' q intervals: half the width of the
# near fit's [0, 81/4], and the centre and half the width of the band fit's
# [81/4, 405/4]
NEAR_HALF = 10.125
BAND_MID, BAND_HALF = 60.75, 40.5


def kernel_slope_bounds(alpha: float) -> tuple[float, float]:
    """Leading coefficients of 1 - B_alpha(u) ~ c*u near zero.

    Returns (c_neg, c_pos): B(u) - 1 = -c_pos*u + O(u^2) for u > 0 and
    = -c_neg*|u| + O(u^2) for u < 0.  Both are positive for alpha > 1/4,
    which is the near-zero coercivity |B(u) - 1| >= c|u|.
    """
    c_pos = (alpha + 1.0) / (alpha * (2.0 * alpha + 1.0))
    c_neg = 1.0 / (2.0 * alpha + 1.0)
    return c_neg, c_pos


def j_oracle(nu, x, terms=300):
    """Independent oracle: direct series summation in extended precision."""
    x = mp.mpf(x)
    nu = mp.mpf(nu)
    s = mp.mpf(0)
    for k in range(terms):
        s += (-1) ** k / (mp.factorial(k) * mp.gamma(k + nu + 1)) * (x / 2) ** (2 * k)
    return float(mp.gamma(1 + nu) * s)


def j_mp(nu, x):
    """Normalized j_nu from mpmath's besselj, for large arguments."""
    x, nu = mp.mpf(x), mp.mpf(nu)
    return float(mp.gamma(1 + nu) * (2 / x) ** nu * mp.besselj(nu, x))


# The oracle of the Bessel fits: the same interpolants computed in decimal,
# from the values of the power series at the Chebyshev points, by the
# type-II cosine transform, rounded once to doubles and trimmed as the fits
# are.  At 45 digits it put one band coefficient of nu = -0.99934 an ulp
# off: near nu = -1 the series' terms carry 1/(nu + 1), so its sums lose
# three more digits.  At 60 digits it agrees with 80.
ORACLE_DIGITS = 60
ORACLE_TINY = decimal.Decimal("1e-75")
ORACLE_PI = decimal.Decimal("3.14159265358979323846264338327950288419716939937510"
                            "58209749445923078164062862089986280348253421170679")


def oracle_series_g(nu, q):
    """g(q) = (1 - j_nu(2 sqrt q)) / q = sum_k (-q)^k / ((k+1)! (nu+1)_{k+1})
    from the exact binary nu, in the caller's decimal context, until the
    terms, which fall from k > q on, are below ORACLE_TINY."""
    nu1 = decimal.Decimal(nu) + 1
    term = total = 1 / nu1
    k = 0
    while k <= q or abs(term) > ORACLE_TINY:
        k += 1
        term = -term * q / ((k + 1) * (nu1 + k))
        total += term
    return total


def oracle_near_value(nu, t):
    """g at the point t of [-1, 1] mapped onto the near field's q interval."""
    return oracle_series_g(nu, decimal.Decimal(NEAR_HALF) * (1 + t))


def oracle_band_value(nu, t):
    """The normalized j_nu(2 sqrt q) = 1 - q g(q) at the point t of [-1, 1]
    mapped onto the band's q interval."""
    q = decimal.Decimal(BAND_MID) + decimal.Decimal(BAND_HALF) * t
    return 1 - q * oracle_series_g(nu, q)


@functools.cache
def oracle_cosines(n):
    """cos(pi m / (2n)) for m = 0 .. 4n - 1: Taylor series on the first
    quadrant, the rest by symmetry."""
    with decimal.localcontext() as ctx:
        ctx.prec = ORACLE_DIGITS
        quadrant = []
        for r in range(n + 1):
            x2 = (ORACLE_PI * r / (2 * n)) ** 2
            term = total = decimal.Decimal(1)
            k = 0
            while abs(term) > ORACLE_TINY:
                k += 2
                term = -term * x2 / (k * (k - 1))
                total += term
            quadrant.append(total)
        half = quadrant + [-c for c in quadrant[-2::-1]]      # m = 0 .. 2n
        return tuple(half + half[-2:0:-1])


def oracle_fit(value, nu, degree, monomial=False):
    """Coefficients of value(nu, .)'s interpolant at the degree + 1
    Chebyshev points of the first kind, trimmed as the run-time fits are;
    with monomial, those of the trimmed interpolant in powers of t,
    converted in decimal by numpy's cheb2poly of each T_k and rounded once."""
    n = degree + 1
    cos = oracle_cosines(n)
    with decimal.localcontext() as ctx:
        ctx.prec = ORACLE_DIGITS
        values = [value(nu, cos[2 * k + 1]) for k in range(n)]
        a = [2 * sum(v * cos[j * (2 * k + 1) % (4 * n)] for k, v in enumerate(values)) / n
             for j in range(n)]
        c = np.array([float(x) for x in a])
        c[0] *= 0.5
        tail = np.cumsum(np.abs(c[::-1]))[::-1]
        keep = max(2, np.count_nonzero(tail >= 1e-20))
        if not monomial:
            return c[:keep]
        a[0] /= 2
        powers = [[int(x) for x in cheb2poly(np.eye(keep)[k])] for k in range(keep)]
        return np.array([float(sum(a[k] * powers[k][m] for k in range(m, keep)))
                         for m in range(keep)])


# z across the Chebyshev band (9, 18] and Hankel's expansion (18, 300]
FAR_Z = np.concatenate([np.linspace(9.05, 18.0, 14), np.geomspace(18.2, 300.0, 20)])
# z across the near-field interpolant (0, 9], crowded towards the switch
NEAR_Z = np.concatenate([np.linspace(0.05, 9.0, 180), 9.0 - np.geomspace(1e-12, 0.3, 24)])


def test_gamma_classical_values():
    assert gamma(1.0) == 1.0
    assert gamma(5.0) == 24.0
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-15


def test_gamma_accuracy_range():
    for x in np.geomspace(0.5, 50.0, 60):
        exact = float(mp.gamma(mp.mpf(x)))
        assert abs(gamma(float(x)) - exact) <= 1e-13 * exact


def test_gamma_domain():
    with pytest.raises(DomainError):
        gamma(0.0)
    with pytest.raises(DomainError):
        gamma(-2.5)


def test_gamma_overflow_is_a_domain_error():
    assert math.isfinite(gamma(171.0))
    with pytest.raises(DomainError, match="overflows"):
        gamma(172.0)


@pytest.mark.parametrize("nu", [-0.4, 0.0, 0.5, 1.5, 2.0, 6.0])
def test_bessel_at_zero(nu):
    assert bessel_j_normalized(nu, 0.0) == 1.0


@pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 10.0])
def test_bessel_half_order_closed_form(x):
    # j_{1/2}(x) = sin(x)/x, cross-checked against the series oracle
    assert abs(bessel_j_normalized(0.5, x) - math.sin(x) / x) < 1e-13
    assert abs(bessel_j_normalized(0.5, x) - j_oracle(0.5, x)) < 1e-13


def test_bessel_three_half_order_at_pi():
    # j_{3/2}(x) = 3(sin x - x cos x)/x^3 -> 3/pi^2 at x = pi
    got = bessel_j_normalized(1.5, math.pi)
    assert abs(got - 3.0 / math.pi ** 2) < 1e-13
    assert abs(got - j_oracle(1.5, math.pi)) < 1e-13


def test_bessel_oracle_sweep():
    for nu in (-0.4, 0.0, 2.0, 6.0):
        for x in (0.3, 2.0, 8.0, 15.0, 40.0):
            assert abs(bessel_j_normalized(nu, x) - j_oracle(nu, x)) < 1e-12


@given(x=st.floats(min_value=-40.0, max_value=40.0),
       nu=st.sampled_from([-0.4, 0.0, 0.5, 2.0]))
def test_bessel_even(nu, x):
    assert bessel_j_normalized(nu, x) == bessel_j_normalized(nu, -x)


def test_clenshaw_matches_chebval():
    # the in-place recurrence repeats numpy's operations bit for bit
    x = np.random.default_rng(3).uniform(-1.0, 1.0, _CHUNK + 901)
    for c in (_band_coefficients(-0.4), _band_coefficients(1.6)):
        out, x2, c0, tmp = (np.empty_like(x) for _ in range(4))
        _clenshaw(c, x, out, x2, c0, tmp)
        assert np.array_equal(out, chebval(x, c))


@pytest.mark.parametrize("nu", [-0.4, 0.6, 1.6, 2.4, 3.3, 9.5, 10.0])
def test_horner_matches_polyval(nu):
    # the Hankel expansion's P and Q sums in 1/z^2 and the near field's sum
    # in x on [-1, 1] repeat numpy's operations bit for bit
    z = np.geomspace(18.0, 1e6, 20001)[1:]
    x = np.random.default_rng(3).uniform(-1.0, 1.0, _CHUNK + 901)
    for c, w in [(c, 1.0 / (z * z)) for c in _hankel_coefficients(nu)[:2]] + [
            (_near_coefficients(nu), x)]:
        out = np.empty_like(w)
        _horner(c, w, out)
        assert np.array_equal(out, polyval(w, c))
        _horner(c, np.empty(0), np.empty(0))


@pytest.mark.parametrize("nu", [-0.49, -0.4, 0.0, 0.5, 1.0, 2.0, 3.5, 10.0,
                                12.0, 20.4, 30.4, 199.0])
def test_near_field_oracle(nu):
    # the power series was off by 1.9e-13 at nu = -0.49, and coefficients
    # from numpy's chebinterpolate instead of the DCT by 2e-14; at nu = 199
    # jv underflows at the small fit nodes, which the series of g takes
    got = bessel_j_normalized(nu, NEAR_Z)
    assert max(abs(j - j_mp(nu, z)) for z, j in zip(NEAR_Z, got)) <= 1e-14


@pytest.mark.parametrize("nu", [-0.48, 0.0, 1.6, 2.0, 7.4, 10.0])
def test_fit_values_match_mpmath(nu):
    # the oracle's decimal values behind the near fit (g at 25 points) and
    # the band fit (the normalized j at 41 points of q = z^2/4): Chebyshev
    # nodes within 1e-40 and values within a relative 1e-30 of mpmath's
    # besselj in 50 digits
    def j(z):
        return mp.gamma(1 + nu) * (2 / z) ** nu * mp.besselj(nu, z)

    def g(q):
        return (1 - j(2 * mp.sqrt(q))) / q

    with mp.workdps(50), decimal.localcontext() as ctx:
        ctx.prec = ORACLE_DIGITS
        for n, fit_value, exact in (
                (25, oracle_near_value, lambda t: g(NEAR_HALF * (1 + t))),
                (41, oracle_band_value, lambda t: j(2 * mp.sqrt(BAND_MID + BAND_HALF * t)))):
            for k in range(n):
                t = oracle_cosines(n)[2 * k + 1]
                t_mp = mp.mpf(str(t))
                assert abs(t_mp - mp.cos(mp.pi * (2 * k + 1) / (2 * n))) < 1e-40
                want = exact(t_mp)
                assert abs(mp.mpf(str(fit_value(nu, t))) - want) <= 1e-30 * abs(want)


# seeded orders across (-1, 10], the menu's and the extremes, the order where
# the oracle at 45 digits was an ulp off, and orders above 10, which take
# both fits too
FIT_ORDERS = ([float(nu) for nu in np.random.default_rng(36).uniform(-1.0, 10.0, 40)]
              + [-0.999, -0.9993369507747897, -0.4, 0.0, 0.4, 1.6, 2.4, 10.0,
                 12.0, 20.4, 199.0])


@pytest.mark.parametrize("nu", FIT_ORDERS)
def test_fits_equal_the_decimal_oracle_to_the_bit(nu):
    # the integer fits round the same interpolants once, so every
    # coefficient and the trimmed length are the oracle's, the near field's
    # in powers of t
    assert np.array_equal(_near_coefficients(nu),
                          oracle_fit(oracle_near_value, nu, _NEAR_DEGREE, monomial=True))
    assert np.array_equal(_band_coefficients(nu),
                          oracle_fit(oracle_band_value, nu, _BAND_DEGREE))


@pytest.mark.parametrize("nu", [-0.4, 0.0, 1.6, 2.4, 6.0])
def test_bessel_entry_does_not_depend_on_its_batch(nu):
    # the near-field interpolant and the band compute every entry on its
    # own, integer orders included, whatever the other entries of the call;
    # the array spans the seam at 9 and more than one chunk, in shuffled
    # order
    z = np.random.default_rng(7).permutation(
        np.linspace(0.0, 12.0, _CHUNK + 901))
    whole = bessel_j_normalized(nu, z)
    near_edge = int(np.argmax(np.where(z <= 9.0, z, 0.0)))
    for k in list(range(0, z.size, 97)) + [near_edge]:
        one = bessel_j_normalized(nu, z[k:k + 1])
        assert whole[k] == one[0]


@pytest.mark.parametrize("nu", [-0.48, -0.4, 0.4, 1.6, 2.4, 3.4, 7.4])
def test_fractional_order_far_field_oracle(nu):
    got = bessel_j_normalized(nu, FAR_Z)
    for z, j in zip(FAR_Z, got):
        assert abs(j - j_mp(nu, z)) < 1e-13, z


@pytest.mark.parametrize("nu", [10.5, 12.0, 20.4, 30.4, 50.0, 199.0])
def test_band_of_orders_above_ten_matches_mpmath(nu):
    # orders above 10 take the band's fit, as the lower orders do, not jv
    z = np.concatenate([np.linspace(9.0, 18.0, 91)[1:], [np.nextafter(9.0, 10.0)]])
    got = bessel_j_normalized(nu, z)
    assert max(abs(j - j_mp(nu, x)) for x, j in zip(z, got)) <= 1e-14


@pytest.mark.parametrize("nu", [20.4, 30.4])
def test_large_orders_stay_accurate(nu):
    # the 8-term Hankel expansion is off by O(1) at z = 18 for nu = 20.4,
    # so these orders must not take it
    got = bessel_j_normalized(nu, FAR_Z)
    for z, j in zip(FAR_Z, got):
        assert abs(j - j_mp(nu, z)) < 1e-12, z


@pytest.mark.parametrize("nu", [-0.4, 0.4, 1.6, 7.4])
@pytest.mark.parametrize("edge", [9.0, 18.0])
def test_fractional_order_continuous_at_band_edges(nu, edge):
    for z in (edge - 1e-9, edge, np.nextafter(edge, 20.0), edge + 1e-9):
        assert abs(bessel_j_normalized(nu, z) - j_mp(nu, z)) < 1e-13, z


@pytest.mark.parametrize("nu", [-0.4, 1.6, 2.4])
def test_far_field_entry_does_not_depend_on_its_batch(nu):
    # a shuffled array across the near field, the Chebyshev band and
    # Hankel's expansion, longer than one chunk
    z = np.random.default_rng(11).permutation(
        np.linspace(0.0, 40.0, 3 * _CHUNK + 901))
    whole = bessel_j_normalized(nu, z)
    for k in range(0, z.size, 89):
        assert whole[k] == bessel_j_normalized(nu, z[k:k + 1])[0]


@pytest.mark.parametrize("a", [0.3, 0.7, 1.0, 2.5])
@pytest.mark.parametrize("radii, stride", [((20.0, 128.0), 1), ((40.0, 512.0), 7)],
                         ids=["20-128", "40-512"])
def test_kernel_parts_fractional_alpha_matches_jv(a, radii, stride):
    # the quarter block's large-argument entries (z > 9, about half of them;
    # at (40, 512) every 7th row, the last one included, z up to about 286),
    # where the odd part's scale is the even part's times 4 (2a) (2a+1) /
    # z^2; the near field below the switch has its own oracle test above
    xg, lg = make_resolved_grids(a, *radii)
    t = np.multiply.outer(xg.pos_nodes[::-stride], lg.pos_nodes)
    z = 2.0 * np.sqrt(t)
    far = z > 9.0

    def j_ref(nu):
        return np.exp(gammaln(nu + 1.0) + nu * np.log(2.0 / z[far])) * jv(nu, z[far])

    even, odd = kernel_parts(KernelParams(alpha=a), t)
    assert np.max(np.abs(even[far] - j_ref(2 * a - 1))) < 1e-13
    odd_ref = t[far] * j_ref(2 * a + 1) / (2 * a * (2 * a + 1))
    assert np.max(np.abs(odd[far] - odd_ref)) < 1e-13


def reference_j(orders, z):
    """Normalized j of each order (each 2 above the one before) at z, by
    the allocating formula that the in-place fields replaced: every field
    through fresh temporaries, numpy's polyval and chebval in place of
    _horner and _clenshaw; beyond 18 the first order's cos chi and sin chi
    / z serve every order, negated, and each scale is the one before's
    times 4 (nu+1) (nu+2) / z^2."""
    out = np.empty((len(orders),) + z.shape)
    near, far = z <= 9.0, z > 18.0
    band = ~(near | far)
    zf = z[far]
    w = 1.0 / (zf * zf)
    _, _, cos_c, sin_c, _ = _hankel_coefficients(orders[0])
    cos_x = np.cos(zf) * cos_c + np.sin(zf) * sin_c
    sin_x = (np.sin(zf) * cos_c - np.cos(zf) * sin_c) / zf
    for j, nu in enumerate(orders):
        q = 0.25 * z[near] ** 2
        out[j, near] = 1.0 - polyval(q / NEAR_HALF - 1.0, _near_coefficients(nu)) * q
        q = 0.25 * z[band] ** 2
        out[j, band] = chebval((q - BAND_MID) / BAND_HALF, _band_coefficients(nu))
        if nu > 10.0:
            out[j, far] = np.exp(math.lgamma(nu + 1.0)
                                 + nu * (math.log(2.0) - np.log(zf))) * jv(nu, zf)
            continue
        p_c, q_c, _, _, log_scale = _hankel_coefficients(nu)
        if j:
            e = e * w * (-4.0 * (orders[j - 1] + 1.0) * (orders[j - 1] + 2.0))
        else:
            e = np.exp(log_scale - np.log(zf) * (nu + 0.5))
        out[j, far] = (polyval(w, p_c) * cos_x - polyval(w, q_c) * sin_x) * e
    return out


def reference_parts(alpha, t):
    """(E, O) at t by reference_j, in kernel_parts' order of operations."""
    even, odd = reference_j((2.0 * alpha - 1.0, 2.0 * alpha + 1.0), 2.0 * np.sqrt(t))
    return np.stack([even, t * odd / ((2.0 * alpha) * (2.0 * alpha + 1.0))])


def writer_arguments():
    """Kernel arguments t on every path, shuffled: 0, NaN, the seams z = 9
    (t = 20.25) and z = 18 (t = 81) and their neighbours, the smallest
    subnormal, and more than one chunk each of near, band and far entries."""
    rng = np.random.default_rng(17)
    edges = [0.0, np.nan, 20.25, 81.0, 5e-324, 1e-300, 1e12]
    edges += [np.nextafter(seam, side) for seam in (20.25, 81.0) for side in (0.0, 1e3)]
    fields = [rng.uniform(lo, hi, _CHUNK + 100) for lo, hi in ((0.0, 20.25), (20.25, 81.0),
                                                              (81.0, 1e6))]
    return rng.permutation(np.concatenate([edges, *fields]))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 5.0])
def test_parts_writer_matches_the_allocating_formula(alpha):
    # bit for bit, NaN in place, on every path: near, band and far, and
    # scipy's jv beyond 18 for the order 2 alpha + 1 = 11 > 10 at alpha = 5;
    # given out, a strided slice of a larger buffer, kernel_parts fills it
    # and nothing else, with the bits of the allocating call
    t = writer_arguments()
    want = reference_parts(alpha, t)
    params = KernelParams(alpha=alpha)
    buf = np.full((2, t.size + 10), -1.0)
    view = buf[:, 5:-5]
    assert kernel_parts(params, t, out=view) is view
    assert np.array_equal(buf[:, 5:-5], want, equal_nan=True)
    assert np.all(buf[:, :5] == -1.0) and np.all(buf[:, -5:] == -1.0)
    assert np.array_equal(np.stack(kernel_parts(params, t)), buf[:, 5:-5], equal_nan=True)
    # an out of any other shape, or a t of more than one axis, is refused
    for bad_t, bad_out in ((t, buf), (t[None, :], view)):
        with pytest.raises(DomainError, match=r"out must have shape \(2, t.size\)"):
            kernel_parts(params, bad_t, out=bad_out)


@pytest.mark.parametrize("alpha", [0.3, 5.0])
def test_parts_writer_on_concatenated_arguments(alpha):
    # every entry is computed on its own: any split of the arguments gives
    # the same bits, including splits inside a chunk of one field
    t = writer_arguments()
    params = KernelParams(alpha=alpha)
    whole = np.empty((2, t.size))
    kernel_parts(params, t, out=whole)
    for cuts in ([1], [4000, 4001, 20000], [_CHUNK, 2 * _CHUNK + 3]):
        pieces = []
        for part in np.split(t, cuts):
            out = np.empty((2, part.size))
            kernel_parts(params, part, out=out)
            pieces.append(out)
        assert np.array_equal(np.hstack(pieces), whole, equal_nan=True)


def test_bessel_domain():
    with pytest.raises(DomainError):
        bessel_j_normalized(-1.0, 1.0)


def test_branch_agreement_at_switch():
    # the near field and the band meet at the seam z = 9
    for nu in (-0.4, 0.0, 0.5, 2.0, 6.0):
        near = bessel_j_normalized(nu, 9.0)
        band = bessel_j_normalized(nu, np.nextafter(9.0, 10.0))
        assert abs(near - band) < 1e-9


@pytest.mark.parametrize("nu", [0.0, 2.0, 0.5, -0.4, 1.6, 12.0])
def test_nan_argument_gives_nan(nu):
    # the Chebyshev band and Hankel's expansion at integer, fractional and
    # half-integer orders, and jv above order 10
    got = bessel_j_normalized(nu, np.array([1.0, np.nan, 30.0]))
    assert np.isnan(got[1]) and np.all(np.isfinite(got[[0, 2]]))
    assert math.isnan(bessel_j_normalized(nu, math.nan))


@pytest.mark.parametrize("x", [np.inf, -np.inf])
def test_infinite_argument_is_a_domain_error(x):
    # no path has a value at infinity: refused where the argument enters,
    # not a NaN from cos; NaN beside it stays NaN (above)
    with pytest.raises(DomainError, match="finite"):
        bessel_j_normalized(0.5, x)
    with pytest.raises(DomainError, match="finite"):
        bessel_j_normalized(0.5, np.array([1.0, np.nan, x]))
    with pytest.raises(DomainError, match="finite"):
        kernel_B(KernelParams(alpha=0.5), x)
    with pytest.raises(DomainError, match="finite"):
        kernel_parts(KernelParams(alpha=0.3), np.array([2.0, abs(x)]), out=np.empty((2, 2)))


def test_negative_kernel_argument_is_a_domain_error():
    # kernel_parts takes t = |u|: a negative t ended in NaN from sqrt, with
    # a RuntimeWarning; NaN beside a valid t stays NaN, and kernel_B passes |u|
    params = KernelParams(alpha=0.5)
    for t in (-1.0, np.array([2.0, np.nan, -1e-300])):
        with pytest.raises(DomainError, match="^kernel arguments must be >= 0, got -"):
            kernel_parts(params, t)
    even, odd = kernel_parts(params, np.array([2.0, np.nan]))
    assert np.isnan(even[1]) and np.isnan(odd[1]) and np.isfinite(even[0])
    assert kernel_B(params, -1.0) == kernel_parts(params, 1.0)[0] + kernel_parts(params, 1.0)[1]


def test_kernel_params_validation():
    with pytest.raises(DomainError):
        KernelParams(alpha=0.25)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 2.5])
def test_kernel_at_zero(alpha):
    assert kernel_B(KernelParams(alpha=alpha), 0.0) == 1.0


def test_kernel_value_oracle():
    # B_{1/2}(1) = j_0(2) - (Gamma(1)/Gamma(3)) * 1 * j_2(2)
    got = kernel_B(KernelParams(alpha=0.5), 1.0)
    want = j_oracle(0.0, 2.0) - 0.5 * j_oracle(2.0, 2.0)
    assert abs(got - want) < 1e-13


def test_kernel_half_alpha_identities():
    # alpha = 1/2 collapses to J0(2 sqrt u) -+ J2(2 sqrt u)
    p = KernelParams(alpha=0.5)
    u = np.geomspace(0.01, 150.0, 200)
    z = 2.0 * np.sqrt(u)
    assert np.max(np.abs(kernel_B(p, u) - (jv(0, z) - jv(2, z)))) < 1e-12
    assert np.max(np.abs(kernel_B(p, -u) - (jv(0, z) + jv(2, z)))) < 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
def test_kernel_bounded_by_one(alpha):
    p = KernelParams(alpha=alpha)
    u = np.linspace(-200.0, 200.0, 20001)
    assert np.max(np.abs(kernel_B(p, u))) <= 1.0 + 1e-9


def test_kernel_bound_fails_below_half():
    # For alpha in (1/4, 1/2) the kernel genuinely exceeds 1 (the two Bessel
    # pieces share the amplitude ~ z^{1/2-2a} and add in phase for u > 0);
    # sup|B_{0.3}| ~ 1.6257 near u = 2.4.
    p = KernelParams(alpha=0.3)
    u = np.linspace(0.5, 10.0, 4001)
    peak = np.max(np.abs(kernel_B(p, u)))
    assert peak > 1.5
    assert abs(peak - 1.6257) < 2e-3


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
def test_kernel_near_zero_coercivity(alpha):
    p = KernelParams(alpha=alpha)
    c_neg, c_pos = kernel_slope_bounds(alpha)
    floor = min(c_neg, c_pos)
    for n in (2000, 20000):
        u = np.geomspace(1e-6, 1e-2, n)
        u = np.concatenate([-u, u])
        ratio = np.abs(kernel_B(p, u) - 1.0) / np.abs(u)
        assert np.min(ratio) > 0.97 * floor


def test_kernel_slope_bounds_match_expansion():
    for alpha in (0.3, 0.5, 1.0, 2.5):
        p = KernelParams(alpha=alpha)
        c_neg, c_pos = kernel_slope_bounds(alpha)
        u = 1e-7
        assert abs((1.0 - kernel_B(p, u)) / u - c_pos) < 1e-4 * c_pos
        assert abs((1.0 - kernel_B(p, -u)) / u - c_neg) < 1e-4 * c_neg
