import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval
from scipy.special import gammaln, jv

from dhankel import make_resolved_grids
from dhankel.specfun import (_CLENSHAW_BLOCK, DomainError, KernelParams,
                             _band_coefficients, _clenshaw, _large_argument,
                             _near_coefficients, bessel_j_normalized, gamma,
                             kernel_B, kernel_parts)

mp.mp.dps = 40


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
    # the blocked in-place recurrence repeats numpy's operations bit for bit
    x = np.random.default_rng(3).uniform(-1.0, 1.0, _CLENSHAW_BLOCK + 901)
    for c in (_band_coefficients(-0.4), _near_coefficients(1.6)):
        assert np.array_equal(_clenshaw(c, x), chebval(x, c))


@pytest.mark.parametrize("nu", [-0.49, -0.4, 0.0, 0.5, 1.0, 2.0, 3.5, 10.0,
                                12.0, 20.4, 30.4, 199.0])
def test_near_field_oracle(nu):
    # the power series was off by 1.9e-13 at nu = -0.49, and coefficients
    # from numpy's chebinterpolate instead of the DCT by 2e-14; at nu = 199
    # jv underflows at the small fit nodes, which the series of g takes
    got = bessel_j_normalized(nu, NEAR_Z)
    assert max(abs(j - j_mp(nu, z)) for z, j in zip(NEAR_Z, got)) <= 1e-14


@pytest.mark.parametrize("nu", [-0.4, 0.0, 1.6, 2.4, 6.0])
def test_bessel_entry_does_not_depend_on_its_batch(nu):
    # the near-field interpolant and the integer-order large-argument path
    # compute every entry on its own, whatever the other entries of the call;
    # the array spans the seam at 9 and more than one Clenshaw block, in
    # shuffled order
    z = np.random.default_rng(7).permutation(
        np.linspace(0.0, 12.0, _CLENSHAW_BLOCK + 901))
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
    # Hankel's expansion, longer than one Clenshaw block
    z = np.random.default_rng(11).permutation(
        np.linspace(0.0, 40.0, _CLENSHAW_BLOCK + 901))
    whole = bessel_j_normalized(nu, z)
    for k in range(0, z.size, 89):
        assert whole[k] == bessel_j_normalized(nu, z[k:k + 1])[0]


def test_kernel_parts_fractional_alpha_matches_jv():
    # the quarter block's large-argument entries (z > 9, about half of them);
    # the near field below the switch has its own oracle test above
    a = 0.3
    xg, lg = make_resolved_grids(a, 20.0, 128.0)
    t = np.multiply.outer(xg.pos_nodes, lg.pos_nodes)
    z = 2.0 * np.sqrt(t)
    far = z > 9.0

    def j_ref(nu):
        return np.exp(gammaln(nu + 1.0) + nu * np.log(2.0 / z[far])) * jv(nu, z[far])

    even, odd = kernel_parts(KernelParams(alpha=a), t)
    assert np.max(np.abs(even[far] - j_ref(2 * a - 1))) < 1e-13
    odd_ref = t[far] * j_ref(2 * a + 1) / (2 * a * (2 * a + 1))
    assert np.max(np.abs(odd[far] - odd_ref)) < 1e-13


def test_bessel_domain():
    with pytest.raises(DomainError):
        bessel_j_normalized(-1.0, 1.0)


def test_branch_agreement_at_switch():
    # the near field and the large-argument paths meet at the seam z = 9
    for nu in (-0.4, 0.0, 0.5, 2.0, 6.0):
        near = bessel_j_normalized(nu, 9.0)
        asym = _large_argument(nu, np.array([9.0]))[0]
        assert abs(near - asym) < 1e-9


@pytest.mark.parametrize("nu", [0.0, 2.0, 0.5, -0.4, 1.6, 12.0])
def test_nan_argument_gives_nan(nu):
    # one order per large-argument path: j0, the j0/j1 recurrence, the
    # Chebyshev band and Hankel's expansion (three fractional orders, one of
    # them half-integer), and jv above order 10
    got = bessel_j_normalized(nu, np.array([1.0, np.nan, 30.0]))
    assert np.isnan(got[1]) and np.all(np.isfinite(got[[0, 2]]))
    assert math.isnan(bessel_j_normalized(nu, math.nan))


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
