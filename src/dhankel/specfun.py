"""Special functions: gamma, normalized Bessel j_nu, and the deformed Hankel kernel.

The kernel of the deformed (alpha-) Hankel transform is

    B_alpha(u) = j_{2a-1}(2 sqrt|u|) - u/((2a)(2a+1)) * j_{2a+1}(2 sqrt|u|),

where j_nu is the Bessel function of the first kind normalized so that
j_nu(0) = 1, and u stands for the frequency-space product lambda*x.
B_alpha(0) = 1; |B_alpha| <= 1 holds for alpha >= 1/2 (for
alpha in (1/4, 1/2) the sup is finite but exceeds 1 — see tests).

All functions are pure and accept scalars or numpy arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebinterpolate, chebval
from numpy.polynomial.polynomial import polyval
from scipy.special import gammaln, j0, j1, jv, spherical_jn


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


@dataclass(frozen=True)
class KernelParams:
    """Evaluation parameters for the kernel B_alpha.

    alpha: deformation order, must exceed 1/4.
    series_tol: the power series stops after the first term whose magnitude
        at z = asymptotic_switch is below series_tol.
    asymptotic_switch: |argument| of j_nu above which the large-argument
        evaluation is used instead of the series.  At the default 9 every
        large argument of a fractional order takes the Chebyshev band or
        Hankel's expansion (see bessel_j_normalized); a switch below 9 sends
        the arguments up to 9 to scipy's jv.
    """

    alpha: float
    series_tol: float = 1e-15
    asymptotic_switch: float = 9.0

    def __post_init__(self):
        if not self.alpha > 0.25:
            raise DomainError(f"alpha must exceed 1/4, got {self.alpha}")
        if not self.series_tol > 0:
            raise DomainError("series_tol must be positive")
        if not self.asymptotic_switch > 0:
            raise DomainError("asymptotic_switch must be positive")


_SERIES_MAX_TERMS = 500
_SERIES_BLOCK = 8192


def gamma(x: float) -> float:
    """Gamma function on the positive half-line."""
    if not x > 0:
        raise DomainError(f"gamma requires x > 0, got {x}")
    return math.gamma(x)


def _series_terms(nu: float, tol: float, switch: float) -> int:
    # Terms of the series at z = switch, the largest argument it is used for:
    # the scalar recurrence below stops at the first term under tol.  Term k
    # grows with z, so this count suffices for every z <= switch.
    q = switch * switch * 0.25
    t = 1.0
    for k in range(_SERIES_MAX_TERMS):
        t = t * (-q) / ((k + 1.0) * (k + nu + 1.0))
        if abs(t) < tol:
            return k + 1
    return _SERIES_MAX_TERMS


def _series(nu: float, z: np.ndarray, tol: float, switch: float) -> np.ndarray:
    # j_nu(z) = sum_k (-1)^k / (k! (nu+1)_k) (z/2)^{2k}; terms near z ~ 9 reach
    # ~3e2, so a Neumaier-compensated sum keeps the absolute error ~1e-13.
    # Every entry takes the same number of terms, so its value does not depend
    # on the other entries of the call; the sum runs in place over blocks of
    # _SERIES_BLOCK entries so that its work arrays stay in cache.
    terms = _series_terms(nu, tol, switch)
    out = np.empty_like(z)
    for lo in range(0, z.size, _SERIES_BLOCK):
        zb = z[lo:lo + _SERIES_BLOCK]
        mq = zb * zb * -0.25
        t, s, c = np.ones_like(zb), np.ones_like(zb), np.zeros_like(zb)
        s_new, big, small = np.empty_like(zb), np.empty_like(zb), np.empty_like(zb)
        swap = np.empty(zb.shape, dtype=bool)
        for k in range(terms):
            t *= mq
            t /= (k + 1.0) * (k + nu + 1.0)
            np.add(s, t, out=s_new)
            # c += (big - s_new) + small, big the larger of s and t in size
            np.less(np.abs(s, out=big), np.abs(t, out=small), out=swap)
            np.copyto(big, s)
            np.copyto(big, t, where=swap)
            np.copyto(small, t)
            np.copyto(small, s, where=swap)
            big -= s_new
            big += small
            c += big
            s, s_new = s_new, s
        out[lo:lo + _SERIES_BLOCK] = s + c
    return out


# Far field of the orders without a closed-form path: a Chebyshev
# interpolant of J_nu on the band (_BAND_FROM, _HANKEL_FROM], Hankel's
# expansion above it.  Measured against mpmath over z in (9, 2000], both keep
# the normalized j within 1.5e-14 for -1/2 < nu <= _FAST_ORDER_MAX, about as
# close as jv itself.  The 8-term expansion at z = 18 is off by 2e-14 at
# nu = 10.75 and 1e-13 at nu = 12, so higher orders keep jv; the power series
# at z = 18 would be off by 1.6e-10 (nu = -0.4).
_BAND_FROM, _HANKEL_FROM = 9.0, 18.0
_BAND_MID = 0.5 * (_HANKEL_FROM + _BAND_FROM)
_BAND_HALF = 0.5 * (_HANKEL_FROM - _BAND_FROM)
_BAND_DEGREE = 40
_HANKEL_TERMS = 8
_FAST_ORDER_MAX = 10.0


@functools.cache
def _band_coefficients(nu: float) -> np.ndarray:
    # Chebyshev coefficients of J_nu on the band mapped onto [-1, 1],
    # interpolated from jv at the Chebyshev points.
    c = chebinterpolate(lambda t: jv(nu, _BAND_MID + _BAND_HALF * t),
                        _BAND_DEGREE)
    c.setflags(write=False)
    return c


def _hankel(nu: float, z: np.ndarray) -> np.ndarray:
    # J_nu(z) = sqrt(2/(pi z)) (P cos chi - Q sin chi), chi = z - c with
    # c = (nu/2 + 1/4) pi (DLMF 10.17.3).  P and Q are Horner sums in 1/z^2
    # of the coefficients a_k = a_{k-1} (4 nu^2 - (2k-1)^2) / (8k), with
    # signs + - + - on the even (P) and on the odd (Q) ones.  cos chi and
    # sin chi are expanded through cos z and sin z, so z - c is never rounded.
    k = np.arange(1, 2 * _HANKEL_TERMS)
    a = np.cumprod(np.concatenate(
        ([1.0], (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))))
    a[2::4] *= -1.0
    a[3::4] *= -1.0
    w = 1.0 / (z * z)
    p = polyval(w, a[0::2])
    q = polyval(w, a[1::2]) / z
    c = (0.5 * nu + 0.25) * math.pi
    cos_c, sin_c = math.cos(c), math.sin(c)
    return np.sqrt(2.0 / (math.pi * z)) * (
        np.cos(z) * (p * cos_c + q * sin_c) + np.sin(z) * (p * sin_c - q * cos_c))


def _large_argument(nu: float, z: np.ndarray) -> np.ndarray:
    # Normalized value Gamma(nu+1) (2/z)^nu J_nu(z).  Integer and half-integer
    # orders get the fast cephes/spherical paths; the upward recurrence for
    # J_n is stable only where z > n, so jv takes the entries with z <= n
    # (none when asymptotic_switch >= 8).  Other orders up to _FAST_ORDER_MAX
    # take the Chebyshev band and Hankel's expansion, and jv the entries with
    # z <= _BAND_FROM (none when asymptotic_switch >= 9); higher orders take jv.
    n = round(nu)
    if nu == n and 0 <= n <= 8:
        jn_prev = j0(z)
        if n == 0:
            big_j = jn_prev
        else:
            jn_cur = j1(z)
            for k in range(1, n):
                jn_prev, jn_cur = jn_cur, (2.0 * k / z) * jn_cur - jn_prev
            big_j = jn_cur
        low = z <= n
        big_j[low] = jv(nu, z[low])
    elif abs(nu - n) == 0.5 and nu > 0:
        big_j = np.sqrt(2.0 * z / np.pi) * spherical_jn(int(nu - 0.5), z)
    elif nu <= _FAST_ORDER_MAX:
        big_j = np.empty_like(z)
        hankel = z > _HANKEL_FROM
        band = (z > _BAND_FROM) & ~hankel
        low = ~(hankel | band)
        big_j[hankel] = _hankel(nu, z[hankel])
        big_j[band] = chebval((z[band] - _BAND_MID) / _BAND_HALF,
                              _band_coefficients(nu))
        big_j[low] = jv(nu, z[low])
    else:
        big_j = jv(nu, z)
    return np.exp(gammaln(nu + 1.0) + nu * (math.log(2.0) - np.log(z))) * big_j


def bessel_j_normalized(nu: float, x, *, series_tol: float = 1e-15,
                        asymptotic_switch: float = 9.0):
    """Normalized Bessel function of the first kind, j_nu(0) = 1.

    Even in x.  Power series below |x| = asymptotic_switch, large-argument
    evaluation above: the j0/j1 recurrence for integer orders 0-8, spherical
    Bessel functions for positive half-integer orders, and for other orders
    up to 10 a Chebyshev interpolant on (9, 18] and Hankel's asymptotic
    expansion beyond 18; scipy's jv takes the rest.  Absolute error ~1e-13
    throughout.  The series takes the same number of terms at every argument
    and every path is chosen per entry, so each entry's value does not depend
    on the other entries of x.
    """
    if not nu > -1.0:
        raise DomainError(f"order must exceed -1, got {nu}")
    z = np.abs(np.asarray(x, dtype=float))
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    near = z <= asymptotic_switch
    if near.any():
        out[near] = _series(nu, z[near], series_tol, asymptotic_switch)
    far = ~near
    if far.any():
        out[far] = _large_argument(nu, z[far])
    return float(out[0]) if scalar else out


def kernel_parts(params: KernelParams, t):
    """Even and odd parts of B_alpha at t = |u| >= 0.

    Returns (E, O) with E(t) = j_{2a-1}(2 sqrt t) and
    O(t) = t j_{2a+1}(2 sqrt t) / ((2a)(2a+1)), so that
    B_alpha(u) = E(|u|) - sign(u) O(|u|).  Both depend on |u| alone, which
    lets symmetric grids evaluate them once per distinct |u|.
    """
    a = params.alpha
    t = np.asarray(t, dtype=float)
    z = 2.0 * np.sqrt(t)
    kw = dict(series_tol=params.series_tol,
              asymptotic_switch=params.asymptotic_switch)
    even = bessel_j_normalized(2.0 * a - 1.0, z, **kw)
    odd = t * bessel_j_normalized(2.0 * a + 1.0, z, **kw) / ((2.0 * a) * (2.0 * a + 1.0))
    return even, odd


def kernel_B(params: KernelParams, u):
    """Deformed Hankel kernel B_alpha at u = lambda*x.

    Real, equal to 1 at u = 0, not even in u.
    """
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    even, odd = kernel_parts(params, np.abs(u_arr))
    val = np.where(u_arr < 0, even + odd, even - odd)
    return float(val[0]) if np.ndim(u) == 0 else val

