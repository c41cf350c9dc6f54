"""Special functions: gamma, normalized Bessel j_nu, and the deformed Hankel kernel.

The kernel of the deformed (alpha-) Hankel transform is

    B_alpha(u) = j_{2a-1}(2 sqrt|u|) - u/((2a)(2a+1)) * j_{2a+1}(2 sqrt|u|),

where j_nu is the Bessel function of the first kind normalized so that
j_nu(0) = 1, and u stands for the frequency-space product lambda*x.
B_alpha(0) = 1; |B_alpha| <= 1 holds for alpha >= 1/2 (for
alpha in (1/4, 1/2) the sup is finite but exceeds 1 — see tests).

All functions are pure and accept scalars or numpy arrays.  The module also
defines the library's two error types, DomainError and PreconditionError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.fft import dct
from scipy.special import gammaln, j0, j1, jv


class DomainError(ValueError):
    """A bad input: outside an operation's domain, or a request it cannot meet."""


class PreconditionError(RuntimeError):
    """A failed hypothesis of a theorem, named by condition (e.g. "Z0")."""

    def __init__(self, message: str, condition: str):
        super().__init__(message)
        self.condition = condition


@dataclass(frozen=True)
class KernelParams:
    """Evaluation parameters for the kernel B_alpha.

    alpha: deformation order, must exceed 1/4.
    """

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0.25:
            raise DomainError(f"alpha must exceed 1/4, got {self.alpha}")


def gamma(x: float) -> float:
    """Gamma function on the positive half-line, below its overflow near 171.6."""
    if not x > 0:
        raise DomainError(f"gamma requires x > 0, got {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"gamma({x}) overflows a double") from None


# Entries per block of _clenshaw, so that its work arrays stay in cache.
_CLENSHAW_BLOCK = 8192


def _chebyshev_fit(f, degree: int) -> np.ndarray:
    # Read-only coefficients of f's interpolant at the Chebyshev points of the
    # first kind on [-1, 1] (not +-1).  A type-II DCT gets them ten times
    # closer to exact than numpy's chebinterpolate; the near field multiplies
    # their error by q, up to 20 at the seam.
    n = degree + 1
    c = dct(f(np.cos(np.pi * (np.arange(n) + 0.5) / n)), type=2) / n
    c[0] *= 0.5
    c.setflags(write=False)
    return c


def _clenshaw(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    # sum_k c_k T_k(x) by Clenshaw's recurrence in numpy's chebval order of
    # operations, in place over blocks of _CLENSHAW_BLOCK entries; each entry
    # is computed on its own, so its value does not depend on the batch.
    out = np.empty_like(x)
    for lo in range(0, x.size, _CLENSHAW_BLOCK):
        xb = x[lo:lo + _CLENSHAW_BLOCK]
        x2 = xb + xb
        c0, c1 = np.full_like(xb, c[-2]), np.full_like(xb, c[-1])
        tmp = np.empty_like(xb)
        for ck in c[-3::-1]:
            np.subtract(ck, c1, out=tmp)
            c1 *= x2
            c1 += c0
            c0, tmp = tmp, c0
        c1 *= xb
        c1 += c0
        out[lo:lo + _CLENSHAW_BLOCK] = c1
    return out


def _normalized(nu: float, z: np.ndarray, big_j: np.ndarray) -> np.ndarray:
    # Gamma(nu+1) (2/z)^nu J_nu(z) from J_nu(z), z > 0
    return np.exp(gammaln(nu + 1.0) + nu * (math.log(2.0) - np.log(z))) * big_j


# Near field |z| <= _SEAM: j_nu(2 sqrt q) = 1 - q g(q), which keeps
# j_nu(0) = 1 exactly, with g, entire in q = z^2/4, interpolated on
# [0, _SEAM^2/4] by one Chebyshev polynomial per order.  Against mpmath, the
# normalized j is within 1e-14 for -1/2 < nu <= 10.  The same degree reaches
# 2e-14 on [0, 18] but 7.7e-13 on [0, 24] (nu = -0.49).
_SEAM = 9.0
_NEAR_HALF = 0.125 * _SEAM ** 2     # half the width of the q interval
_NEAR_DEGREE = 24
_G_TERMS = 20


@functools.cache
def _near_coefficients(nu: float) -> np.ndarray:
    # g(q) = (1 - j_nu(2 sqrt q)) / q = sum_k (-q)^k / ((k+1)! (nu+1)_{k+1}).
    # Where q <= nu + 2 its terms fall at least twofold per step, so the sum
    # is good to a few ulp (and jv underflows at large orders); elsewhere
    # 1 - j from jv loses nothing to cancellation.
    def g(t):
        q = _NEAR_HALF * (1.0 + t)
        out = np.empty_like(q)
        small = q <= nu + 2.0
        k = np.arange(1.0, _G_TERMS)
        terms = np.cumprod(-q[small, None] / ((k + 1.0) * (k + nu + 1.0)),
                           axis=1) / (nu + 1.0)
        out[small] = terms[:, ::-1].sum(axis=1) + 1.0 / (nu + 1.0)
        qb = q[~small]
        zb = 2.0 * np.sqrt(qb)
        out[~small] = (1.0 - _normalized(nu, zb, jv(nu, zb))) / qb
        return out

    return _chebyshev_fit(g, _NEAR_DEGREE)


# Far field of the orders without a closed-form path: a Chebyshev
# interpolant of J_nu on the band (_SEAM, _HANKEL_FROM] and Hankel's
# expansion above it.  Measured against mpmath over z in (9, 2000], both keep
# the normalized j within 1.5e-14 for -1/2 < nu <= _FAST_ORDER_MAX, about as
# close as jv itself.  The 8-term expansion at z = 18 is off by 2e-14 at
# nu = 10.75 and 1e-13 at nu = 12, so higher orders keep jv.
_HANKEL_FROM = 18.0
_BAND_MID = 0.5 * (_HANKEL_FROM + _SEAM)
_BAND_HALF = 0.5 * (_HANKEL_FROM - _SEAM)
_BAND_DEGREE = 40
_HANKEL_TERMS = 8
_FAST_ORDER_MAX = 10.0


@functools.cache
def _band_coefficients(nu: float) -> np.ndarray:
    # J_nu on the band mapped onto [-1, 1]
    return _chebyshev_fit(lambda t: jv(nu, _BAND_MID + _BAND_HALF * t), _BAND_DEGREE)


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
    # Normalized value Gamma(nu+1) (2/z)^nu J_nu(z) for z > _SEAM.  Integer
    # orders 0-8 get the fast cephes j0/j1 path; the upward recurrence for
    # J_n is stable where z > n, which z > _SEAM >= 8 ensures.  Other orders
    # up to _FAST_ORDER_MAX take the Chebyshev band, which also takes a NaN
    # entry and keeps it NaN, and Hankel's expansion; higher orders take jv.
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
    elif nu <= _FAST_ORDER_MAX:
        big_j = np.empty_like(z)
        hankel = z > _HANKEL_FROM
        band = ~hankel
        big_j[hankel] = _hankel(nu, z[hankel])
        big_j[band] = _clenshaw(_band_coefficients(nu),
                                (z[band] - _BAND_MID) / _BAND_HALF)
    else:
        big_j = jv(nu, z)
    return _normalized(nu, z, big_j)


def bessel_j_normalized(nu: float, x):
    """Normalized Bessel function of the first kind, j_nu(0) = 1.

    Even in x.  Up to |x| = 9 a Chebyshev interpolant in x^2/4, fitted once
    per order; above it the j0/j1 recurrence for integer orders 0-8, and
    for other orders up to 10 a Chebyshev interpolant on (9, 18] and
    Hankel's asymptotic expansion beyond 18; scipy's jv takes the rest.
    Absolute error below 2e-14 for orders in (-1/2, 10].  A NaN argument
    gives NaN.  Every path is chosen per entry and computes each entry on
    its own, so each entry's value does not depend on the other entries of x.
    """
    if not nu > -1.0:
        raise DomainError(f"order must exceed -1, got {nu}")
    z = np.abs(np.asarray(x, dtype=float))
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    near = z <= _SEAM
    q = 0.25 * z[near] ** 2
    out[near] = 1.0 - q * _clenshaw(_near_coefficients(nu), q / _NEAR_HALF - 1.0)
    out[~near] = _large_argument(nu, z[~near])
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
    even = bessel_j_normalized(2.0 * a - 1.0, z)
    odd = t * bessel_j_normalized(2.0 * a + 1.0, z) / ((2.0 * a) * (2.0 * a + 1.0))
    return even, odd


def kernel_B(params: KernelParams, u):
    """Deformed Hankel kernel B_alpha at u = lambda*x.

    Real, equal to 1 at u = 0, not even in u.
    """
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    even, odd = kernel_parts(params, np.abs(u_arr))
    val = np.where(u_arr < 0, even + odd, even - odd)
    return float(val[0]) if np.ndim(u) == 0 else val

