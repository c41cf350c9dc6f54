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

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, j0, j1, jv, spherical_jn


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


@dataclass(frozen=True)
class KernelParams:
    """Evaluation parameters for the kernel B_alpha.

    alpha: deformation order, must exceed 1/4.
    series_tol: absolute magnitude below which the power series is truncated.
    asymptotic_switch: |argument| of j_nu above which the large-argument
        evaluation is used instead of the series.
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


def gamma(x: float) -> float:
    """Gamma function on the positive half-line."""
    if not x > 0:
        raise DomainError(f"gamma requires x > 0, got {x}")
    return math.gamma(x)


def _series(nu: float, z: np.ndarray, tol: float) -> np.ndarray:
    # j_nu(z) = sum_k (-1)^k / (k! (nu+1)_k) (z/2)^{2k}; terms near z ~ 9 reach
    # ~3e2, so a Neumaier-compensated sum keeps the absolute error ~1e-13.
    q = z * z * 0.25
    s = np.ones_like(z)
    c = np.zeros_like(z)
    t = np.ones_like(z)
    for k in range(_SERIES_MAX_TERMS):
        t = t * (-q) / ((k + 1.0) * (k + nu + 1.0))
        s_new = s + t
        swap = np.abs(s) < np.abs(t)
        big = np.where(swap, t, s)
        small = np.where(swap, s, t)
        c += (big - s_new) + small
        s = s_new
        if np.max(np.abs(t)) < tol:
            break
    return s + c


def _large_argument(nu: float, z: np.ndarray) -> np.ndarray:
    # Normalized value Gamma(nu+1) (2/z)^nu J_nu(z).  Integer and half-integer
    # orders get the fast cephes/spherical paths; the upward recurrence for
    # J_n is stable here because it is only used where z > n.
    n = round(nu)
    if nu == n and 0 <= n <= 8 and np.min(z) > n:
        jn_prev = j0(z)
        if n == 0:
            big_j = jn_prev
        else:
            jn_cur = j1(z)
            for k in range(1, n):
                jn_prev, jn_cur = jn_cur, (2.0 * k / z) * jn_cur - jn_prev
            big_j = jn_cur
    elif abs(nu - n) == 0.5 and nu > 0:
        big_j = np.sqrt(2.0 * z / np.pi) * spherical_jn(int(nu - 0.5), z)
    else:
        big_j = jv(nu, z)
    return np.exp(gammaln(nu + 1.0) + nu * (math.log(2.0) - np.log(z))) * big_j


def bessel_j_normalized(nu: float, x, *, series_tol: float = 1e-15,
                        asymptotic_switch: float = 9.0):
    """Normalized Bessel function of the first kind, j_nu(0) = 1.

    Even in x.  Power series below |x| = asymptotic_switch, large-argument
    evaluation above; absolute error ~1e-13 throughout.
    """
    if not nu > -1.0:
        raise DomainError(f"order must exceed -1, got {nu}")
    z = np.abs(np.asarray(x, dtype=float))
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    near = z <= asymptotic_switch
    if near.any():
        out[near] = _series(nu, z[near], series_tol)
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


def kernel_slope_bounds(alpha: float) -> tuple[float, float]:
    """Leading coefficients of 1 - B_alpha(u) ~ c*u near zero.

    Returns (c_neg, c_pos): B(u) - 1 = -c_pos*u + O(u^2) for u > 0 and
    = -c_neg*|u| + O(u^2) for u < 0.  Both are positive for alpha > 1/4,
    which is the near-zero coercivity |B(u) - 1| >= c|u|.
    """
    c_pos = (alpha + 1.0) / (alpha * (2.0 * alpha + 1.0))
    c_neg = 1.0 / (2.0 * alpha + 1.0)
    return c_neg, c_pos
