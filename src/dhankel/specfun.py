"""Special functions: gamma, normalized Bessel j_nu, and the deformed Hankel kernel.

The kernel of the deformed (alpha-) Hankel transform is

    B_alpha(u) = j_{2a-1}(2 sqrt|u|) - u/((2a)(2a+1)) * j_{2a+1}(2 sqrt|u|),

where j_nu is the Bessel function of the first kind normalized so that
j_nu(0) = 1, and u stands for the frequency-space product lambda*x.
B_alpha(0) = 1; |B_alpha| <= 1 holds for alpha >= 1/2 (for
alpha in (1/4, 1/2) the sup is finite but exceeds 1 — see tests).

All functions are pure and accept scalars or numpy arrays, but kernel_parts
writes into an out array when given one.  They need numpy and the standard
library alone: the Bessel fits are power series summed in Python ints, the
near field's evaluated by Horner and the band's by Clenshaw, and only orders
above 10 import scipy, for its jv beyond z = 18.  The module also defines
the library's two error types, DomainError and PreconditionError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


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


# Entries per chunk of one field (near, band or far) that _bessel_j works
# at once: its scratch holds _SCRATCH_ROWS rows of at most that many
# entries, reused across chunks, fields and orders, so that it stays small
# and in cache.  The far field needs the most: z, 1/z^2, ln z, cos chi and
# sin chi / z, then P, Q and the scale.
_CHUNK = 8192
_SCRATCH_ROWS = 8
# Every fit is computed in Python ints as fixed-point numbers with 320
# fraction bits (_ONE is 1), from the order's exact binary value, and
# rounded to doubles once, as coefficients.  A fit's q interval (q = z^2/4)
# is one (num, den, shift): q = (num/den) y, y = shift + 2t, t in [-1, 1],
# with integer ratios in y and exact doubles as centre and half width.
_ONE = 1 << 320
_NEGLIGIBLE = 1e-20


def _series(nu: float, num: int, den: int) -> list:
    # Taylor terms in y of j_nu(2 sqrt q) = sum_k (-q)^k / (k! (nu+1)_k),
    # q = (num/den) y, from nu = p/d exactly, until they vanish
    p, d = nu.as_integer_ratio()
    terms = [_ONE]
    while terms[-1]:
        k = len(terms)
        terms.append(-terms[-1] * num * d // (den * k * (p + k * d)))
    return terms


def _centre_half(num: int, den: int, shift: int) -> tuple:
    return shift * num / den, 2 * num / den


def _chebyshev_fit(taylor: list, shift: int, degree: int, monomial: bool = False) -> np.ndarray:
    # Read-only coefficients of the interpolant, at the n = degree + 1
    # Chebyshev points of the first kind on [-1, 1] (not +-1), of the
    # polynomial sum_i taylor[i] y^i in y = shift + 2t, by Horner's rule in
    # the Chebyshev basis: 2t T_m = T_{m-1} + T_{m+1}, and T_n vanishes at the
    # points, so each step folds the aliased terms in exactly.  d holds T_0's
    # coefficient doubled.  The near field multiplies the coefficients'
    # error by q, up to 20 at the seam, so each is rounded once, by int/int
    # true division.  Trailing coefficients whose magnitudes sum below
    # _NEGLIGIBLE are dropped: they move no value by more than that, and
    # each would cost every evaluation a step.  With monomial, those of the
    # same trimmed interpolant in powers of t, converted exactly first.
    d = [0] * (degree + 1)
    for v in reversed(taylor):
        d = [shift * x + a + b for x, a, b in zip(d, [d[1]] + d[:-1], d[1:] + [0])]
        d[0] += 2 * v
    d = [d[0]] + [2 * x for x in d[1:]]   # every coefficient times 2 _ONE
    c = np.array([x / (2 * _ONE) for x in d])
    tail = np.cumsum(np.abs(c[::-1]))[::-1]
    n = max(2, np.count_nonzero(tail >= _NEGLIGIBLE))
    if monomial:   # t, t1: T_k, T_{k+1} in powers of t
        b, t, t1 = [0] * n, [1] + [0] * (n - 1), [0, 1] + [0] * (n - 2)
        for ck in d[:n]:
            b = [x + ck * y for x, y in zip(b, t)]
            t, t1 = t1, [2 * x - y for x, y in zip([0] + t1[:-1], t)]
        c = np.array([x / (2 * _ONE) for x in b])
    c = c[:n]
    c.setflags(write=False)
    return c


def _clenshaw(c: np.ndarray, x: np.ndarray, out: np.ndarray, x2, c0, tmp) -> None:
    # sum_k c_k T_k(x) by Clenshaw's recurrence in numpy's chebval order of
    # operations, into out, with x2, c0 and tmp as scratch of x's size; each
    # entry is computed on its own, so its value does not depend on the batch.
    np.add(x, x, out=x2)
    c0.fill(c[-2])
    c1 = out
    c1.fill(c[-1])
    for ck in c[-3::-1]:
        np.subtract(ck, c1, out=tmp)
        c1 *= x2
        c1 += c0
        c0, tmp = tmp, c0
    c1 *= x
    c1 += c0


# Near field |z| <= _SEAM: j_nu(2 sqrt q) = 1 - q g(q), which keeps
# j_nu(0) = 1 exactly, with g, entire in q, interpolated on _NEAR_Q's
# [0, _SEAM^2/4] by one Chebyshev polynomial per order, summed by Horner in
# t = q / half - 1: its monomial coefficients alternate, their magnitudes
# summing to g(0) = 1/(nu+1) as the Chebyshev ones do.  Against mpmath, the
# normalized j is within 1e-14 for -1/2 < nu <= 10.  The same degree
# reaches 2e-14 on [0, 18] but 7.7e-13 on [0, 24] (nu = -0.49).
_SEAM = 9.0
_NEAR_Q = (81, 16, 2)
_NEAR_DEGREE = 24


@functools.cache
def _near_coefficients(nu: float) -> np.ndarray:
    # g(q) = (1 - j_nu(2 sqrt q)) / q: j's terms from k = 1 on, times -den/num
    num, den, shift = _NEAR_Q
    g = [-a * den // num for a in _series(nu, num, den)[1:]]
    return _chebyshev_fit(g, shift, _NEAR_DEGREE, monomial=True)


# Band (_SEAM, _HANKEL_FROM]: j_nu itself, interpolated on _BAND_Q's
# [_SEAM^2/4, 405/4] (z up to 20.1) and summed by Clenshaw (monomials would
# be 24-46 times worse conditioned), then Hankel's expansion: within 1.5e-14
# of mpmath over z in (9, 2000] for -1/2 < nu <= _FAST_ORDER_MAX.  At z = 18
# its 8 terms are off by 2e-14 at nu = 10.75 and 1e-13 at nu = 12, so there
# higher orders take scipy's jv, imported for them alone.
_BAND_Q = (81, 4, 3)
_HANKEL_FROM = 18.0
_BAND_DEGREE = 40
_HANKEL_TERMS = 8
_FAST_ORDER_MAX = 10.0


@functools.cache
def _band_coefficients(nu: float) -> np.ndarray:
    num, den, shift = _BAND_Q
    return _chebyshev_fit(_series(nu, num, den), shift, _BAND_DEGREE)


@functools.cache
def _hankel_coefficients(nu: float) -> tuple:
    # P's and Q's coefficients, cos c, sin c and ln(Gamma(nu+1) 2^nu sqrt(2/pi)):
    # a_k = a_{k-1} (4 nu^2 - (2k-1)^2) / (8k) negated at even k, so P's
    # (even k) and Q's alternate
    k = np.arange(1, 2 * _HANKEL_TERMS)
    a = np.cumprod(np.concatenate(
        ([1.0], (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k) * (-1.0) ** (k + 1))))
    c = (0.5 * nu + 0.25) * math.pi
    return (tuple(a[0::2]), tuple(a[1::2]), math.cos(c), math.sin(c),
            math.lgamma(nu + 1.0) + nu * math.log(2.0) + 0.5 * math.log(2.0 / math.pi))


def _horner(c, w: np.ndarray, out: np.ndarray) -> None:
    # sum_k c_k w^k (two or more terms) into out, in the order of operations
    # of numpy's polyval at finite w, whose first step c[-1] + 0 w is exact
    np.multiply(w, c[-1], out=out)
    out += c[-2]
    for ck in c[-3::-1]:
        out *= w
        out += ck


def _scaled_jv(nu: float, z: np.ndarray) -> np.ndarray:
    # normalized j_nu from scipy's jv, for an order above _FAST_ORDER_MAX
    try:
        from scipy.special import jv
    except ImportError:
        raise DomainError(f"order {nu} above {_FAST_ORDER_MAX:g} needs scipy, "
                          "which is not installed") from None
    return np.exp(math.lgamma(nu + 1.0) + nu * (math.log(2.0) - np.log(z))) * jv(nu, z)


def _near(orders: tuple, s: np.ndarray, outs, i: np.ndarray) -> None:
    # j_nu = 1 - q g(q), q = z^2/4, at the chunk's z = s[0], by t = q / half - 1
    centre, half = _centre_half(*_NEAR_Q)
    q, x, r = s[:3]
    np.square(q, out=q)
    q *= 0.25
    np.divide(q, half, out=x)
    x -= centre / half
    for nu, out in zip(orders, outs):
        _horner(_near_coefficients(nu), x, r)
        r *= q
        np.subtract(1.0, r, out=r)
        out[i] = r


def _band(orders: tuple, s: np.ndarray, outs, i: np.ndarray) -> None:
    # j_nu at the chunk's z = s[0], by t = (z^2/4 - centre) / half in place
    centre, half = _centre_half(*_BAND_Q)
    x, r, x2, c0, tmp = s[:5]
    np.square(x, out=x)
    x *= 0.25
    x -= centre
    x /= half
    for nu, out in zip(orders, outs):
        _clenshaw(_band_coefficients(nu), x, r, x2, c0, tmp)
        out[i] = r


def _far(orders: tuple, s: np.ndarray, outs, i: np.ndarray) -> None:
    # Hankel's expansion (or jv) at the chunk's z = s[0]:
    # J_nu(z) = sqrt(2/(pi z)) (P cos chi - Q sin chi), chi = z - c with
    # c = (nu/2 + 1/4) pi (DLMF 10.17.3), P and Q sums in 1/z^2, normalized
    # by Gamma(nu+1) (2/z)^nu.  cos chi and sin chi (expanded through cos z
    # and sin z, so z - c is never rounded) are formed once: each later
    # order is 2 above the one before, so its chi is smaller by pi, and its
    # scale exp(ln_scale - (nu + 1/2) ln z), signed for that, is the one
    # before's (order nu) times -4 (nu+1) (nu+2) / z^2.  Each step is in place.
    z, w, log_z, cos_x, sin_x, p, q, e = s
    for j, (nu, out) in enumerate(zip(orders, outs)):
        if nu > _FAST_ORDER_MAX:
            out[i] = _scaled_jv(nu, z)
            continue
        p_c, q_c, cos_c, sin_c, log_scale = _hankel_coefficients(nu)
        if j:
            e *= w
            e *= -4.0 * (orders[j - 1] + 1.0) * (orders[j - 1] + 2.0)
        else:
            np.divide(1.0, np.multiply(z, z, out=w), out=w)
            np.log(z, out=log_z)
            np.cos(z, out=p)
            np.sin(z, out=q)
            np.multiply(p, cos_c, out=cos_x)
            np.multiply(q, sin_c, out=e)
            cos_x += e
            np.multiply(q, cos_c, out=sin_x)
            np.multiply(p, sin_c, out=e)
            sin_x -= e
            sin_x /= z
            np.multiply(log_z, nu + 0.5, out=e)
            np.subtract(log_scale, e, out=e)
            np.exp(e, out=e)
        _horner(p_c, w, p)
        _horner(q_c, w, q)
        p *= cos_x
        q *= sin_x
        p -= q
        p *= e
        out[i] = p


def _bessel_j(orders: tuple, z: np.ndarray, outs) -> None:
    # Normalized j_nu(z) of orders[j] into outs[j], for 1-D z >= 0 or NaN
    # and 1-D outs of its size, each order 2 above the one before.  The
    # orders share the split of z and, beyond _HANKEL_FROM, every function
    # of z alone.  Each field is worked in chunks of at most _CHUNK entries
    # in one scratch array of _SCRATCH_ROWS rows.  A NaN entry takes the band
    # and stays NaN; an infinite one is refused.
    if np.isinf(z).any():
        raise DomainError("Bessel arguments must be finite, not inf")
    near = z <= _SEAM
    far = z > _HANKEL_FROM
    fields = [(field, np.flatnonzero(mask)) for field, mask in
              ((_near, near), (_band, ~(near | far)), (_far, far))]
    scratch = np.empty((_SCRATCH_ROWS, min(_CHUNK, max(i.size for _, i in fields))))
    for field, idx in fields:
        for lo in range(0, idx.size, _CHUNK):
            i = idx[lo:lo + _CHUNK]
            s = scratch[:, :i.size]
            np.take(z, i, out=s[0])
            field(orders, s, outs, i)


def bessel_j_normalized(nu: float, x):
    """Normalized Bessel function of the first kind, j_nu(0) = 1.

    Even in x.  Up to |x| = 9 and on (9, 18] a Chebyshev interpolant in
    x^2/4, fitted once per order to the power series of j_nu in 320-bit
    fixed point and summed by Horner (near) or Clenshaw (band); beyond 18
    Hankel's asymptotic expansion for orders up to 10, and for higher
    orders scipy's jv, the one path that imports scipy.  Absolute error
    below 2e-14 for orders in (-1/2, 10].  A NaN argument gives NaN, an
    infinite one a DomainError.  Every path is chosen per entry and
    computes each entry on its own, so each entry's value does not depend
    on the other entries.
    """
    if not -1.0 < nu < math.inf:
        raise DomainError(f"order must be finite and exceed -1, got {nu}")
    z = np.abs(np.asarray(x, dtype=float))
    out = np.empty(z.shape)
    _bessel_j((nu,), z.reshape(-1), (out.reshape(-1),))
    return float(out) if z.ndim == 0 else out


def kernel_parts(params: KernelParams, t, out=None):
    """Even and odd parts of B_alpha at t = |u| >= 0.

    Returns (E, O) with E(t) = j_{2a-1}(2 sqrt t) and
    O(t) = t j_{2a+1}(2 sqrt t) / ((2a)(2a+1)), so that
    B_alpha(u) = E(|u|) - sign(u) O(|u|).  Both depend on |u| alone, which
    lets symmetric grids evaluate them once per distinct |u|.  Beyond 18
    the two orders share one phase and one exponential: the second order's
    scale is the first's times 4 (2a) (2a+1) / z^2.

    Given out of shape (2, t.size) for a 1-D t (a strided view will do), it
    writes E and O into out and returns out.  Besides z = 2 sqrt(t) and the
    indices of its near, band and far entries, it works in one scratch array
    of at most _SCRATCH_ROWS x _CHUNK doubles (512 KiB), so a caller that
    evaluates in slabs bounds the memory by the slab.  Each entry is
    computed on its own, so any split of t gives the same bits.  A NaN t
    gives NaN; a negative or an infinite one is a DomainError.
    """
    t = np.asarray(t, dtype=float)
    if (t < 0).any():
        raise DomainError(f"kernel arguments must be >= 0, got {np.nanmin(t)}")
    if out is not None and (t.ndim != 1 or out.shape != (2, t.size)):
        raise DomainError("out must have shape (2, t.size) for a 1-D t")
    parts = np.empty((2,) + t.shape) if out is None else out
    a = params.alpha
    z = np.sqrt(t.reshape(-1))
    z *= 2.0
    _bessel_j((2.0 * a - 1.0, 2.0 * a + 1.0), z, parts.reshape(2, -1))
    parts[1] *= t
    parts[1] /= (2.0 * a) * (2.0 * a + 1.0)
    if out is not None:
        return out
    even, odd = parts
    return (even, odd) if t.ndim else (float(even), float(odd))


def kernel_B(params: KernelParams, u):
    """Deformed Hankel kernel B_alpha at u = lambda*x.

    Real, equal to 1 at u = 0, not even in u.
    """
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    even, odd = kernel_parts(params, np.abs(u_arr))
    val = np.where(u_arr < 0, even + odd, even - odd)
    return float(val[0]) if np.ndim(u) == 0 else val

