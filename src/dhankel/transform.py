"""Deformed Hankel transform, generalized translation, and difference norms.

The forward transform of f at frequency lambda_j is the weighted-quadrature
sum of f(x) B(lambda_j x); the inverse uses the same kernel against the
frequency grid.  Translation T_h is defined spectrally through the
multiplier identity F(T_h f)(lambda) = B(lambda h) F(f)(lambda), which is how
it enters every norm computed here.  All data are real (the kernel is real).

Every grid is symmetric under negation, so B(lambda_j x_i) and B(lambda_j h)
come from the kernel's even and odd parts (specfun.kernel_parts), evaluated
once per distinct |lambda x| on the positive half-axes, and between the
interior panels of a resolved pair once per class of products that differ
in the last bits only (kernel_matrix).  A grid pair's kernel
is cached as those two half-line blocks [E | O] (half the dense matrix) for
as long as the pair lives, and every transform applies it as two half-size
products, E on the even and O on the odd combination of the coefficients.

Difference norms ||T_h f - f|| come for a whole h grid at once (diff_norms),
from one multiplier matrix B(lambda_j h_k): reduced per h (Plancherel route)
and applied with one product per kernel block (physical route).  Tail
energies and the partial norms over |lambda| <= r come from one spectral-mass
primitive (spectral_mass), also for a whole grid of cuts at once.
"""

from __future__ import annotations

import io
import weakref
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .quadrature import WeightedGrid, weighted_norm
from .specfun import DomainError, KernelParams, kernel_parts


class ConfigurationError(ValueError):
    """Inconsistent grid/function configuration."""


@dataclass(frozen=True)
class FunctionSpec:
    """An evaluable real function with declared support/decay metadata.

    evaluator must accept numpy arrays (vectorized); support_radius marks
    where |f| has decayed below the declared tail bound, and must be honored
    by evaluators out to twice that radius.
    """

    evaluator: object
    support_radius: float

    def __call__(self, x):
        return self.evaluator(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class SpectralData:
    """Sampled transform values on a frequency grid."""

    alpha: float
    lambda_grid: WeightedGrid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.lambda_grid.nodes.shape:
            raise ConfigurationError("values length must match the frequency grid")

    def norm(self, q: float) -> float:
        return weighted_norm(self.values, self.lambda_grid, q)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# alpha={self.alpha!r} radius={self.lambda_grid.radius!r}\n")
        buf.write("lambda,value\n")
        for lam, v in zip(self.lambda_grid.nodes, self.values):
            buf.write(f"{float(lam)!r},{float(v)!r}\n")
        return buf.getvalue()


_matrix_cache: dict[tuple[int, int, float], np.ndarray] = {}


def _interior_panels(xgrid: WeightedGrid, lgrid: WeightedGrid) -> tuple[int, int]:
    """Numbers of interior panels (all but the first and the last) of the two
    grids when their panels grow by one common ratio with one rule order,
    else (0, 0).

    On such a pair the interior products x_i * lambda_j depend, up to a few
    ulps, only on the sum of the two panel indices and the two in-panel
    node indices.
    """
    if (xgrid.log_ratio is None or xgrid.log_ratio != lgrid.log_ratio
            or xgrid.order != lgrid.order):
        return 0, 0
    kx = xgrid.pos_nodes.size // xgrid.order - 2
    kl = lgrid.pos_nodes.size // lgrid.order - 2
    return (kx, kl) if kx > 0 and kl > 0 else (0, 0)


def _table_arguments(xgrid: WeightedGrid, lgrid: WeightedGrid) -> np.ndarray:
    """Kernel arguments of the interior table of kernel_matrix, shape
    (order, kx + kl - 1, order) with (kx, kl) = _interior_panels(...).

    T[m, s, m'] is one representative product x * lambda of node m of an
    interior x panel and node m' of an interior lambda panel whose interior
    panel indices sum to s: the x panel is the first one that has a partner.
    """
    o = xgrid.order
    kx, kl = _interior_panels(xgrid, lgrid)
    xs = xgrid.pos_nodes[o:o + kx * o].reshape(kx, o)
    ls = lgrid.pos_nodes[o:o + kl * o].reshape(kl, o)
    s = np.arange(kx + kl - 1)
    k = np.maximum(s - (kl - 1), 0)
    return xs[k].T[:, :, None] * ls[s - k][None, :, :]


def kernel_matrix(xgrid: WeightedGrid, lgrid: WeightedGrid) -> np.ndarray:
    """Half-line kernel blocks [E | O] of the grid pair, cached.

    E[i, j] and O[i, j] are the even and odd kernel parts at
    |lambda_j x_i| = xgrid.pos_nodes[i] * lgrid.pos_nodes[j]; the result has
    shape (len(xgrid.pos_nodes), 2 * len(lgrid.pos_nodes)) and is read-only.
    Since nodes = [-pos[::-1], pos] on both grids, they determine the dense
    kernel B(lambda_j x_i) = E - sign(lambda_j x_i) O in half its memory;
    _apply applies it from them.  The blocks are released when either grid
    is garbage-collected.

    The kernel depends on lambda x alone.  When the panels of both grids
    grow by one ratio (_interior_panels), an entry between two interior
    panels is read from a table, the kernel parts at _table_arguments, one
    representative product per panel-index sum and node pair; the entries of
    the first and the last panel of either grid are the kernel parts at
    the rows' outer product, one kernel_parts call per strip of them.  A grid
    pair without a common ratio has no interior and is built in one call.
    """
    if xgrid.alpha != lgrid.alpha:
        raise ConfigurationError("grids carry different alpha")
    key = (xgrid.uid, lgrid.uid, xgrid.alpha)
    blocks = _matrix_cache.get(key)
    if blocks is None:
        blocks = _build_blocks(xgrid, lgrid)
        blocks.setflags(write=False)
        _matrix_cache[key] = blocks
        for grid in (xgrid, lgrid):
            weakref.finalize(grid, _matrix_cache.pop, key, None)
    return blocks


def _build_blocks(xgrid: WeightedGrid, lgrid: WeightedGrid) -> np.ndarray:
    params = KernelParams(alpha=xgrid.alpha)
    xpos, lpos = xgrid.pos_nodes, lgrid.pos_nodes
    n = lpos.size
    blocks = np.empty((xpos.size, 2 * n))
    parts = blocks[:, :n], blocks[:, n:]
    o = xgrid.order
    kx, kl = _interior_panels(xgrid, lgrid)
    # interior rows [r0, r1) and columns [c0, c1), empty without a table
    r0, r1 = (o, o + kx * o) if kx else (0, 0)
    c0, c1 = o, o + kl * o
    if kx:
        # the interior viewed as (kx, o, kl, o), still a view as the reshape
        # only splits axes: its block (k, l) is the table slice T[:, k + l]
        tabs = kernel_parts(params, _table_arguments(xgrid, lgrid))
        for part, tab in zip(parts, tabs):
            part[r0:r1, c0:c1].reshape(kx, o, kl, o)[...] = (
                sliding_window_view(tab, kl, axis=1).transpose(1, 0, 3, 2))
    # the edge strips: the first and the last x panel's rows, and the
    # interior rows' first and last lambda panel columns (without a table,
    # the second strip is the whole block)
    for rows, cols in ((slice(0, r0), slice(None)), (slice(r1, None), slice(None)),
                       (slice(r0, r1), np.r_[0:c0, c1:n])):
        parts[0][rows, cols], parts[1][rows, cols] = kernel_parts(
            params, np.outer(xpos[rows], lpos[cols]))
    return blocks


def _apply(even, odd, c):
    """Kernel sums sum_j B(u_j) c_j along the last axis of c, from the
    half-line blocks.

    c holds coefficients on a symmetric grid [-pos[::-1], pos] of n positive
    nodes; even and odd are (m, n) blocks of the kernel parts E, O at m
    points p_i >= 0 times pos.  With s = c(pos) + c(-pos) and
    d = c(pos) - c(-pos), the sum is E s - O d at p and E s + O d at -p, so
    the result, shape (..., 2m), is [rev(E s + O d), E s - O d]: the values
    on the mirrored points [-p[::-1], p], from two half-size products.
    """
    n = c.shape[-1] // 2
    plus, minus = c[..., n:], c[..., n - 1::-1]
    es = (plus + minus) @ even.T
    od = (plus - minus) @ odd.T
    return np.concatenate([(es + od)[..., ::-1], es - od], axis=-1)


def kernel_multiplier(lgrid: WeightedGrid, h) -> np.ndarray:
    """Multiplier B(lambda_j h) on the frequency grid, one row per h.

    h is a scalar (result shape (n,)) or an array, such as an h grid (result
    shape h.shape + (n,)).  The kernel parts are evaluated in one call on
    |h| * lgrid.pos_nodes and mirrored onto the negative half-axis; for a
    scalar h the entries equal kernel_B(.., lgrid.nodes * h).
    """
    h = np.asarray(h, dtype=float)
    even, odd = kernel_parts(KernelParams(alpha=lgrid.alpha),
                             np.multiply.outer(np.abs(h), lgrid.pos_nodes))
    sign = np.where(h < 0, -1.0, 1.0)[..., None]
    return np.concatenate([(even + sign * odd)[..., ::-1], even - sign * odd],
                          axis=-1)


def forward(f, xgrid: WeightedGrid, lgrid: WeightedGrid) -> SpectralData:
    """Forward transform: values_j = sum_i w_i f(x_i) B(lambda_j x_i), with
    f a FunctionSpec (any vectorized callable) or its samples on xgrid.nodes."""
    if xgrid.alpha != lgrid.alpha:
        raise ConfigurationError("x and frequency grids carry different alpha")
    fx = np.asarray(f(xgrid.nodes) if callable(f) else f, dtype=float)
    if fx.shape != xgrid.nodes.shape:
        raise ConfigurationError("samples do not match the x grid")
    even, odd = np.hsplit(kernel_matrix(xgrid, lgrid), 2)
    values = _apply(even.T, odd.T, xgrid.weights * fx)
    return SpectralData(alpha=lgrid.alpha, lambda_grid=lgrid, values=values)


def inverse(g: SpectralData, xgrid: WeightedGrid) -> FunctionSpec:
    """Inverse transform as an evaluable function x -> sum_j w_j g_j B(lambda_j x).

    On xgrid.nodes it applies the cached blocks; elsewhere the kernel rows
    B(lambda_j x) are kernel_multiplier(lgrid, x), one evaluation of the
    kernel parts at |x| * lgrid.pos_nodes.  A scalar x gives a scalar.
    """
    lgrid = g.lambda_grid
    coeff = lgrid.weights * g.values

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        if x.shape == xgrid.nodes.shape and np.array_equal(x, xgrid.nodes):
            return _apply(*np.hsplit(kernel_matrix(xgrid, lgrid), 2), coeff)
        return kernel_multiplier(lgrid, x) @ coeff

    return FunctionSpec(evaluator=evaluator, support_radius=xgrid.radius)


def spectral_mass(g: SpectralData, q: float, radii, beyond: bool) -> np.ndarray:
    """sum_j w_j |g_j|^q over |lambda_j| >= r (beyond) or |lambda_j| <= r,
    for each r of a 1-D array of radii.

    The per-node mass is computed once and each cut is one searchsorted on
    the positive nodes; every sum runs over the selected nodes in grid order.
    """
    lgrid = g.lambda_grid
    mass = lgrid.weights * np.abs(g.values) ** q
    n = lgrid.pos_nodes.size
    if beyond:
        counts = n - np.searchsorted(lgrid.pos_nodes, radii, side="left")
        return np.array([np.sum(np.concatenate((mass[:k], mass[2 * n - k:])))
                         for k in counts])
    counts = np.searchsorted(lgrid.pos_nodes, radii, side="right")
    return np.array([np.sum(mass[n - k:n + k]) for k in counts])


def tail_energy(g: SpectralData, h, q: float):
    """Spectral mass sum_{|lambda_j| >= 1/h} w_j |g_j|^q for every h of a
    1-D grid (a float for a scalar h).

    Zero (degenerate) when 1/h is beyond the outermost node; use
    tail_truncated() to flag that situation.
    """
    h = np.asarray(h, dtype=float)
    if not np.all(h > 0):
        raise DomainError("h must be positive")
    tails = spectral_mass(g, q, 1.0 / np.atleast_1d(h), beyond=True)
    return float(tails[0]) if h.ndim == 0 else tails


def tail_truncated(lgrid: WeightedGrid, h):
    """True where 1/h is too close to the grid edge for the tail to be
    resolved (1/h > radius/4); elementwise over an h grid."""
    return 1.0 / np.asarray(h, dtype=float) > lgrid.radius / 4.0


def diff_norms(g: SpectralData, h, p: float = 2.0, *, fx=None,
               xgrid: WeightedGrid | None = None):
    """(Plancherel, physical) routes of || T_h f - f ||_{p,a} for every h of
    a 1-D grid (a scalar h is a one-element grid); g holds the transform of f.

    Both come from one multiplier matrix M[k, j] = B(lambda_j h_k).  The
    Plancherel route, sqrt( sum_j w_j |1 - M[k, j]|^2 |g_j|^2 ), exists for
    p = 2 only (else None).  The physical route needs fx, the samples of f
    on xgrid.nodes with g = forward(fx, xgrid, g.lambda_grid) (else None):
    T_h f = K (w g M[k]) for all h at once, one product per kernel block,
    then the weighted p-norm of T_h f - f per h.  On resolved grids the two
    routes agree at p = 2.
    """
    if not 1.0 < p <= 2.0:
        raise DomainError(f"p must lie in (1, 2], got {p}")
    if p != 2.0 and fx is None:
        raise DomainError("p != 2 needs x-space samples: the Plancherel "
                          "route is p = 2 only")
    if fx is not None and xgrid is None:
        raise DomainError("the physical route needs the x grid of fx")
    mult = kernel_multiplier(g.lambda_grid, np.atleast_1d(h))
    return _routes(g, mult, p, fx, xgrid)


def round_trip_norms(g: SpectralData, h, xgrid: WeightedGrid):
    """Plancherel trace of g, then (Plancherel, physical) routes for its
    round trip f = inverse(g) sampled on xgrid and transformed back.

    This is the two-route check of diff_norms on an honest x-space function;
    all three traces share one multiplier matrix, as g and its round trip
    live on the same frequency grid.
    """
    lgrid = g.lambda_grid
    mult = kernel_multiplier(lgrid, np.atleast_1d(h))
    fx = inverse(g, xgrid)(xgrid.nodes)
    spec = forward(fx, xgrid, lgrid)
    return (_routes(g, mult, 2.0, None, None)[0],
            *_routes(spec, mult, 2.0, fx, xgrid))


def _routes(g: SpectralData, mult: np.ndarray, p: float, fx, xgrid):
    """diff_norms for a given multiplier matrix mult[k, j] = B(lambda_j h_k)."""
    lgrid = g.lambda_grid
    fast = phys = None
    if p == 2.0:
        fast = np.sqrt(np.sum(lgrid.weights * (1.0 - mult) ** 2 * g.values ** 2,
                              axis=1))
    if fx is not None:
        even, odd = np.hsplit(kernel_matrix(xgrid, lgrid), 2)
        tfs = _apply(even, odd, lgrid.weights * mult * g.values)
        phys = np.array([weighted_norm(tf - fx, xgrid, p) for tf in tfs])
    return fast, phys
