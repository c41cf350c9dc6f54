"""Quadrature for the weighted measure c_a |x|^{2a-1} dx on [-R, R].

The measure carries an algebraic singularity at the origin for a < 1/2 (and
a vanishing weight for a > 1/2); the panel adjacent to zero uses a
Gauss-Jacobi rule that absorbs |x|^{2a-1} exactly, outer panels use
Gauss-Legendre with the weight folded into the quadrature weights.  The node
at x = 0 is never included.  Grids are symmetric under negation and the
normalization constant c_a = 1/(2 Gamma(2a)) is folded into the weights, so
the total weight mass equals c_a R^{2a} / a.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .specfun import DomainError, gamma

_grid_ids = itertools.count()
# Largest Gauss rule order per panel and panel count per grid.  A grid's
# nodes grow with order x panels, and a kernel entry with their square; every
# grid of the CLI defaults to order 16.
_MAX_ORDER, MAX_PANELS = 64, 100000
# Largest grid radius: below it the panel midpoints 0.5 (a + b) of every grid
# and the span radius / 0.25 of a tail grid stay finite.
_MAX_RADIUS = np.finfo(float).max / 4.0


def weight_constant(alpha: float) -> float:
    """Normalization c_a = 1/(2 Gamma(2a))."""
    return 1.0 / (2.0 * gamma(2.0 * alpha))


@dataclass(frozen=True)
class WeightedGrid:
    """Symmetric quadrature discretizing c_a |x|^{2a-1} dx on [-R, R] \\ {0}.

    nodes/weights cover both signs; the pos_* arrays are the positive half.
    Invariant: nodes == [-pos_nodes[::-1], pos_nodes] and
    weights == [pos_weights[::-1], pos_weights] exactly.  The kernel matrix
    and multiplier builds in transform rely on it to evaluate the kernel on
    the positive half-axis only.
    cell_lo/cell_hi bound the per-node cells on the positive axis: midpoints
    between consecutive nodes, with 0 and R closing the ends.
    pos_nodes holds `order` nodes per panel, panel after panel from the
    Gauss-Jacobi panel at the origin.
    log_ratio is ln rho on every grid of build_graded_grid: every panel but
    the first and the last is [e, e * rho] up to the rounding of its edges.
    It is None on the uniform grids of build_weighted_grid.
    """

    alpha: float
    radius: float
    nodes: np.ndarray
    weights: np.ndarray
    pos_nodes: np.ndarray
    pos_weights: np.ndarray
    cell_lo: np.ndarray
    cell_hi: np.ndarray
    order: int
    log_ratio: float | None = None
    uid: int = field(default_factory=lambda: next(_grid_ids))


@functools.cache
def _gauss_rule(order: int, beta: float | None = None):
    # read-only Gauss-Legendre nodes and weights, or Gauss-Jacobi ones for
    # the weight (1 + t)^beta when beta is given
    rule = roots_legendre(order) if beta is None else roots_jacobi(order, 0.0, beta)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def check_grid_inputs(alpha: float, radius: float, order: int) -> None:
    """The input checks of every grid, made before any edge is computed."""
    if not alpha > 0.25:
        raise DomainError(f"alpha must exceed 1/4, got {alpha}")
    if not 0 < radius <= _MAX_RADIUS:
        raise DomainError(f"radius must be positive and at most {_MAX_RADIUS:.6g}, "
                          f"got {radius}")
    if order < 2:
        raise DomainError(f"order must be >= 2, got {order}")
    if order > _MAX_ORDER:
        raise DomainError(f"order must be <= {_MAX_ORDER}, got {order}")


def _assemble(alpha: float, radius: float, edges: np.ndarray, order: int,
              log_ratio: float | None = None) -> WeightedGrid:
    ca = weight_constant(alpha)
    beta = 2.0 * alpha - 1.0
    tj, wj = _gauss_rule(order, beta)
    h = edges[1]
    # the outer panels [a, b] are the rows of one (panels - 1, order) array
    tl, wl = _gauss_rule(order)
    a, b = edges[1:-1, None], edges[2:, None]
    x = 0.5 * (a + b) + 0.5 * (b - a) * tl
    pos = np.concatenate([h * (tj + 1.0) / 2.0, x.ravel()])
    with np.errstate(over="ignore", under="ignore"):
        wpos = np.concatenate([wj * (h / 2.0) ** (2.0 * alpha) * ca,
                               (wl * 0.5 * (b - a) * ca * x ** beta).ravel()])
    if not np.all((wpos > 0) & (wpos < math.inf)):
        raise DomainError(f"alpha = {alpha} takes the quadrature weights out "
                          "of the range of doubles")
    cell_lo = np.concatenate([[0.0], 0.5 * (pos[1:] + pos[:-1])])
    cell_hi = np.concatenate([0.5 * (pos[1:] + pos[:-1]), [radius]])
    nodes = np.concatenate([-pos[::-1], pos])
    weights = np.concatenate([wpos[::-1], wpos])
    for arr in (nodes, weights, pos, wpos, cell_lo, cell_hi):
        arr.setflags(write=False)
    return WeightedGrid(alpha=alpha, radius=radius, nodes=nodes, weights=weights,
                        pos_nodes=pos, pos_weights=wpos,
                        cell_lo=cell_lo, cell_hi=cell_hi, order=order,
                        log_ratio=log_ratio)


def build_weighted_grid(alpha: float, radius: float, panels: int,
                        order: int) -> WeightedGrid:
    """Build a WeightedGrid with `panels` equal panels on [0, R]."""
    check_grid_inputs(alpha, radius, order)
    if not 2 <= panels < MAX_PANELS:
        raise DomainError(f"panels must lie in [2, {MAX_PANELS}), got {panels}")
    return _assemble(alpha, radius, np.linspace(0.0, radius, panels + 1), order)


def build_graded_grid(alpha: float, radius: float, order: int,
                      first_panel: float, rho: float) -> WeightedGrid:
    """Geometric grid with panel edges 0 and first_panel * rho^k, k = 0 .. K.

    K is the first k with first_panel * rho^k >= R (to a relative 1e-12),
    and that last edge is set to R.  Every panel but the first and the last
    is [e, e * rho] up to the rounding of the powers; the grid records
    log_ratio = ln rho.
    """
    check_grid_inputs(alpha, radius, order)
    if not (0 < first_panel < radius and 1 < rho < math.inf):
        raise DomainError("first_panel must lie in (0, radius) and rho in "
                          f"(1, inf), got {first_panel} and {rho}")
    count = math.log(radius / first_panel) / math.log(rho)
    if not count < MAX_PANELS:
        raise DomainError("grading produced too many panels")
    edges = first_panel * rho ** np.arange(int(count) + 2)
    last = np.argmax(edges >= radius * (1.0 - 1e-12))
    edges = np.concatenate([[0.0], edges[:last], [radius]])
    return _assemble(alpha, radius, edges, order, math.log(rho))


def conjugate_exponent(p: float) -> float:
    """q = p/(p - 1) for p in (1, 2], the range of the Titchmarsh theorems;
    any other p is a DomainError."""
    if not 1.0 < p <= 2.0:
        raise DomainError(f"p must lie in (1, 2], got {p}")
    return p / (p - 1.0)


def weighted_norm(f, grid: WeightedGrid, p: float) -> float:
    """L^{p,a} norm of f on the grid: (sum_i w_i |f(x_i)|^p)^{1/p}.

    f may be a callable (vectorized over numpy arrays) or an array of values
    on grid.nodes.
    """
    if not p >= 1:
        raise DomainError(f"p must be >= 1, got {p}")
    vals = f(grid.nodes) if callable(f) else np.asarray(f, dtype=float)
    if vals.shape != grid.nodes.shape:
        raise DomainError("value array does not match the grid")
    return float(np.sum(grid.weights * np.abs(vals) ** p) ** (1.0 / p))


def panel_integrals(fn, edges, order: int) -> np.ndarray:
    """Gauss-Legendre integrals of fn(s) ds over the panels [edges[i], edges[i+1]].

    fn is vectorized; it is called once, on the (panels, order) node array.
    """
    edges = np.asarray(edges, dtype=float)
    tg, wg = _gauss_rule(order)
    a, b = edges[:-1], edges[1:]
    s = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * tg[None, :]
    return np.sum(fn(s) * wg[None, :], axis=1) * 0.5 * (b - a)
