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
    """

    alpha: float
    radius: float
    nodes: np.ndarray
    weights: np.ndarray
    pos_nodes: np.ndarray
    pos_weights: np.ndarray
    cell_lo: np.ndarray
    cell_hi: np.ndarray
    uid: int = field(default_factory=lambda: next(_grid_ids))


@functools.cache
def _gauss_rule(order: int, beta: float | None = None):
    # read-only Gauss-Legendre nodes and weights, or Gauss-Jacobi ones for
    # the weight (1 + t)^beta when beta is given
    rule = roots_legendre(order) if beta is None else roots_jacobi(order, 0.0, beta)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _assemble(alpha: float, radius: float, edges: np.ndarray, order: int) -> WeightedGrid:
    # every grid builder ends here, so the rule order is checked once
    if order < 2:
        raise DomainError(f"order must be >= 2, got {order}")
    ca = weight_constant(alpha)
    beta = 2.0 * alpha - 1.0
    tj, wj = _gauss_rule(order, beta)
    h = edges[1]
    # the outer panels [a, b] are the rows of one (panels - 1, order) array
    tl, wl = _gauss_rule(order)
    a, b = edges[1:-1, None], edges[2:, None]
    x = 0.5 * (a + b) + 0.5 * (b - a) * tl
    pos = np.concatenate([h * (tj + 1.0) / 2.0, x.ravel()])
    wpos = np.concatenate([wj * (h / 2.0) ** (2.0 * alpha) * ca,
                           (wl * 0.5 * (b - a) * ca * x ** beta).ravel()])
    idx = np.argsort(pos)
    pos, wpos = pos[idx], wpos[idx]
    cell_lo = np.concatenate([[0.0], 0.5 * (pos[1:] + pos[:-1])])
    cell_hi = np.concatenate([0.5 * (pos[1:] + pos[:-1]), [radius]])
    nodes = np.concatenate([-pos[::-1], pos])
    weights = np.concatenate([wpos[::-1], wpos])
    for arr in (nodes, weights, pos, wpos, cell_lo, cell_hi):
        arr.setflags(write=False)
    return WeightedGrid(alpha=alpha, radius=radius, nodes=nodes, weights=weights,
                        pos_nodes=pos, pos_weights=wpos,
                        cell_lo=cell_lo, cell_hi=cell_hi)


def build_weighted_grid(alpha: float, radius: float, panels: int, order: int,
                        *, grading: str = "uniform",
                        first_panel: float | None = None) -> WeightedGrid:
    """Build a WeightedGrid with `panels` panels per half-axis.

    grading="uniform" places equal panels on [0, R]; grading="geometric"
    grows panels geometrically from `first_panel` (default R/2^(panels-1)
    capped at R/panels), which resolves small |x| while reaching large R.
    """
    if not alpha > 0.25:
        raise DomainError(f"alpha must exceed 1/4, got {alpha}")
    if not radius > 0:
        raise DomainError("radius must be positive")
    if panels < 2:
        raise DomainError("panels must be >= 2")
    if grading == "uniform":
        edges = np.linspace(0.0, radius, panels + 1)
    elif grading == "geometric":
        if first_panel is None:
            first_panel = radius / panels
        if not 0 < first_panel < radius:
            raise DomainError("first_panel must lie in (0, radius)")
        rho = (radius / first_panel) ** (1.0 / (panels - 1))
        edges = np.concatenate([[0.0], first_panel * rho ** np.arange(panels)])
        edges[-1] = radius
    else:
        raise DomainError(f"unknown grading {grading!r}")
    return _assemble(alpha, radius, edges, order)


def build_graded_grid(alpha: float, radius: float, order: int,
                      phase_budget: float, dual_radius: float) -> WeightedGrid:
    """Geometric grid resolving kernel oscillations B(lambda*x).

    The kernel phase is 2 sqrt(lambda*x); a panel [a, b] on this axis sees at
    most lnrho*sqrt(dual_radius*b) radians when the dual variable runs to
    dual_radius.  Panel growth and the first panel width are chosen so every
    panel stays below phase_budget radians, keeping Gauss rules of moderate
    order spectrally accurate.
    """
    lnrho = phase_budget / math.sqrt(radius * dual_radius)
    first = phase_budget ** 2 / (4.0 * dual_radius)
    first = min(first, radius / 4.0)
    edges = [0.0, first]
    while edges[-1] < radius * (1.0 - 1e-12):
        edges.append(min(edges[-1] * math.exp(lnrho), radius))
        if len(edges) > 100000:
            raise DomainError("grading produced too many panels")
    edges[-1] = radius
    return _assemble(alpha, radius, np.asarray(edges), order)


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
