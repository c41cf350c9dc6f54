"""Deformed Hankel transform, generalized translation, and difference norms.

The forward transform of f at frequency lambda_j is the weighted-quadrature
sum of f(x) B(lambda_j x); the inverse uses the same kernel against the
frequency grid.  Translation T_h is defined spectrally through the
multiplier identity F(T_h f)(lambda) = B(lambda h) F(f)(lambda), which is how
it enters every norm computed here.  All data are real (the kernel is real).

Every grid is symmetric under negation, so B(lambda_j x_i) and B(lambda_j h)
are assembled from the kernel's even and odd parts (specfun.kernel_parts),
evaluated once per distinct |lambda x| on the positive half-axes and mirrored.
Kernel matrices are dense and cached per grid pair.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace

import numpy as np

from .quadrature import WeightedGrid, weighted_norm
from .specfun import DomainError, KernelParams, kernel_B, kernel_parts


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
    smoothness_tag: str = "smooth_compact"
    spectral: "SpectralData | None" = None

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

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# alpha={self.alpha!r} radius={self.lambda_grid.radius!r}\n")
        buf.write("lambda,value\n")
        for lam, v in zip(self.lambda_grid.nodes, self.values):
            buf.write(f"{float(lam)!r},{float(v)!r}\n")
        return buf.getvalue()


_matrix_cache: dict[tuple[int, int, float], np.ndarray] = {}


def kernel_matrix(xgrid: WeightedGrid, lgrid: WeightedGrid) -> np.ndarray:
    """Dense kernel matrix K[i, j] = B_alpha(lambda_j * x_i), cached.

    The even and odd kernel parts E, O are evaluated once, on the positive
    quarter block |lambda_j x_i| = outer(xgrid.pos_nodes, lgrid.pos_nodes).
    Since nodes = [-pos[::-1], pos] on both grids, the four blocks are E - O
    where lambda_j x_i > 0 and E + O where it is negative, with rows and
    columns reversed on the negative half-axes.  Negation is exact, so every
    entry equals kernel_B at the same product.
    """
    if xgrid.alpha != lgrid.alpha:
        raise ConfigurationError("grids carry different alpha")
    key = (xgrid.uid, lgrid.uid, xgrid.alpha)
    mat = _matrix_cache.get(key)
    if mat is None:
        even, odd = kernel_parts(KernelParams(alpha=xgrid.alpha),
                                 np.outer(xgrid.pos_nodes, lgrid.pos_nodes))
        minus, plus = even - odd, even + odd
        mat = np.block([[minus[::-1, ::-1], plus[::-1]],
                        [plus[:, ::-1], minus]])
        mat.setflags(write=False)
        _matrix_cache[key] = mat
    return mat


def kernel_multiplier(lgrid: WeightedGrid, h: float) -> np.ndarray:
    """Multiplier B(lambda_j h) on the frequency grid.

    The kernel parts are evaluated on lgrid.pos_nodes * |h| and mirrored onto
    the negative half-axis; entries equal kernel_B(.., lgrid.nodes * h).
    """
    even, odd = kernel_parts(KernelParams(alpha=lgrid.alpha),
                             lgrid.pos_nodes * abs(h))
    same, flipped = (even - odd, even + odd) if h >= 0 else (even + odd, even - odd)
    return np.concatenate([flipped[::-1], same])


def forward(f: FunctionSpec, xgrid: WeightedGrid, lgrid: WeightedGrid) -> SpectralData:
    """Forward transform: values_j = sum_i w_i f(x_i) B(lambda_j x_i)."""
    if xgrid.alpha != lgrid.alpha:
        raise ConfigurationError("x and frequency grids carry different alpha")
    fx = np.asarray(f(xgrid.nodes), dtype=float)
    values = kernel_matrix(xgrid, lgrid).T @ (xgrid.weights * fx)
    return SpectralData(alpha=lgrid.alpha, lambda_grid=lgrid, values=values)


def inverse(g: SpectralData, xgrid: WeightedGrid) -> FunctionSpec:
    """Inverse transform as an evaluable function x -> sum_j w_j g_j B(lambda_j x)."""
    lgrid = g.lambda_grid
    coeff = lgrid.weights * g.values
    params = KernelParams(alpha=g.alpha)

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return float(kernel_multiplier(lgrid, float(x)) @ coeff)
        if x.shape == xgrid.nodes.shape and np.array_equal(x, xgrid.nodes):
            return kernel_matrix(xgrid, lgrid) @ coeff
        return kernel_B(params, np.outer(x, lgrid.nodes)) @ coeff

    return FunctionSpec(evaluator=evaluator, support_radius=xgrid.radius,
                        smoothness_tag="spectral_synthesized", spectral=g)


def tail_energy(g: SpectralData, h: float, q: float) -> float:
    """Spectral mass sum_{|lambda_j| >= 1/h} w_j |g_j|^q.

    Zero (degenerate) when 1/h is at or beyond the grid radius; use
    tail_truncated() to flag that situation.
    """
    if not h > 0:
        raise DomainError("h must be positive")
    cut = 1.0 / h
    mask = np.abs(g.lambda_grid.nodes) >= cut
    if not mask.any():
        return 0.0
    w = g.lambda_grid.weights[mask]
    return float(np.sum(w * np.abs(g.values[mask]) ** q))


def tail_truncated(lgrid: WeightedGrid, h: float) -> bool:
    """True when 1/h is too close to the grid edge for the tail to be resolved."""
    return 1.0 / h > lgrid.radius / 4.0


def translate(f: FunctionSpec, h: float, xgrid: WeightedGrid,
              lgrid: WeightedGrid) -> FunctionSpec:
    """Generalized translation via the spectral multiplier B(lambda h)."""
    spec = forward(f, xgrid, lgrid)
    mult = kernel_multiplier(lgrid, h)
    return inverse(replace(spec, values=mult * spec.values), xgrid)


def diff_norm(f: FunctionSpec, h: float, p: float, xgrid: WeightedGrid,
              lgrid: WeightedGrid, *, route: str = "physical") -> float:
    """|| T_h f - f ||_{p,a} on the x grid.

    route="physical" evaluates T_h f - f pointwise and takes the weighted
    norm; route="fast" (p = 2 only) uses the Plancherel form
    sqrt( sum_j w_j |1 - B(lambda_j h)|^2 |F_j|^2 ), which must agree with
    the physical route on resolved grids.
    """
    if not 1.0 < p <= 2.0:
        raise DomainError(f"p must lie in (1, 2], got {p}")
    spec = forward(f, xgrid, lgrid)
    mult = kernel_multiplier(lgrid, h)
    if route == "fast":
        if p != 2.0:
            raise DomainError("fast route requires p = 2")
        return float(np.sqrt(np.sum(
            lgrid.weights * (1.0 - mult) ** 2 * spec.values ** 2)))
    if route != "physical":
        raise DomainError(f"unknown route {route!r}")
    tf = kernel_matrix(xgrid, lgrid) @ (lgrid.weights * mult * spec.values)
    fx = np.asarray(f(xgrid.nodes), dtype=float)
    return weighted_norm(tf - fx, xgrid, p)


def diff_norm_spectral(g: SpectralData, h: float) -> float:
    """Plancherel difference norm straight from spectral data (p = 2)."""
    mult = kernel_multiplier(g.lambda_grid, h)
    return float(np.sqrt(np.sum(
        g.lambda_grid.weights * (1.0 - mult) ** 2 * g.values ** 2)))
