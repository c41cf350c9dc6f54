"""Deformed Hankel transform, generalized translation, and difference norms.

The forward transform of f at frequency lambda_j is the weighted-quadrature
sum of f(x) B(lambda_j x); the inverse uses the same kernel against the
frequency grid.  Translation T_h is defined spectrally through the
multiplier identity F(T_h f)(lambda) = B(lambda h) F(f)(lambda), which is how
it enters every norm computed here.  All data are real (the kernel is real).

Every grid is symmetric under negation, so B(lambda_j x_i) and B(lambda_j h)
come from the kernel's even and odd parts (specfun.kernel_parts), evaluated
once per distinct |lambda x| on the positive half-axes.  A grid pair's
kernel is cached (kernel_matrix) as a KernelEntry for as long as the pair
lives: dense edge strips for the first and the last panel of either grid,
and, between the interior panels of a resolved pair, where block (k, l) is
slice k + l of one table of the kernel parts, that table's real FFT along
the panel-sum axis.  Every transform applies the entry matrix-free (_apply):
E on the even and O on the odd combination of the coefficients, the strips
by small dense products and the interior by one FFT correlation.

Difference norms ||T_h f - f|| come for a whole h grid at once (diff_norms),
from one multiplier matrix B(lambda_j h_k): reduced per h (Plancherel route)
and applied to all h in one apply of the kernel entry (physical route).  Tail
energies and the partial norms over |lambda| <= r come from one spectral-mass
primitive (spectral_mass), also for a whole grid of cuts at once.
"""

from __future__ import annotations

import io
import weakref
from dataclasses import dataclass

import numpy as np

from .quadrature import WeightedGrid, conjugate_exponent, weighted_norm
from .specfun import DomainError, KernelParams, kernel_parts


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

    lambda_grid: WeightedGrid
    values: np.ndarray

    @property
    def alpha(self) -> float:
        """The deformation order, the grid's: data cannot disagree with it."""
        return self.lambda_grid.alpha

    def __post_init__(self):
        if self.values.shape != self.lambda_grid.nodes.shape:
            raise DomainError("values length must match the frequency grid")

    def norm(self, q: float) -> float:
        return weighted_norm(self.values, self.lambda_grid, q)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# alpha={self.alpha!r} radius={self.lambda_grid.radius!r}\n")
        buf.write("lambda,value\n")
        for lam, v in zip(self.lambda_grid.nodes, self.values):
            buf.write(f"{float(lam)!r},{float(v)!r}\n")
        return buf.getvalue()


_matrix_cache: dict[tuple[int, int, float], "KernelEntry"] = {}
# largest number of kernel entries one kernel_parts call of an edge strip
# evaluates
_SLAB_ENTRIES = 65536
_ENTRY_BYTES = 1 << 30   # largest KernelEntry.nbytes a grid pair may ask for


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


def _fft_length(kx: int, kl: int) -> int:
    """Smallest power of two L >= kx + kl - 1, the length of the table.

    The interior outputs are the valid part of a circular correlation of
    the table with the coefficients of k_in interior panels (kx or kl):
    output k reads table entries k .. k + k_in - 1 <= kx + kl - 2 < L only,
    so none wraps around in either orientation.
    """
    return 1 << (kx + kl - 2).bit_length()


@dataclass(frozen=True, eq=False)
class KernelEntry:
    """Cached kernel of a grid pair, E and O stacked on the first axis.

    E[i, j] and O[i, j] are the even and odd kernel parts at
    xgrid.pos_nodes[i] * lgrid.pos_nodes[j] (see kernel_matrix).  The
    entry keeps them as
    - rows: (2, len(edge_rows), n_lambda), the rows edge_rows of the first
      and the last x panel (every row on a pair without interior);
    - side: (2, kx * order, len(edge_cols)), the interior rows' columns
      edge_cols of the first and the last lambda panel;
    - spectra: (2, L // 2 + 1, order, order), the real FFT along the
      panel-sum axis of the interior table, tab[m, s, m'] ->
      spectra[:, f, m, m'], at L = _fft_length(kx, kl) (empty without an
      interior).
    """

    rows: np.ndarray
    side: np.ndarray
    spectra: np.ndarray
    edge_rows: np.ndarray
    edge_cols: np.ndarray
    panels: tuple[int, int]
    order: int

    @property
    def nbytes(self) -> int:
        """Bytes of kernel data held: strips and spectra."""
        return self.rows.nbytes + self.side.nbytes + self.spectra.nbytes

    @property
    def size(self) -> int:
        """Kernel entries held: strip entries and complex spectrum entries."""
        return self.rows.size + self.side.size + self.spectra.size


def kernel_matrix(xgrid: WeightedGrid, lgrid: WeightedGrid) -> KernelEntry:
    """Kernel of the grid pair as a KernelEntry (edge strips plus interior
    spectra), cached.

    The half-line blocks E, O (kernel parts at |lambda_j x_i| on the
    positive nodes) determine the dense kernel B(lambda_j x_i) =
    E - sign(lambda_j x_i) O on the symmetric grids; _apply applies it from
    the entry without forming them.  The entry is released when either grid
    is garbage-collected.

    The kernel depends on lambda x alone.  When the panels of both grids
    grow by one ratio (_interior_panels), the block of interior x panel k
    and interior lambda panel l is the slice [:, k + l, :] of one table, the
    kernel parts at _table_arguments (one representative product per
    panel-index sum and node pair); the entry keeps the table's real FFT
    along that panel-sum axis, so that the interior product is one
    correlation.  The edge strips (the first and the last panel of either
    grid) are the kernel parts at the rows' outer product, evaluated in row
    slabs of at most _SLAB_ENTRIES entries.  A grid pair without a common
    ratio has no interior and is held as one strip of all rows.
    """
    if xgrid.alpha != lgrid.alpha:
        raise DomainError("grids carry different alpha")
    key = (xgrid.uid, lgrid.uid, xgrid.alpha)
    entry = _matrix_cache.get(key)
    if entry is None:
        entry = _build_entry(xgrid, lgrid)
        _matrix_cache[key] = entry
        for grid in (xgrid, lgrid):
            weakref.finalize(grid, _matrix_cache.pop, key, None)
    return entry


def _build_entry(xgrid: WeightedGrid, lgrid: WeightedGrid) -> KernelEntry:
    params = KernelParams(alpha=xgrid.alpha)
    xpos, lpos = xgrid.pos_nodes, lgrid.pos_nodes
    o = xgrid.order
    kx, kl = _interior_panels(xgrid, lgrid)
    # interior rows [r0, r1) and columns [c0, c1), empty without a table
    r0, r1 = (o, o + kx * o) if kx else (0, 0)
    c0, c1 = o, o + kl * o
    edge_rows = np.r_[0:r0, r1:xpos.size]
    edge_cols = np.r_[0:c0, c1:lpos.size]
    # float strips and complex spectra of E and O, checked before allocation
    nbytes = 16 * (edge_rows.size * lpos.size + (r1 - r0) * edge_cols.size
                   + (2 * (_fft_length(kx, kl) // 2 + 1) * o * o if kx else 0))
    if nbytes > _ENTRY_BYTES:
        raise DomainError(f"the kernel of this grid pair would hold {nbytes} "
                          f"bytes, over the cap of {_ENTRY_BYTES}; use fewer nodes")
    # the kernel squares its argument z = 2 sqrt(lambda x): 4 lambda x must be finite
    if not np.isfinite(4.0 * xgrid.radius * lgrid.radius):
        raise DomainError("radius_x * radius_lambda overflows the kernel argument")
    rows = np.empty((2, edge_rows.size, lpos.size))
    side = np.empty((2, r1 - r0, edge_cols.size))
    # each strip in row slabs that bound the temporaries of kernel_parts
    for strip, xs, ls in ((rows, xpos[edge_rows], lpos),
                          (side, xpos[r0:r1], lpos[edge_cols])):
        step = max(1, _SLAB_ENTRIES // ls.size)
        for i in range(0, xs.size, step):
            slab = slice(i, i + step)
            strip[0, slab], strip[1, slab] = kernel_parts(params, np.outer(xs[slab], ls))
    if kx:
        tab = np.stack(kernel_parts(params, _table_arguments(xgrid, lgrid)))
        spectra = np.fft.rfft(tab, n=_fft_length(kx, kl), axis=2).transpose(0, 2, 1, 3)
        spectra = np.ascontiguousarray(spectra)
    else:
        spectra = np.empty((2, 0, o, o), dtype=complex)
    for arr in (rows, side, spectra, edge_rows, edge_cols):
        arr.setflags(write=False)
    return KernelEntry(rows=rows, side=side, spectra=spectra, edge_rows=edge_rows,
                       edge_cols=edge_cols, panels=(kx, kl), order=o)


def _interior(spectra: np.ndarray, c: np.ndarray, k_in: int, k_out: int) -> np.ndarray:
    """Interior products y[.., k, :] = sum_l c[.., l, :] @ tab[:, k + l, :] for
    the stacked E and O tables whose spectra (2, F, order, order) are given
    (transpose their node axes for tab[m', k + l, m]): rfft of the reversed
    coefficients, one matmul over frequencies, irfft.  c has shape
    (2, b, k_in * order); the result (2, b, k_out * order)."""
    b, o = c.shape[1], spectra.shape[-1]
    n = _fft_length(k_in, k_out)
    # (2, k_in, b, o) with the panel axis reversed: the correlation becomes
    # a convolution whose outputs k_in - 1 .. k_in + k_out - 2 are wanted
    rev = c.reshape(2, b, k_in, o)[:, :, ::-1].transpose(0, 2, 1, 3)
    spec = np.fft.rfft(rev, n=n, axis=1) @ spectra
    y = np.fft.irfft(spec, n=n, axis=1)[:, k_in - 1:k_in - 1 + k_out]
    return y.transpose(0, 2, 1, 3).reshape(2, b, k_out * o)


def _apply(entry: KernelEntry, c, transposed: bool = False):
    """Kernel sums sum_j B(u_j) c_j along the last axis of c, from the entry.

    Untransposed, c holds coefficients on the frequency grid and the sums
    are taken at the x nodes (inverse, physical route); transposed, c lives
    on the x grid and the sums are at the frequency nodes (forward).  Both
    grids are symmetric, [-pos[::-1], pos]; with s = c(pos) + c(-pos) and
    d = c(pos) - c(-pos), the sum is E s - O d at the positive output nodes
    p and E s + O d at -p, so the result, shape (..., 2m), is
    [rev(E s + O d), E s - O d] on the m positive output nodes.  E s and
    O d come from the edge strips by small dense products and from the
    interior spectra by one correlation, E and O stacked throughout.
    """
    n = c.shape[-1] // 2
    plus, minus = c[..., n:], c[..., n - 1::-1]
    sd = np.stack([plus + minus, plus - minus]).reshape(2, c[..., 0].size, n)
    rows, side, (kx, kl) = entry.rows, entry.side, entry.panels
    ri, ci = entry.edge_rows, entry.edge_cols
    inner_rows = slice(entry.order, entry.order * (kx + 1))
    inner_cols = slice(entry.order, entry.order * (kl + 1))
    if transposed:
        out = sd[:, :, ri] @ rows
        if kx:
            inner = sd[:, :, inner_rows]
            out[:, :, ci] += inner @ side
            out[:, :, inner_cols] += _interior(entry.spectra, inner, kx, kl)
    else:
        out = np.empty((2, sd.shape[1], rows.shape[1] + side.shape[1]))
        out[:, :, ri] = sd @ rows.transpose(0, 2, 1)
        if kx:
            spectra = entry.spectra.transpose(0, 1, 3, 2)
            out[:, :, inner_rows] = (sd[:, :, ci] @ side.transpose(0, 2, 1)
                                     + _interior(spectra, sd[:, :, inner_cols], kl, kx))
    es, od = out.reshape((2,) + c.shape[:-1] + out.shape[-1:])
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
    entry = kernel_matrix(xgrid, lgrid)   # refuses a bad pair before f is sampled
    fx = np.asarray(f(xgrid.nodes) if callable(f) else f, dtype=float)
    if fx.shape != xgrid.nodes.shape:
        raise DomainError("samples do not match the x grid")
    values = _apply(entry, xgrid.weights * fx, transposed=True)
    return SpectralData(lambda_grid=lgrid, values=values)


def inverse(g: SpectralData, xgrid: WeightedGrid) -> FunctionSpec:
    """Inverse transform as an evaluable function x -> sum_j w_j g_j B(lambda_j x).

    On xgrid.nodes it applies the cached kernel entry; elsewhere the kernel rows
    B(lambda_j x) are kernel_multiplier(lgrid, x), one evaluation of the
    kernel parts at |x| * lgrid.pos_nodes.  A scalar x gives a scalar.
    """
    lgrid = g.lambda_grid
    coeff = lgrid.weights * g.values

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        if x.shape == xgrid.nodes.shape and np.array_equal(x, xgrid.nodes):
            return _apply(kernel_matrix(xgrid, lgrid), coeff)
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
    T_h f = K (w g M[k]) for all h at once, one apply of the kernel entry,
    then the weighted p-norm of T_h f - f per h.  On resolved grids the two
    routes agree at p = 2.
    """
    conjugate_exponent(p)  # rejects p outside (1, 2]
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
        tfs = _apply(kernel_matrix(xgrid, lgrid), lgrid.weights * mult * g.values)
        phys = np.array([weighted_norm(tf - fx, xgrid, p) for tf in tfs])
    return fast, phys
