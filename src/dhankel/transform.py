"""Deformed Hankel transform, generalized translation, and difference norms.

The forward transform of f at frequency lambda_j is the weighted-quadrature
sum of f(x) B(lambda_j x); the inverse uses the same kernel against the
frequency grid.  Translation T_h is defined spectrally through the
multiplier identity F(T_h f)(lambda) = B(lambda h) F(f)(lambda), which is how
it enters every norm computed here.  All data are real (the kernel is real).

Every grid is symmetric under negation, so B(lambda_j x_i) and B(lambda_j h)
come from the kernel's even and odd parts, evaluated once per distinct
|lambda x| on the positive half-axes.  Every kernel array (an entry or a
multiplier) is evaluated in one pass (_evaluate): its arguments, generated
slab by slab of at most _SLAB_ENTRIES entries, go to specfun.kernel_parts,
which writes E and O in place into the one array (out=) that holds them, so
the evaluation's memory is bounded by the slab.  A grid pair's kernel is
cached (kernel_matrix) as a KernelEntry under the two grid objects
themselves, weakly, for as long as both live.  The kernel depends on
lambda x alone, so on a pair that is one geometric grid scaled twice
(make_resolved_grids) it is symmetric: the
entry keeps the rows of the first and the last x panel, which also stand
for the edge columns, and, between interior panels, where block (k, l) is
slice k + l of one table of the kernel parts, that table's real FFT along
the panel-sum axis at the smallest 5-smooth length (2^a 3^b 5^c) that
holds the interior correlation without wrap-around (_fft_length).  The
table is symmetric in its two node axes and is evaluated on the node pairs
m <= m' only.  Any other pair is one strip of all rows.  Every transform
applies the entry matrix-free (_apply): E on the even and O on the odd
combination of the coefficients, the rows by dense products and the
interior by one FFT correlation, by one formula for forward and inverse
alike on a symmetric entry.

Difference norms ||T_h f - f|| come for a whole h grid at once (diff_norms),
from one multiplier matrix B(lambda_j h_k), by one of two routes: reduced
per h (_plancherel, p = 2) or applied to all h in one apply of the kernel
entry (_physical, any p, from samples of f).  The multiplier depends on
alpha, the positive frequency nodes and the h grid alone, so
kernel_multiplier keeps each one it evaluates, read-only, keyed by those
exact values (not by grid identity: every CLI run builds a fresh grid), in a
least-recently-used cache of at most _MULTIPLIER_CACHE_BYTES multiplier
bytes; each distinct multiplier is evaluated once per process.  Each
(h x node) array of a call (the multiplier, the route's terms) is built in
one buffer, in place, in its formula's order of operations, so no result
moves by a bit and the Plancherel route allocates nothing else that large.
Tail energies and the partial norms over |lambda| <= r come from one
spectral-mass primitive (spectral_mass), also for a whole grid of cuts at
once.
"""

from __future__ import annotations

import io
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .quadrature import (WeightedGrid, check_exponent, conjugate_exponent,
                         grid_values, weighted_norm)
from .specfun import DomainError, KernelParams, kernel_parts


@dataclass(frozen=True)
class FunctionSpec:
    """An evaluable real function; evaluator must accept numpy arrays.

    support_radius records where |f| has decayed; no computation reads it.
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
        object.__setattr__(self, "values",
                           grid_values(self.values, self.lambda_grid, "spectral values"))

    def norm(self, q: float) -> float:
        return weighted_norm(self.values, self.lambda_grid, q)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# alpha={self.alpha!r} radius={self.lambda_grid.radius!r}\n")
        buf.write("lambda,value\n")
        for lam, v in zip(self.lambda_grid.nodes, self.values):
            buf.write(f"{float(lam)!r},{float(v)!r}\n")
        return buf.getvalue()


# x grid -> frequency grid -> the pair's KernelEntry, while both grids live
_matrix_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# most entries (arguments) per kernel evaluation, a kernel_parts call of
# _evaluate, whose memory is a few times that: every build and multiplier
# goes through it in slabs of whole rows
_SLAB_ENTRIES = 65536
_ENTRY_BYTES = 1 << 30   # largest kernel array (entry or multiplier) a call may ask for
_MULTIPLIER_CACHE_BYTES = 16 << 20   # most multiplier bytes _multiplier_cache holds
_SCALED_COPY_ULPS = 16   # widest spread of lpos / xpos on a pair taken as one grid scaled twice
# (alpha, positive frequency nodes' bytes, h grid's bytes) -> multiplier,
# least recently used first
_multiplier_cache: OrderedDict[tuple[float, bytes, bytes], np.ndarray] = OrderedDict()


def _check_bytes(nbytes: int, what: str) -> None:
    """Refuse a kernel array of nbytes over _ENTRY_BYTES, before any evaluation."""
    if nbytes > _ENTRY_BYTES:
        raise DomainError(f"{what} would hold {nbytes} bytes, over the cap of "
                          f"{_ENTRY_BYTES}; use fewer nodes")


def _evaluate(params: KernelParams, strips, out: np.ndarray) -> None:
    """Kernel parts (E, O) at the arguments of the strips, written into out,
    shape (2, N), row after row.  A strip is a pair (a, b) whose product
    a * b holds its rows of arguments: a of shape (rows, 1) or (rows,
    width), b one row of width entries or a scalar.  The rows go in slabs
    of whole rows of at most _SLAB_ENTRIES entries (one row, when a row is
    longer), each slab's arguments multiplied out into one reused buffer
    and evaluated by one kernel_parts call, so the memory of the
    evaluation is bounded by the slab, not by N."""
    widths = [max(a.shape[1], np.size(b)) for a, b in strips]
    t = np.empty(max([min(_SLAB_ENTRIES, out.shape[1])] + widths))
    lo = at = 0   # out's column of the slab in t, and its entries so far
    for (a, b), width in zip(strips, widths):
        r = 0
        while r < len(a):
            if at and at + width > _SLAB_ENTRIES:   # no room for this row
                kernel_parts(params, t[:at], out=out[:, lo:lo + at])
                lo, at = lo + at, 0
            take = min(len(a) - r, max(1, (_SLAB_ENTRIES - at) // width))
            np.multiply(a[r:r + take], b, out=t[at:at + take * width].reshape(take, width))
            at += take * width
            r += take
    if at:
        kernel_parts(params, t[:at], out=out[:, lo:lo + at])


def _scaled_copy(xpos: np.ndarray, lpos: np.ndarray) -> bool:
    """True when lpos is xpos times one ratio, to within _SCALED_COPY_ULPS
    ulps of it (make_resolved_grids' pairs: one graded grid scaled twice).

    On such a pair x_i * lambda_j equals x_j * lambda_i up to a few ulps, so
    the kernel parts are symmetric in (i, j).
    """
    if xpos.size != lpos.size:
        return False
    ratio = lpos / xpos
    return bool(np.ptp(ratio) <= _SCALED_COPY_ULPS * np.spacing(ratio.max()))


def _interior_panels(xgrid: WeightedGrid, lgrid: WeightedGrid) -> int:
    """Number k of interior panels (all but the first and the last) of either
    grid when the pair is one geometric grid with one rule order scaled
    twice (_scaled_copy), else 0.

    On such a pair the interior products x_i * lambda_j depend, up to a few
    ulps, only on the sum of the two panel indices and the two in-panel
    node indices, and the kernel is symmetric in (i, j).
    """
    if (xgrid.log_ratio is None or xgrid.order != lgrid.order
            or not _scaled_copy(xgrid.pos_nodes, lgrid.pos_nodes)):
        return 0
    return xgrid.pos_nodes.size // xgrid.order - 2


def _table_arguments(xgrid: WeightedGrid, lgrid: WeightedGrid, pairs) -> np.ndarray:
    """Kernel arguments of the interior table of kernel_matrix on its node
    pairs m <= m', shape (order (order + 1) / 2, 2 k - 1) with k =
    _interior_panels(...), the pairs (m, m') = pairs, np.triu_indices(order).

    Entry [(m, m'), s] is one representative product x * lambda of node m
    of an interior x panel and node m' of an interior lambda panel whose
    interior panel indices sum to s: the x panel is the first one that has
    a partner.
    """
    o = xgrid.order
    k = _interior_panels(xgrid, lgrid)
    xs = xgrid.pos_nodes[o:o + k * o].reshape(k, o)
    ls = lgrid.pos_nodes[o:o + k * o].reshape(k, o)
    s = np.arange(2 * k - 1)
    first = np.maximum(s - (k - 1), 0)
    m, m2 = pairs
    return xs[first][:, m].T * ls[s - first][:, m2].T


def _fft_length(k: int) -> int:
    """Smallest 5-smooth L = 2^a 3^b 5^c >= max(2 k - 1, 1), the length of
    the table (1 on a table-less pair, k = 0).

    The interior outputs are the valid part of a circular correlation of
    the table with the coefficients of the k interior panels: output l
    reads table entries l .. l + k - 1 <= 2 k - 2 < L only, so none wraps
    around.  Real FFTs are about as fast at such lengths as at powers of
    two, which pad 2 k - 1 by up to 100% (5-smooth: under 16% for k < 5000).
    """
    n = max(2 * k - 1, 1)
    while 30 ** n.bit_length() % n:   # n is 5-smooth iff it divides 30^e, e >= log2 n
        n += 1
    return n


@dataclass(frozen=True, eq=False)
class KernelEntry:
    """Cached kernel of a grid pair, E and O stacked on the first axis.

    E[i, j] and O[i, j] are the even and odd kernel parts at
    xgrid.pos_nodes[i] * lgrid.pos_nodes[j] (see kernel_matrix).  With k =
    panels interior panels (a pair that is one grid scaled twice, where the
    kernel is symmetric in (i, j); 0 on any other pair) the entry keeps them as
    - parts: (2, N), every kernel value the build evaluated, in one pass
      into one buffer: the rows' entries, then (k > 0) the interior table's,
      order (order + 1) / 2 node pairs m <= m' of 2 k - 1 panel sums each;
    - rows: (2, n_x - k order, n_lambda), a view of the first entries of
      parts: the rows of the first and the last x panel, [:order] and
      [order (k + 1):] (every row when k = 0); the interior rows' edge
      columns are rows[:, :, interior], read transposed;
    - spectra: (2, L // 2 + 1, order, order), the real FFT along the
      panel-sum axis of the interior table, tab[m, s, m'] ->
      spectra[:, f, m, m'], at the smallest 5-smooth length L >= 2 k - 1
      (_fft_length; empty when k = 0).  The table is evaluated on m <= m'
      and mirrored, so the spectra are symmetric in their two node axes bit
      for bit.
    """

    parts: np.ndarray
    rows: np.ndarray
    spectra: np.ndarray
    panels: int
    order: int

    @property
    def nbytes(self) -> int:
        """Bytes of kernel data held: parts (the rows and the table) and spectra."""
        return self.parts.nbytes + self.spectra.nbytes

    @property
    def size(self) -> int:
        """Kernel entries held: float parts and complex spectrum entries."""
        return self.parts.size + self.spectra.size


def kernel_matrix(xgrid: WeightedGrid, lgrid: WeightedGrid) -> KernelEntry:
    """Kernel of the grid pair as a KernelEntry (edge rows plus interior
    spectra), cached.

    The half-line blocks E, O (kernel parts at |lambda_j x_i| on the
    positive nodes) determine the dense kernel B(lambda_j x_i) =
    E - sign(lambda_j x_i) O on the symmetric grids; _apply applies it from
    the entry without forming them.  The entry is released when either grid
    is garbage-collected.

    The kernel depends on lambda x alone.  On a pair that is one geometric
    grid scaled twice (_interior_panels), the block of interior x panel k
    and interior lambda panel l is the slice [:, k + l, :] of one table, the
    kernel parts at _table_arguments (one representative product per
    panel-index sum and node pair m <= m'); the entry keeps the table's
    real FFT along that panel-sum axis, so that the interior product is one
    correlation.  The edge rows (the first and the last x panel) are the
    kernel parts at their outer product with the lambda nodes, and the
    kernel is symmetric, so they also stand for the edge columns.  Any
    other pair has no interior and is one strip of all rows.

    The build evaluates the edge rows' arguments, then the table's, in one
    pass (_evaluate): slabs of whole rows of at most _SLAB_ENTRIES entries,
    each written in place into one (2, N) array, KernelEntry.parts, whose
    first entries are the rows and whose last the table fed to the real
    FFT.
    """
    if xgrid.alpha != lgrid.alpha:
        raise DomainError("grids carry different alpha")
    entries = _matrix_cache.setdefault(xgrid, weakref.WeakKeyDictionary())
    entry = entries.get(lgrid)
    if entry is None:
        entry = entries[lgrid] = _build_entry(xgrid, lgrid)
    return entry


def _build_entry(xgrid: WeightedGrid, lgrid: WeightedGrid) -> KernelEntry:
    params = KernelParams(alpha=xgrid.alpha)
    xpos, lpos = xgrid.pos_nodes, lgrid.pos_nodes
    o = xgrid.order
    k = _interior_panels(xgrid, lgrid)
    # every row but the interior ones [o, o + k o): all rows when k = 0
    edge_rows = np.r_[0:o, o + k * o:xpos.size]
    n = _fft_length(k)
    m, m2 = pairs = np.triu_indices(o)
    sums, freqs = (2 * k - 1, n // 2 + 1) if k else (0, 0)
    row_entries, table_entries = edge_rows.size * lpos.size, m.size * sums
    # float rows and table, complex spectra, of E and O
    _check_bytes(16 * (row_entries + table_entries + 2 * freqs * o * o),
                 "the kernel of this grid pair")
    # the kernel squares its argument z = 2 sqrt(lambda x): 4 lambda x must be finite
    if not np.isfinite(4.0 * xgrid.radius * lgrid.radius):
        raise DomainError("radius_x * radius_lambda overflows the kernel argument")
    # the edge rows' outer products, then the table's node pairs m <= m'
    parts = np.empty((2, row_entries + table_entries))
    _evaluate(params, [(xpos[edge_rows, None], lpos)]
              + ([(_table_arguments(xgrid, lgrid, pairs), 1.0)] if k else []), parts)
    parts.setflags(write=False)
    rows = parts[:, :row_entries].reshape(2, edge_rows.size, lpos.size)
    if k:
        # every interior panel is [e, e rho] with one rule, so the table is
        # symmetric in its node axes: (m, m') and (m', m) both gather the
        # spectrum of pair index[m, m'], by np.take, whose result is
        # C-contiguous (the matmuls of _interior read it)
        index = np.empty((o, o), dtype=np.intp)
        index[m, m2] = index[m2, m] = np.arange(m.size)
        tab = parts[:, row_entries:].reshape(2, m.size, sums)
        spectra = np.take(np.fft.rfft(tab, n=n).transpose(0, 2, 1), index, axis=2)
    else:
        spectra = np.empty((2, 0, o, o), dtype=complex)
    spectra.setflags(write=False)
    return KernelEntry(parts=parts, rows=rows, spectra=spectra, panels=k, order=o)


def _interior(spectra: np.ndarray, c: np.ndarray, k: int) -> np.ndarray:
    """Interior products y[.., l, :] = sum_l' c[.., l', :] @ tab[:, l + l', :]
    over the k interior panels, for the stacked E and O tables whose spectra
    (2, F, order, order) are given (symmetric in the node axes, so either
    grid may hold c): rfft of the reversed coefficients, one matmul over
    frequencies, irfft.  c and the result have shape (2, b, k * order)."""
    b, o = c.shape[1], spectra.shape[-1]
    n = _fft_length(k)
    # (2, k, b, o) with the panel axis reversed: the correlation becomes a
    # convolution whose outputs k - 1 .. 2 k - 2 are wanted
    rev = c.reshape(2, b, k, o)[:, :, ::-1].transpose(0, 2, 1, 3)
    spec = np.fft.rfft(rev, n=n, axis=1) @ spectra
    y = np.fft.irfft(spec, n=n, axis=1)[:, k - 1:2 * k - 1]
    return y.transpose(0, 2, 1, 3).reshape(2, b, k * o)


def _apply(entry: KernelEntry, c, transposed: bool = False):
    """Kernel sums sum_j B(u_j) c_j along the last axis of c, from the entry.

    Untransposed, c holds coefficients on the frequency grid and the sums
    are taken at the x nodes (inverse, physical route); transposed, c lives
    on the x grid and the sums are at the frequency nodes (forward).  Both
    grids are symmetric, [-pos[::-1], pos]; with s = c(pos) + c(-pos) and
    d = c(pos) - c(-pos), the sum is E s - O d at the positive output nodes
    p and E s + O d at -p, so the result, shape (..., 2m), is
    [rev(E s + O d), E s - O d] on the m positive output nodes, E and O
    stacked throughout.

    transposed selects the orientation of the dense product of a table-less
    entry only.  A table entry is symmetric, so one formula serves both
    orientations: its edge rows by one dense product at the edge outputs
    and, read transposed, at the interior outputs, plus the interior
    spectra by one correlation.
    """
    n = c.shape[-1] // 2
    plus, minus = c[..., n:], c[..., n - 1::-1]
    sd = np.empty((2,) + plus.shape)
    np.add(plus, minus, out=sd[0])
    np.subtract(plus, minus, out=sd[1])
    sd = sd.reshape(2, c[..., 0].size, n)
    rows, k, o = entry.rows, entry.panels, entry.order
    if not k:
        out = sd @ (rows if transposed else rows.transpose(0, 2, 1))
    else:
        inner, last = slice(o, o * (k + 1)), slice(o * (k + 1), None)
        out = np.empty((2, sd.shape[1], n))
        edge = sd @ rows.transpose(0, 2, 1)
        out[:, :, :o], out[:, :, last] = edge[:, :, :o], edge[:, :, o:]
        sd_edge = np.concatenate([sd[:, :, :o], sd[:, :, last]], axis=2)
        out[:, :, inner] = (sd_edge @ rows[:, :, inner]
                            + _interior(entry.spectra, sd[:, :, inner], k))
    m = out.shape[-1]
    es, od = out.reshape((2,) + c.shape[:-1] + (m,))
    result = np.empty(c.shape[:-1] + (2 * m,))
    np.add(es, od, out=result[..., m - 1::-1])
    np.subtract(es, od, out=result[..., m:])
    return result


def kernel_multiplier(lgrid: WeightedGrid, h) -> np.ndarray:
    """Multiplier B(lambda_j h_k), one row per h of a 1-D grid, refused over
    _ENTRY_BYTES: the kernel parts at |h| x lgrid.pos_nodes (_evaluate)
    mirrored onto the negative half-axis, so that row k equals
    kernel_B(.., lgrid.nodes * h_k).

    The result is read-only and cached by value: the key is (lgrid.alpha,
    lgrid.pos_nodes.tobytes(), h.tobytes()), so any grid with the same alpha
    and nodes shares it.  The cache holds at most _MULTIPLIER_CACHE_BYTES
    (16 MiB) of multipliers and evicts the least recently used first; a
    multiplier over that cap is returned but not kept.  A request refused
    over _ENTRY_BYTES evaluates and stores nothing.
    """
    h = np.asarray(h, dtype=float)
    _check_bytes(8 * h.size * lgrid.nodes.size, f"the multiplier of {h.size} h values")
    key = (lgrid.alpha, lgrid.pos_nodes.tobytes(), h.tobytes())
    mult = _multiplier_cache.get(key)
    if mult is not None:
        _multiplier_cache.move_to_end(key)
        return mult
    n = lgrid.pos_nodes.size
    parts = np.empty((2, h.size * n))
    _evaluate(KernelParams(alpha=lgrid.alpha), [(np.abs(h)[:, None], lgrid.pos_nodes)], parts)
    even, odd = parts.reshape(2, h.size, n)
    sign = np.where(h < 0, -1.0, 1.0)[:, None]
    # [rev(E + s O), E - s O] in place: s O into the right half, then both halves
    mult = np.empty((h.size, 2 * n))
    right = np.multiply(sign, odd, out=mult[:, n:])
    np.add(even, right, out=mult[:, n - 1::-1])
    np.subtract(even, right, out=right)
    mult.setflags(write=False)
    if mult.nbytes <= _MULTIPLIER_CACHE_BYTES:
        _multiplier_cache[key] = mult
        held = sum(m.nbytes for m in _multiplier_cache.values())
        while held > _MULTIPLIER_CACHE_BYTES:
            held -= _multiplier_cache.popitem(last=False)[1].nbytes
    return mult


def forward(f, xgrid: WeightedGrid, lgrid: WeightedGrid) -> SpectralData:
    """Forward transform: values_j = sum_i w_i f(x_i) B(lambda_j x_i), with
    f a FunctionSpec (any vectorized callable) or its samples on xgrid.nodes."""
    entry = kernel_matrix(xgrid, lgrid)   # refuses a bad pair before f is sampled
    fx = grid_values(f(xgrid.nodes) if callable(f) else f, xgrid, "samples")
    values = _apply(entry, xgrid.weights * fx, transposed=True)
    return SpectralData(lambda_grid=lgrid, values=values)


def inverse(g: SpectralData, xgrid: WeightedGrid):
    """Inverse transform as a function x -> sum_j w_j g_j B(lambda_j x) on
    xgrid.nodes (by the cached kernel entry); any other x is a DomainError."""
    def evaluator(x):
        if not np.array_equal(x, xgrid.nodes):
            raise DomainError("the inverse transform samples on its x grid's nodes only")
        lgrid = g.lambda_grid
        return _apply(kernel_matrix(xgrid, lgrid), lgrid.weights * g.values)

    return evaluator


def spectral_mass(g: SpectralData, q: float, radii, beyond: bool) -> np.ndarray:
    """sum_j w_j |g_j|^q over |lambda_j| >= r (beyond) or |lambda_j| <= r,
    for each r of a 1-D array of radii.

    The per-node mass is computed once and each cut is one searchsorted on
    the positive nodes; every sum runs over the selected nodes in grid order.
    """
    check_exponent(q)
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
    if h.ndim > 1:
        raise DomainError("h must be a scalar or a 1-D grid")
    if not np.all(h > 0):
        raise DomainError("h must be positive")
    tails = spectral_mass(g, q, 1.0 / np.atleast_1d(h), beyond=True)
    return float(tails[0]) if h.ndim == 0 else tails


def tail_truncated(lgrid: WeightedGrid, h):
    """True where 1/h is too close to the grid edge for the tail to be
    resolved (1/h > radius/4); elementwise over an h grid."""
    return 1.0 / np.asarray(h, dtype=float) > lgrid.radius / 4.0


def diff_norms(g: SpectralData, h, p: float = 2.0, *, fx=None,
               xgrid: WeightedGrid | None = None) -> np.ndarray:
    """|| T_h f - f ||_{p,a} for every h of a finite 1-D grid (a scalar h is
    a one-element grid); g holds the transform of f.

    Given fx, the samples of f on xgrid.nodes with g = forward(fx, xgrid,
    g.lambda_grid), it is the physical route at any p in (1, 2] (_physical);
    else the Plancherel route, which exists for p = 2 only (_plancherel).
    Both come from the multiplier matrix M[k, j] = B(lambda_j h_k), and on
    resolved grids they agree at p = 2.
    """
    conjugate_exponent(p)  # rejects p outside (1, 2]
    if p != 2.0 and fx is None:
        raise DomainError("p != 2 needs x-space samples: the Plancherel "
                          "route is p = 2 only")
    if fx is not None:
        if xgrid is None:
            raise DomainError("the physical route needs the x grid of fx")
        fx = grid_values(fx, xgrid, "samples")
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if h.ndim != 1 or not np.all(np.isfinite(h)):
        raise DomainError("h must be a finite scalar or 1-D grid")
    mult = kernel_multiplier(g.lambda_grid, h)
    return _plancherel(g, mult) if fx is None else _physical(g, mult, fx, xgrid, p)


def round_trip_norms(g: SpectralData, h, xgrid: WeightedGrid):
    """Plancherel trace of g, then the Plancherel and the physical route for
    its round trip f = inverse(g) sampled on xgrid and transformed back.

    This is the two-route check of diff_norms on an honest x-space function;
    all three traces share one multiplier matrix, as g and its round trip
    live on the same frequency grid.
    """
    lgrid = g.lambda_grid
    mult = kernel_multiplier(lgrid, np.atleast_1d(h))
    fx = inverse(g, xgrid)(xgrid.nodes)
    spec = forward(fx, xgrid, lgrid)
    return (_plancherel(g, mult), _plancherel(spec, mult),
            _physical(spec, mult, fx, xgrid, 2.0))


def _plancherel(g: SpectralData, mult: np.ndarray) -> np.ndarray:
    """sqrt( sum_j w_j |1 - mult[k, j]|^2 |g_j|^2 ) per row k of the
    multiplier, its terms in one buffer filled in place."""
    buf = np.empty(mult.shape)
    # lgrid.weights * (1.0 - mult) ** 2 * g.values ** 2, in that order
    np.square(np.subtract(1.0, mult, out=buf), out=buf)
    buf *= g.lambda_grid.weights
    buf *= g.values ** 2
    return np.sqrt(np.sum(buf, axis=1))


def _physical(g: SpectralData, mult: np.ndarray, fx: np.ndarray,
              xgrid: WeightedGrid, p: float) -> np.ndarray:
    """|| T_h f - fx ||_{p,a} per row of the multiplier: T_h f = K (w g M[k])
    for all rows at once, one apply of the kernel entry of (xgrid, g's grid)."""
    lgrid = g.lambda_grid
    buf = np.multiply(lgrid.weights, mult)   # lgrid.weights * mult * g.values
    buf *= g.values
    tfs = _apply(kernel_matrix(xgrid, lgrid), buf)
    return np.array([weighted_norm(tf - fx, xgrid, p) for tf in tfs])
