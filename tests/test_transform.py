import gc
import math
from dataclasses import replace
from functools import cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

import dhankel as dh
from dhankel.quadrature import _grid_ids, weight_constant
from dhankel.specfun import DomainError, KernelParams, kernel_parts
import dhankel.transform as transform
from dhankel.transform import (_interior_panels, _matrix_cache, _table_arguments,
                               kernel_matrix, kernel_multiplier, spectral_mass)
from test_quadrature import weighted_integral
from test_specfun import j_mp, kernel_slope_bounds

ALPHA = 0.5


def mass_oracle(f, radius, alpha):
    """Independent route: adaptive quadrature of f against the weight."""
    ca = weight_constant(alpha)
    pos = quad(lambda x: f(np.array(x)) * x ** (2 * alpha - 1), 0, radius, limit=400)[0]
    neg = quad(lambda x: f(np.array(-x)) * x ** (2 * alpha - 1), 0, radius, limit=400)[0]
    return ca * (pos + neg)


def test_zero_function(grids_default):
    xg, lg = grids_default
    f = dh.FunctionSpec(evaluator=lambda x: np.zeros_like(x), support_radius=1.0)
    assert np.all(dh.forward(f, xg, lg).values == 0.0)


def test_alpha_mismatch():
    xg = dh.build_weighted_grid(0.5, 2.0, 4, 4)
    lg = dh.build_weighted_grid(0.6, 2.0, 4, 4)
    f = dh.FunctionSpec(evaluator=lambda x: np.exp(-x * x), support_radius=4.0)
    with pytest.raises(DomainError):
        dh.forward(f, xg, lg)


def test_spectral_data_length_invariant():
    lg = dh.build_weighted_grid(0.5, 2.0, 4, 4)
    with pytest.raises(DomainError):
        dh.SpectralData(lambda_grid=lg, values=np.zeros(3))


@given(a=st.floats(-5, 5), b=st.floats(-5, 5))
def test_linearity(grids_default, a, b):
    xg, lg = grids_default
    f1 = dh.FunctionSpec(evaluator=lambda x: np.exp(-x * x), support_radius=8.0)
    f2 = dh.FunctionSpec(evaluator=lambda x: x * np.exp(-x * x), support_radius=8.0)
    comb = dh.FunctionSpec(
        evaluator=lambda x: a * np.exp(-x * x) + b * x * np.exp(-x * x),
        support_radius=8.0)
    lhs = dh.forward(comb, xg, lg).values
    rhs = a * dh.forward(f1, xg, lg).values + b * dh.forward(f2, xg, lg).values
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12 * (1 + abs(a) + abs(b)))


def test_sup_norm_dominated_by_l1(grids_default, bump_spec):
    # |B| <= 1 (for this alpha) makes the discrete inequality exact
    xg, lg = grids_default
    spec = dh.forward(bump_spec, xg, lg)
    l1 = dh.weighted_norm(bump_spec(xg.nodes), xg, 1.0)
    assert np.max(np.abs(spec.values)) <= l1 * (1 + 1e-9)


def test_forward_at_low_frequency_is_signed_mass(grids_default, bump_spec):
    xg, lg = grids_default
    mass_grid = weighted_integral(bump_spec.evaluator, xg)
    mass_ind = mass_oracle(bump_spec.evaluator, xg.radius, ALPHA)
    assert abs(mass_grid - mass_ind) < 1e-8
    spec = dh.forward(bump_spec, xg, lg)
    j = np.argmin(np.abs(lg.nodes))
    # |F(lambda) - mass| <= max-slope * |lambda| * first moment of |f|
    _, c_pos = kernel_slope_bounds(ALPHA)
    moment = weighted_integral(lambda x: np.abs(x) * bump_spec(x), xg)
    assert abs(spec.values[j] - mass_ind) < 2.0 * c_pos * abs(lg.nodes[j]) * moment


def test_plancherel_and_refinement(bump_spec):
    ref_err = []
    for panels in (16, 32):
        xg = dh.build_weighted_grid(ALPHA, 20.0, panels, 6)
        lg = dh.build_weighted_grid(ALPHA, 64.0, 2 * panels, 6)
        nf = dh.weighted_norm(bump_spec(xg.nodes), xg, 2.0)
        nF = dh.forward(bump_spec, xg, lg).norm(2.0)
        ref_err.append(abs(nF - nf) / nf)
    assert ref_err[0] <= 1e-3
    assert ref_err[1] <= ref_err[0] / 4.0


def test_round_trip_refinement(bump_spec):
    errs = []
    for panels in (16, 32):
        xg = dh.build_weighted_grid(ALPHA, 20.0, panels, 6)
        lg = dh.build_weighted_grid(ALPHA, 64.0, 2 * panels, 6)
        spec = dh.forward(bump_spec, xg, lg)
        back = dh.inverse(spec, xg)
        nf = dh.weighted_norm(bump_spec(xg.nodes), xg, 2.0)
        errs.append(dh.weighted_norm(back(xg.nodes) - bump_spec(xg.nodes), xg, 2.0) / nf)
    assert errs[0] <= 1e-2
    assert errs[1] <= errs[0] / 4.0


@pytest.mark.parametrize("radius", [512.0, 8192.0])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_closed_form_pair(alpha, radius):
    # f(x) = (1 + x) e^{-|x|} has F(lambda) = (1 - lambda) e^{-|lambda|}.
    # The even part follows from int_0^inf e^{-x} x^{nu/2} J_nu(2 sqrt(lambda x))
    # dx = lambda^{nu/2} e^{-lambda} at nu = 2a - 1, with c_a Gamma(2a) = 1/2;
    # the odd part, -lambda e^{-|lambda|}, from the same identity at
    # nu = 2a + 1.  Both orientations of the kernel entry are exercised,
    # edge strips and FFT interior alike.
    xg, lg = dh.make_resolved_grids(alpha, 40.0, radius)
    f = lambda x: (1.0 + x) * np.exp(-np.abs(x))
    big_f = lambda lam: (1.0 - lam) * np.exp(-np.abs(lam))
    spec = dh.forward(f, xg, lg)
    assert np.max(np.abs(spec.values - big_f(lg.nodes))) <= 1e-13
    g = dh.SpectralData(lambda_grid=lg, values=big_f(lg.nodes))
    assert np.max(np.abs(dh.inverse(g, xg)(xg.nodes) - f(xg.nodes))) <= 1e-13


def test_inverse_of_zero(grids_default):
    xg, lg = grids_default
    g = dh.SpectralData(lambda_grid=lg, values=np.zeros(lg.nodes.size))
    assert np.all(dh.inverse(g, xg)(xg.nodes) == 0.0)


def make_bandlimited(lg, cutoff=1.0):
    vals = np.where(np.abs(lg.nodes) <= cutoff, 1.0, 0.0)
    return dh.SpectralData(lambda_grid=lg, values=vals)


def test_tail_energy_basics(grids_default):
    _, lg = grids_default
    g = make_bandlimited(lg)
    # tail misses the support
    assert dh.tail_energy(g, 0.5, 2.0) == 0.0
    # 1/h at or beyond the radius: degenerate empty tail
    assert dh.tail_energy(g, 1.0 / (lg.radius + 1), 2.0) == 0.0
    from dhankel.transform import tail_truncated
    assert tail_truncated(lg, 1.0 / (lg.radius + 1))
    assert not tail_truncated(lg, 1.0)


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_spectral_mass_matches_masked_sums(tail_grid_4096, q):
    # the h-grid tail equals a per-h masked sum in grid order, bit for bit,
    # on a non-even spectrum that vanishes beyond |lambda| = R/2
    lg = tail_grid_4096
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(lg.nodes.size) * (np.abs(lg.nodes) < lg.radius / 2)
    g = dh.SpectralData(lambda_grid=lg, values=vals)
    hs = np.concatenate([dh.dyadic_h_grid(0.5, 0, 12),
                         [1.5 / lg.radius,            # tail misses the support
                          1.0 / lg.pos_nodes[7],      # cut on a node
                          0.5 / lg.radius]])          # 1/h beyond the radius
    want = np.array([np.sum(lg.weights[np.abs(lg.nodes) >= 1.0 / h]
                            * np.abs(vals[np.abs(lg.nodes) >= 1.0 / h]) ** q)
                     for h in hs])
    got = dh.tail_energy(g, hs, q)
    assert np.array_equal(got, want)
    assert got[-3] == 0.0 and got[-1] == 0.0 and got[-2] > 0.0
    assert all(dh.tail_energy(g, h, q) == t for h, t in zip(hs, got))
    with pytest.raises(DomainError):
        dh.tail_energy(g, np.array([0.1, 0.0]), q)
    # the same primitive's partial masses over |lambda| <= r
    radii = np.array([0.0, 1.0, lg.pos_nodes[7], lg.radius / 4, lg.radius, 1e9])
    inner = np.array([np.sum(lg.weights[np.abs(lg.nodes) <= r]
                             * np.abs(vals[np.abs(lg.nodes) <= r]) ** q)
                      for r in radii])
    assert np.array_equal(spectral_mass(g, q, radii, beyond=False), inner)


@given(h=st.floats(min_value=0.02, max_value=0.9),
       factor=st.floats(min_value=1.0, max_value=10.0))
def test_tail_energy_monotone_in_h(grids_default, h, factor):
    _, lg = grids_default
    rng = np.random.default_rng(7)
    g = dh.SpectralData(lambda_grid=lg,
                        values=rng.uniform(0, 1, lg.nodes.size))
    assert dh.tail_energy(g, h, 2.0) <= dh.tail_energy(g, h * factor, 2.0) + 1e-15


def physical_input(f, xg, lg):
    """(transform, x-grid samples) of f: the physical-route input of diff_norms."""
    fx = f(xg.nodes)
    return dh.forward(fx, xg, lg), fx


def test_translate_identity_at_zero(grids_resolved_small, bump_spec):
    # B(0) = 1 exactly, so T_0 f on the x grid is the round trip of f
    xg, lg = grids_resolved_small
    spec, fx = physical_input(bump_spec, xg, lg)
    d0 = dh.diff_norms(spec, 0.0, fx=fx, xgrid=xg)[1][0]
    rt = dh.inverse(dh.forward(bump_spec, xg, lg), xg)
    assert d0 == pytest.approx(dh.weighted_norm(rt(xg.nodes) - fx, xg, 2.0),
                               rel=0, abs=1e-12)
    # identity up to round-trip error
    nf = dh.weighted_norm(fx, xg, 2.0)
    assert d0 < 1e-6 * nf


def test_translate_contraction(grids_resolved_small, bump_spec):
    # against zero samples the physical route returns ||T_h f|| itself
    xg, lg = grids_resolved_small
    spec, fx = physical_input(bump_spec, xg, lg)
    nf = dh.weighted_norm(fx, xg, 2.0)
    _, tf = dh.diff_norms(spec, [0.05, 0.3, 1.0], fx=np.zeros_like(fx), xgrid=xg)
    assert np.all(tf <= nf * (1 + 1e-6))


def test_multiplier_identity_via_physical_route(grids_resolved_small, bump_spec):
    # forward(T_h f) recomputed through x space must equal the pointwise
    # multiplication that defines the translation
    xg, lg = grids_resolved_small
    h = 0.125
    spec = dh.forward(bump_spec, xg, lg)
    mult = dh.kernel_B(KernelParams(alpha=ALPHA), lg.nodes * h)
    translated = dh.inverse(replace(spec, values=mult * spec.values), xg)
    via_physical = dh.forward(translated, xg, lg)
    scale = spec.norm(2.0)
    err = dh.weighted_norm(via_physical.values - mult * spec.values, lg, 2.0)
    assert err < 1e-6 * scale


@cache
def resolved_with_dense_kernel(alpha):
    """Resolved (20, 64) grid pair and its dense kernel B(lambda_j x_i),
    evaluated by kernel_B on the full outer product."""
    xg, lg = dh.make_resolved_grids(alpha, 20.0, 64.0)
    dense = dh.kernel_B(KernelParams(alpha=alpha), np.outer(xg.nodes, lg.nodes))
    return xg, lg, dense


def dense_kernel(blocks):
    """Dense K[i, j] = B(lambda_j x_i) assembled from the [E | O] blocks:
    E - O where lambda_j x_i > 0, E + O where it is negative, with rows and
    columns reversed on the negative half-axes."""
    even, odd = np.hsplit(blocks, 2)
    minus, plus = even - odd, even + odd
    return np.block([[minus[::-1, ::-1], plus[::-1]],
                     [plus[:, ::-1], minus]])


def evaluated_table_arguments(xg, lg):
    """The interior table's arguments as the build evaluates them: those of
    _table_arguments, each cell below the node diagonal (m > m') at its
    upper representative [m', s, m]."""
    table = _table_arguments(xg, lg)
    upper = np.triu(np.ones(table.shape[::2], dtype=bool))[:, None, :]
    return np.where(upper, table, table.transpose(2, 1, 0))


def entry_blocks(xg, lg):
    """The half-line blocks [E | O] that the cache entry of the pair stands
    for: its edge rows, their interior columns read transposed as the
    interior rows' edge columns, and between interior panels the kernel
    parts at the table's arguments.  Checks on the way that the entry's
    spectra are the real FFT of that table, bit for bit."""
    entry = kernel_matrix(xg, lg)
    k, o = entry.panels, entry.order
    blocks = np.full((2, xg.pos_nodes.size, lg.pos_nodes.size), np.nan)
    blocks[:, entry.edge_rows] = entry.rows
    inner = np.arange(o, o + k * o)
    mirror = entry.rows[:, :, inner].transpose(0, 2, 1)
    blocks[:, inner[:, None], entry.edge_rows] = mirror
    if k:
        tab = np.stack(kernel_parts(KernelParams(alpha=xg.alpha),
                                    evaluated_table_arguments(xg, lg)))
        length = transform._fft_length(k)
        assert length >= 2 * k - 1 and length & (length - 1) == 0
        assert np.array_equal(entry.spectra, np.fft.rfft(tab, n=length, axis=2)
                              .transpose(0, 2, 1, 3))
        for i in range(k):
            for j in range(k):
                blocks[:, o + i * o:o + (i + 1) * o, o + j * o:o + (j + 1) * o] = \
                    tab[:, :, i + j, :]
    else:
        assert entry.spectra.size == 0 and entry.rows.shape[1] == xg.pos_nodes.size
    assert not np.isnan(blocks).any()
    return np.hstack(blocks)


def build_arguments(xg, lg):
    """The arguments kernel_matrix evaluates the kernel parts at: the outer
    product of the positive nodes, with every block of an interior x panel
    and an interior lambda panel taken from the table of its panel sum, and
    the interior rows' edge columns at the mirrored products x_j * lambda_i
    (the edge rows' interior columns, read transposed)."""
    u = np.outer(xg.pos_nodes, lg.pos_nodes)
    k = _interior_panels(xg, lg)
    o = xg.order
    if k:
        inner = slice(o, o + k * o)
        u[inner, :o], u[inner, o + k * o:] = u.T[inner, :o], u.T[inner, o + k * o:]
        table = evaluated_table_arguments(xg, lg)
        for i in range(k):
            for j in range(k):
                u[o + i * o:o + (i + 1) * o, o + j * o:o + (j + 1) * o] = \
                    table[:, i + j, :]
    return u


def mirrored(u):
    """Signed products lambda_j x_i on the full grids from the positive
    quarter block u, in the node order [-pos[::-1], pos] of both grids."""
    return np.block([[u[::-1, ::-1], -u[::-1]], [-u[:, ::-1], u]])


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_kernel_matrix_quarter_block_is_exact(alpha):
    # the cached blocks are the kernel parts at the build's arguments (the
    # outer product on the edge rows, mirrored on the interior rows' edge
    # columns, the table's representatives between interior panels, taken at
    # m <= m'), and they determine the kernel at the mirrored arguments on
    # the full grids bit for bit, in the near field (z = 2 sqrt|u| <= 9) and
    # beyond it, for integer (alpha = 0.5) and fractional Bessel orders
    xg, lg = dh.make_resolved_grids(alpha, 20.0, 64.0)
    u = build_arguments(xg, lg)
    assert (u <= 20.25).any() and (u > 20.25).any()
    assert _interior_panels(xg, lg) > 0
    blocks = entry_blocks(xg, lg)
    params = KernelParams(alpha=alpha)
    assert np.array_equal(blocks, np.hstack(kernel_parts(params, u)))
    assert np.array_equal(dense_kernel(blocks), dh.kernel_B(params, mirrored(u)))


def kernel_parts_mp(alpha, t):
    """(E, O) at t from mpmath's besselj, 30 digits."""
    with mp.workdps(30):
        z = 2 * mp.sqrt(mp.mpf(t))
        return (j_mp(2 * alpha - 1, z),
                t * j_mp(2 * alpha + 1, z) / ((2 * alpha) * (2 * alpha + 1)))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_kernel_matrix_table_entries_match_direct_and_mpmath(alpha):
    # the table takes one product per panel sum and node pair {m, m'} for
    # all the interior panel pairs with that sum, and the interior rows' edge
    # columns take the mirrored product; the products differ in the last
    # bits only, so on the largest resolved pair (40, 512) every entry stays
    # within 1e-13 of the kernel parts at its own outer-product argument,
    # and the entries that moved most, plus random ones, within 1e-13 of
    # mpmath
    xg, lg = dh.make_resolved_grids(alpha, 40.0, 512.0)
    blocks = entry_blocks(xg, lg)
    n = lg.pos_nodes.size
    params = KernelParams(alpha=alpha)
    moved = np.empty((xg.pos_nodes.size, n))
    for lo in range(0, xg.pos_nodes.size, 256):
        rows = slice(lo, lo + 256)
        even, odd = kernel_parts(params, np.outer(xg.pos_nodes[rows], lg.pos_nodes))
        moved[rows] = np.maximum(np.abs(blocks[rows, :n] - even),
                                 np.abs(blocks[rows, n:] - odd))
    assert moved.max() <= 1e-13
    assert moved.max() > 0
    worst = np.argsort(moved, axis=None)[-12:]
    rng = np.random.default_rng(7)
    sampled = rng.integers(0, moved.size, 24)
    for i, j in zip(*np.unravel_index(np.concatenate([worst, sampled]), moved.shape)):
        even, odd = kernel_parts_mp(alpha, xg.pos_nodes[i] * lg.pos_nodes[j])
        assert abs(blocks[i, j] - even) <= 1e-13
        assert abs(blocks[i, n + j] - odd) <= 1e-13


def count_entry_build(monkeypatch, xg, lg):
    """(kernel entries the pair's build evaluates, its KernelEntry)."""
    seen = []

    def counting(params, t):
        seen.append(np.size(t))
        return kernel_parts(params, t)

    monkeypatch.setattr(transform, "kernel_parts", counting)
    entry = kernel_matrix(xg, lg)
    monkeypatch.undo()
    return sum(seen), entry


def test_kernel_matrix_build_evaluates_a_tenth_of_the_quarter_block(monkeypatch):
    # the edge rows (which also stand for the edge columns) and the table's
    # node pairs m <= m', instead of all entries of the quarter block: 3.1%
    # of 1568^2 at (40, 512), 18% of 256^2 at (20, 64); the entry holds the
    # rows and the table's spectra, 1,859,584 bytes at (40, 512), where
    # [E | O] took 39.3 MB
    for radii, nodes, evaluated in (((40.0, 512.0), 1568, 76152),
                                    ((20.0, 64.0), 256, 11864)):
        xg, lg = dh.make_resolved_grids(0.5, *radii)
        assert xg.pos_nodes.size == lg.pos_nodes.size == nodes
        count, entry = count_entry_build(monkeypatch, xg, lg)
        assert count == evaluated
        assert entry.nbytes == entry.rows.nbytes + entry.spectra.nbytes <= 5e6
        assert entry.size == entry.rows.size + entry.spectra.size
    assert kernel_matrix(*dh.make_resolved_grids(0.5, 40.0, 512.0)).nbytes == 1859584


def nudged_lambda(grid, i, rel):
    """The grid with positive node i moved by rel relative: no longer one
    grid scaled twice against its partner."""
    pos = grid.pos_nodes.copy()
    pos[i] *= 1.0 + rel
    return replace(grid, nodes=np.concatenate([-pos[::-1], pos]), pos_nodes=pos,
                   uid=next(_grid_ids))


def pairs_without_table():
    """Grid pairs that are not one geometric grid scaled twice, so carry no
    table: graded with two ratios, resolved for different radii, graded
    with one ratio but different orders, and a resolved pair with the
    frequency grid cut short by three panels, one frequency node moved by
    1e-12 relative, or the x grid cut short by one panel (uniform pairs:
    test_kernel_matrix_row_blocks_match_one_shot_build)."""
    a = 0.5
    rho = math.exp(10.0 / math.sqrt(20.0 * 64.0))
    xg, lg = dh.make_resolved_grids(a, 20.0, 64.0)
    return {
        "geometric": (dh.build_graded_grid(a, 20.0, 8, 20.0 / 12, 1.25),
                      dh.build_graded_grid(a, 64.0, 8, 64.0 / 12, 1.3)),
        "mixed_ratio": (dh.make_resolved_grids(a, 20.0, 64.0)[0],
                        dh.make_resolved_grids(a, 20.0, 128.0)[1]),
        "mixed_order": (dh.build_graded_grid(a, 20.0, 8, 25.0 / 64.0, rho),
                        dh.build_graded_grid(a, 64.0, 16, 25.0 / 20.0, rho)),
        "short_lambda": (xg, cut_short(lg, 3)),
        "nudged_lambda": (xg, nudged_lambda(lg, -1, 1e-12)),
        "cut_short": (cut_short(xg, 1), lg),
    }


@pytest.mark.parametrize("name", ["geometric", "mixed_ratio", "mixed_order",
                                  "short_lambda", "nudged_lambda", "cut_short"])
def test_kernel_matrix_without_common_ratio_is_the_outer_product(name):
    # every pair but one geometric grid scaled twice, common ratio or not,
    # is one strip of all rows: the kernel parts at the pair's own products
    assert_outer_product(*pairs_without_table()[name], 0.5)


def assert_outer_product(xg, lg, alpha):
    assert _interior_panels(xg, lg) == 0
    even, odd = kernel_parts(KernelParams(alpha=alpha),
                             np.outer(xg.pos_nodes, lg.pos_nodes))
    assert np.array_equal(kernel_matrix(xg, lg).rows, np.stack([even, odd]))
    assert np.array_equal(entry_blocks(xg, lg), np.hstack([even, odd]))


def assert_built_from_table(xg, lg, alpha):
    blocks = entry_blocks(xg, lg)
    params = KernelParams(alpha=alpha)
    assert np.array_equal(blocks, np.hstack(kernel_parts(params, build_arguments(xg, lg))))
    even, odd = kernel_parts(params, np.outer(xg.pos_nodes, lg.pos_nodes))
    assert np.max(np.abs(blocks - np.hstack([even, odd]))) <= 1e-14


@pytest.mark.parametrize("radii, panels", [((0.5, 2.0), 2), ((0.5, 128.0), 3),
                                           ((1.0, 200.0), 4)])
def test_kernel_matrix_on_grids_with_few_panels(radii, panels):
    # a grid of two panels has no interior, so the pair is built from outer
    # products; with three panels the table covers one interior panel
    xg, lg = dh.make_resolved_grids(0.7, *radii, order=6)
    assert xg.pos_nodes.size == lg.pos_nodes.size == 6 * panels
    assert _interior_panels(xg, lg) == (0 if panels < 3 else panels - 2)
    assert_built_from_table(xg, lg, 0.7)


def cut_short(grid, dropped):
    """The grid without its last `dropped` panels: same ratio, fewer
    interior panels, no longer one grid scaled twice against its partner."""
    keep = grid.pos_nodes.size - dropped * grid.order
    pos, wpos = grid.pos_nodes[:keep], grid.pos_weights[:keep]
    return replace(grid, radius=grid.cell_hi[keep - 1],
                   nodes=np.concatenate([-pos[::-1], pos]),
                   weights=np.concatenate([wpos[::-1], wpos]),
                   pos_nodes=pos, pos_weights=wpos, cell_lo=grid.cell_lo[:keep],
                   cell_hi=grid.cell_hi[:keep], uid=next(_grid_ids))


@pytest.mark.parametrize("dropped", [1, 3])
def test_kernel_matrix_table_on_unequal_interiors(dropped):
    # a frequency grid cut short by whole panels keeps the ratio but has
    # fewer interior panels, so it is no longer one grid scaled twice against
    # its partner: in either orientation the pair carries no table and its
    # entry is the kernel parts at the pair's own products
    xg, lg = dh.make_resolved_grids(0.7, 20.0, 64.0)
    short = cut_short(lg, dropped)
    assert short.pos_nodes.size == lg.pos_nodes.size - dropped * lg.order
    assert_outer_product(xg, short, 0.7)
    assert_outer_product(short, xg, 0.7)


def test_kernel_matrix_row_blocks_match_one_shot_build():
    # a uniform pair has no table: its entry is one strip of all rows, the
    # kernel parts on the whole quarter block (here one slab)
    xg = dh.build_weighted_grid(0.7, 20.0, 9, 8)
    lg = dh.build_weighted_grid(0.7, 64.0, 24, 8)
    assert _interior_panels(xg, lg) == 0
    even, odd = kernel_parts(KernelParams(alpha=0.7),
                             np.outer(xg.pos_nodes, lg.pos_nodes))
    rows = kernel_matrix(xg, lg).rows
    assert rows.flags.c_contiguous and not rows.flags.writeable
    assert np.array_equal(rows, np.stack([even, odd]))


def test_kernel_matrix_without_table_is_built_in_bounded_slabs(monkeypatch):
    # a uniform pair of 800 x 640 positive nodes: row slabs of at most 65536
    # entries (102 rows), the last one short, equal to the one-shot build
    xg = dh.build_weighted_grid(0.5, 20.0, 50, 16)
    lg = dh.build_weighted_grid(0.5, 64.0, 40, 16)
    assert _interior_panels(xg, lg) == 0
    sizes = []

    def counting(params, u):
        sizes.append(np.size(u))
        return kernel_parts(params, u)

    monkeypatch.setattr(transform, "kernel_parts", counting)
    rows = kernel_matrix(xg, lg).rows
    monkeypatch.undo()
    assert max(sizes) <= 65536 and sum(sizes) == 800 * 640 and len(sizes) == 8
    even, odd = kernel_parts(KernelParams(alpha=0.5),
                             np.outer(xg.pos_nodes, lg.pos_nodes))
    assert np.array_equal(rows, np.stack([even, odd]))


def neither_even_nor_odd(x):
    return np.exp(-0.5 * (x - 1.3) ** 2) * (1.0 + 0.3 * np.sin(x))


def entry_pair(alpha, case):
    """Grid pairs whose entries cover each layout: a full interior, one and
    two interior panels, and without a table a resolved pair cut short in
    either orientation and a uniform pair."""
    if case == "uniform":
        return (dh.build_weighted_grid(alpha, 20.0, 9, 8),
                dh.build_weighted_grid(alpha, 64.0, 24, 8))
    if case in ("one_interior_panel", "two_interior_panels"):
        radii = (0.5, 128.0) if case == "one_interior_panel" else (1.0, 200.0)
        return dh.make_resolved_grids(alpha, *radii, order=6)
    xg, lg = dh.make_resolved_grids(alpha, 20.0, 64.0)
    if case == "resolved":
        return xg, lg
    short = cut_short(lg, 3)
    return (xg, short) if case == "short_lambda" else (short, xg)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("case", ["resolved", "one_interior_panel",
                                  "two_interior_panels", "short_lambda",
                                  "short_x", "uniform"])
def test_entry_apply_matches_dense_kernel(alpha, case, monkeypatch):
    # every kernel sum the transforms take from the entry (edge rows by
    # dense products, the interior by one FFT correlation) matches the dense
    # kernel the entry stands for to within 1e-13 of the sum of the absolute
    # terms: forward and inverse on the grid for one vector, the physical
    # route for four (four h), and the forward orientation for four
    xg, lg = entry_pair(alpha, case)
    panels = {"resolved": 14, "one_interior_panel": 1, "two_interior_panels": 2,
              "short_lambda": 0, "short_x": 0, "uniform": 0}[case]
    assert _interior_panels(xg, lg) == panels
    dense = dense_kernel(entry_blocks(xg, lg))
    apply, calls = transform._apply, []

    def recording(entry, c, transposed=False):
        out = apply(entry, c, transposed)
        calls.append((c, transposed, out))
        return out

    monkeypatch.setattr(transform, "_apply", recording)
    fx = neither_even_nor_odd(xg.nodes)
    spec = dh.forward(fx, xg, lg)
    dh.inverse(spec, xg)(xg.nodes)
    dh.diff_norms(spec, [0.5, 0.125, 0.01, -0.3], fx=fx, xgrid=xg)
    rng = np.random.default_rng(3)
    transform._apply(kernel_matrix(xg, lg), rng.standard_normal((4, xg.nodes.size)),
                     transposed=True)
    assert [(np.shape(c), t) for c, t, _ in calls] == [
        (xg.nodes.shape, True), (lg.nodes.shape, False),
        ((4, lg.nodes.size), False), ((4, xg.nodes.size), True)]
    for c, transposed, out in calls:
        kernel = dense.T if transposed else dense
        err = np.abs(out - c @ kernel.T)
        assert np.all(err <= 1e-13 * (np.abs(c) @ np.abs(kernel).T))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_half_line_apply_matches_dense_kernel(alpha):
    # forward, inverse on the grid and the physical route apply the kernel
    # from the cache entry; the reference is the dense matrix.  f is neither
    # even nor odd, so both halves of every coefficient vector differ and
    # the odd block enters with both signs.
    xg, lg, dense = resolved_with_dense_kernel(alpha)
    params = KernelParams(alpha=alpha)

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    fx = neither_even_nor_odd(xg.nodes)
    spec = dh.forward(fx, xg, lg)
    close(spec.values, dense.T @ (xg.weights * fx))
    coeff = lg.weights * spec.values
    back = dh.inverse(spec, xg)
    close(back(xg.nodes), dense @ coeff)
    # the inverse samples on its own x grid only: any other x, a single node
    # or all nodes but one moved by one ulp included, is refused
    nudged = xg.nodes.copy()
    nudged[7] = np.nextafter(nudged[7], np.inf)
    for x_off in (np.array([[-3.3, -0.2], [0.0, 5.1]]), -0.7, xg.nodes[3],
                  xg.nodes[:-1], xg.nodes[::-1], nudged, lg.nodes):
        with pytest.raises(DomainError, match="x grid's nodes only"):
            back(x_off)
    hs = np.array([0.5, 0.125, 0.01, -0.3])
    phys = dh.diff_norms(spec, hs, 2.0, fx=fx, xgrid=xg)[1]
    for h, got in zip(hs, phys):
        tf = dense @ (coeff * dh.kernel_B(params, lg.nodes * h))
        close(got, dh.weighted_norm(tf - fx, xg, 2.0))


@pytest.mark.parametrize("case", ["resolved", "uniform"])
def test_diff_norms_on_an_empty_h_grid(case):
    # an empty batch of coefficient vectors passes through the entry's apply
    xg, lg = entry_pair(0.5, case)
    fx = neither_even_nor_odd(xg.nodes)
    spec = dh.forward(fx, xg, lg)
    for trace in (*dh.diff_norms(spec, [], fx=fx, xgrid=xg),
                  *transform.round_trip_norms(spec, [], xg)):
        assert trace.shape == (0,)


def test_entry_spectra_are_symmetric_in_their_node_axes():
    # with one rule on both grids, tab[m, s, m'] equals tab[m', s, m] up to
    # rounding; the build evaluates one of the two, so the spectra equal
    # their node-axis transpose bit for bit, and _apply reads them unswapped
    # in both orientations
    for case in ("resolved", "one_interior_panel", "two_interior_panels"):
        spectra = kernel_matrix(*entry_pair(0.5, case)).spectra
        assert spectra.shape[1] > 0
        assert np.array_equal(spectra, spectra.transpose(0, 1, 3, 2))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("case", ["resolved", "one_interior_panel", "two_interior_panels"])
def test_table_entry_applies_one_formula_in_both_orientations(alpha, case):
    # a table entry stands for a kernel symmetric in its two node axes, so
    # forward and inverse apply it by one formula: the transposed sums equal
    # the untransposed ones bit for bit, for one vector and for a batch
    xg, lg = entry_pair(alpha, case)
    entry = kernel_matrix(xg, lg)
    assert entry.panels > 0
    rng = np.random.default_rng(5)
    for c in (rng.standard_normal(xg.nodes.size), rng.standard_normal((4, xg.nodes.size))):
        assert np.array_equal(transform._apply(entry, c, transposed=True),
                              transform._apply(entry, c))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("h", [0.125, -0.3, 0.0])
def test_kernel_multiplier_is_exact(alpha, h):
    lg = dh.make_tail_grid(alpha, 8192.0)
    want = dh.kernel_B(KernelParams(alpha=alpha), lg.nodes * h)
    assert np.array_equal(kernel_multiplier(lg, np.array([h])), want[None])


def test_kernel_multiplier_rows_match_single_h():
    # one kernel_parts call for the whole h grid; every series entry takes
    # the same number of terms, so each row equals its own single-h build
    for alpha in (0.3, 0.5, 0.7):
        lg = dh.make_tail_grid(alpha, 8192.0)
        hs = np.array([0.5, 0.125, 0.01, 1e-4, 0.0, -0.3])
        mat = kernel_multiplier(lg, hs)
        assert mat.shape == (hs.size, lg.nodes.size)
        for row, h in zip(mat, hs):
            assert np.array_equal(row, kernel_multiplier(lg, np.array([h]))[0])


def test_kernel_multiplier_over_one_slab_matches_one_shot_evaluation(monkeypatch):
    # 28 h on 3072 positive nodes are 86,016 entries: two row slabs of at
    # most 65536 (21 and 7 rows), equal bit for bit to kernel_B evaluated on
    # the whole (28, 6144) argument array in one kernel_parts call
    lg = dh.make_tail_grid(0.5, 65536.0)
    hs = np.concatenate([0.5 * 2.0 ** -np.arange(27), [-0.3]])
    sizes = []

    def counting(params, u):
        sizes.append(np.size(u))
        return kernel_parts(params, u)

    monkeypatch.setattr(transform, "kernel_parts", counting)
    mat = kernel_multiplier(lg, hs)
    monkeypatch.undo()
    assert sizes == [21 * 3072, 7 * 3072]
    want = dh.kernel_B(KernelParams(alpha=0.5), np.multiply.outer(hs, lg.nodes))
    assert np.array_equal(mat, want)


def test_kernel_multiplier_over_the_byte_cap_evaluates_nothing(monkeypatch):
    # 8 bytes per entry of the (h, node) matrix, counted before any kernel
    # evaluation: one byte over the cap is refused, the cap itself is not
    lg = dh.make_tail_grid(0.5, 8192.0)
    hs = np.full(8, 0.125)
    monkeypatch.setattr(transform, "_ENTRY_BYTES", 8 * hs.size * lg.nodes.size)
    assert kernel_multiplier(lg, hs).shape == (8, lg.nodes.size)
    monkeypatch.setattr(transform, "_ENTRY_BYTES", 8 * hs.size * lg.nodes.size - 1)

    def untouched(*args, **kwargs):
        raise AssertionError("kernel evaluated past the byte cap")

    monkeypatch.setattr(transform, "kernel_parts", untouched)
    with pytest.raises(DomainError, match="the multiplier of 8 h values would hold "
                       "327680 bytes, over the cap of 327679"):
        kernel_multiplier(lg, hs)


# the default dyadic h grid of the CLI: 8 h on a tail grid's 2560 or 3072
# positive nodes, a 327,680- or 393,216-byte multiplier
H_GRID = 0.5 * 2.0 ** -np.arange(3, 11)


def count_kernel_parts(monkeypatch):
    """List that grows by the argument shape of each kernel_parts call."""
    shapes = []

    def counting(params, u):
        shapes.append(np.shape(u))
        return kernel_parts(params, u)

    monkeypatch.setattr(transform, "kernel_parts", counting)
    return shapes


def test_kernel_multiplier_hit_is_the_fresh_evaluation(monkeypatch):
    lg = dh.make_tail_grid(0.5, 8192.0)
    evaluated = count_kernel_parts(monkeypatch)
    first = kernel_multiplier(lg, H_GRID)
    hit = kernel_multiplier(lg, H_GRID.copy())
    assert evaluated == [(8, 2560)] and hit is first
    transform._multiplier_cache.clear()
    fresh = kernel_multiplier(lg, H_GRID)
    assert fresh is not first and hit.tobytes() == fresh.tobytes()


def test_kernel_multiplier_hits_on_a_rebuilt_tail_grid(monkeypatch):
    # every CLI run builds a fresh tail grid: the key is its values, not its uid
    old = dh.make_tail_grid(0.5, 8192.0)
    first = kernel_multiplier(old, H_GRID)
    lg = dh.make_tail_grid(0.5, 8192.0)
    evaluated = count_kernel_parts(monkeypatch)
    assert lg.uid != old.uid
    assert kernel_multiplier(lg, H_GRID) is first and evaluated == []


@pytest.mark.parametrize("alpha, radius, h", [
    (0.7, 8192.0, H_GRID),
    (0.5, 65536.0, H_GRID),
    (0.5, 8192.0, np.r_[np.nextafter(H_GRID[0], 1.0), H_GRID[1:]]),
    (0.5, 8192.0, np.r_[-H_GRID[0], H_GRID[1:]]),
], ids=["alpha", "radius", "h_value", "h_sign"])
def test_kernel_multiplier_misses_on_other_values(alpha, radius, h, monkeypatch):
    first = kernel_multiplier(dh.make_tail_grid(0.5, 8192.0), H_GRID)
    # the alpha case keeps the first grid's nodes: alpha alone makes the miss
    lg = replace(dh.make_tail_grid(0.5, radius), alpha=alpha)
    evaluated = count_kernel_parts(monkeypatch)
    other = kernel_multiplier(lg, h)
    assert evaluated == [(8, lg.pos_nodes.size)]
    assert len(transform._multiplier_cache) == 2
    assert not np.array_equal(other, first)
    want = dh.kernel_B(KernelParams(alpha=alpha), np.multiply.outer(h, lg.nodes))
    assert np.array_equal(other, want)


def test_kernel_multiplier_cache_evicts_the_least_recently_used(monkeypatch):
    # room for two 327,680-byte multipliers: a third evicts the one used longest ago
    lg = dh.make_tail_grid(0.5, 8192.0)
    monkeypatch.setattr(transform, "_MULTIPLIER_CACHE_BYTES", 2 * 327680)
    a, b, c = H_GRID, 2.0 * H_GRID, 4.0 * H_GRID
    kernel_multiplier(lg, a)
    kernel_multiplier(lg, b)
    evaluated = count_kernel_parts(monkeypatch)
    kernel_multiplier(lg, a)    # a hit: b is now the least recently used
    kernel_multiplier(lg, c)
    assert evaluated == [(8, 2560)]
    assert [key[2] for key in transform._multiplier_cache] == [a.tobytes(), c.tobytes()]
    kernel_multiplier(lg, b)
    assert evaluated == [(8, 2560)] * 2
    assert [key[2] for key in transform._multiplier_cache] == [c.tobytes(), b.tobytes()]


@pytest.mark.parametrize("room, held", [(0, True), (-1, False)])
def test_kernel_multiplier_over_the_cache_cap_is_returned_not_held(room, held,
                                                                   monkeypatch):
    lg = dh.make_tail_grid(0.5, 8192.0)
    kept = kernel_multiplier(lg, 2.0 * H_GRID)
    monkeypatch.setattr(transform, "_MULTIPLIER_CACHE_BYTES", 327680 + room)
    mult = kernel_multiplier(lg, H_GRID)
    assert mult.shape == (8, 5120)
    # a held multiplier fills the cap and evicts the other; one over it evicts nothing
    (only,) = transform._multiplier_cache.values()
    assert only is (mult if held else kept)


def test_kernel_multiplier_is_read_only():
    lg = dh.make_tail_grid(0.5, 8192.0)
    for mult in (kernel_multiplier(lg, H_GRID), kernel_multiplier(lg, H_GRID)):
        assert not mult.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            mult[0, 0] = 1.0


def test_kernel_multiplier_refused_over_the_byte_cap_leaves_the_cache(monkeypatch):
    # the byte cap is checked before the lookup: a request over it is
    # refused even when its multiplier is held, and nothing is evaluated or stored
    lg = dh.make_tail_grid(0.5, 8192.0)
    held = kernel_multiplier(lg, H_GRID)
    monkeypatch.setattr(transform, "_ENTRY_BYTES", 327679)
    evaluated = count_kernel_parts(monkeypatch)
    for h in (H_GRID, 2.0 * H_GRID):
        with pytest.raises(DomainError, match="the multiplier of 8 h values would "
                           "hold 327680 bytes, over the cap of 327679"):
            kernel_multiplier(lg, h)
    assert evaluated == []
    (only,) = transform._multiplier_cache.values()
    assert only is held


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("p", [1.5, 2.0])
def test_diff_norms_match_per_h_reference(alpha, p, bump_spec):
    xg, lg, dense = resolved_with_dense_kernel(alpha)
    hs = np.array([0.5, 0.125, 0.01, -0.3])
    spec, fx = physical_input(bump_spec, xg, lg)
    params = KernelParams(alpha=alpha)
    phys_ref, fast_ref = [], []
    for h in hs:
        mult = dh.kernel_B(params, lg.nodes * h)
        tf = dense @ (lg.weights * mult * spec.values)
        phys_ref.append(dh.weighted_norm(tf - fx, xg, p))
        fast_ref.append(math.sqrt(np.sum(lg.weights * (1.0 - mult) ** 2
                                         * spec.values ** 2)))
    fast, phys = dh.diff_norms(spec, hs, p, fx=fx, xgrid=xg)
    np.testing.assert_allclose(phys, phys_ref, rtol=1e-12, atol=0)
    if p == 2.0:
        np.testing.assert_allclose(fast, fast_ref, rtol=1e-12, atol=0)
        fast_only, no_phys = dh.diff_norms(spec, hs)
        assert np.array_equal(fast_only, fast) and no_phys is None
    else:
        assert fast is None
        with pytest.raises(DomainError):
            dh.diff_norms(spec, hs, p)


def test_kernel_cache_entry_dies_with_its_grids():
    xg = dh.build_weighted_grid(ALPHA, 2.0, 4, 4)
    lg = dh.build_weighted_grid(ALPHA, 4.0, 4, 4)
    gc.collect()
    before = len(_matrix_cache)
    key = (xg.uid, lg.uid, ALPHA)
    kernel_matrix(xg, lg)
    assert key in _matrix_cache and len(_matrix_cache) == before + 1
    del xg, lg
    gc.collect()
    assert key not in _matrix_cache and len(_matrix_cache) == before


def test_diff_norm_domain(grids_default, bump_spec):
    xg, lg = grids_default
    spec, fx = physical_input(bump_spec, xg, lg)
    with pytest.raises(DomainError):
        dh.diff_norms(spec, 0.1, 1.0, fx=fx, xgrid=xg)
    with pytest.raises(DomainError):
        dh.diff_norms(spec, 0.1, 2.5, fx=fx, xgrid=xg)
    with pytest.raises(DomainError):
        dh.diff_norms(spec, 0.1, 2.0, fx=fx)


def test_diff_norm_small_at_zero_h(grids_resolved_small, bump_spec):
    xg, lg = grids_resolved_small
    spec, fx = physical_input(bump_spec, xg, lg)
    nf = dh.weighted_norm(fx, xg, 2.0)
    assert dh.diff_norms(spec, 1e-9, fx=fx, xgrid=xg)[1][0] < 1e-6 * nf


def test_diff_norm_routes_agree_on_smooth_function(grids_resolved_small, bump_spec):
    xg, lg = grids_resolved_small
    spec, fx = physical_input(bump_spec, xg, lg)
    hs = [0.0625, 0.125, 0.25]
    fast, phys = dh.diff_norms(spec, hs, fx=fx, xgrid=xg)
    assert np.all(np.abs(fast - phys) / fast < 1e-6)


def test_diff_norm_bandlimited_rate(grids_default):
    # spectrum confined to |lambda| <= 1: the difference norm is O(h) with
    # the constant given by the kernel's near-zero slopes
    _, lg = grids_default
    g = make_bandlimited(lg, cutoff=1.0)
    c_neg, c_pos = kernel_slope_bounds(ALPHA)
    lam = lg.nodes
    total = math.sqrt(float(np.sum(lg.weights * g.values ** 2)))
    for h, got in zip((1e-3, 1e-4), dh.diff_norms(g, [1e-3, 1e-4])[0]):
        slopes = np.where(lam >= 0, c_pos, c_neg)
        oracle = math.sqrt(float(np.sum(
            lg.weights * (slopes * np.abs(lam) * h) ** 2 * g.values ** 2)))
        assert abs(got - oracle) / oracle < 0.02
        assert got <= 2.0 * total


def test_spectral_csv_format(grids_default, bump_spec):
    xg, lg = grids_default
    spec = dh.forward(bump_spec, xg, lg)
    text = spec.to_csv()
    lines = text.splitlines()
    assert lines[0] == f"# alpha={ALPHA!r} radius={lg.radius!r}"
    assert lines[1] == "lambda,value"
    lam, val = lines[2].split(",")
    assert float(lam) == lg.nodes[0]
    assert float(val) == spec.values[0]
    assert len(lines) == 2 + lg.nodes.size
