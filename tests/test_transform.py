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


def entry_blocks(xg, lg):
    """The half-line blocks [E | O] that the cache entry of the pair stands
    for: its edge strips, and between interior panels the kernel parts at
    the table's arguments.  Checks on the way that the entry's spectra are
    the real FFT of that table, bit for bit."""
    entry = kernel_matrix(xg, lg)
    kx, kl = entry.panels
    o = entry.order
    blocks = np.full((2, xg.pos_nodes.size, lg.pos_nodes.size), np.nan)
    blocks[:, entry.edge_rows] = entry.rows
    inner_rows = np.arange(o, o + kx * o)
    blocks[:, inner_rows[:, None], entry.edge_cols] = entry.side
    if kx:
        tab = np.stack(kernel_parts(KernelParams(alpha=xg.alpha),
                                    transform._table_arguments(xg, lg)))
        length = transform._fft_length(kx, kl)
        assert length >= kx + kl - 1 and length & (length - 1) == 0
        assert np.array_equal(entry.spectra, np.fft.rfft(tab, n=length, axis=2)
                              .transpose(0, 2, 1, 3))
        for k in range(kx):
            for l in range(kl):
                blocks[:, o + k * o:o + (k + 1) * o, o + l * o:o + (l + 1) * o] = \
                    tab[:, :, k + l, :]
    else:
        assert entry.spectra.size == 0 and entry.side.size == 0
    assert not np.isnan(blocks).any()
    return np.hstack(blocks)


def build_arguments(xg, lg):
    """The arguments kernel_matrix evaluates the kernel parts at: the outer
    product of the positive nodes, with every block of an interior x panel
    and an interior lambda panel taken from the table of its panel sum."""
    u = np.outer(xg.pos_nodes, lg.pos_nodes)
    kx, kl = _interior_panels(xg, lg)
    o = xg.order
    if kx:
        table = _table_arguments(xg, lg)
        for k in range(kx):
            for l in range(kl):
                u[o + k * o:o + (k + 1) * o, o + l * o:o + (l + 1) * o] = \
                    table[:, k + l, :]
    return u


def mirrored(u):
    """Signed products lambda_j x_i on the full grids from the positive
    quarter block u, in the node order [-pos[::-1], pos] of both grids."""
    return np.block([[u[::-1, ::-1], -u[::-1]], [-u[:, ::-1], u]])


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_kernel_matrix_quarter_block_is_exact(alpha):
    # the cached blocks are the kernel parts at the build's arguments (the
    # outer product on the first and last panels, the table's
    # representatives between interior panels), and they determine the
    # kernel at the mirrored arguments on the full grids bit for bit, in the
    # near field (z = 2 sqrt|u| <= 9) and beyond it, for integer
    # (alpha = 0.5) and fractional Bessel orders
    xg, lg = dh.make_resolved_grids(alpha, 20.0, 64.0)
    u = build_arguments(xg, lg)
    assert (u <= 20.25).any() and (u > 20.25).any()
    assert _interior_panels(xg, lg)[0] > 0
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
    # the table takes one product per panel sum for all the interior panel
    # pairs with that sum; the products differ in the last bits only, so on
    # the largest resolved pair (40, 512) every entry stays within 1e-13 of
    # the kernel parts at its own outer-product argument, and the entries
    # that moved most, plus random ones, within 1e-13 of mpmath
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


def test_kernel_matrix_build_evaluates_a_tenth_of_the_quarter_block(monkeypatch):
    # the (40, 512) pair: direct rows and columns plus the table, instead of
    # all 1568^2 entries of the quarter block; the entry holds the strips
    # and the table's spectra in at most 5 MB, where [E | O] took 39.3 MB
    seen = []

    def counting(params, t):
        seen.append(np.size(t))
        return kernel_parts(params, t)

    monkeypatch.setattr(transform, "kernel_parts", counting)
    xg, lg = dh.make_resolved_grids(0.5, 40.0, 512.0)
    entry = kernel_matrix(xg, lg)
    quarter = xg.pos_nodes.size * lg.pos_nodes.size
    assert quarter == 1568 ** 2
    assert sum(seen) <= 0.1 * quarter
    parts = (entry.rows, entry.side, entry.spectra)
    assert entry.nbytes == sum(a.nbytes for a in parts) <= 5e6
    assert entry.size == sum(a.size for a in parts)


def pairs_without_table():
    """Grid pairs whose panels share no ratio and rule order: graded with two
    ratios, resolved for different radii, and graded with one ratio but
    different orders (uniform pairs:
    test_kernel_matrix_row_blocks_match_one_shot_build)."""
    a = 0.5
    rho = math.exp(10.0 / math.sqrt(20.0 * 64.0))
    return {
        "geometric": (dh.build_graded_grid(a, 20.0, 8, 20.0 / 12, 1.25),
                      dh.build_graded_grid(a, 64.0, 8, 64.0 / 12, 1.3)),
        "mixed_ratio": (dh.make_resolved_grids(a, 20.0, 64.0)[0],
                        dh.make_resolved_grids(a, 20.0, 128.0)[1]),
        "mixed_order": (dh.build_graded_grid(a, 20.0, 8, 25.0 / 64.0, rho),
                        dh.build_graded_grid(a, 64.0, 16, 25.0 / 20.0, rho)),
    }


@pytest.mark.parametrize("name", ["geometric", "mixed_ratio", "mixed_order"])
def test_kernel_matrix_without_common_ratio_is_the_outer_product(name):
    xg, lg = pairs_without_table()[name]
    assert _interior_panels(xg, lg) == (0, 0)
    even, odd = kernel_parts(KernelParams(alpha=0.5),
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
    assert _interior_panels(xg, lg) == ((0, 0) if panels < 3 else (panels - 2,) * 2)
    assert_built_from_table(xg, lg, 0.7)


def cut_short(grid, dropped):
    """The grid without its last `dropped` panels: same ratio, fewer
    interior panels."""
    keep = grid.pos_nodes.size - dropped * grid.order
    pos, wpos = grid.pos_nodes[:keep], grid.pos_weights[:keep]
    return replace(grid, radius=grid.cell_hi[keep - 1],
                   nodes=np.concatenate([-pos[::-1], pos]),
                   weights=np.concatenate([wpos[::-1], wpos]),
                   pos_nodes=pos, pos_weights=wpos, cell_lo=grid.cell_lo[:keep],
                   cell_hi=grid.cell_hi[:keep], uid=next(_grid_ids))


@pytest.mark.parametrize("dropped", [1, 3])
def test_kernel_matrix_table_on_unequal_interiors(dropped):
    # graded grids with one ratio have equal panel counts; a frequency grid
    # cut short by whole panels keeps the ratio and has fewer interior
    # panels, which the table's representatives must still cover
    xg, lg = dh.make_resolved_grids(0.7, 20.0, 64.0)
    short = cut_short(lg, dropped)
    kx, kl = _interior_panels(xg, short)
    assert kl == kx - dropped > 0
    assert_built_from_table(xg, short, 0.7)
    assert_built_from_table(short, xg, 0.7)


def test_kernel_matrix_row_blocks_match_one_shot_build():
    # a uniform pair has no table: its entry is one strip of all rows, the
    # kernel parts on the whole quarter block (here one slab)
    xg = dh.build_weighted_grid(0.7, 20.0, 9, 8)
    lg = dh.build_weighted_grid(0.7, 64.0, 24, 8)
    assert _interior_panels(xg, lg) == (0, 0)
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
    assert _interior_panels(xg, lg) == (0, 0)
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
    two interior panels, unequal interiors in both orientations, and a
    uniform pair without a table."""
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
    # every kernel sum the transforms take from the entry (edge strips by
    # dense products, the interior by one FFT correlation) matches the dense
    # kernel the entry stands for to within 1e-13 of the sum of the absolute
    # terms: forward and inverse on the grid for one vector, the physical
    # route for four (four h), and the forward orientation for four
    xg, lg = entry_pair(alpha, case)
    panels = {"resolved": 14, "one_interior_panel": 1, "two_interior_panels": 2,
              "short_lambda": 11, "short_x": 11, "uniform": 0}[case]
    assert min(_interior_panels(xg, lg)) == panels
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
    # off the grid the kernel rows are the multiplier's, entry for entry
    x_off = np.array([[-3.3, -0.2], [0.0, 5.1]])
    want = dh.kernel_B(params, np.multiply.outer(x_off, lg.nodes)) @ coeff
    assert np.array_equal(back(x_off), want)
    one = back(-0.7)
    assert np.ndim(one) == 0
    assert one == dh.kernel_B(params, -0.7 * lg.nodes) @ coeff
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


def test_entry_apply_keeps_the_table_orientation(monkeypatch):
    # with one rule on both grids, tab[m, s, m'] equals tab[m', s, m] up to
    # rounding, so a swapped orientation of the spectra would hide in the
    # last bits; a table skewed along its x node axis tells the two apart
    table = transform._table_arguments

    def skewed(xgrid, lgrid):
        args = table(xgrid, lgrid)
        return args * (1.0 + 0.05 * np.arange(args.shape[0]))[:, None, None]

    monkeypatch.setattr(transform, "_table_arguments", skewed)
    xg, lg = entry_pair(0.5, "short_lambda")
    dense = dense_kernel(entry_blocks(xg, lg))
    rng = np.random.default_rng(5)
    entry = kernel_matrix(xg, lg)
    for transposed, size in ((False, lg.nodes.size), (True, xg.nodes.size)):
        c = rng.standard_normal((4, size))
        kernel = dense.T if transposed else dense
        err = np.abs(transform._apply(entry, c, transposed) - c @ kernel.T)
        assert np.all(err <= 1e-13 * (np.abs(c) @ np.abs(kernel).T))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("h", [0.125, -0.3, 0.0])
def test_kernel_multiplier_is_exact(alpha, h):
    lg = dh.make_tail_grid(alpha, 8192.0)
    want = dh.kernel_B(KernelParams(alpha=alpha), lg.nodes * h)
    assert np.array_equal(kernel_multiplier(lg, h), want)


def test_kernel_multiplier_rows_match_single_h():
    # one kernel_parts call for the whole h grid; every series entry takes
    # the same number of terms, so each row equals its own single-h build
    for alpha in (0.3, 0.5, 0.7):
        lg = dh.make_tail_grid(alpha, 8192.0)
        hs = np.array([0.5, 0.125, 0.01, 1e-4, 0.0, -0.3])
        mat = kernel_multiplier(lg, hs)
        assert mat.shape == (hs.size, lg.nodes.size)
        for row, h in zip(mat, hs):
            assert np.array_equal(row, kernel_multiplier(lg, h))


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
