import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import roots_jacobi, roots_legendre

from dhankel.quadrature import (_assemble, build_graded_grid,
                                build_weighted_grid, conjugate_exponent,
                                panel_integrals, weight_constant, weighted_norm)
from dhankel.specfun import DomainError
from dhankel.titchmarsh import make_resolved_grids, make_tail_grid


def weighted_integral(f, grid):
    """Integral of f against c_a |x|^{2a-1} dx on the grid (signed)."""
    return float(np.sum(grid.weights * f(grid.nodes)))


def closed_form_mass(alpha, radius):
    return weight_constant(alpha) * radius ** (2 * alpha) / alpha


def test_panel_integrals_exact_for_polynomials():
    # an order-n Gauss rule integrates degree 2n - 1 exactly on every panel
    edges = np.array([-1.0, 0.0, 0.5, 2.0, 3.5])
    got = panel_integrals(lambda s: 5 * s ** 9 - s ** 2, edges, 5)
    prim = lambda s: s ** 10 / 2 - s ** 3 / 3
    assert np.allclose(got, prim(edges[1:]) - prim(edges[:-1]), rtol=1e-13)


@pytest.mark.parametrize("p, q", [(2.0, 2.0), (1.5, 3.0), (1.25, 5.0)])
def test_conjugate_exponent(p, q):
    assert conjugate_exponent(p) == q


@pytest.mark.parametrize("p", [1.0, 0.5, 2.5, math.inf, math.nan])
def test_conjugate_exponent_outside_one_two_is_a_domain_error(p):
    with pytest.raises(DomainError, match=r"p must lie in \(1, 2\]"):
        conjugate_exponent(p)


def test_total_mass_examples():
    g = build_weighted_grid(0.5, 1.0, 8, 8)
    assert abs(np.sum(g.weights) - 1.0) < 1e-12
    g = build_weighted_grid(1.0, 2.0, 8, 8)
    assert abs(np.sum(g.weights) - 2.0) < 1e-12


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 1.0, 2.5])
@pytest.mark.parametrize("grading", ["uniform", "geometric"])
def test_mass_matches_closed_form(alpha, grading):
    # 16 panels either way: equal ones, or growing from 5/16 by 16^(1/15)
    g = (build_weighted_grid(alpha, 5.0, 16, 12) if grading == "uniform"
         else build_graded_grid(alpha, 5.0, 12, 5.0 / 16, 16.0 ** (1 / 15)))
    assert g.pos_nodes.size == 16 * 12
    want = closed_form_mass(alpha, 5.0)
    assert abs(np.sum(g.weights) - want) <= 1e-10 * want


def test_grid_invariants():
    g = build_weighted_grid(0.4, 3.0, 10, 8)
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all(g.weights > 0)
    assert 0.0 not in g.nodes
    # symmetric: node set closed under negation with equal weights
    assert np.allclose(g.nodes, -g.nodes[::-1])
    assert np.allclose(g.weights, g.weights[::-1])
    # cells partition (0, R]
    assert g.cell_lo[0] == 0.0
    assert g.cell_hi[-1] == g.radius
    assert np.all(g.cell_lo < g.pos_nodes) and np.all(g.pos_nodes < g.cell_hi)
    assert np.allclose(g.cell_hi[:-1], g.cell_lo[1:])


@pytest.mark.parametrize("order", [2, 5, 16, 64])
@pytest.mark.parametrize("alpha", [0.26, 0.5, 4.0])
def test_grids_are_assembled_in_ascending_node_order(alpha, order):
    # _assemble lays the nodes out panel after panel and sorts nothing
    for g in (build_weighted_grid(alpha, 20.0, 16, order),
              make_tail_grid(alpha, 8192.0, order),
              *make_resolved_grids(alpha, 20.0, 64.0, order),
              *make_resolved_grids(alpha, 40.0, 512.0, order)):
        assert np.all(np.diff(g.pos_nodes) > 0)


def panel_by_panel(alpha, edges, order):
    """Positive nodes and weights of a grid, one Gauss rule per panel."""
    ca = weight_constant(alpha)
    beta = 2.0 * alpha - 1.0
    tj, wj = roots_jacobi(order, 0.0, beta)
    h = edges[1]
    xs, ws = [h * (tj + 1.0) / 2.0], [wj * (h / 2.0) ** (2.0 * alpha) * ca]
    tl, wl = roots_legendre(order)
    for a, b in zip(edges[1:-1], edges[2:]):
        x = 0.5 * (a + b) + 0.5 * (b - a) * tl
        xs.append(x)
        ws.append(wl * 0.5 * (b - a) * ca * x ** beta)
    pos, wpos = np.concatenate(xs), np.concatenate(ws)
    idx = np.argsort(pos)
    return pos[idx], wpos[idx]


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_assemble_matches_panel_loop(alpha):
    # uniform, a tail grid's geometric edges, and a graded grid's edges
    graded = 0.01 * np.exp(0.08 * np.arange(60))
    for edges in (np.linspace(0.0, 5.0, 17),
                  np.concatenate([[0.0], 0.25 * 1.07 ** np.arange(170)]),
                  np.concatenate([[0.0], graded])):
        for order in (8, 16):
            g = _assemble(alpha, edges[-1], edges, order)
            pos, wpos = panel_by_panel(alpha, edges, order)
            assert np.array_equal(g.pos_nodes, pos)
            assert np.array_equal(g.pos_weights, wpos)


def test_odd_integrand_vanishes():
    g = build_weighted_grid(0.5, 2.0, 12, 10)
    assert abs(weighted_integral(lambda x: x, g)) < 1e-14


def test_polynomial_exactness_with_weight():
    # int_{-R}^{R} x^2 |x|^{2a-1} dx * c_a = c_a R^{2a+2} / (a+1)
    alpha, radius = 0.3, 1.5
    g = build_weighted_grid(alpha, radius, 4, 8)
    want = weight_constant(alpha) * radius ** (2 * alpha + 2) / (alpha + 1)
    assert abs(weighted_integral(lambda x: x * x, g) - want) <= 1e-13 * want


def test_norm_examples():
    g = build_weighted_grid(0.5, 1.0, 8, 8)
    assert abs(weighted_norm(lambda x: np.ones_like(x), g, 2.0) - 1.0) < 1e-12
    assert weighted_norm(lambda x: np.zeros_like(x), g, 1.0) == 0.0
    assert abs(weighted_norm(np.abs(g.nodes), g, 1.0) - 0.5) < 1e-12


def test_norm_domain():
    g = build_weighted_grid(0.5, 1.0, 4, 4)
    with pytest.raises(DomainError):
        weighted_norm(lambda x: x, g, 0.5)


@given(c=st.floats(min_value=-100.0, max_value=100.0))
def test_norm_scaling(c):
    g = build_weighted_grid(0.5, 2.0, 6, 6)
    f = np.exp(-g.nodes ** 2)
    base = weighted_norm(f, g, 2.0)
    assert weighted_norm(c * f, g, 2.0) == pytest.approx(abs(c) * base, rel=1e-12)


@given(seed=st.integers(min_value=0, max_value=2 ** 31))
def test_triangle_inequality(seed):
    g = build_weighted_grid(0.6, 2.0, 6, 6)
    rng = np.random.default_rng(seed)
    f = rng.normal(size=g.nodes.size)
    h = rng.normal(size=g.nodes.size)
    for p in (1.0, 2.0):
        lhs = weighted_norm(f + h, g, p)
        rhs = weighted_norm(f, g, p) + weighted_norm(h, g, p)
        assert lhs <= rhs * (1 + 1e-12)


def test_refinement_convergence():
    # order-2 rule halves panel width: error must drop at least 4x
    # (panels kept coarse; by 16 panels the error is below the float floor)
    alpha, radius = 0.5, 4.0
    f = lambda x: np.exp(-x * x)
    ref = weighted_norm(f, build_weighted_grid(alpha, radius, 256, 12), 2.0)
    errs = [abs(weighted_norm(f, build_weighted_grid(alpha, radius, n, 2), 2.0) - ref)
            for n in (2, 4, 8)]
    assert errs[1] <= errs[0] / 4.0
    assert errs[2] <= errs[1] / 4.0


def test_graded_grid_mass_and_resolution():
    # the frequency grid of make_resolved_grids(0.5, 40, 512)
    g = build_graded_grid(0.5, 512.0, 16, 25.0 / 40.0,
                          math.exp(10.0 / math.sqrt(512.0 * 40.0)))
    want = closed_form_mass(0.5, 512.0)
    assert abs(np.sum(g.weights) - want) <= 1e-10 * want
    # first panel small enough that the kernel phase 2 sqrt(dual*x) < budget
    assert 2.0 * math.sqrt(40.0 * g.pos_nodes[0]) < 10.0


@pytest.mark.parametrize("radius, panels", [(10.0, 5), (8.0, 4),
                                            (8.0 * (1 + 1e-13), 4),
                                            (8.0 * (1 + 1e-11), 5)])
def test_graded_grid_edges(radius, panels):
    # edges 0, 1, 2, 4, ... up to the first power of 2 that reaches the
    # radius to a relative 1e-12, which is then moved onto the radius
    g = build_graded_grid(0.5, radius, 4, 1.0, 2.0)
    assert g.log_ratio == math.log(2.0)
    assert g.pos_nodes.size == 4 * panels
    edges = [0.0, *(2.0 ** k for k in range(panels - 1)), radius]
    for lo, hi, nodes in zip(edges, edges[1:], g.pos_nodes.reshape(panels, 4)):
        assert lo < nodes.min() and nodes.max() < hi
    assert g.cell_hi[-1] == radius
    assert build_weighted_grid(0.5, radius, 4, 4).log_ratio is None


def test_construction_errors():
    with pytest.raises(DomainError):
        build_weighted_grid(0.2, 1.0, 4, 4)
    with pytest.raises(DomainError):
        build_weighted_grid(0.5, -1.0, 4, 4)
    # panel counts outside [2, 100000) are refused before any node is made
    for panels in (1, 100000, 10 ** 12):
        with pytest.raises(DomainError, match=r"panels must lie in \[2, 100000\)"):
            build_weighted_grid(0.5, 1.0, panels, 4)
    # 1e308: the panel midpoints 0.5 (a + b) of a uniform grid would overflow
    for radius in (-1.0, 0.0, math.nan, math.inf, 1e308):
        with pytest.raises(DomainError, match="radius must be positive"):
            build_weighted_grid(0.5, radius, 4, 4)
        with pytest.raises(DomainError, match="radius must be positive"):
            build_graded_grid(0.5, radius, 4, 0.25, 1.1)
    with pytest.raises(DomainError, match="alpha must exceed"):
        build_graded_grid(0.2, 1.0, 4, 0.25, 1.1)
    with pytest.raises(DomainError, match="order must be"):
        build_graded_grid(0.5, 1.0, 1, 0.25, 1.1)
    # first_panel in (0, radius), rho in (1, inf)
    for first, rho in ((1.0, 1.1), (0.0, 1.1), (math.nan, 1.1), (0.25, 1.0),
                       (0.25, 0.5), (0.25, math.inf), (0.25, math.nan)):
        with pytest.raises(DomainError, match="first_panel must lie"):
            build_graded_grid(0.5, 1.0, 4, first, rho)
    with pytest.raises(DomainError, match="too many panels"):
        build_graded_grid(0.5, 1.0, 4, 0.25, 1.0 + 1e-9)


@pytest.mark.parametrize("build", [
    lambda: build_graded_grid(85.0, 64.0, 16, 0.25, 1.07),     # underflow
    lambda: build_weighted_grid(85.0, 1e4, 4, 4),               # overflow
])
def test_weights_out_of_range_are_rejected(build):
    # c_a x^{2a-1} leaves the doubles at large alpha; no numpy warning
    # escapes (pytest turns RuntimeWarning into an error)
    with pytest.raises(DomainError, match="alpha = 85.0 takes the quadrature "
                                          "weights out of the range of doubles"):
        build()
