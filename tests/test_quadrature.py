import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dhankel.quadrature import (build_graded_grid, build_weighted_grid,
                                panel_integrals, weight_constant,
                                weighted_integral, weighted_norm)
from dhankel.specfun import DomainError


def closed_form_mass(alpha, radius):
    return weight_constant(alpha) * radius ** (2 * alpha) / alpha


def test_panel_integrals_exact_for_polynomials():
    # an order-n Gauss rule integrates degree 2n - 1 exactly on every panel
    edges = np.array([-1.0, 0.0, 0.5, 2.0, 3.5])
    got = panel_integrals(lambda s: 5 * s ** 9 - s ** 2, edges, 5)
    prim = lambda s: s ** 10 / 2 - s ** 3 / 3
    assert np.allclose(got, prim(edges[1:]) - prim(edges[:-1]), rtol=1e-13)


def test_total_mass_examples():
    g = build_weighted_grid(0.5, 1.0, 8, 8)
    assert abs(g.total_mass() - 1.0) < 1e-12
    g = build_weighted_grid(1.0, 2.0, 8, 8)
    assert abs(g.total_mass() - 2.0) < 1e-12


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 1.0, 2.5])
@pytest.mark.parametrize("grading", ["uniform", "geometric"])
def test_mass_matches_closed_form(alpha, grading):
    g = build_weighted_grid(alpha, 5.0, 16, 12, grading=grading)
    want = closed_form_mass(alpha, 5.0)
    assert abs(g.total_mass() - want) <= 1e-10 * want


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
    g = build_graded_grid(0.5, 512.0, 16, 10.0, 40.0)
    want = closed_form_mass(0.5, 512.0)
    assert abs(g.total_mass() - want) <= 1e-10 * want
    # first panel small enough that the kernel phase 2 sqrt(dual*x) < budget
    assert 2.0 * math.sqrt(40.0 * g.pos_nodes[0]) < 10.0


def test_construction_errors():
    with pytest.raises(DomainError):
        build_weighted_grid(0.2, 1.0, 4, 4)
    with pytest.raises(DomainError):
        build_weighted_grid(0.5, -1.0, 4, 4)
    with pytest.raises(DomainError):
        build_weighted_grid(0.5, 1.0, 1, 4)
    with pytest.raises(DomainError):
        build_weighted_grid(0.5, 1.0, 4, 4, grading="exotic")
