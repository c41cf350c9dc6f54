import numpy as np
import pytest
from hypothesis import settings

import dhankel as dh

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")

ALPHA = 0.5
DELTA0 = 0.5


@pytest.fixture(scope="session")
def grids_default():
    """CLI-default-sized uniform grids (x radius 20, frequency radius 64)."""
    xg = dh.build_weighted_grid(ALPHA, 20.0, 64, 16)
    lg = dh.build_weighted_grid(ALPHA, 64.0, 64, 16)
    return xg, lg


@pytest.fixture(scope="session")
def grids_resolved_small():
    """Phase-resolved pair for physical-route checks at moderate radii."""
    return dh.make_resolved_grids(ALPHA, 20.0, 64.0)


@pytest.fixture(scope="session")
def grids_resolved_route():
    """Phase-resolved pair sized for the two-route consistency runs."""
    return dh.make_resolved_grids(ALPHA, 40.0, 512.0)


@pytest.fixture(scope="session")
def tail_grid_8192():
    return dh.make_tail_grid(ALPHA, 8192.0)


@pytest.fixture(scope="session")
def tail_grid_4096():
    return dh.make_tail_grid(ALPHA, 4096.0)


def sqrt_annulus_bump(x):
    """Smooth even bump, concentrated away from the origin, decaying fast
    on the sqrt scale the kernel oscillates on."""
    s = np.sqrt(np.abs(x))
    return np.exp(-((s - 2.0) / 0.5) ** 2)


@pytest.fixture(scope="session")
def bump_spec():
    return dh.FunctionSpec(evaluator=sqrt_annulus_bump, support_radius=16.0)
