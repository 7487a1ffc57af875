import numpy as np
import pytest
from hypothesis import strategies as st

from specret import Signal, make_grid


@pytest.fixture(scope="session")
def grid256():
    return make_grid(8.0, 256)


@pytest.fixture(scope="session")
def grid512():
    return make_grid(8.0, 512)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture()
def l1024_blocks(monkeypatch):
    """The row-block height that holds the share of an L = 256 lattice
    that the default holds at L = 1024: 8 rows (`stft.block_height`)."""
    from specret import stft
    monkeypatch.setattr(stft, "POWER_BLOCK_BYTES", stft.POWER_BLOCK_BYTES // 16)


def random_signal(grid, rng, localized=True):
    """Complex test signal; localized variants decay at the interval ends."""
    values = rng.standard_normal(grid.L) + 1j * rng.standard_normal(grid.L)
    if localized:
        values = values * np.exp(-0.5 * (grid.t / (grid.T / 3)) ** 2)
    return Signal(grid=grid, values=values)


# fan-window parameters for the floored-lattice properties: dilations from far
# below to far above a grid's resolution, the angles 0 and pi/2 exactly (where
# sin or cos is 0 or 6e-17), tolerances, and a non-dyadic and a dyadic grid
DILATIONS = st.floats(-3.0, 16.0).map(lambda e: 10.0 ** e)
ANGLES = st.one_of(st.sampled_from([0.0, np.pi / 2]), st.floats(0.0, np.pi))
EPSILONS = st.sampled_from([1e-6, 1e-3, 0.1, 0.5])
GRIDS = st.sampled_from([(1.3, 250), (8.0, 256)])

# Hermite families for the Laguerre-ladder and cropped-lattice properties:
# ascending degrees in [0, 200] that include 0, and floors from a plan's
# (1e-20 of a tolerance) up to the scale of the window ambiguities
DEGREE_SETS = st.lists(st.integers(1, 200), max_size=5, unique=True).map(
    lambda ns: [0] + sorted(ns))
FLOORS = st.floats(-28.0, -0.3).map(lambda e: 10.0 ** e)
