"""Shared fixtures: small lattices and integrator configs reused across tests."""

import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import settings

import avgbeam
from avgbeam import (
    Dipole,
    Drift,
    IntegratorConfig,
    Lattice,
    NormalQuadDipole,
    TrajectoryState,
)

SQRT2 = np.sqrt(2.0)

# Property tests draw the same examples on every run and keep no example
# database, so every run of the suite tests the same inputs.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

# Hypothesis also draws from a pool of the literals in every loaded local
# module, and rebuilds that pool whenever a module is loaded.  avgbeam
# loads its modules on first use, so load them all before the first test:
# the pool, and with it the examples drawn, then depend only on the code,
# not on which tests ran first or which names they touched.
for _module in pkgutil.iter_modules(avgbeam.__path__):
    importlib.import_module(f"avgbeam.{_module.name}")


@pytest.fixture
def circle_lattice():
    # b0 = 1 bends the reference-speed orbit on a unit circle that stays
    # inside x2 in [0.2, 2.2], well within the 2.4 m element.
    return Lattice.from_elements([Dipole(length=2.4, b0=1.0)])


@pytest.fixture
def circle_state():
    return TrajectoryState(
        t=0.0,
        x=np.array([0.0, 0.0, 1.2, 0.0]),
        v=np.array([SQRT2, 0.0, 1.0, 0.0]),
    )


@pytest.fixture
def cfg_fine():
    return IntegratorConfig(step=1e-3)


@pytest.fixture
def fodo_lattice():
    cell = [
        NormalQuadDipole(length=0.5, b0=0.2, b1=1.5),
        Drift(length=0.5),
        NormalQuadDipole(length=0.5, b0=0.2, b1=-1.5),
        Drift(length=0.5),
    ]
    return Lattice.from_elements(cell * 4)
