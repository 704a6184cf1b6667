import math
import sys

import numpy as np
import pytest

import ptchain as pc


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for randomized property checks."""
    return np.random.default_rng(171717)


@pytest.fixture(scope="session")
def propagation():
    """Cached (layout, bundle, psi0) triples for the shared L=1200 lattice.

    The dense eigendecomposition is the expensive part (~5 s per gamma), so
    the wave-packet criteria and the t = 0 oracle of the fig5d-f presets
    share one cache keyed by gamma, for the whole session.
    """
    layout = pc.LatticeLayout.centered(1200, 3)
    psi0 = pc.gaussian_packet(layout, -300, 60.0, 0.5 * math.pi)
    cache: dict[float, pc.PropagatorBundle] = {}

    def get(gamma: float):
        if gamma not in cache:
            h = pc.build_hamiltonian(layout, pc.ChainSpec(3, gamma))
            cache[gamma] = pc.prepare_propagator(h)
        return layout, cache[gamma], psi0

    return get


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the one-line-per-criterion acceptance results at the end."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "_CRITERION_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
