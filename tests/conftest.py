"""Shared fixtures and test configuration."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from lgmbench import gmrf
from lgmbench import models as mdl

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def lattice_5x4() -> gmrf.AdjacencyGraph:
    return gmrf.lattice_graph(5, 4)


@pytest.fixture(scope="session")
def two_component_graph() -> gmrf.AdjacencyGraph:
    """A 4-path and a 3-cycle glued into one 7-node graph."""
    edges = ((0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6))
    return gmrf.AdjacencyGraph(7, edges)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def dispersion_builds(monkeypatch) -> list:
    """The dispersion of every build of the ZINB constants during the
    test: one entry per ``models._dispersion_constants`` call."""
    built, build = [], mdl._dispersion_constants

    def counted(data, size):
        built.append(size)
        return build(data, size)

    monkeypatch.setattr(mdl, "_dispersion_constants", counted)
    return built
