"""Shared fixtures for the repro test-suite, plus hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` selects the fixed-seed profile CI runs the
differential suite under (``derandomize=True`` makes every run explore
the same examples, so a CI failure reproduces locally byte-for-byte);
``thorough`` is the long-haul profile for local bug hunts.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.core.construction import optimal_covering
from repro.wdm.design import design_ring_network

settings.register_profile(
    "ci",
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("thorough", max_examples=300, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: full-length runs (the CLI's default every-experiment sweep)"
    )


@pytest.fixture(scope="session")
def covering9():
    """Theorem 1 covering of K_9 (exact decomposition, 10 blocks)."""
    return optimal_covering(9)


@pytest.fixture(scope="session")
def covering10():
    """Theorem 2 covering of K_10 (13 blocks, excess 5)."""
    return optimal_covering(10)


@pytest.fixture(scope="session")
def design11():
    """Complete WDM design for an 11-node ring."""
    return design_ring_network(11)


@pytest.fixture(scope="session")
def design8():
    """Complete WDM design for an 8-node ring (even case)."""
    return design_ring_network(8)
