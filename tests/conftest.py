from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "chainlogic", max_examples=50, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("chainlogic")


@pytest.fixture(autouse=True)
def _default_tolerance(monkeypatch) -> None:
    """Every test starts from the documented default tolerance: the CLI
    reads CHAINLOGIC_TOL from the environment, so a value exported by the
    caller would change verdicts and exit codes.  Tests that want the
    variable set it themselves."""
    monkeypatch.delenv("CHAINLOGIC_TOL", raising=False)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260815)
