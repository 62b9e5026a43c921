import pytest

from chronolint import parallel


@pytest.fixture
def four_cpus(monkeypatch):
    """Fork as on a 4-CPU host, whatever this one has."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
