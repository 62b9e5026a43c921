import pytest

from chronolint.model import (
    FilterPolicy,
    ConfigError,
    is_commit_hash,
)
from helpers import fake_hash


def test_hash_predicate():
    assert is_commit_hash(fake_hash("x"))
    assert not is_commit_hash("abc")
    assert not is_commit_hash("G" * 40)
    assert not is_commit_hash(fake_hash("x").upper())


def test_policy_validation():
    with pytest.raises(ConfigError):
        FilterPolicy(time_basis="neither")
    with pytest.raises(ConfigError):
        FilterPolicy(window=(10, 5))
    assert FilterPolicy().min_epoch_seconds == 1
    assert FilterPolicy().time_basis == "author"
