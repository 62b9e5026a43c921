import pytest

from chronolint.model import (
    CommitRecord,
    FilterPolicy,
    ConfigError,
    is_commit_hash,
)
from helpers import fake_hash, rec


def test_hash_predicate():
    assert is_commit_hash(fake_hash("x"))
    assert not is_commit_hash("abc")
    assert not is_commit_hash("G" * 40)
    assert not is_commit_hash(fake_hash("x").upper())
    assert not is_commit_hash(fake_hash("x") + "\n")
    assert not is_commit_hash(None)


def test_commit_record_is_an_immutable_value():
    assert CommitRecord._fields == (
        "id", "parents", "author_time", "author_tz", "commit_time", "commit_tz",
        "author_name", "author_email", "message", "project", "files",
    )
    a, b = rec("x", files=frozenset({"f"})), rec("x", files=frozenset({"f"}))
    with pytest.raises(AttributeError):
        a.message = "changed"
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != rec("x", files=frozenset({"g"}))
    assert a.files == frozenset({"f"}) and rec("x").files is None


def test_policy_validation():
    with pytest.raises(ConfigError):
        FilterPolicy(time_basis="neither")
    with pytest.raises(ConfigError):
        FilterPolicy(window=(10, 5))
    assert FilterPolicy().min_epoch_seconds == 1
    assert FilterPolicy().time_basis == "author"
