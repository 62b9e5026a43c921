import re
from pathlib import Path

import pytest

from chronolint import model
from chronolint.model import (
    COMMIT_ID_RE,
    AnomalyKind,
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


def test_one_module_spells_out_a_commit_id():
    spelled = {path.name: path.read_text().count(COMMIT_ID_RE.pattern)
               for path in Path(model.__file__).parent.glob("*.py")}
    assert {name: n for name, n in spelled.items() if n} == {"model.py": 1}


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


@pytest.mark.parametrize("window", [(5,), (1, 2, 3), (), [1, 2], (1, "2"), (1.0, 2), 7])
def test_policy_window_must_be_a_pair_of_ints(window):
    with pytest.raises(ConfigError, match="^window must be a pair of ints: "):
        FilterPolicy(window=window)
    assert FilterPolicy(window=(5, 5)).window == (5, 5)


def test_policy_kinds_are_anomaly_kinds():
    """A kind is read through AnomalyKind when the policy is made, by member
    or by name, so that an unknown one fails there, as a ConfigError, and
    not at the first project a filter drops from."""
    policy = FilterPolicy(drop_flagged_kinds=frozenset({"future", AnomalyKind.ZERO_EPOCH}))
    assert policy.drop_flagged_kinds == frozenset({AnomalyKind.FUTURE, AnomalyKind.ZERO_EPOCH})
    for given in (["future"], {AnomalyKind.FUTURE}):
        kinds = FilterPolicy(drop_flagged_kinds=given).drop_flagged_kinds
        assert type(kinds) is frozenset and kinds == frozenset({AnomalyKind.FUTURE})
    with pytest.raises(ConfigError, match=(
            "^policy drop_flagged_kinds: 'bogus' is not a valid AnomalyKind$")):
        FilterPolicy(drop_flagged_kinds=frozenset({"bogus"}))
    with pytest.raises(ConfigError, match=(
            "^policy drop_flagged_kinds must be a list of strings: 5$")):
        FilterPolicy(drop_flagged_kinds=5)


@pytest.mark.parametrize("key, value, message", [
    ("project_blacklist", "proj", "must be a list of strings: 'proj'"),
    ("project_blacklist", None, "must be a list of strings: None"),
    ("drop_flagged_kinds", ("future", 5), "must be a list of strings: ('future', 5)"),
    ("min_epoch_seconds", "5", "must be an integer: '5'"),
    ("min_epoch_seconds", False, "must be an integer: False"),
    ("cutoff", "2014-01-01", "must be an integer: '2014-01-01'"),
    ("cutoff", 1.5, "must be an integer: 1.5"),
])
def test_policy_values_checked_when_made(key, value, message):
    """A value that a filter could not read, or would read wrongly (a string
    blacklist iterates its characters), is refused when the policy is made."""
    with pytest.raises(ConfigError, match=f"^policy {key} {re.escape(message)}$"):
        FilterPolicy(**{key: value})


def test_policy_collections_are_frozensets():
    """Whatever collection a policy is given, it holds a frozenset, so that
    the policy hashes as an immutable value does."""
    for given in (["p"], ("p",), {"p"}, frozenset({"p"})):
        policy = FilterPolicy(project_blacklist=given, drop_flagged_kinds=["future"])
        assert type(policy.project_blacklist) is frozenset
        assert policy.project_blacklist == frozenset({"p"})
        assert hash(policy) == hash(FilterPolicy(project_blacklist=frozenset({"p"}),
                                                 drop_flagged_kinds={AnomalyKind.FUTURE}))
    assert FilterPolicy(min_epoch_seconds=None, cutoff=5).cutoff == 5
