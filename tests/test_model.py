import pytest
from hypothesis import given
from hypothesis import strategies as st

from chronolint.model import (
    MAX_EPOCH_ABS,
    FilterPolicy,
    ConfigError,
    Timestamp,
    is_commit_hash,
)
from helpers import fake_hash, ts


offsets = st.integers(min_value=-1440, max_value=1440)
epochs = st.integers(min_value=-(2**40), max_value=2**40)


@given(epochs, offsets, epochs, offsets)
def test_ordering_ignores_offsets(e1, o1, e2, o2):
    a, b = Timestamp(e1, o1), Timestamp(e2, o2)
    assert (a < b) == (e1 < e2)
    assert (a == b) == (e1 == e2)


def test_epoch_sanity_bounds():
    Timestamp(MAX_EPOCH_ABS - 1)
    Timestamp(-MAX_EPOCH_ABS)
    with pytest.raises(ValueError):
        Timestamp(MAX_EPOCH_ABS)
    with pytest.raises(ValueError):
        Timestamp(-MAX_EPOCH_ABS - 1)


def test_offset_bounds():
    Timestamp(0, 1440)
    Timestamp(0, -1440)
    with pytest.raises(ValueError):
        Timestamp(0, 1441)


def test_offset_text_rendering():
    assert ts(0, 0).offset_text == "+0000"
    assert ts(0, -330).offset_text == "-0530"
    assert ts(0, 90).offset_text == "+0130"


def test_hash_predicate():
    assert is_commit_hash(fake_hash("x"))
    assert not is_commit_hash("abc")
    assert not is_commit_hash("G" * 40)
    assert not is_commit_hash(fake_hash("x").upper())


def test_policy_validation():
    with pytest.raises(ConfigError):
        FilterPolicy(time_basis="neither")
    with pytest.raises(ConfigError):
        FilterPolicy(window=(ts(10), ts(5)))
    assert FilterPolicy().min_epoch_seconds == 1
    assert FilterPolicy().time_basis == "author"
