"""The config, value and result types keep their contracts as named tuples
and plain classes: configs are immutable and checked once, the keys a
config file may hold are their fields, and worker results pickle and
compare by value."""

import itertools
import pickle
from collections import Counter

import pytest

from chronolint import cli, detect
from chronolint.detect import DetectorConfig, FingerprintRule
from chronolint.ingest import IngestReport
from chronolint.model import AnomalyKind, FilterPolicy

RESULTS = [
    cli.Scan(by_kind=Counter({(AnomalyKind.FUTURE, "p"): 1}), by_project=Counter({"p": 1}),
             by_year=Counter({2030: 1}), by_author=Counter({("a@x", "A"): 1}),
             counts={"p": 3}, fingerprints=Counter({"hg": 1}), tokens=Counter({"fix": 2}),
             rows={"p": b'{"kind":"future"}\n'}),
    cli.Kept(2, 1, 4, {"p": b'{"id":"x"}\n'}),
    IngestReport(3, 5, [(2, "bad json"), ("f" * 40, "wrong field count")]),
]


@pytest.mark.parametrize("result", RESULTS, ids=lambda r: type(r).__name__)
def test_worker_results_pickle_and_compare_by_value(result):
    again = pickle.loads(pickle.dumps(result))
    assert type(again) is type(result) and again == result and vars(again) == vars(result)
    assert again is not result and type(result)() != result


@pytest.mark.parametrize("value, field", [
    (FilterPolicy(), "cutoff"),
    (DetectorConfig(future_reference=2_000_000_000), "future_reference"),
    (FingerprintRule("svn", "git-svn-id"), "pattern"),
])
def test_configs_refuse_assignment(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None


def test_config_file_keys_are_the_fields():
    assert cli.POLICY_KEYS == {"min_epoch_seconds", "cutoff", "cutoff_mode", "window",
                               "project_blacklist", "drop_flagged_kinds", "time_basis"}
    assert cli.RULE_KEYS == {"name", "pattern", "case_insensitive"}


def test_one_config_keeps_one_future_reference(monkeypatch):
    clock = itertools.count(1_600_000_000.5, 1000)
    reads = []
    monkeypatch.setattr(detect.time, "time", lambda: reads.append(1) or next(clock))
    cfg = DetectorConfig()
    assert cfg.future_reference == 1_600_000_000 and len(reads) == 1
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    assert cfg._replace(time_basis="author").future_reference == 1_600_000_000
    assert len(reads) == 1
    assert DetectorConfig().future_reference == 1_600_001_000 and len(reads) == 2
