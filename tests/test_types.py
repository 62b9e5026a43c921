"""The config, value and result types keep their contracts as named tuples
and plain classes: configs are immutable and checked once, the keys a
config file may hold are their fields, and worker results pickle and
compare by value."""

import ast
import itertools
import pickle
from collections import Counter
from pathlib import Path

import pytest

from chronolint import cli, detect, report
from chronolint.detect import DetectorConfig, FingerprintRule
from chronolint.ingest import IngestReport
from chronolint.model import AnomalyKind, FilterPolicy

SRC = Path(cli.__file__).parent

RESULTS = [
    cli.Scan(by_kind=Counter({(AnomalyKind.FUTURE, "p"): 1}), by_project=Counter({"p": 1}),
             by_year=Counter({2030: 1}), by_author=Counter({("a@x", "A"): 1}),
             counts={"p": 3}, fingerprints=Counter({"hg": 1}), tokens=Counter({"fix": 2}),
             rows={"p": b'{"kind":"future"}\n'}),
    cli.Kept(2, 1, 4, {"p": b'{"id":"x"}\n'}),
    IngestReport(3, 5, [(2, "bad json"), ("f" * 40, "wrong field count")]),
    report.Tally(Counter({(AnomalyKind.ZERO_EPOCH, "p"): 2}), by_year=Counter({1970: 2})),
    report.ScanReport(meta={"reference": 1}, totals={"commits": 4, "projects": 1},
                      cutoff_table=[report.CutoffRow(1970, 1.0)], tokens=[("fix", 2)]),
]


@pytest.mark.parametrize("result", RESULTS, ids=lambda r: type(r).__name__)
def test_worker_results_pickle_and_compare_by_value(result):
    again = pickle.loads(pickle.dumps(result))
    assert type(again) is type(result) and again == result and vars(again) == vars(result)
    assert again is not result and type(result)() != result


@pytest.mark.parametrize("cls", [type(r) for r in RESULTS], ids=lambda c: c.__name__)
def test_each_result_gets_fresh_defaults_in_field_order(cls):
    a, b = cls(), cls()
    assert list(vars(a)) == list(cls.FIELDS) and a == b
    assert all(value is not getattr(b, name)
               for name, value in vars(a).items() if not isinstance(value, int))


def test_results_take_fields_by_position_then_keyword():
    kept = cli.Kept(2, 1, lines={"p": b"x\n"})
    assert vars(kept) == {"kept": 2, "dropped": 1, "blacklisted": 0, "lines": {"p": b"x\n"}}
    scan = cli.Scan(Counter({(AnomalyKind.FUTURE, "p"): 1}), counts={"p": 3})
    assert list(vars(scan)) == list(report.Tally.FIELDS) + ["counts", "fingerprints",
                                                            "tokens", "rows"]
    assert scan.by_kind == Counter({(AnomalyKind.FUTURE, "p"): 1}) and scan.counts == {"p": 3}
    assert scan.by_project == Counter() and scan.rows == {}


@pytest.mark.parametrize("args, kwargs, message", [
    ((), {"kepts": 1}, "Kept has no field 'kepts'"),
    ((1,), {"kept": 2}, "Kept got field 'kept' twice"),
    ((1, 2, 3, {}, 5), {}, "Kept takes 4 fields, not 5"),
])
def test_results_refuse_unknown_repeated_and_extra_fields(args, kwargs, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        cli.Kept(*args, **kwargs)


def test_results_print_their_fields_in_order():
    assert repr(cli.Kept(2, 1, 4, {"p": b"x"})) == (
        "Kept(kept=2, dropped=1, blacklisted=4, lines={'p': b'x'})")
    assert repr(IngestReport(rejected=[(2, "bad json")])) == (
        "IngestReport(records_parsed=0, lines=0, rejected=[(2, 'bad json')])")


def test_results_declare_fields_and_define_no_init():
    """Every subclass of model.Fields in the package declares FIELDS and
    leaves construction to Fields.__init__."""
    classes = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (path.name, node)

    def bases(node):
        return {b.id if isinstance(b, ast.Name) else b.attr for b in node.bases
                if isinstance(b, (ast.Name, ast.Attribute))}

    results, grown = {"Fields"}, True
    while grown:
        grown = False
        for name, (_, node) in classes.items():
            if name not in results and bases(node) & results:
                results.add(name)
                grown = True
    results.discard("Fields")
    assert {"IngestReport", "ScanReport", "Tally", "Scan", "Kept"} <= results
    for name in sorted(results):
        module, node = classes[name]
        defined = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
        assigned = {t.id for n in node.body if isinstance(n, ast.Assign) for t in n.targets
                    if isinstance(t, ast.Name)}
        assert "__init__" not in defined, f"{module}: {name} defines __init__"
        assert "FIELDS" in assigned, f"{module}: {name} declares no FIELDS"


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
