"""Every function the benchmark's tracer wraps still exists under its name,
and each of its counters still reads what its function returns.

The tracer rebinds names it cannot find to nothing, so a refactor that drops
one would otherwise only show up as a missing span in a benchmark run, and
one that changes a return shape only as a failed traced run.
"""

import importlib
import importlib.util
from pathlib import Path

from chronolint import detect, filters, ingest
from chronolint.detect import DetectorConfig
from chronolint.graph import build_history
from chronolint.model import AnomalyKind
from helpers import build_repo, rec, utc_epoch, write_raw_commit

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_are_callable():
    tracer = load_tracer()
    missing = [
        f"{short}.{name}"
        for short, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"chronolint.{short}"), name, None))
    ]
    assert missing == []


def test_counters_read_what_their_functions_return(tmp_path):
    cfg = DetectorConfig(future_reference=utc_epoch(2021))
    # a zero-epoch root, a future child, then a child older than its parent
    zero = rec("zero", commit_epoch=0)
    future = rec("future", commit_epoch=utc_epoch(2030), parents=(zero.id,))
    back = rec("back", commit_epoch=utc_epoch(2020), parents=(future.id,))
    records = [zero, future, back]
    history = build_history(records, "proj")
    flags = detect.run_all_detectors(history, cfg)
    repo = tmp_path / "r"
    build_repo(repo, [{"key": "a", "commit_epoch": 1_600_000_000}])
    write_raw_commit(repo, "author A <a@example.com> 1600000100 +0000\n", "no committer\n",
                     "bad")
    results = {
        "ingest.parse_export_stream": (
            ingest.parse_export_stream(b"{}\n" + ingest.emit_export_stream(records), "proj"),
            {"ingest.parse_export_stream.rejected": 1}),
        "ingest.read_repository": (ingest.read_repository(str(repo), "proj"),
                                   {"ingest.read_repository.rejected": 1}),
        "detect.detect_old": (detect.detect_old(history, cfg), {
            "detect.anomalies.suspicious_old": 1, "detect.anomalies.zero_epoch": 1}),
        "detect.detect_future": (detect.detect_future(history, cfg),
                                 {"detect.anomalies.future": 1}),
        "detect.detect_out_of_order_linear": (
            detect.detect_out_of_order_linear(history, cfg),
            {"detect.anomalies.out_of_order_linear": 1}),
        "detect.detect_out_of_order_parent": (
            detect.detect_out_of_order_parent(history, cfg),
            {"detect.anomalies.out_of_order_parent": 1}),
        "filters.drop_flagged": (filters.drop_flagged(records, flags, {AnomalyKind.FUTURE}),
                                 {"filters.dropped": 1}),
        "filters.drop_pre_epoch": (filters.drop_pre_epoch(records), {"filters.dropped": 1}),
        "filters.date_cutoff": (filters.date_cutoff(records, utc_epoch(2025)),
                                {"filters.dropped": 2}),
    }
    counters = load_tracer().COUNTERS
    assert counters.keys() == results.keys()
    assert {name: counters[name](name, result) for name, (result, _) in results.items()} == {
        name: counts for name, (_, counts) in results.items()}
