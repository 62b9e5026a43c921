"""Read chronolint's outputs back and judge each check against the oracle.

A check passes when the output equals the truth. A failing check is
attributed to a known defect when the output equals what that defect's
model predicts (see ``expectations``); any other failure is unexplained and
makes the run incorrect.
"""

from __future__ import annotations

import json

import oracle

MISSING = "<missing>"


def expectations(case) -> tuple[dict, dict[str, dict]]:
    """The truth plus, for live repositories, the known-defect models.

    The ROADMAP records two defects that live repositories trip: forks are
    counted by commit id alone (``fork-miscount``), and the ``git log``
    format that live ingest reads truncates or drops messages at 0x1E/0x1F
    and fails on dates before 1970 in local time (``live-ingest-log-format``).
    """
    truth = oracle.answers(case.projects, case.policy)
    if not case.live_git:
        return truth, {}
    view = oracle.live_ingest_view(case.projects)
    return truth, {
        "fork-miscount": oracle.answers(case.projects, dedupe_ids=True),
        "live-ingest-log-format": oracle.answers(view),
        "fork-miscount+live-ingest-log-format": oracle.answers(view, dedupe_ids=True),
    }


def observe(case, outputs: dict[str, bytes]) -> dict:
    """Parse the outputs of one invocation into check values."""
    if case.command == "filter":
        return _observe_filter(outputs[case.outputs[0]], outputs["stdout"])
    return _observe_scan(outputs[case.outputs[0]], outputs[case.outputs[1]])


def _observe_scan(report_bytes: bytes, anomaly_bytes: bytes) -> dict:
    out: dict = {}
    try:
        sets = {kind: set() for kind in oracle.KINDS}
        for line in anomaly_bytes.splitlines():
            if line.strip():
                obj = json.loads(line)
                key = (obj["project"], obj["commit_id"])
                if obj["kind"] in oracle.PAIR_KINDS:
                    key += (obj.get("counterpart_id"),)
                sets.setdefault(obj["kind"], set()).add(key)
        for kind, keys in sets.items():
            out["anomalies.%s" % kind] = keys
    except (ValueError, KeyError, TypeError):
        pass
    try:
        report = json.loads(report_bytes)
        out["totals.commits"] = report["totals"]["commits"]
        out["totals.projects"] = report["totals"]["projects"]
        for kind, stats in report["anomalies"].items():
            for field in ("count", "corpus_percent", "affected_percent"):
                out["report.%s.%s" % (kind, field)] = stats[field]
        for rule, count in report["fingerprints"].items():
            out["fingerprints.%s" % rule] = count
    except (ValueError, KeyError, TypeError):
        pass
    return out


def _observe_filter(kept_bytes: bytes, stdout: bytes) -> dict:
    out: dict = {}
    try:
        kept = [json.loads(line) for line in kept_bytes.splitlines() if line.strip()]
        out["filter.kept_ids"] = {(obj["project"], obj["id"]) for obj in kept}
        if len(out["filter.kept_ids"]) != len(kept):
            out["filter.kept_ids"] = MISSING     # a kept record was written twice
    except (ValueError, KeyError, TypeError):
        pass
    try:
        summary = json.loads(stdout.strip().splitlines()[-1])
        out["filter.summary.kept"] = summary["kept"]
        out["filter.summary.dropped"] = summary["dropped"]
    except (ValueError, KeyError, TypeError, IndexError):
        pass
    return out


def judge(observed: dict, truth: dict, models: dict[str, dict]) -> list[tuple[str, str]]:
    """(check, status) per check: ``ok``, ``known:<defect>`` or ``wrong``."""
    results = []
    for name, want in truth.items():
        got = observed.get(name, MISSING)
        if got == want:
            status = "ok"
        else:
            status = next(("known:" + model for model, values in models.items()
                           if values.get(name, MISSING) == got), "wrong")
        results.append((name, status))
    return results


def describe(name: str, want, got) -> str:
    """One line saying how an observed value differs from the truth."""
    if isinstance(want, set):
        if not isinstance(got, set):
            return "%s: %d expected, none reported" % (name, len(want))
        return "%s: %d expected, %d reported, %d missing, %d extra" % (
            name, len(want), len(got), len(want - got), len(got - want))
    return "%s: expected %r, reported %r" % (name, want, got)
