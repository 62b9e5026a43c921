"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they execute.
"""

import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronolint.cli import main
from chronolint.detect import (
    DetectorConfig,
    detect_old,
    detect_out_of_order_linear,
    detect_out_of_order_parent,
    detect_future,
    scan_fingerprints,
)
from chronolint.filters import coalesce, date_cutoff, drop_pre_epoch, time_window
from chronolint.graph import build_history, linearize
from chronolint.ingest import emit_export_stream, parse_export_stream
from chronolint.model import AnomalyKind
from chronolint.report import cutoff_table, emit_anomaly_stream, parse_anomaly_stream, tally
from census import CENSUS_BELOW_ONE, CENSUS_TOTAL, SUSPICIOUS_TIMESTAMP_CENSUS
from helpers import (
    brute_force_parent_pairs,
    build_repo,
    planted_corpus,
    random_records,
    rec,
    replay_linear_loop,
    utc_epoch,
)

CFG = DetectorConfig(future_reference=utc_epoch(2021))


def verdict(number: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {title}{suffix}")
    assert ok, f"criterion {number} failed: {title}{suffix}"


def test_criterion_1_suspicious_census_fixture():
    records = []
    i = 0
    for value, count in SUSPICIOUS_TIMESTAMP_CENSUS:
        for _ in range(count):
            records.append(rec(("census", i), commit_epoch=value, author_epoch=value))
            i += 1
    started = time.perf_counter()
    history = build_history(records, "census")
    flagged = {
        a.commit_id
        for a in detect_old(history, CFG)
        if a.kind is AnomalyKind.SUSPICIOUS_OLD
    }
    kept, dropped = drop_pre_epoch(records, 1)
    elapsed = time.perf_counter() - started
    share = len(dropped) / len(records)
    ok = (
        len(records) == CENSUS_TOTAL == 4735
        and len(flagged) == 4735
        and len(dropped) == CENSUS_BELOW_ONE == 4678
        and round(share * 100, 2) == 98.80
        and elapsed < 1.0
    )
    verdict(1, "suspicious-timestamp census fixture",
            ok, f"flagged {len(flagged)}, dropped {len(dropped)}, {elapsed:.3f}s")


def test_criterion_2_out_of_order_oracle_equivalence():
    rng = random.Random(20_262_024)
    mismatches = 0
    for _ in range(1000):
        records = random_records(rng, rng.randint(1, 64))
        history = build_history(records, "proj")
        parent_found = {
            (a.commit_id, a.counterpart_id)
            for a in detect_out_of_order_parent(history, CFG)
        }
        if parent_found != brute_force_parent_pairs(records):
            mismatches += 1
        linear_found = {
            a.commit_id for a in detect_out_of_order_linear(history, CFG)
        }
        if linear_found != replay_linear_loop(
            linearize(history), merge_exclusion=True
        ):
            mismatches += 1
    verdict(2, "out-of-order detectors match oracles on 1000 random DAGs",
            mismatches == 0, f"{mismatches} mismatches")


def test_criterion_3_planted_corpus_recall_precision():
    corpus, manifest = planted_corpus(random.Random(303), repos=50,
                                      commits_per_repo=200)
    total_commits = sum(len(v) for v in corpus.values())
    started = time.perf_counter()
    found = {
        "zero_epoch": set(),
        "suspicious_old": set(),
        "future": set(),
        "out_of_order_parent": set(),
        "out_of_order_linear": set(),
    }
    for project, records in corpus.items():
        history = build_history(records, project)
        for a in detect_old(history, CFG):
            found[a.kind.value].add(a.commit_id)
        for a in detect_future(history, CFG):
            found["future"].add(a.commit_id)
        for a in detect_out_of_order_parent(history, CFG):
            found["out_of_order_parent"].add((a.commit_id, a.counterpart_id))
        for a in detect_out_of_order_linear(history, CFG):
            found["out_of_order_linear"].add(a.commit_id)
    elapsed = time.perf_counter() - started
    exact = all(found[k] == manifest[k] for k in manifest)
    ok = exact and total_commits >= 10_000 and len(corpus) >= 50 and elapsed < 10.0
    verdict(3, "planted-corpus recall and precision are 1.0 for every detector",
            ok, f"{total_commits} commits, {elapsed:.2f}s")


epochs = st.integers(min_value=-(10**10), max_value=10**10)
law_records = st.lists(
    st.tuples(st.integers(0, 10**6), epochs,
              st.integers(0, 3), st.booleans()),
    max_size=20,
).map(lambda rows: [
    rec(("acc", i, seed), commit_epoch=e,
        author_epoch=e if same else e + 17,
        author_email=f"dev{u}@example.com")
    for i, (seed, e, u, same) in enumerate(rows)
])
equal_date_records = st.lists(
    st.tuples(st.integers(0, 10**6), epochs), max_size=20
).map(lambda rows: [rec(("eq", i, s), commit_epoch=e)
                    for i, (s, e) in enumerate(rows)])


class TestCriterion4FilterLaws:
    @settings(max_examples=500, deadline=None)
    @given(law_records, epochs)
    def test_idempotence_and_partition(self, records, pivot):
        for apply in (
            lambda rs: drop_pre_epoch(rs, pivot),
            lambda rs: date_cutoff(rs, pivot, "before"),
            lambda rs: date_cutoff(rs, pivot, "after"),
        ):
            kept, dropped = apply(records)
            assert len(kept) + len(dropped) == len(records)
            assert {r.id for r in kept}.isdisjoint(dropped)
            kept2, dropped2 = apply(kept)
            assert kept2 == kept and dropped2 == []
        windowed = time_window(records, -(10**10), 10**10)
        assert time_window(windowed, -(10**10), 10**10) == windowed

    @settings(max_examples=500, deadline=None)
    @given(law_records, epochs)
    def test_pre_epoch_cutoff_equivalence(self, records, minimum):
        assert drop_pre_epoch(records, minimum) == date_cutoff(
            records, minimum, "before"
        )

    @settings(max_examples=500, deadline=None)
    @given(law_records, st.integers(1, 600))
    def test_coalescence_conservation(self, records, window):
        sets = coalesce(records, window)
        assert sum(len(c.member_ids) for c in sets) == len(records)
        by_id = {r.id: r for r in records}
        for c in sets:
            times = [by_id[m].author_time for m in c.member_ids]
            assert all(b - a <= window for a, b in zip(times, times[1:]))

    @settings(max_examples=500, deadline=None)
    @given(equal_date_records, epochs)
    def test_time_basis_neutrality_on_equal_dates(self, records, pivot):
        assert all(r.author_time == r.commit_time for r in records)
        for basis_pair in (("author", "committer"),):
            a_basis, c_basis = basis_pair
            assert drop_pre_epoch(records, pivot, a_basis) == drop_pre_epoch(
                records, pivot, c_basis
            )
            assert date_cutoff(records, pivot, "before", a_basis) == date_cutoff(
                records, pivot, "before", c_basis
            )
            assert coalesce(records, 180, a_basis) == coalesce(records, 180, c_basis)

    def test_verdict_line(self):
        verdict(4, "filter laws hold over 500 generated cases each", True)


def test_criterion_5_cutoff_table_reconstruction():
    rng = random.Random(5)
    per_year = {1996: 3, 2005: 12, 2010: 40, 2012: 90, 2013: 800, 2014: 55}
    anomalies = []
    i = 0
    for year, count in per_year.items():
        for _ in range(count):
            from chronolint.model import AnomalyRecord
            from helpers import fake_hash
            anomalies.append(AnomalyRecord(
                kind=AnomalyKind.OUT_OF_ORDER_PARENT,
                commit_id=fake_hash(("cut", i)),
                project="proj",
                observed=utc_epoch(year, rng.randint(1, 12), rng.randint(1, 28)),
            ))
            i += 1
    total = sum(per_year.values())
    rows = cutoff_table(tally(anomalies), range(1995, 2016))
    by_year = {r.year: r.percent_removed for r in rows}
    running = 0
    exact = True
    for year in sorted(per_year):
        running += per_year[year]
        if by_year[year] != pytest.approx(running / total):
            exact = False
    percents = [r.percent_removed for r in rows]  # descending years
    monotone = all(a >= b for a, b in zip(percents, percents[1:]))
    verdict(5, "cutoff table reconstructs planted per-year fractions and is monotone",
            exact and monotone)


def test_criterion_6_fingerprint_suite():
    plants = {
        "git-svn-id": ["git-svn-id: https://svn.example.com/repo@10 uuid"] * 3,
        "Reviewed-by": ["Reviewed-by: R <r@example.com>"] * 2,
        "Change-Id": ["Change-Id: Iabc123"] * 2,
        "rebase_source": ["rebase_source: deadbeef"] * 1,
        "hg": ["synced with hg", "hg: pulled upstream"],
        "MOE|push_codebase": ["MOE sync step", "push_codebase completed"],
    }
    negatives = [
        "driving on the highway",       # must not match word-bounded hg
        "light hgh levels",             # nor this
        "reviewed by nobody",           # case-sensitive footer, no hyphen
        "changed identifiers",          # not Change-Id
        "plain maintenance work",
    ]
    records, expected = [], {}
    i = 0
    for name, messages in plants.items():
        expected[name] = len(messages)
        for m in messages:
            records.append(rec(("fps", i), message=m))
            i += 1
    for m in negatives:
        records.append(rec(("fps", i), message=m))
        i += 1
    result = scan_fingerprints(r.message for r in records)
    ok = all(result[name] == count for name, count in expected.items())
    verdict(6, "fingerprint rules report exact planted counts", ok, json.dumps(result))


def test_criterion_7_determinism_and_round_trip(tmp_path):
    # JSONL round trip
    rng = random.Random(7)
    records = [
        rec(("det", i), commit_epoch=rng.randint(-10**9, 2 * 10**9),
            message=f"change {i}\nline two", offset=rng.choice((-330, 0, 60)))
        for i in range(500)
    ]
    stream = emit_export_stream(records)
    parsed, report = parse_export_stream(stream, "p")
    round_trip_ok = (
        report.records_rejected == 0
        and parsed == records
        and emit_export_stream(parsed) == stream
    )
    # anomaly stream determinism under permutation
    p = rec("p7", commit_epoch=1000)
    c = rec("c7", commit_epoch=900, parents=(p.id,))
    anomalies = detect_out_of_order_parent(build_history([p, c], "proj"), CFG)
    parsed_anoms, _, _ = parse_anomaly_stream(emit_anomaly_stream(anomalies))
    anomaly_ok = {a.commit_id for a in parsed_anoms} == {c.id}

    # corpus reports for jobs in {1, 8} and shuffled lists
    repos = []
    for i in range(3):
        repo = tmp_path / f"repo{i}"
        build_repo(repo, [
            {"key": "a", "commit_epoch": 1_400_000_000 + i},
            {"key": "b", "commit_epoch": 0 if i == 0 else 1_500_000_000,
             "parents": ["a"]},
        ])
        repos.append(str(repo))
    outputs = []
    for jobs, ordering in (("1", repos), ("8", repos), ("8", repos[::-1])):
        listing = tmp_path / f"list-{jobs}-{ordering[0][-1]}.txt"
        listing.write_text("\n".join(ordering) + "\n")
        out = tmp_path / f"corpus-{listing.stem}.json"
        main(["corpus", "--list", str(listing), "--jobs", jobs,
              "--reference", "2021-01-01", "--out", str(out)])
        outputs.append(out.read_bytes())
    corpus_ok = outputs[0] == outputs[1] == outputs[2]
    verdict(7, "round-trip is byte-identical and corpus reports are job/order independent",
            round_trip_ok and anomaly_ok and corpus_ok)


def test_criterion_8_live_repo_backdated_child(tmp_path):
    delta = 4242
    repo = tmp_path / "repo"
    shas = build_repo(repo, [
        {"key": "a", "commit_epoch": 1_600_000_000, "message": "base work"},
        {"key": "b", "commit_epoch": 1_600_000_000 - delta, "parents": ["a"],
         "message": "backdated follow-up"},
    ])
    out = tmp_path / "report.json"
    anomalies_out = tmp_path / "anomalies.jsonl"
    code = main(["scan", "--repo", str(repo), "--reference", "2021-01-01",
                 "--out", str(out), "--anomalies-out", str(anomalies_out)])
    anomalies, _, _ = parse_anomaly_stream(anomalies_out.read_bytes())
    flags = [a for a in anomalies if a.kind is AnomalyKind.OUT_OF_ORDER_PARENT]
    ok = (
        code == 1
        and len(flags) == 1
        and flags[0].commit_id == shas["b"]
        and flags[0].counterpart_id == shas["a"]
        and flags[0].delta_seconds == -delta
    )
    verdict(8, "end-to-end scan flags the back-dated child with the exact delta",
            ok, f"delta {flags[0].delta_seconds if flags else 'none'}")
