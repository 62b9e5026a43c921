"""Laws of a whole ``scan`` run: each relates two runs of the command line,
so none needs a second implementation of what it checks.

Every law is checked with the export cut into 1, 2 and 8 units
(``parallel.range_count`` patched, forking as on four CPUs), over small
generated exports of random DAGs:

- line order: any permutation of an export's lines gives the same report
  and anomaly stream, byte for byte;
- disjoint union: two exports with disjoint project names, concatenated,
  give totals, per-kind counts and affected projects, and fingerprint
  counts that are the sums of the two runs', and the two runs' stream rows;
- renaming: a bijection on project names maps each stream row to one row
  of the renamed run, and leaves the per-kind table as it is.
"""

import json
import os
import random
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from chronolint import cli, parallel
from chronolint.ingest import emit_export_stream
from helpers import MESSAGES, random_records

REF = "2021-01-01T00:00:00+00:00"
UNITS = (1, 2, 8)
# where a project's times start: zero-epoch and old, recent, and future
BASES = (0, 700_000_000, 1_500_000_000, 4_000_000_000)

pytestmark = [pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork"),
              pytest.mark.usefixtures("four_cpus")]

sizes = st.lists(st.integers(1, 20), min_size=1, max_size=4)
seeds = st.integers(0, 2**32)


def records(seed, sizes, prefix="p"):
    """One random DAG per size, named prefix0, prefix1, ..., each with its
    own base time; some messages carry a fingerprint."""
    rng = random.Random(seed)
    projects = {}
    for k, n in enumerate(sizes):
        project, base = f"{prefix}{k}", rng.choice(BASES)
        projects[project] = [r._replace(
            commit_time=base + r.commit_time, author_time=base + r.author_time,
            message=rng.choice(MESSAGES + ["git-svn-id: svn://example.org/trunk@1 uuid"]),
        ) for r in random_records(rng, n, project)]
    return projects


def export(projects):
    """The export lines of projects, each project's lines together."""
    return emit_export_stream(r for rs in projects.values() for r in rs).splitlines(keepends=True)


def scan(lines, units):
    """(exit code, report, anomaly stream) of a scan of lines cut into units."""
    with tempfile.TemporaryDirectory() as tmp:
        path, report, stream = (Path(tmp) / name for name in ("in.jsonl", "r.json", "a.jsonl"))
        path.write_bytes(b"".join(lines))
        with mock.patch.object(parallel, "range_count", lambda fh: units):
            code = cli.main(["scan", "--jsonl", str(path), "--reference", REF,
                             "--out", str(report), "--anomalies-out", str(stream)])
        return code, report.read_bytes(), stream.read_bytes()


def summed(one, two):
    """The sums, key by key, of two tables of counts."""
    return {key: one.get(key, 0) + two.get(key, 0) for key in one.keys() | two.keys()}


def rows(stream, rename=None):
    """The stream's rows as a multiset of canonical JSON texts, each row's
    project renamed by rename first."""
    found = Counter()
    for line in stream.splitlines():
        row = json.loads(line)
        if rename:
            row["project"] = rename[row["project"]]
        found[json.dumps(row, sort_keys=True)] += 1
    return found


@settings(max_examples=12, deadline=None)
@given(sizes=sizes, seed=seeds, order=st.randoms(use_true_random=False))
def test_line_order(sizes, seed, order):
    lines = export(records(seed, sizes))
    shuffled = list(lines)
    order.shuffle(shuffled)
    first = scan(lines, 1)
    for units in UNITS:
        assert scan(lines, units) == first, units
        assert scan(shuffled, units) == first, units


@settings(max_examples=12, deadline=None)
@given(a_sizes=sizes, b_sizes=sizes, seed=seeds)
def test_disjoint_union(a_sizes, b_sizes, seed):
    a, b = export(records(seed, a_sizes, "a")), export(records(seed + 1, b_sizes, "b"))
    for units in UNITS:
        runs = [scan(lines, units) for lines in (a, b, a + b)]
        one, two, both = (json.loads(report) for _, report, _ in runs)
        for table in ("totals", "fingerprints"):
            assert both[table] == summed(one[table], two[table])
        for kind, row in both["anomalies"].items():
            for column in ("count", "affected_projects"):
                assert row[column] == one["anomalies"][kind][column] + two["anomalies"][kind][column]
        one_rows, two_rows, both_rows = (stream.splitlines() for _, _, stream in runs)
        assert sorted(both_rows) == sorted(one_rows + two_rows)


@settings(max_examples=12, deadline=None)
@given(sizes=sizes, seed=seeds, data=st.data())
def test_renaming(sizes, seed, data):
    projects = records(seed, sizes)
    rename = dict(zip(projects, data.draw(st.permutations(list(projects)))))
    renamed = {rename[p]: [r._replace(project=rename[p]) for r in rs] for p, rs in projects.items()}
    for units in UNITS:
        code, report, stream = scan(export(projects), units)
        again, renamed_report, renamed_stream = scan(export(renamed), units)
        assert again == code
        assert json.loads(renamed_report)["anomalies"] == json.loads(report)["anomalies"]
        assert rows(renamed_stream) == rows(stream, rename)
