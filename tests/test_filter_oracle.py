"""A whole filter policy against a brute-force oracle, ``helpers.oracle_filter``.

Each corpus holds several projects: one commit shared by two of them, whose
parent is newer than itself in one project and absent from the other, so
that it is flagged in only the first; and a blacklisted project that holds
one commit id twice, which filter must drop unread. ``filter_corpus`` and
``filter --jsonl``, in one range and in two, keep the records the oracle
keeps and count what it counts.
"""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronolint import cli, parallel
from chronolint.detect import CVS_RELEASE_EPOCH, DetectorConfig
from chronolint.ingest import emit_export_stream
from chronolint.model import AnomalyKind, FilterPolicy
from helpers import fake_hash, oracle_filter, rec

REFERENCE = 1_700_000_000
# times on every rule's boundary, and some on each side of it
TIMES = [0, 1, 500_000_000, CVS_RELEASE_EPOCH - 1, CVS_RELEASE_EPOCH, 1_600_000_000,
         1_600_000_500, 1_600_001_000, REFERENCE, REFERENCE + 1]
MESSAGES = ["update", "Merge branch 'dev'", "fix typo"]

times = st.sampled_from(TIMES)
commits = st.lists(st.tuples(times, times, st.integers(0, 3), st.sampled_from(MESSAGES)),
                   max_size=6)
policies = st.builds(
    FilterPolicy,
    min_epoch_seconds=st.sampled_from([None, 0, 1, CVS_RELEASE_EPOCH]),
    cutoff=st.none() | times,
    cutoff_mode=st.sampled_from(["before", "after"]),
    window=st.none() | st.tuples(times, times).map(sorted).map(tuple),
    project_blacklist=st.sets(st.sampled_from(["p2", "absent"])).map(
        lambda names: frozenset({"black", *names})),
    drop_flagged_kinds=st.frozensets(st.sampled_from(list(AnomalyKind))),
    time_basis=st.sampled_from(["author", "committer"]),
)
configs = st.builds(DetectorConfig, old_threshold=st.just(CVS_RELEASE_EPOCH),
                    future_reference=st.just(REFERENCE),
                    time_basis=st.sampled_from(["author", "committer"]),
                    merge_exclusion=st.booleans())


def project(name, plans):
    """The commits of plans as one project: each (commit time, author time,
    k, message) takes the commit k places back as its parent, if k > 0."""
    records = []
    for i, (commit_epoch, author_epoch, back, message) in enumerate(plans):
        parents = (records[max(0, i - back)].id,) if i and back else ()
        records.append(rec((name, i), commit_epoch=commit_epoch, author_epoch=author_epoch,
                           parents=parents, message=message, project=name))
    return records


def corpus_records(plans, black):
    """p0, p1 and p2 of plans, the shared commit in p0 and p1, and the
    project black with one of its ids twice."""
    newer = rec("shared-parent", commit_epoch=1_600_000_900, project="p0")
    shared = rec("shared", commit_epoch=1_600_000_100, parents=(newer.id,), project="p0")
    records = [newer, shared, shared._replace(project="p1")]
    for name, plan in zip(("p0", "p1", "p2"), plans):
        records += project(name, plan)
    blacklisted = project("black", black)
    return records + blacklisted + [blacklisted[0]._replace(message="same id again")]


def policy_object(policy):
    """The JSON form of policy; json writes its window tuple as a list."""
    obj = policy._asdict()
    obj["project_blacklist"] = sorted(policy.project_blacklist)
    obj["drop_flagged_kinds"] = sorted(kind.value for kind in policy.drop_flagged_kinds)
    return obj


def filter_jsonl(records, policy, cfg, ranges):
    """(exit code, kept lines, summary line) of filter --jsonl over records
    cut into ranges, each project's lines together, on four usable CPUs."""
    with tempfile.TemporaryDirectory() as work:
        export, path, out = (os.path.join(work, name)
                             for name in ("in.jsonl", "policy.json", "kept.jsonl"))
        with open(export, "wb") as fh:
            fh.write(emit_export_stream(sorted(records, key=lambda r: r.project)))
        with open(path, "w") as fh:
            json.dump(policy_object(policy), fh)
        argv = ["filter", "--jsonl", export, "--policy", path, "--out", out,
                "--reference", str(cfg.future_reference), "--time-basis", cfg.time_basis]
        if not cfg.merge_exclusion:
            argv.append("--no-merge-exclusion")
        summary = io.StringIO()
        with mock.patch.object(parallel, "range_count", lambda fh: ranges), \
                mock.patch.object(parallel, "usable_cpus", lambda: 4), \
                contextlib.redirect_stdout(summary):
            code = cli.main(argv)
        with open(out, "rb") as fh:
            return code, fh.read(), summary.getvalue()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@settings(max_examples=60, deadline=None)
@given(st.lists(commits, min_size=3, max_size=3), commits.filter(bool), policies, configs,
       st.randoms(use_true_random=False))
def test_filter_matches_the_oracle(plans, black, policy, cfg, rng):
    records = corpus_records(plans, black)
    kept, dropped, blacklisted = oracle_filter(records, policy, cfg)
    assert blacklisted == len(black) + 1 + len(plans[2]) * ("p2" in policy.project_blacklist)
    parent_only = FilterPolicy(min_epoch_seconds=None, project_blacklist=frozenset({"black"}),
                            drop_flagged_kinds=frozenset({AnomalyKind.OUT_OF_ORDER_PARENT}))
    shared = fake_hash("shared")
    assert {(r.project, r.id) for r in oracle_filter(records, parent_only, cfg)[0]
            if r.id == shared} == {("p1", shared)}

    shuffled = records[:]
    rng.shuffle(shuffled)
    result = cli.filter_corpus(cli.group_by_project(shuffled), cfg, policy)
    assert cli.in_project_order(result.lines) == emit_export_stream(kept)
    assert (result.kept, result.dropped, result.blacklisted) == (len(kept), dropped, blacklisted)

    summary = json.dumps({"kept": len(kept), "dropped": dropped + blacklisted,
                          "dropped_blacklisted_projects": blacklisted}) + "\n"
    for ranges in (1, 2):
        assert filter_jsonl(records, policy, cfg, ranges) == (
            0, emit_export_stream(kept), summary), ranges
