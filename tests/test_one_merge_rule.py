"""Unit results merge by one rule, ``cli.merged``.

A scan or filter cut into units over disjoint project groups, its results
merged, equals the same step run once over every project. The comparison
walks the fields ``cli.merged`` walks, each result's ``vars()``, so a field
added to ``Scan`` or ``Kept`` later is checked too, and it must merge by its
type with no merge code of its own.
"""

import pytest

from chronolint import cli
from chronolint.detect import DetectorConfig, FingerprintRule
from chronolint.model import AnomalyKind, FilterPolicy
from helpers import rec, utc_epoch

CFG = DetectorConfig(future_reference=utc_epoch(2021))
RULES = (FingerprintRule("svn", "git-svn-id"), FingerprintRule("fix", "FIX", True),
         FingerprintRule("none", "never in any message"))
# zero-epoch, pre-1990 and future times among ordinary ones, so that every
# detector flags some commit and each project's chain goes out of order
EPOCHS = [1_600_000_000, 0, 1_600_100_000, 500_000_000, 1_600_200_000, 4_000_000_000]
MESSAGES = ["fix parser", "git-svn-id: svn://x/trunk@1", "Merge branch 'dev'",
            "update the docs", "Fix typo"]
PROJECTS = ["p0", "p1", "p2", "p3", "p4"]
GROUPS = [["p3"], ["p0", "p4"], ["p1", "p2"]]


def project(name, n):
    records, parents = [], ()
    for i in range(n):
        r = rec((name, i), commit_epoch=EPOCHS[i % len(EPOCHS)] + i * 60, parents=parents,
                project=name, message=MESSAGES[(i + len(name)) % len(MESSAGES)],
                author_name=f"Dev {i % 3}", author_email=f"dev{i % 3}@example.org")
        records.append(r)
        parents = (r.id,)
    return records


@pytest.fixture
def corpus():
    return {name: project(name, 20 + 7 * i) for i, name in enumerate(PROJECTS)}


def assert_merges_to_whole(step, corpus):
    whole = step(corpus)
    parts = [step({name: corpus[name] for name in group}) for group in GROUPS]
    together = cli.merged(parts)
    assert type(together) is type(whole)
    for name, value in vars(whole).items():
        assert value, name  # every field holds something to merge
        assert getattr(together, name) == value, name


def test_scans_of_disjoint_groups_merge_to_the_whole(corpus):
    assert_merges_to_whole(lambda c: cli.scan_corpus(c, CFG, RULES, rows=True), corpus)


def test_filters_of_disjoint_groups_merge_to_the_whole(corpus):
    policy = FilterPolicy(project_blacklist=frozenset({"p2"}),
                          drop_flagged_kinds=frozenset({AnomalyKind.FUTURE}),
                          cutoff=1_600_100_000)
    assert_merges_to_whole(lambda c: cli.filter_corpus(c, CFG, policy), corpus)
