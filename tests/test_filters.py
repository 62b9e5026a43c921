import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chronolint import cli
from chronolint.detect import DetectorConfig, detect_old, detect_out_of_order_parent
from chronolint.filters import (
    coalesce,
    date_cutoff,
    drop_flagged,
    drop_pre_epoch,
    drop_projects,
    time_getter,
    time_window,
)
from chronolint.graph import build_history
from chronolint.model import AnomalyKind, ConsistencyError, FilterPolicy
from census import CENSUS_BELOW_ONE, CENSUS_TOTAL, SUSPICIOUS_TIMESTAMP_CENSUS
from helpers import rec, utc_epoch


def census_records():
    records = []
    i = 0
    for value, count in SUSPICIOUS_TIMESTAMP_CENSUS:
        for _ in range(count):
            records.append(rec(("census", i), commit_epoch=value, author_epoch=value))
            i += 1
    return records


def test_unknown_time_basis_rejected():
    with pytest.raises(ValueError, match="^unknown time basis: 'sideways'$"):
        time_getter("sideways")


class TestDropPreEpoch:
    def test_census_removal_share(self):
        records = census_records()
        assert len(records) == CENSUS_TOTAL == 4735
        kept, dropped = drop_pre_epoch(records, 1)
        assert len(dropped) == CENSUS_BELOW_ONE == 4678
        assert round(len(dropped) / len(records) * 100, 2) == 98.80

    def test_boundary_kept(self):
        kept, dropped = drop_pre_epoch([rec("a", commit_epoch=1)], 1)
        assert dropped == []

    def test_all_positive_untouched(self):
        records = [rec(("p", i), commit_epoch=100 + i) for i in range(10)]
        kept, dropped = drop_pre_epoch(records, 1)
        assert kept == records and dropped == []


class TestDateCutoff:
    def test_before_cutoff_dropped(self):
        cutoff = utc_epoch(2014)
        assert cutoff == 1388534400
        r = rec("a", commit_epoch=utc_epoch(2013, 12, 31))
        kept, dropped = date_cutoff([r], cutoff, "before")
        assert dropped == [r.id]

    def test_exactly_at_cutoff_kept(self):
        cutoff = utc_epoch(2014)
        r = rec("a", commit_epoch=cutoff)
        kept, dropped = date_cutoff([r], cutoff, "before")
        assert kept == [r]

    def test_after_mode(self):
        cutoff = 1000
        early = rec("a", commit_epoch=500)
        late = rec("b", commit_epoch=1500)
        kept, dropped = date_cutoff([early, late], cutoff, "after")
        assert kept == [early] and dropped == [late.id]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="^unknown cutoff mode: 'sideways'$"):
            date_cutoff([], 0, mode="sideways")


class TestTimeWindow:
    def test_start_inclusive(self):
        r = rec("a", commit_epoch=100)
        assert time_window([r], 100, 200) == [r]

    def test_past_end_dropped(self):
        r = rec("a", commit_epoch=201)
        assert time_window([r], 100, 200) == []

    def test_full_range_identity(self):
        records = [rec(("w", i), commit_epoch=i * 10) for i in range(10)]
        assert time_window(records, 0, 1000) == records

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError):
            time_window([], 10, 5)


class TestDropProjects:
    def test_empty_blacklist_identity(self):
        corpus = {"p1": [rec("a")], "p2": [rec("b")]}
        assert drop_projects(corpus, set()) == corpus

    def test_named_project_removed(self):
        corpus = {"glob3mobile/g3m": [rec("a")], "other": [rec("b")]}
        out = drop_projects(corpus, {"glob3mobile/g3m"})
        assert set(out) == {"other"}

    def test_one_string_refused(self):
        """A lone name would be read as its characters, so it is refused."""
        corpus = {"proj": [rec("a")], "p": [rec("b")]}
        with pytest.raises(TypeError, match="^blacklist "):
            drop_projects(corpus, "proj")
        assert drop_projects(corpus, ["proj"]) == {"p": corpus["p"]}


class TestDropFlagged:
    def test_no_kinds_identity(self):
        records = [rec("a"), rec("b")]
        kept, dropped = drop_flagged(records, [], set())
        assert kept == records and dropped == []

    def test_single_parent_flag_dropped(self):
        p = rec("p", commit_epoch=1000)
        c = rec("c", commit_epoch=900, parents=(p.id,))
        anomalies = detect_out_of_order_parent(build_history([p, c], "proj"), DetectorConfig())
        kept, dropped = drop_flagged(
            [p, c], anomalies, {AnomalyKind.OUT_OF_ORDER_PARENT}
        )
        assert dropped == [c.id]

    def test_flag_drops_only_its_project(self):
        p = rec("p", commit_epoch=1000)
        c = rec("c", commit_epoch=900, parents=(p.id,))
        fork = [rec("p", commit_epoch=1000, project="fork"),
                rec("c", commit_epoch=900, parents=(p.id,), project="fork")]
        anomalies = detect_out_of_order_parent(build_history([p, c], "proj"), DetectorConfig())
        kept, dropped = drop_flagged(
            [p, c, *fork], anomalies, {AnomalyKind.OUT_OF_ORDER_PARENT}
        )
        assert kept == [p, *fork] and dropped == [c.id]

    def test_rescan_after_drop_is_clean(self):
        rng = random.Random(42)
        records = []
        prev = None
        for i in range(50):
            epoch = rng.randint(0, 10**6)
            r = rec(("rf", i), commit_epoch=epoch,
                    parents=(prev.id,) if prev else ())
            records.append(r)
            prev = r
        history = build_history(records, "proj")
        anomalies = detect_out_of_order_parent(history, DetectorConfig())
        kept, _ = drop_flagged(records, anomalies, {AnomalyKind.OUT_OF_ORDER_PARENT})
        survivors = {r.id for r in kept}
        rescanned = detect_out_of_order_parent(build_history(kept, "proj"), DetectorConfig())
        assert not any(
            a.commit_id in survivors and a.counterpart_id in survivors
            for a in rescanned
        )

    def test_unknown_id_rejected(self):
        ghost = detect_out_of_order_parent(
            build_history(
                [rec("p", commit_epoch=10), rec("c", commit_epoch=5,
                                                parents=(rec("p").id,))], "proj"
            ),
            DetectorConfig(),
        )
        with pytest.raises(ConsistencyError):
            drop_flagged([rec("other")], ghost, {AnomalyKind.OUT_OF_ORDER_PARENT})

    def test_kinds_by_name_drop_as_their_members_do(self):
        # a zero committer date under a sane author date: the detectors read
        # the committer date, the pre-epoch filter the author date
        zero, ok = rec("z", commit_epoch=0, author_epoch=1_600_000_000), rec("ok")
        anomalies = detect_old(build_history([zero, ok], "proj"), DetectorConfig())
        assert drop_flagged([zero, ok], anomalies, {"zero_epoch"}) == ([ok], [zero.id])
        assert drop_flagged([zero, ok], anomalies, {AnomalyKind.ZERO_EPOCH, "future"}) == (
            [ok], [zero.id])
        with pytest.raises(ValueError):
            drop_flagged([zero, ok], anomalies, {"zero"})
        corpus = cli.group_by_project([zero, ok])
        by_name, by_member = (
            cli.filter_corpus(corpus, DetectorConfig(), FilterPolicy(drop_flagged_kinds=kinds))
            for kinds in (frozenset({"zero_epoch"}), frozenset({AnomalyKind.ZERO_EPOCH})))
        assert by_name == by_member and (by_name.kept, by_name.dropped) == (1, 1)


class TestCoalesce:
    def test_small_gaps_one_changeset(self):
        records = [rec(("c", i), commit_epoch=i * 100) for i in range(3)]
        sets = coalesce(records, 180)
        assert len(sets) == 1
        assert len(sets[0].member_ids) == 3

    def test_gap_over_window_splits(self):
        records = [rec("c0", commit_epoch=0), rec("c1", commit_epoch=181)]
        assert len(coalesce(records, 180)) == 2

    def test_gap_at_window_does_not_split(self):
        records = [rec("c0", commit_epoch=0), rec("c1", commit_epoch=180)]
        assert len(coalesce(records, 180)) == 1

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="^coalesce window must be positive$"):
            coalesce([], window_seconds=0)

    def test_author_change_splits(self):
        a = rec("a", commit_epoch=0, author_email="a@x")
        b = rec("b", commit_epoch=10, author_email="b@x")
        assert len(coalesce([a, b], 180)) == 2

    def test_files_unioned(self):
        a = rec("a", commit_epoch=0, files=frozenset({"f1"}))
        b = rec("b", commit_epoch=10, files=frozenset({"f2"}))
        (cs,) = coalesce([a, b], 180)
        assert cs.files == frozenset({"f1", "f2"})

    def test_conservation_against_quadratic_grouping(self):
        rng = random.Random(9)
        records = [
            rec(("q", i), commit_epoch=rng.randint(0, 2000),
                author_email=f"u{rng.randint(0, 2)}@x")
            for i in range(60)
        ]
        sets = coalesce(records, 180)
        assert sum(len(c.member_ids) for c in sets) == len(records)
        # every internal consecutive gap within the window, per brute force
        by_id = {r.id: r for r in records}
        for c in sets:
            times = [by_id[m].author_time for m in c.member_ids]
            assert all(b - a <= 180 for a, b in zip(times, times[1:]))
            assert all(by_id[m].author_email == c.author_email for m in c.member_ids)


# ---------------------------------------------------------------------------
# filter laws (exercised harder in the acceptance suite)

epochs = st.integers(min_value=-(10**10), max_value=10**10)
record_lists = st.lists(
    st.tuples(st.integers(0, 10**6), epochs), max_size=25
).map(lambda pairs: [rec(("law", i, s), commit_epoch=e) for i, (s, e) in enumerate(pairs)])


@given(record_lists, epochs)
def test_pre_epoch_idempotent(records, minimum):
    kept, dropped = drop_pre_epoch(records, minimum)
    again, dropped2 = drop_pre_epoch(kept, minimum)
    assert again == kept and dropped2 == []


@given(record_lists, epochs)
def test_pre_epoch_partition(records, minimum):
    kept, dropped = drop_pre_epoch(records, minimum)
    assert len(kept) + len(dropped) == len(records)
    assert {r.id for r in kept}.isdisjoint(dropped)


@given(record_lists, epochs)
def test_pre_epoch_equals_before_cutoff(records, minimum):
    by_min = drop_pre_epoch(records, minimum)
    by_cutoff = date_cutoff(records, minimum, "before")
    assert by_min == by_cutoff
