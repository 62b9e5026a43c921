import random

import pytest

from chronolint.graph import build_history, linearize
from chronolint.model import GraphError
from helpers import (
    fake_hash,
    is_valid_topological_order,
    random_records,
    rec,
)


class TestBuildHistory:
    def test_chain_order(self):
        a = rec("a", commit_epoch=100)
        b = rec("b", commit_epoch=200, parents=(a.id,))
        c = rec("c", commit_epoch=300, parents=(b.id,))
        history = build_history([c, a, b], "proj")
        assert history.order == (a.id, b.id, c.id)

    def test_two_roots_time_tiebreak(self):
        a = rec("a", commit_epoch=5)
        b = rec("b", commit_epoch=3)
        history = build_history([a, b], "proj")
        assert history.order == (b.id, a.id)

    def test_equal_times_id_tiebreak(self):
        a = rec("a", commit_epoch=7)
        b = rec("b", commit_epoch=7)
        expected = tuple(sorted([a.id, b.id]))
        assert build_history([a, b], "proj").order == expected

    def test_random_dags_pass_validity_oracle(self):
        rng = random.Random(1234)
        for _ in range(50):
            records = random_records(rng, rng.randint(1, 64))
            history = build_history(records, "proj")
            assert is_valid_topological_order(records, history.order)

    def test_determinism_across_input_orderings(self):
        rng = random.Random(99)
        records = random_records(rng, 40)
        baseline = build_history(records, "proj").order
        for _ in range(5):
            shuffled = records[:]
            rng.shuffle(shuffled)
            assert build_history(shuffled, "proj").order == baseline

    def test_boundary_parents_ignored(self):
        b = rec("b", commit_epoch=10, parents=(fake_hash("absent"),))
        history = build_history([b], "proj")
        assert history.order == (b.id,)

    def test_cycle_raises(self):
        a_id, b_id = fake_hash("a"), fake_hash("b")
        a = rec("a", commit_epoch=1, parents=(b_id,))
        b = rec("b", commit_epoch=2, parents=(a_id,))
        self_parent = rec("a", commit_epoch=1, parents=(a_id,))
        for records in ([a, b], [self_parent]):
            with pytest.raises(GraphError, match="cycle"):
                build_history(records, "proj")

    def test_duplicate_id_raises(self):
        a = rec("a", commit_epoch=1)
        twin = rec("a", commit_epoch=2, message="other")
        with pytest.raises(GraphError, match=f"duplicate commit id {a.id} in project proj"):
            build_history([a, rec("b"), twin], "proj")


class TestLinearize:
    def test_empty(self):
        assert linearize(build_history([], "proj")) == []

    def test_single(self):
        a = rec("a")
        assert linearize(build_history([a], "proj")) == [a]

    def test_merge_after_both_parents(self):
        a = rec("a", commit_epoch=100)
        b = rec("b", commit_epoch=200, parents=(a.id,))
        c = rec("c", commit_epoch=150, parents=(a.id,))
        m = rec("m", commit_epoch=300, parents=(b.id, c.id), message="Merge")
        records = [m, c, b, a]
        seq = linearize(build_history(records, "proj"))
        assert is_valid_topological_order(records, tuple(r.id for r in seq))
        positions = {r.id: i for i, r in enumerate(seq)}
        assert positions[m.id] > positions[b.id]
        assert positions[m.id] > positions[c.id]
