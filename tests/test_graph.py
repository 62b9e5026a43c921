import random

import pytest

from chronolint.graph import TimeFileEdge, build_history, linearize, time_file_graph
from chronolint.model import GraphError
from helpers import (
    fake_hash,
    is_valid_topological_order,
    pairwise_time_file_edges,
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


class TestTimeFileGraph:
    def test_shared_file_edge(self):
        c1 = rec("c1", commit_epoch=1, files=frozenset({"a"}))
        c2 = rec("c2", commit_epoch=2, files=frozenset({"a", "b"}))
        assert time_file_graph([c1, c2]) == {TimeFileEdge(c1.id, c2.id)}

    def test_disjoint_files_no_edge(self):
        c1 = rec("c1", commit_epoch=1, files=frozenset({"a"}))
        c2 = rec("c2", commit_epoch=2, files=frozenset({"b"}))
        assert time_file_graph([c1, c2]) == set()

    def test_equal_times_no_edge(self):
        c1 = rec("c1", commit_epoch=5, files=frozenset({"a"}))
        c2 = rec("c2", commit_epoch=5, files=frozenset({"a"}))
        assert time_file_graph([c1, c2]) == set()

    def test_missing_files_precondition(self):
        c1 = rec("c1", commit_epoch=1, files=frozenset({"a"}))
        c2 = rec("c2", commit_epoch=2)
        with pytest.raises(ValueError, match=c2.id):
            time_file_graph([c1, c2])

    def test_matches_pairwise_oracle(self):
        rng = random.Random(4321)
        for _ in range(20):
            records = [
                rec(
                    ("tf", i, rng.random()),
                    commit_epoch=rng.randint(0, 10) * 100,
                    files=frozenset(rng.sample("abcdef", rng.randint(1, 3))),
                )
                for i in range(20)
            ]
            edges = {(e.from_id, e.to_id) for e in time_file_graph(records)}
            assert edges == pairwise_time_file_edges(records)

    def test_antisymmetry(self):
        rng = random.Random(7)
        records = [
            rec(("anti", i), commit_epoch=rng.randint(0, 5) * 10,
                files=frozenset({"shared"}))
            for i in range(15)
        ]
        edges = {(e.from_id, e.to_id) for e in time_file_graph(records)}
        assert not any((b, a) in edges for a, b in edges)
