"""Commit DAG construction and deterministic topological linearization.

Also builds the time-file graph: edges between commits ordered strictly in
time that touch at least one file in common.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from .model import CommitRecord, GraphError, RepoHistory


@dataclass(frozen=True)
class TimeFileEdge:
    from_id: str
    to_id: str


def build_history(records: Iterable[CommitRecord], project: str) -> RepoHistory:
    """Build a RepoHistory with a deterministic topological order.

    Among nodes whose parents have all been emitted, the smallest
    (commit epoch, id) pair goes next, so the order is identical across
    runs and input permutations. Parents absent from the record set
    (boundary parents) cannot constrain ordering and are ignored. An id
    that appears twice raises GraphError rather than collapsing silently.
    """
    commits: dict[str, CommitRecord] = {}
    for r in records:
        if r.id in commits:
            raise GraphError(f"duplicate commit id {r.id} in project {project}")
        commits[r.id] = r
    indegree = {cid: 0 for cid in commits}
    children: dict[str, list[str]] = {cid: [] for cid in commits}
    for r in commits.values():
        for p in r.parents:
            if p in commits:
                indegree[r.id] += 1
                children[p].append(r.id)

    ready = [(commits[cid].commit_time, cid) for cid, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        _, cid = heapq.heappop(ready)
        order.append(cid)
        for child in children[cid]:
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, (commits[child].commit_time, child))
    if len(order) != len(commits):
        stuck = min(cid for cid, deg in indegree.items() if deg > 0)
        raise GraphError(f"cycle detected in commit graph involving {stuck}")
    return RepoHistory(commits=commits, order=tuple(order), project=project)


def linearize(history: RepoHistory) -> list[CommitRecord]:
    """Return commits in the history's topological order."""
    return [history.commits[cid] for cid in history.order]


def time_file_graph(records: Iterable[CommitRecord]) -> set[TimeFileEdge]:
    """Edges (c1 -> c2) where c1 is strictly earlier and shares a file with c2.

    Every record must carry a changed-file set; strictness means commits
    with equal timestamps are never connected, so the result is a DAG.
    """
    records = list(records)
    missing = sorted(r.id for r in records if r.files is None)
    if missing:
        raise ValueError(f"records lack changed-file lists: {', '.join(missing)}")

    by_file: dict[str, list[CommitRecord]] = {}
    for r in records:
        for f in r.files or ():
            by_file.setdefault(f, []).append(r)

    edges: set[TimeFileEdge] = set()
    for members in by_file.values():
        members.sort(key=lambda r: (r.commit_time, r.id))
        for i, earlier in enumerate(members):
            for later in members[i + 1:]:
                if earlier.commit_time < later.commit_time:
                    edges.add(TimeFileEdge(from_id=earlier.id, to_id=later.id))
    return edges
