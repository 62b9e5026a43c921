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
    # parents in the history not yet emitted, kept only while there are any;
    # each commit's heap entry is listed under every such parent, so a commit
    # with no child in the history gets no list
    waiting: dict[str, int] = {}
    children: dict[str, list[tuple[int, str]]] = {}
    ready: list[tuple[int, str]] = []
    for cid, r in commits.items():
        waits = 0
        for p in r.parents:
            if p in commits:
                waits += 1
                if p in children:
                    children[p].append((r.commit_time, cid))
                else:
                    children[p] = [(r.commit_time, cid)]
        if waits:
            waiting[cid] = waits
        else:
            ready.append((r.commit_time, cid))

    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        cid = heapq.heappop(ready)[1]
        order.append(cid)
        for entry in children.get(cid, ()):
            child = entry[1]
            if waiting[child] == 1:
                del waiting[child]
                heapq.heappush(ready, entry)
            else:
                waiting[child] -= 1
    if waiting:  # exactly the commits never emitted
        raise GraphError(f"cycle detected in commit graph involving {min(waiting)}")
    return RepoHistory(commits=commits, order=tuple(order), project=project)


def linearize(history: RepoHistory) -> list[CommitRecord]:
    """Return commits in the history's topological order."""
    return list(map(history.commits.__getitem__, history.order))


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
