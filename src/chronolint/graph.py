"""Commit DAG construction and deterministic topological linearization."""

from __future__ import annotations

import heapq
from typing import Iterable

from .model import CommitRecord, GraphError, RepoHistory


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
