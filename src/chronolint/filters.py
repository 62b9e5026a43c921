"""Mitigation filters: composable, pure transforms over commit record sets.

Boundary conventions (the underlying guidelines leave them open, so they
are fixed here for reproducibility): time_window is inclusive on both
ends, date_cutoff drops strictly before/after the cutoff, and a
coalescence gap strictly greater than the window starts a new changeset.
Filters never mutate timestamps; repairing bad dates is out of scope.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .model import (
    AnomalyKind,
    AnomalyRecord,
    Changeset,
    ConsistencyError,
    CommitRecord,
    time_getter,
)


def drop_pre_epoch(
    records: Iterable[CommitRecord],
    min_epoch_seconds: int = 1,
    basis: str = "author",
) -> tuple[list[CommitRecord], list[str]]:
    """Drop records whose chosen-basis time is below min_epoch_seconds."""
    time_of = time_getter(basis)
    kept, dropped = [], []
    for r in records:
        if time_of(r) < min_epoch_seconds:
            dropped.append(r.id)
        else:
            kept.append(r)
    return kept, dropped


def date_cutoff(
    records: Iterable[CommitRecord],
    cutoff: int,
    mode: str = "before",
    basis: str = "author",
) -> tuple[list[CommitRecord], list[str]]:
    """Drop records strictly before (or strictly after) the cutoff."""
    if mode not in ("before", "after"):
        raise ValueError(f"unknown cutoff mode: {mode!r}")
    time_of = time_getter(basis)
    kept, dropped = [], []
    for r in records:
        t = time_of(r)
        out = t < cutoff if mode == "before" else t > cutoff
        if out:
            dropped.append(r.id)
        else:
            kept.append(r)
    return kept, dropped


def time_window(
    records: Iterable[CommitRecord],
    start: int,
    end: int,
    basis: str = "author",
) -> list[CommitRecord]:
    """Keep records with start <= t <= end (inclusive both ends)."""
    if start > end:
        raise ValueError("window start is after window end")
    time_of = time_getter(basis)
    return [r for r in records if start <= time_of(r) <= end]


def drop_projects(
    corpus: Mapping[str, list[CommitRecord]], blacklist: Iterable[str]
) -> dict[str, list[CommitRecord]]:
    """Remove blacklisted projects from the corpus entirely. A lone str
    raises TypeError, as it would be read as its characters."""
    if isinstance(blacklist, str):
        raise TypeError(f"blacklist must be a collection of str, not a str: {blacklist!r}")
    blacklist = set(blacklist)
    return {p: recs for p, recs in corpus.items() if p not in blacklist}


def drop_flagged(
    records: Iterable[CommitRecord],
    anomalies: Iterable[AnomalyRecord],
    kinds: Iterable[AnomalyKind | str],
) -> tuple[list[CommitRecord], list[str]]:
    """Drop exactly the records flagged with one of the given kinds, each
    an AnomalyKind or its value; an unknown value raises ValueError.

    A flag names a commit within its project, so a commit shared by several
    projects is dropped only from those it was flagged in.
    """
    records = list(records)
    kinds = {AnomalyKind(k) for k in kinds}
    known: dict[str, set[str]] = {}
    for r in records:
        known.setdefault(r.project, set()).add(r.id)
    flagged: dict[str, set[str]] = {}
    for a in anomalies:
        if a.commit_id not in known.get(a.project, ()):
            raise ConsistencyError(
                f"anomaly references unknown commit {a.commit_id} in project {a.project}"
            )
        if a.kind in kinds:
            flagged.setdefault(a.project, set()).add(a.commit_id)
    kept = [r for r in records if r.id not in flagged.get(r.project, ())]
    dropped = [r.id for r in records if r.id in flagged.get(r.project, ())]
    return kept, dropped


def coalesce(
    records: Iterable[CommitRecord],
    window_seconds: int = 180,
    basis: str = "author",
) -> list[Changeset]:
    """Group commits by one author within a small time window into changesets.

    Records are sorted by (author_email, basis time, id); a new changeset
    starts whenever the author changes or the gap to the previous record
    exceeds window_seconds.
    """
    if window_seconds <= 0:
        raise ValueError("coalesce window must be positive")
    time_of = time_getter(basis)
    ordered = sorted(records, key=lambda r: (r.author_email, time_of(r), r.id))
    changesets: list[Changeset] = []
    group: list[CommitRecord] = []

    def flush() -> None:
        if not group:
            return
        files = frozenset().union(*(r.files for r in group if r.files is not None))
        changesets.append(
            Changeset(
                member_ids=tuple(r.id for r in group),
                author_email=group[0].author_email,
                start_time=time_of(group[0]),
                end_time=time_of(group[-1]),
                files=files,
            )
        )
        group.clear()

    for r in ordered:
        if group:
            prev = group[-1]
            gap = time_of(r) - time_of(prev)
            if r.author_email != prev.author_email or gap > window_seconds:
                flush()
        group.append(r)
    flush()
    return changesets
