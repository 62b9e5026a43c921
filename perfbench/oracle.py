"""Ground truth for the benchmark, computed without any chronolint code.

Time kinds come from the planted manifest (``Commit.plant``). Parent-order
pairs come from a brute-force scan of every (commit, parent) edge. The
linear kind comes from this module's own replay of the smallest-(epoch, id)
topological order. Anomaly identity is ``(project, commit_id)`` throughout,
and so are the counts and percentages derived from it.

``answers`` returns one value per named check; ``verify`` compares the
program's parsed outputs against it.
"""

from __future__ import annotations

import calendar
import copy
import heapq
import re

import gen

KINDS = ("future", "out_of_order_linear", "out_of_order_parent",
         "suspicious_old", "zero_epoch")
PAIR_KINDS = ("out_of_order_linear", "out_of_order_parent")

_HG = re.compile(r"\bhg\b", re.IGNORECASE)
FINGERPRINT_RULES = {
    "git-svn-id": lambda m: "git-svn-id" in m,
    "Reviewed-by": lambda m: "Reviewed-by" in m,
    "Change-Id": lambda m: "Change-Id" in m,
    "rebase_source": lambda m: "rebase_source" in m,
    "hg": lambda m: _HG.search(m) is not None,
    "MOE|push_codebase": lambda m: "MOE" in m or "push_codebase" in m,
}


def topological_order(commits: list) -> list:
    """Kahn's algorithm taking the smallest (commit epoch, id) ready commit.

    Parents outside the project do not constrain the order.
    """
    by_id = {c.id: c for c in commits}
    waiting = {c.id: sum(1 for p in c.parents if p in by_id) for c in commits}
    children: dict[str, list] = {}
    for c in commits:
        for p in c.parents:
            if p in by_id:
                children.setdefault(p, []).append(c)
    heap = [(c.commit_time, c.id) for c in commits if waiting[c.id] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, cid = heapq.heappop(heap)
        order.append(by_id[cid])
        for child in children.get(cid, ()):
            waiting[child.id] -= 1
            if waiting[child.id] == 0:
                heapq.heappush(heap, (child.commit_time, child.id))
    if len(order) != len(commits):
        raise ValueError("generated history has a cycle")
    return order


def anomaly_sets(projects: dict) -> dict[str, set]:
    """Expected anomaly keys per kind for a whole corpus."""
    sets = {kind: set() for kind in KINDS}
    for name, commits in projects.items():
        by_id = {c.id: c for c in commits}
        for c in commits:
            if c.plant == "zero":
                sets["zero_epoch"].add((name, c.id))
            if c.plant in ("zero", "old"):
                sets["suspicious_old"].add((name, c.id))
            if c.plant == "future":
                sets["future"].add((name, c.id))
            for p in c.parents:
                parent = by_id.get(p)
                if parent is not None and parent.commit_time > c.commit_time:
                    sets["out_of_order_parent"].add((name, c.id, p))
        prev = None
        for c in topological_order(commits):
            if (prev is not None and c.commit_time < prev.commit_time
                    and "merge" not in c.text().lower()
                    and "merge" not in prev.text().lower()):
                sets["out_of_order_linear"].add((name, c.id, prev.id))
            prev = c
    return sets


def answers(projects: dict, policy: dict | None = None,
            dedupe_ids: bool = False) -> dict:
    """Expected value of every check, keyed by check name.

    With ``dedupe_ids`` the per-kind and fingerprint counts collapse a
    commit shared by several projects to one, which models the known fork
    miscount; the truth never sets it.
    """
    sets = anomaly_sets(projects)
    if policy is not None:
        return _filter_answers(projects, sets, policy)
    sizes = {name: len(commits) for name, commits in projects.items()}
    total = sum(sizes.values())
    out: dict = {"totals.commits": total, "totals.projects": len(projects)}
    for kind in KINDS:
        out["anomalies.%s" % kind] = sets[kind]
        flagged = {key[:2] for key in sets[kind]}
        count = len({cid for _, cid in flagged}) if dedupe_ids else len(flagged)
        affected = sum(sizes[p] for p in {p for p, _ in flagged})
        out["report.%s.count" % kind] = count
        out["report.%s.corpus_percent" % kind] = count / total if total else 0.0
        out["report.%s.affected_percent" % kind] = count / affected if affected else 0.0
    messages = {}
    for name, commits in projects.items():
        for c in commits:
            messages[(name, c.id)] = c.text()
    flagged_any = set().union(*({key[:2] for key in s} for s in sets.values()))
    if dedupe_ids:
        flagged_any = set({key[1]: key for key in sorted(flagged_any)}.values())
    for rule, matches in FINGERPRINT_RULES.items():
        out["fingerprints.%s" % rule] = sum(1 for k in flagged_any if matches(messages[k]))
    return out


def _filter_answers(projects: dict, sets: dict, policy: dict) -> dict:
    """Kept ids after drop-flagged, then minimum epoch, then date cutoff."""
    y, m, d = (int(x) for x in policy["cutoff"].split("-"))
    cutoff = calendar.timegm((y, m, d, 0, 0, 0))
    kinds = set(policy["drop_flagged_kinds"])
    flagged = {key[:2] for kind in kinds for key in sets[kind]}
    kept = set()
    for name, commits in projects.items():
        for c in commits:
            if ((name, c.id) not in flagged
                    and c.author_time >= policy["min_epoch_seconds"]
                    and c.author_time >= cutoff):
                kept.add((name, c.id))
    total = sum(len(v) for v in projects.values())
    return {"filter.kept_ids": kept, "filter.summary.kept": len(kept),
            "filter.summary.dropped": total - len(kept)}


def live_ingest_view(projects: dict) -> dict:
    """The corpus as live ingest is known to read it.

    A message is cut at its first 0x1E, and a commit whose message has a
    0x1F before any 0x1E is dropped. A repository with a date whose local
    time is before 1970 fails as a whole, because ``git log`` will not
    render it with ``%ai``.
    """
    out = {}
    for name, commits in projects.items():
        if any(gen.renders_before_epoch(c) for c in commits):
            continue
        kept = []
        for c in commits:
            head = c.message.split(b"\x1e", 1)[0]
            if b"\x1f" in head:
                continue
            d = copy.copy(c)
            d.message = head
            kept.append(d)
        out[name] = kept
    return out
