"""Commit-time anomaly detectors and tool-fingerprint scanning.

All inequalities are strict: equal timestamps are never anomalies. The
linear out-of-order detector replays the history's topological
linearization with a running previous-commit cursor; the parent-based
detector compares each commit against its parents directly and is the
stable ground truth (the linear variant depends on the linearization's
tie-breaking).
"""

from __future__ import annotations

import re
import time
from typing import Iterable, NamedTuple

from .graph import linearize
from .model import (
    AnomalyKind,
    AnomalyRecord,
    CommitRecord,
    ConfigError,
    RepoHistory,
    TIME_BASES,
    check_time_basis,
    time_getter,
)

# 1990-11-19T00:00:00Z: release of CVS 1.0, the oldest plausible VCS timestamp
CVS_RELEASE_EPOCH = 658972800
# A pattern free of these (and of |, which FingerprintRule.literals splits
# at) is a plain string to re: each character matches only itself.
_METACHARACTERS = frozenset(".^$*+?{}[]\\()")


class _Rule(NamedTuple):
    name: str
    pattern: str
    case_insensitive: bool = False


class FingerprintRule(_Rule):
    """A named message pattern betraying a migration or review tool: an
    immutable named tuple, checked when it is made."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> FingerprintRule:
        self = super().__new__(cls, *args, **kwargs)
        for key, kind, what in (("name", str, "a string"), ("pattern", str, "a string"),
                                ("case_insensitive", bool, "a boolean")):
            value = getattr(self, key)
            if not isinstance(value, kind):
                raise ConfigError(
                    f"fingerprint rule {self.name!r}: {key} must be {what}: {value!r}")
        return self

    def compile(self) -> re.Pattern[str]:
        try:
            return re.compile(self.pattern, re.IGNORECASE if self.case_insensitive else 0)
        except re.error as exc:
            raise ConfigError(f"fingerprint rule {self.name!r}: bad pattern: {exc}") from exc

    def literals(self) -> tuple[str, ...] | None:
        """The plain strings of a case-sensitive pattern with no regex
        metacharacter, split at its top-level |: a message holds one of them
        exactly where the pattern's search matches. None for any other rule."""
        if self.case_insensitive or not _METACHARACTERS.isdisjoint(self.pattern):
            return None
        return tuple(self.pattern.split("|"))


DEFAULT_FINGERPRINT_RULES: tuple[FingerprintRule, ...] = (
    FingerprintRule("git-svn-id", r"git-svn-id"),
    FingerprintRule("Reviewed-by", r"Reviewed-by"),
    FingerprintRule("Change-Id", r"Change-Id"),
    FingerprintRule("rebase_source", r"rebase_source"),
    # matches exactly what \bhg\b matches; a leading \b is tried at every position
    FingerprintRule("hg", r"hg\b(?<!\whg)", case_insensitive=True),
    FingerprintRule("MOE|push_codebase", r"MOE|push_codebase"),
)


class _Config(NamedTuple):
    old_threshold: int = CVS_RELEASE_EPOCH
    future_reference: int | None = None
    merge_exclusion: bool = True
    time_basis: str = "committer"


class DetectorConfig(_Config):
    """Detector thresholds (epoch seconds) and switches: an immutable named
    tuple, checked when it is made. A future_reference of None, the default,
    is the time the config is made."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> DetectorConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.future_reference is None:
            # read once per config, so one run judges every project against one instant
            self = self._replace(future_reference=int(time.time()))
        check_time_basis(self.time_basis)
        for key, kind, what in (("old_threshold", int, "an integer"),
                                ("future_reference", int, "an integer"),
                                ("merge_exclusion", bool, "a boolean")):
            value = getattr(self, key)
            if type(value) is not kind:  # a bool is no instant
                raise ConfigError(f"{key} must be {what}: {value!r}")
        if not self.old_threshold < self.future_reference:
            raise ConfigError("old threshold must precede the future reference")
        return self


_NEW_ANOMALY = tuple.__new__  # AnomalyRecord without its Python __new__


def _flag(
    kind: AnomalyKind, record: CommitRecord, project: str, basis: str,
    reference: int | None = None, counterpart_id: str | None = None,
    delta_seconds: int | None = None,
) -> AnomalyRecord:
    """An anomaly observed at the record's basis time, with that time's zone."""
    time_of, zone_of = TIME_BASES[basis]
    return _NEW_ANOMALY(AnomalyRecord, (
        kind, record.id, project, time_of(record), zone_of(record),
        reference, counterpart_id, delta_seconds,
    ))


def detect_old(history: RepoHistory, cfg: DetectorConfig) -> set[AnomalyRecord]:
    """Flag commits dated strictly before the suspicious-old threshold.

    Zero-epoch commits additionally get an explicit ZERO_EPOCH record.
    """
    threshold, basis = cfg.old_threshold, cfg.time_basis
    time_of = time_getter(basis)
    found: set[AnomalyRecord] = set()
    for r in history.commits.values():
        t = time_of(r)
        if t < threshold:
            found.add(_flag(AnomalyKind.SUSPICIOUS_OLD, r, history.project, basis,
                            threshold, None, t - threshold))
        if t == 0:
            found.add(_flag(AnomalyKind.ZERO_EPOCH, r, history.project, basis))
    return found


def detect_future(history: RepoHistory, cfg: DetectorConfig) -> set[AnomalyRecord]:
    """Flag commits dated strictly after the future reference instant."""
    reference, basis = cfg.future_reference, cfg.time_basis
    time_of = time_getter(basis)
    found: set[AnomalyRecord] = set()
    for r in history.commits.values():
        t = time_of(r)
        if t > reference:
            found.add(_flag(AnomalyKind.FUTURE, r, history.project, basis,
                            reference, None, t - reference))
    return found


def is_merge_related(message: str) -> bool:
    """True iff the lowercased message contains the substring "merge"."""
    return "merge" in message.lower()


def detect_out_of_order_linear(
    history: RepoHistory, cfg: DetectorConfig
) -> set[AnomalyRecord]:
    """Flag commits dated before their predecessor in the linearization.

    With merge exclusion on, a comparison is suppressed when either side's
    message is merge-related; the previous-commit cursor still advances
    after every comparison.
    """
    basis = cfg.time_basis
    time_of = time_getter(basis)
    found: set[AnomalyRecord] = set()
    last: CommitRecord | None = None
    last_t = 0
    for r in linearize(history):
        t = time_of(r)
        if last is not None and t < last_t and not (
            cfg.merge_exclusion
            and (is_merge_related(r.message) or is_merge_related(last.message))
        ):
            found.add(_flag(AnomalyKind.OUT_OF_ORDER_LINEAR, r, history.project, basis,
                            last_t, last.id, t - last_t))
        last, last_t = r, t
    return found


def detect_out_of_order_parent(history: RepoHistory, cfg: DetectorConfig) -> set[AnomalyRecord]:
    """Flag commits with at least one parent strictly newer than themselves.

    One record per offending (commit, parent) pair; boundary parents absent
    from the history cannot be compared and are skipped.
    """
    basis = cfg.time_basis
    time_of = time_getter(basis)
    commits = history.commits
    found: set[AnomalyRecord] = set()
    for r in commits.values():
        t = time_of(r)
        for pid in r.parents:
            parent = commits.get(pid)
            if parent is None:
                continue
            pt = time_of(parent)
            if pt > t:
                found.add(_flag(AnomalyKind.OUT_OF_ORDER_PARENT, r, history.project, basis,
                                pt, pid, t - pt))
    return found


def sanitize_message(message: str) -> str:
    """Replace undecodable byte escapes for pattern matching and reporting.

    An ASCII message holds no escape and comes back unchanged.
    """
    if message.isascii():
        return message
    return message.encode("utf-8", errors="surrogateescape").decode(
        "utf-8", errors="replace"
    )


def scan_fingerprints(
    messages: Iterable[str],
    rules: Iterable[FingerprintRule] = DEFAULT_FINGERPRINT_RULES,
) -> dict[str, int]:
    """Count messages that match each rule: rule name -> count.

    Messages are matched as given, so callers pass them through
    sanitize_message first. A message may match several rules. A rule whose
    pattern is plain strings (FingerprintRule.literals) is tested with in,
    which gives the counts of its regex search in less time; any other
    rule is searched with its regex. A lone str raises TypeError, as it
    would be read as its characters.
    """
    if isinstance(messages, str):
        raise TypeError(f"messages must be a collection of str, not a str: {messages!r}")
    rules = list(rules)
    names = [rule.name for rule in rules]
    duplicates = [name for name in names if names.count(name) > 1]
    if duplicates:
        raise ConfigError(f"duplicate fingerprint rule name: {duplicates[0]!r}")
    compiled = [(rule.name, rule.compile(), rule.literals()) for rule in rules]
    messages = list(messages)
    counts = {}
    for name, pattern, literals in compiled:
        if literals is None:
            counts[name] = sum(1 for message in messages if pattern.search(message))
        else:
            left = messages  # those that hold none of the literals so far
            for literal in literals:
                left = [message for message in left if literal not in message]
            counts[name] = len(messages) - len(left)
    return counts


def run_all_detectors(
    history: RepoHistory, cfg: DetectorConfig
) -> set[AnomalyRecord]:
    """Run every detector over one history and union the results."""
    return (
        detect_old(history, cfg)
        | detect_future(history, cfg)
        | detect_out_of_order_linear(history, cfg)
        | detect_out_of_order_parent(history, cfg)
    )
