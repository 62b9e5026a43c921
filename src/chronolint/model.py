"""Core domain types shared by all chronolint modules.

All types here are immutable after construction and safe to share between
worker threads. Structural validity of commit records is checked outside
the constructors: hash shapes in :mod:`chronolint.ingest`, duplicate ids
and parent cycles in :mod:`chronolint.graph`.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

MAX_EPOCH_ABS = 2**62
MAX_OFFSET_MINUTES = 1440

HASH_LENGTH = 40
HASH_ALPHABET = frozenset("0123456789abcdef")


class ChronolintError(Exception):
    """Base class for all chronolint errors."""


class GitEnvironmentError(ChronolintError):
    """The git executable could not be found or run."""


class RepositoryError(ChronolintError):
    """A git invocation against a repository failed."""


class GraphError(ChronolintError):
    """The commit graph is structurally invalid (e.g. contains a cycle)."""


class ConfigError(ChronolintError):
    """Invalid configuration (bad fingerprint pattern, bad policy, ...)."""


class ConsistencyError(ChronolintError):
    """Inputs that must describe the same universe disagree."""


def is_commit_hash(value: str) -> bool:
    """True iff value is a lowercase 40-hex-char commit id."""
    return len(value) == HASH_LENGTH and all(c in HASH_ALPHABET for c in value)


@functools.total_ordering
@dataclass(frozen=True, eq=False)
class Timestamp:
    """An instant: seconds since the Unix epoch plus a recorded UTC offset.

    The offset is display metadata only; ordering and equality are
    determined solely by epoch_seconds.
    """

    epoch_seconds: int
    utc_offset_minutes: int = 0

    def __post_init__(self) -> None:
        if not -MAX_EPOCH_ABS <= self.epoch_seconds < MAX_EPOCH_ABS:
            raise ValueError(f"epoch_seconds out of sanity bounds: {self.epoch_seconds}")
        if not -MAX_OFFSET_MINUTES <= self.utc_offset_minutes <= MAX_OFFSET_MINUTES:
            raise ValueError(f"utc_offset_minutes out of range: {self.utc_offset_minutes}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Timestamp):
            return NotImplemented
        return self.epoch_seconds == other.epoch_seconds

    def __lt__(self, other: "Timestamp") -> bool:
        if not isinstance(other, Timestamp):
            return NotImplemented
        return self.epoch_seconds < other.epoch_seconds

    def __hash__(self) -> int:
        return hash(self.epoch_seconds)

    @property
    def offset_text(self) -> str:
        """Render the offset as a git-style ±HHMM string."""
        sign = "-" if self.utc_offset_minutes < 0 else "+"
        mag = abs(self.utc_offset_minutes)
        return f"{sign}{mag // 60:02d}{mag % 60:02d}"


@dataclass(frozen=True)
class CommitRecord:
    """One commit's metadata, as mined from a repository or an export."""

    id: str
    parents: tuple[str, ...]
    author_time: Timestamp
    commit_time: Timestamp
    author_name: str
    author_email: str
    message: str
    project: str
    files: frozenset[str] | None = None


@dataclass(frozen=True)
class RepoHistory:
    """A validated commit DAG with a deterministic topological order."""

    commits: dict[str, CommitRecord]
    order: tuple[str, ...]
    project: str

    def __len__(self) -> int:
        return len(self.commits)


class AnomalyKind(enum.Enum):
    SUSPICIOUS_OLD = "suspicious_old"
    ZERO_EPOCH = "zero_epoch"
    FUTURE = "future"
    OUT_OF_ORDER_LINEAR = "out_of_order_linear"
    OUT_OF_ORDER_PARENT = "out_of_order_parent"


@dataclass(frozen=True)
class AnomalyRecord:
    """One flagged commit: the kind of anomaly and its evidence."""

    kind: AnomalyKind
    commit_id: str
    project: str
    observed: Timestamp
    reference: Timestamp | None = None
    counterpart_id: str | None = None
    delta_seconds: int | None = None


@dataclass(frozen=True)
class FilterPolicy:
    """Configuration for the mitigation filters.

    time_basis selects which of the two commit dates every filter (and the
    parent-order detector, when told to) reads; author date is the default
    because rebases and cherry-picks rewrite the committer date.
    """

    min_epoch_seconds: int | None = 1
    cutoff: Timestamp | None = None
    cutoff_mode: str = "before"
    window: tuple[Timestamp, Timestamp] | None = None
    project_blacklist: frozenset[str] = frozenset()
    drop_flagged_kinds: frozenset[AnomalyKind] = frozenset()
    time_basis: str = "author"

    def __post_init__(self) -> None:
        if self.time_basis not in ("author", "committer"):
            raise ConfigError(f"unknown time basis: {self.time_basis!r}")
        if self.cutoff_mode not in ("before", "after"):
            raise ConfigError(f"unknown cutoff mode: {self.cutoff_mode!r}")
        if self.window is not None and self.window[0] > self.window[1]:
            raise ConfigError("window start is after window end")


@dataclass(frozen=True)
class Changeset:
    """Commits by one author coalesced into a single logical change."""

    member_ids: tuple[str, ...]
    author_email: str
    start_time: Timestamp
    end_time: Timestamp
    files: frozenset[str] = frozenset()
