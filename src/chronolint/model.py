"""Core domain types shared by all chronolint modules.

The value types here are named tuples, immutable after construction, and
mutable results elsewhere build on Fields; a forked worker gets its own copy
of each, and its results come back pickled. Structural validity of commit
records is checked outside the constructors: hash shapes and time bounds in
:mod:`chronolint.ingest`, duplicate ids and parent cycles in
:mod:`chronolint.graph`.
"""

from __future__ import annotations

import enum
import operator
import re
from typing import Callable, NamedTuple

# the one definition of a commit id: a lowercase 40-hex-char SHA-1
COMMIT_ID_RE = re.compile("[0-9a-f]{40}")


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


def is_commit_hash(value: object) -> bool:
    """True iff value is a str holding a lowercase 40-hex-char commit id."""
    return type(value) is str and COMMIT_ID_RE.fullmatch(value) is not None


class CommitRecord(NamedTuple):
    """One commit's metadata, as mined from a repository or an export.

    An immutable named tuple in JSONL field order, ``files`` last. Times are
    epoch seconds; zones are minutes east of UTC, kept for display only.
    """

    id: str
    parents: tuple[str, ...]
    author_time: int
    author_tz: int
    commit_time: int
    commit_tz: int
    author_name: str
    author_email: str
    message: str
    project: str
    files: frozenset[str] | None = None


# each time basis, one of a commit's two dates: the getters of its time and zone
TIME_BASES = {
    "author": (operator.attrgetter("author_time"), operator.attrgetter("author_tz")),
    "committer": (operator.attrgetter("commit_time"), operator.attrgetter("commit_tz")),
}


def time_getter(basis: str) -> Callable[[CommitRecord], int]:
    """The getter of a record's author or committer time, chosen once per
    pass, so that the loop over records reads each time in C."""
    try:
        return TIME_BASES[basis][0]
    except KeyError:
        raise ValueError(f"unknown time basis: {basis!r}") from None


def check_time_basis(basis: object) -> None:
    """Raise ConfigError unless basis names one of TIME_BASES. A list or an
    object read from JSON is unhashable, so the type is checked first."""
    if type(basis) is not str or basis not in TIME_BASES:
        raise ConfigError(f"unknown time basis: {basis!r}")


class RepoHistory:
    """A validated commit DAG with a deterministic topological order; its
    length is its number of commits."""

    def __init__(self, commits: dict[str, CommitRecord], order: tuple[str, ...],
                 project: str) -> None:
        self.commits = commits
        self.order = order
        self.project = project

    def __len__(self) -> int:
        return len(self.commits)


class AnomalyKind(enum.Enum):
    SUSPICIOUS_OLD = "suspicious_old"
    ZERO_EPOCH = "zero_epoch"
    FUTURE = "future"
    OUT_OF_ORDER_LINEAR = "out_of_order_linear"
    OUT_OF_ORDER_PARENT = "out_of_order_parent"

    # hashed in C: each member is a singleton, and Enum equality is identity
    __hash__ = object.__hash__


class AnomalyRecord(NamedTuple):
    """One flagged commit: the kind of anomaly and its evidence.

    An immutable named tuple, as ``CommitRecord`` is.
    """

    kind: AnomalyKind
    commit_id: str
    project: str
    observed: int
    observed_tz: int = 0
    reference: int | None = None
    counterpart_id: str | None = None
    delta_seconds: int | None = None


class _Policy(NamedTuple):
    min_epoch_seconds: int | None = 1
    cutoff: int | None = None
    cutoff_mode: str = "before"
    window: tuple[int, int] | None = None
    project_blacklist: frozenset[str] = frozenset()
    drop_flagged_kinds: frozenset[AnomalyKind] = frozenset()
    time_basis: str = "author"


class FilterPolicy(_Policy):
    """Configuration for the mitigation filters: an immutable named tuple,
    checked when it is made.

    time_basis selects which of the two commit dates the cutoff, window and
    pre-epoch filters read; author date is the default because rebases and
    cherry-picks rewrite the committer date. The detectors, and so
    drop_flagged_kinds, read DetectorConfig.time_basis instead (--time-basis,
    default committer). min_epoch_seconds and cutoff are ints or None. The
    two collections may be given as a list, tuple, set or frozenset, and are
    kept as frozensets: project_blacklist of strings, drop_flagged_kinds of
    AnomalyKind, each given by member or by name.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> FilterPolicy:
        self = super().__new__(cls, *args, **kwargs)
        for key in ("min_epoch_seconds", "cutoff"):
            value = getattr(self, key)
            if value is not None and type(value) is not int:
                raise ConfigError(f"policy {key} must be an integer: {value!r}")
        for key, item in (("project_blacklist", str), ("drop_flagged_kinds", (str, AnomalyKind))):
            value = getattr(self, key)
            if not isinstance(value, (list, tuple, set, frozenset)) or not all(
                    isinstance(v, item) for v in value):
                raise ConfigError(f"policy {key} must be a list of strings: {value!r}")
        try:
            kinds = frozenset(map(AnomalyKind, self.drop_flagged_kinds))
        except ValueError as exc:
            raise ConfigError(f"policy drop_flagged_kinds: {exc}") from exc
        self = self._replace(project_blacklist=frozenset(self.project_blacklist),
                             drop_flagged_kinds=kinds)
        check_time_basis(self.time_basis)
        if self.cutoff_mode not in ("before", "after"):
            raise ConfigError(f"unknown cutoff mode: {self.cutoff_mode!r}")
        window = self.window
        if window is not None:
            if type(window) is not tuple or len(window) != 2 or not all(
                    type(t) is int for t in window):
                raise ConfigError(f"window must be a pair of ints: {window!r}")
            if window[0] > window[1]:
                raise ConfigError("window start is after window end")
        return self


class Changeset(NamedTuple):
    """Commits by one author coalesced into a single logical change."""

    member_ids: tuple[str, ...]
    author_email: str
    start_time: int
    end_time: int
    files: frozenset[str] = frozenset()


class Fields:
    """A mutable result whose fields are its class's FIELDS, an ordered map
    from each field's name to the factory of its default, so that a new field
    is one FIELDS entry. It is built from its fields in that order, by
    position or by keyword, each field not given getting a fresh default. It
    compares and prints by vars(), which holds its fields in FIELDS order,
    and pickles as any plain object does."""

    FIELDS: dict[str, Callable[[], object]] = {}

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields, name = self.FIELDS, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, not {len(args)}")
        given = dict(zip(fields, args))
        for field in kwargs:
            if field not in fields:
                raise TypeError(f"{name} has no field {field!r}")
            if field in given:
                raise TypeError(f"{name} got field {field!r} twice")
        given.update(kwargs)
        for field, default in fields.items():
            setattr(self, field, given[field] if field in given else default())

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"
