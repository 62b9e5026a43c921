"""chronolint: detect, quantify, and filter temporal anomalies in Git history."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    AnomalyKind,
    AnomalyRecord,
    Changeset,
    ChronolintError,
    CommitRecord,
    FilterPolicy,
    RepoHistory,
)
