"""Produce validated CommitRecord sets from a live repository or an export.

Live ingestion shells out to the system ``git`` executable rather than
parsing object storage; the fixed format string captures both commit dates
with their offsets bit-exactly. Record/field delimiters are the ASCII
record/unit separators (0x1E / 0x1F) so that arbitrary message bytes,
including newlines, survive.

The portable export format is JSONL: one flat object per line with fields
``id``, ``parents``, ``author_time``, ``author_tz``, ``commit_time``,
``commit_tz``, ``author_name``, ``author_email``, ``message``, ``files``
(optional), ``project``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
from dataclasses import dataclass, field
from typing import IO, Iterable

from .model import (
    CommitRecord,
    GitEnvironmentError,
    MAX_OFFSET_MINUTES,
    RepositoryError,
    Timestamp,
    is_commit_hash,
)

GIT_ENV_VAR = "CHRONOLINT_GIT"

# %H hash, %P parents, %at/%ai author epoch+iso, %ct/%ci committer epoch+iso,
# %an name, %ae email, %B raw body.
LOG_FORMAT = "%H%x1f%P%x1f%at %ai%x1f%ct %ci%x1f%an%x1f%ae%x1f%B%x1e"

_RECORD_SEP = b"\x1e"
_FIELD_SEP = b"\x1f"
_RECORD_START = re.compile(rb"[0-9a-f]{40}\x1f")
_OFFSET_RE = re.compile(r"^([+-])(\d{2})(\d{2})$")

_EXPORT_FIELD_ORDER = (
    "id",
    "parents",
    "author_time",
    "author_tz",
    "commit_time",
    "commit_tz",
    "author_name",
    "author_email",
    "message",
    "files",
    "project",
)


@dataclass
class IngestReport:
    """Outcome of one ingestion pass."""

    records_parsed: int = 0
    records_rejected: int = 0
    rejects: list[tuple[str, str]] = field(default_factory=list)

    def reject(self, position: str, reason: str) -> None:
        self.records_rejected += 1
        self.rejects.append((position, reason))


def parse_offset(text: str) -> int:
    """Parse a ±HHMM offset string into minutes east of UTC.

    Raises ValueError for malformed text or offsets beyond ±24 hours.
    """
    m = _OFFSET_RE.match(text)
    if m is None:
        raise ValueError(f"malformed UTC offset: {text!r}")
    sign, hh, mm = m.group(1), int(m.group(2)), int(m.group(3))
    minutes = hh * 60 + mm
    if mm > 59 or minutes > MAX_OFFSET_MINUTES:
        raise ValueError(f"UTC offset out of range: {text!r}")
    return -minutes if sign == "-" else minutes


def normalize_time(raw_seconds: int, raw_offset: str) -> Timestamp:
    """Build a Timestamp from a raw epoch and a ±HHMM offset string.

    The epoch is kept as-is (git epochs are already UTC-anchored); only the
    offset text is parsed.
    """
    return Timestamp(epoch_seconds=raw_seconds, utc_offset_minutes=parse_offset(raw_offset))


def _record_from_object(obj: dict, default_project: str) -> CommitRecord:
    for name in ("id", "parents", "author_time", "author_tz", "commit_time",
                 "commit_tz", "author_name", "author_email", "message"):
        if name not in obj:
            raise ValueError(f"missing {name}")
    commit_id = obj["id"]
    if not isinstance(commit_id, str) or not is_commit_hash(commit_id):
        raise ValueError("malformed id")
    parents = obj["parents"]
    if not isinstance(parents, list) or not all(isinstance(p, str) for p in parents):
        raise ValueError("malformed parents")
    for name in ("author_time", "commit_time"):
        if not isinstance(obj[name], int) or isinstance(obj[name], bool):
            raise ValueError(f"non-integer {name}")
    for name in ("author_tz", "commit_tz", "author_name", "author_email", "message"):
        if not isinstance(obj[name], str):
            raise ValueError(f"non-string {name}")
    files = obj.get("files")
    if files is not None and (
        not isinstance(files, list) or not all(isinstance(f, str) for f in files)
    ):
        raise ValueError("malformed files")
    project = obj.get("project", default_project)
    if not isinstance(project, str):
        raise ValueError("non-string project")
    return CommitRecord(
        id=commit_id,
        parents=tuple(parents),
        author_time=normalize_time(obj["author_time"], obj["author_tz"]),
        commit_time=normalize_time(obj["commit_time"], obj["commit_tz"]),
        author_name=obj["author_name"],
        author_email=obj["author_email"],
        message=obj["message"],
        project=project,
        files=frozenset(files) if files is not None else None,
    )


def parse_export_stream(
    stream: bytes | IO[bytes], project: str = ""
) -> tuple[list[CommitRecord], IngestReport]:
    """Parse a JSONL export into CommitRecords.

    Malformed lines are rejected with positional diagnostics and never
    abort the stream. An empty stream yields an empty set.
    """
    data = stream if isinstance(stream, bytes) else stream.read()
    records: list[CommitRecord] = []
    report = IngestReport()
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        if not raw.strip():
            continue
        position = f"line {lineno}"
        try:
            text = raw.decode("utf-8", errors="strict")
        except UnicodeDecodeError:
            report.reject(position, "undecodable bytes")
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            report.reject(position, f"invalid JSON: {exc.msg}")
            continue
        if not isinstance(obj, dict):
            report.reject(position, "record is not an object")
            continue
        try:
            records.append(_record_from_object(obj, project))
        except (ValueError, OverflowError) as exc:
            report.reject(position, str(exc))
            continue
        report.records_parsed += 1
    return records, report


def record_to_object(record: CommitRecord) -> dict:
    """Render a CommitRecord as a flat export object with canonical key order."""
    obj = {
        "id": record.id,
        "parents": list(record.parents),
        "author_time": record.author_time.epoch_seconds,
        "author_tz": record.author_time.offset_text,
        "commit_time": record.commit_time.epoch_seconds,
        "commit_tz": record.commit_time.offset_text,
        "author_name": record.author_name,
        "author_email": record.author_email,
        "message": record.message,
    }
    if record.files is not None:
        obj["files"] = sorted(record.files)
    obj["project"] = record.project
    return obj


def emit_export_stream(records: Iterable[CommitRecord]) -> bytes:
    """Serialize records to canonical JSONL (stable key order, LF endings)."""
    lines = [
        json.dumps(record_to_object(r), ensure_ascii=True, separators=(",", ":"))
        for r in records
    ]
    return ("\n".join(lines) + "\n" if lines else "").encode("ascii")


def git_executable() -> str:
    return os.environ.get(GIT_ENV_VAR, "git")


def _run_git(path: str, args: list[str]) -> bytes:
    cmd = [git_executable(), "-C", path, *args]
    try:
        proc = subprocess.run(cmd, capture_output=True)
    except FileNotFoundError as exc:
        raise GitEnvironmentError(f"git executable not found: {cmd[0]}") from exc
    if proc.returncode != 0:
        stderr = proc.stderr.decode("utf-8", errors="replace").strip()
        raise RepositoryError(f"git {args[0]} failed in {path}: {stderr}")
    return proc.stdout


def _parse_log_record(
    chunk: bytes, project: str, report: IngestReport
) -> CommitRecord | None:
    fields = chunk.split(_FIELD_SEP)
    if len(fields) != 7:
        report.reject(fields[0][:40].decode("ascii", "replace"), "wrong field count")
        return None
    def text(b: bytes) -> str:
        # surrogateescape keeps arbitrary message bytes round-trippable
        return b.decode("utf-8", errors="surrogateescape")
    commit_id = text(fields[0])
    try:
        author_epoch_s, author_iso = text(fields[2]).split(" ", 1)
        commit_epoch_s, commit_iso = text(fields[3]).split(" ", 1)
        author_time = normalize_time(int(author_epoch_s), author_iso.rsplit(" ", 1)[-1])
        commit_time = normalize_time(int(commit_epoch_s), commit_iso.rsplit(" ", 1)[-1])
    except ValueError as exc:
        report.reject(commit_id, f"bad timestamp: {exc}")
        return None
    parents = tuple(p for p in text(fields[1]).split(" ") if p)
    return CommitRecord(
        id=commit_id,
        parents=parents,
        author_time=author_time,
        commit_time=commit_time,
        author_name=text(fields[4]),
        author_email=text(fields[5]),
        message=text(fields[6]),
        project=project,
    )


def read_repository(
    path: str,
    project: str,
    with_files: bool = False,
    first_parent: bool = False,
    branches: str | None = None,
) -> tuple[list[CommitRecord], IngestReport]:
    """Read commit metadata from a git repository on disk.

    By default every ref is walked (``--all``); first_parent/branches narrow
    the walk for studies that want main-branch-only history. with_files adds
    ``--name-only`` and populates each record's changed-file set.
    """
    args = ["log"]
    if branches is not None:
        args.append(f"--branches={branches}")
    else:
        args.append("--all")
    if first_parent:
        args.append("--first-parent")
    args.append(f"--pretty=format:{LOG_FORMAT}")
    if with_files:
        args.append("--name-only")
    out = _run_git(path, args)

    report = IngestReport()
    records: list[CommitRecord] = []
    trailing_files: list[list[str]] = []  # file lines following each record
    chunks = out.split(_RECORD_SEP)
    for i, chunk in enumerate(chunks):
        if i > 0:
            # Text between the previous record separator and this record's
            # hash is the previous commit's --name-only file list.
            m = _RECORD_START.search(chunk)
            head, chunk = (chunk[: m.start()], chunk[m.start():]) if m else (chunk, b"")
            if with_files and records:
                names = [
                    ln.decode("utf-8", errors="surrogateescape")
                    for ln in head.split(b"\n")
                    if ln.strip()
                ]
                trailing_files.append(names)
        if not chunk.strip():
            continue
        record = _parse_log_record(chunk, project, report)
        if record is not None:
            records.append(record)
            report.records_parsed += 1
    if with_files:
        while len(trailing_files) < len(records):
            trailing_files.append([])
        records = [
            CommitRecord(
                id=r.id,
                parents=r.parents,
                author_time=r.author_time,
                commit_time=r.commit_time,
                author_name=r.author_name,
                author_email=r.author_email,
                message=r.message,
                project=r.project,
                files=frozenset(names),
            )
            for r, names in zip(records, trailing_files)
        ]
    # git log order depends on walk internals; normalize for reproducibility
    records.sort(key=lambda r: (r.commit_time.epoch_seconds, r.id))
    return records, report
