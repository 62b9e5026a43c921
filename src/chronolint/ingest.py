"""Produce validated CommitRecord sets from a live repository or an export.

Live ingestion reads raw commit objects through the system ``git``
executable: ``git rev-list`` walks the history and pipes the ids straight
into ``git cat-file --batch``, which prints each object after a header
giving its size. Each object is sliced by that size, so no byte of a
message can be mistaken for a delimiter. Both dates are read from the
``author``/``committer`` headers as stored (epoch and zone), and names,
emails and messages are the stored bytes decoded with surrogateescape.
With ``with_files``, ``git diff-tree --stdin`` lists each commit's changed
paths.

The portable export format is JSONL: one flat object per line with fields
``id``, ``parents``, ``author_time``, ``author_tz``, ``commit_time``,
``commit_tz``, ``author_name``, ``author_email``, ``message``, ``files``
(optional), ``project``.
"""

from __future__ import annotations

import contextlib
import io
import json
import operator
import os
import re
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import IO, Iterable, Iterator

from .model import COMMIT_ID_RE, CommitRecord, Fields, GitEnvironmentError, RepositoryError

GIT_ENV_VAR = "CHRONOLINT_GIT"
# sanity bounds on every time read from outside: epoch seconds and zone minutes
MAX_EPOCH_ABS = 2**62
MAX_OFFSET_MINUTES = 1440

_OFFSET_RE = re.compile(r"([+-])(\d\d)(\d\d)", re.ASCII)
# minutes of each zone text that parsed: at most 2 * 1441 texts, and a
# forked worker may start from its parent's copy, as a text always parses
# to the same minutes
_OFFSET_MINUTES: dict[str, int] = {}
_REQUIRED_FIELDS = operator.itemgetter(
    "id", "parents", "author_time", "author_tz", "commit_time", "commit_tz",
    "author_name", "author_email", "message",
)
# the C scanner behind json.loads, without json.loads' Python wrapper
_SCAN_ONCE = json.JSONDecoder().scan_once
_IS_ID = COMMIT_ID_RE.fullmatch  # for strings only: it raises TypeError on others
_NEW_RECORD = tuple.__new__  # CommitRecord without its Python __new__
# the objects parse_export_stream holds at once, their fields checked together
CHUNK_LINES = 128
# what the chunk checks accept: the length and the digits that COMMIT_ID_RE
# matches, and the one type of an epoch and of a list of ids or files
_ID_LENGTH = {40}
_HEX_DIGITS = b"0123456789abcdef"
_INT, _LIST = frozenset({int}), frozenset({list})
# the bytes range_lines asks for at a time
RANGE_READ_BYTES = 1 << 16
# the order of a project's records as read from git and as filter keeps them
COMMIT_ORDER = operator.attrgetter("commit_time", "id")
# a --branches value with one of these is a glob; any other is a branch name
_GLOB_RE = re.compile(r"[*?[]")
# a commit id in git's output, as COMMIT_ID_RE defines it
_ID = COMMIT_ID_RE.pattern.encode()
# cat-file --batch prints "<oid> commit <size>" before each object
_ENTRY_RE = re.compile(rb"(%b) commit (\d+)\n" % _ID)
# the headers git writes first, in this order; gpgsig, mergetag and
# encoding headers may follow, and the message starts after a blank line
_HEADER_RE = re.compile(
    rb"tree %b\n"
    rb"((?:parent %b\n)*)"
    rb"author ([^<\n]*?) *<([^>\n]*)> (-?\d+) ([^ \n]+)\n"
    rb"committer [^\n]*> (-?\d+) ([^ \n]+)\n" % (_ID, _ID)
)


class IngestReport(Fields):
    """Outcome of one ingestion pass.

    A reject's position is a JSONL line number, counted from 1, or the id
    of a commit read from git. lines is the number of JSONL lines read.
    """

    FIELDS = {"lines": int, "rejected": list}

    def reject(self, position: int | str, reason: str) -> None:
        self.rejected.append((position, reason))

    @property
    def records_rejected(self) -> int:
        return len(self.rejected)

    @property
    def rejects(self) -> list[tuple[str, str]]:
        """Each reject as (position, reason), a line number as "line N"."""
        return [(f"line {p}" if type(p) is int else p, reason) for p, reason in self.rejected]

    def extend(self, later: IngestReport) -> None:
        """Add the report of the lines that follow this report's lines."""
        self.rejected += [(p + self.lines if type(p) is int else p, reason)
                          for p, reason in later.rejected]
        self.lines += later.lines


def parse_offset(text: str) -> int:
    """Parse a ±HHMM offset string into minutes east of UTC.

    The text must be exactly a sign and four ASCII digits. Raises
    ValueError for malformed text or offsets beyond ±24 hours.
    """
    m = _OFFSET_RE.fullmatch(text) if type(text) is str else None
    if m is None:
        raise ValueError(f"malformed UTC offset: {text!r}")
    sign, hh, mm = m.group(1), int(m.group(2)), int(m.group(3))
    minutes = hh * 60 + mm
    if mm > 59 or minutes > MAX_OFFSET_MINUTES:
        raise ValueError(f"UTC offset out of range: {text!r}")
    _OFFSET_MINUTES[text] = -minutes if sign == "-" else minutes
    return _OFFSET_MINUTES[text]


def normalize_time(raw_seconds: int, raw_offset: str) -> tuple[int, int]:
    """Check a raw epoch and parse its ±HHMM offset: (epoch, zone minutes).

    Every time read from outside comes through here, so this is the one
    place the sanity bounds are checked. The epoch is kept as-is (git epochs
    are already UTC-anchored). Raises ValueError for a non-integer or
    out-of-bounds epoch and for a bad offset.
    """
    if type(raw_seconds) is not int:
        raise ValueError(f"non-integer epoch: {raw_seconds!r}")
    if not -MAX_EPOCH_ABS <= raw_seconds < MAX_EPOCH_ABS:
        raise ValueError(f"epoch out of sanity bounds: {raw_seconds}")
    try:  # the memo holds only texts that parsed, so a hit needs no more checks
        return raw_seconds, _OFFSET_MINUTES[raw_offset]
    except (KeyError, TypeError):  # TypeError: an unhashable zone, say a list
        return raw_seconds, parse_offset(raw_offset)


def format_offset(minutes: int) -> str:
    """Render minutes east of UTC as a git-style ±HHMM string."""
    sign = "-" if minutes < 0 else "+"
    mag = abs(minutes)
    return f"{sign}{mag // 60:02d}{mag % 60:02d}"


def load_json_line(text: str) -> object:
    """Decode one JSONL line: the value json.loads(text) gives, or its error.

    The C scanner behind json.loads reads the line in one call, and its
    value stands if at most JSON whitespace follows (a CRLF line keeps its
    CR). Any other line (leading whitespace, a BOM, extra data, bad JSON)
    goes through json.loads itself, so every value and every error message
    is exactly json.loads'. JSON nested past the recursion limit raises
    ValueError, as other bad JSON does. Lines are never joined into one
    document: ``{"a":"x}``, ``{"}`` and ``{"c":1},{"d":2}`` are each
    invalid, yet joined by commas inside brackets they read as three objects.
    """
    try:
        value, end = _SCAN_ONCE(text, 0)
        if end == len(text) or not text[end:].strip(" \t\n\r"):
            return value
    except (StopIteration, ValueError, RecursionError):
        pass
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None


def range_lines(fh: IO[bytes], start: int, end: int) -> Iterator[bytes]:
    """The lines of a binary file that start in [start, end); start is a line start."""
    fh.seek(start)
    left = end - start
    while left > 0:
        # readlines stops at the first line that takes it past its hint, so
        # with a hint of left - 1 it stops at the line that reaches end
        lines = fh.readlines(min(left - 1, RANGE_READ_BYTES)) if left > 1 else [fh.readline()]
        if not lines or not lines[0]:  # the file ends before end
            return
        yield from lines
        left -= sum(map(len, lines))


def _record_from_object(obj: dict, project: str) -> CommitRecord:
    """The record of one decoded export object, with project as its default.

    Each field is checked once, in field order, and the first that fails
    raises ValueError with the line's reject reason. This is the only place
    such a reason is made; _chunk_records accepts exactly the objects that
    pass here, and builds the same records.
    """
    try:
        (commit_id, parents, author_time, author_tz, commit_time, commit_tz,
         author_name, author_email, message) = _REQUIRED_FIELDS(obj)
    except KeyError as exc:  # the first missing field, in field order
        raise ValueError(f"missing {exc.args[0]}") from None
    # JSON values have exact types
    if type(commit_id) is not str or _IS_ID(commit_id) is None:
        raise ValueError("malformed id")
    if type(parents) is not list:
        raise ValueError("malformed parents")
    for parent in parents:
        # a parent that is not a commit id could never match one, and
        # would silently become a boundary parent no detector compares
        if type(parent) is not str or _IS_ID(parent) is None:
            raise ValueError("malformed parents")
    if type(author_name) is not str:
        raise ValueError("non-string author_name")
    if type(author_email) is not str:
        raise ValueError("non-string author_email")
    if type(message) is not str:
        raise ValueError("non-string message")
    files = obj.get("files")
    if files is not None:
        if type(files) is not list or not all(type(f) is str for f in files):
            raise ValueError("malformed files")
        files = frozenset(files)
    record_project = obj.get("project", project)
    if type(record_project) is not str:
        raise ValueError("non-string project")
    author_time, author_tz = normalize_time(author_time, author_tz)
    commit_time, commit_tz = normalize_time(commit_time, commit_tz)
    return _NEW_RECORD(CommitRecord, (
        commit_id, tuple(parents), author_time, author_tz, commit_time, commit_tz,
        author_name, author_email, message, record_project, files,
    ))


def _chunk_records(objects: list[dict], project: str) -> Iterator[CommitRecord] | None:
    """The records of a chunk of decoded objects, or None if any field of
    any object fails its check.

    Each check is a few C-level passes over one field of every object, and
    vouches for exactly what _record_from_object accepts: None means only
    that some object needs _record_from_object to name its fault.
    """
    try:
        (ids, parents, author_times, author_tzs, commit_times, commit_tzs,
         names, emails, messages) = zip(*map(_REQUIRED_FIELDS, objects))
    except KeyError:
        return None
    if not _LIST.issuperset(map(type, parents)):
        return None
    every_id = [*ids, *chain.from_iterable(parents)]
    projects = list(map(dict.get, objects, repeat("project"), repeat(project)))
    zones = author_tzs + commit_tzs
    try:  # str.join refuses every value but a str, the one type of JSON text
        digits = "".join(every_id)
        "".join(chain(names, emails, messages, projects, zones))
    except TypeError:
        return None
    if (set(map(len, every_id)) != _ID_LENGTH or not digits.isascii()
            or digits.encode("ascii").translate(None, _HEX_DIGITS)):
        return None
    files = list(map(dict.get, objects, repeat("files")))
    if files.count(None) != len(files):
        listed = [f for f in files if f is not None]
        if not _LIST.issuperset(map(type, listed)):
            return None
        try:
            "".join(chain.from_iterable(listed))
        except TypeError:
            return None
        files = [None if f is None else frozenset(f) for f in files]
    times = author_times + commit_times
    if not (_INT.issuperset(map(type, times))
            and -MAX_EPOCH_ABS <= min(times) and max(times) < MAX_EPOCH_ABS):
        return None
    for text in set(zones).difference(_OFFSET_MINUTES):  # zones not seen yet
        try:
            parse_offset(text)
        except ValueError:
            return None
    minutes = _OFFSET_MINUTES.__getitem__
    return map(_NEW_RECORD, repeat(CommitRecord), zip(
        ids, map(tuple, parents), author_times, map(minutes, author_tzs),
        commit_times, map(minutes, commit_tzs), names, emails, messages, projects, files,
    ))


def _add_chunk(objects: list[dict], numbers: list[int], project: str,
               records: list[CommitRecord], rejected: list, mark: int) -> None:
    """Add the records of a chunk of objects, read from the lines numbered
    numbers; rejected[mark:] are the rejects of the chunk's other lines."""
    chunk = _chunk_records(objects, project)
    if chunk is not None:
        records.extend(chunk)
        return
    bad = []
    for lineno, obj in zip(numbers, objects):
        try:
            records.append(_record_from_object(obj, project))
        except ValueError as exc:
            bad.append((lineno, str(exc)))
    if bad:  # every reject in line order
        rejected[mark:] = sorted(rejected[mark:] + bad)


def parse_export_stream(
    stream: bytes | Iterable[bytes], project: str = ""
) -> tuple[list[CommitRecord], IngestReport]:
    """Parse a JSONL export into CommitRecords.

    stream is the export's bytes, an open binary file or any iterable of
    its lines; each is read line by line, so a file is never held whole. A
    line is accepted exactly when json.loads accepts it and its fields pass
    their checks. Malformed lines are rejected with positional diagnostics
    and never abort the stream. An empty stream yields an empty set.

    Each line is decoded and scanned on its own. The objects are held a
    chunk of CHUNK_LINES at a time, and their fields are checked together,
    one field of the whole chunk at a time (_chunk_records); a chunk that
    fails is read again object by object from the objects it holds, so no
    line is decoded or scanned twice.
    """
    lines = io.BytesIO(stream) if isinstance(stream, bytes) else stream
    records: list[CommitRecord] = []
    report = IngestReport()
    rejected = report.rejected
    objects: list[dict] = []
    numbers: list[int] = []
    mark = 0
    lineno = 0
    for lineno, raw in enumerate(lines, start=1):
        if raw.isspace():  # never empty: a line holds at least its LF
            continue
        try:  # without its LF, a string cut at the line end reads as unterminated
            text = raw.decode("utf-8").rstrip("\n")
        except UnicodeDecodeError:
            report.reject(lineno, "undecodable bytes")
            continue
        try:
            obj = load_json_line(text)
        # a JSONDecodeError (its msg has no position), or a ValueError for
        # an integer beyond int_max_str_digits or nesting past the limit
        except ValueError as exc:
            report.reject(lineno, f"invalid JSON: {getattr(exc, 'msg', exc)}")
            continue
        if type(obj) is not dict:
            report.reject(lineno, "record is not an object")
            continue
        objects.append(obj)
        numbers.append(lineno)
        if len(objects) == CHUNK_LINES:
            _add_chunk(objects, numbers, project, records, rejected, mark)
            objects, numbers, mark = [], [], len(rejected)
    if objects:
        _add_chunk(objects, numbers, project, records, rejected, mark)
    report.lines = lineno
    return records, report


class QuotedZones(dict):
    """Each zone, in minutes east of UTC, as its ±HHMM text in a JSON
    string, rendered on its first lookup only."""

    def __missing__(self, minutes: int) -> str:
        self[minutes] = text = encode_basestring_ascii(format_offset(minutes))
        return text


def emit_export_stream(records: Iterable[CommitRecord]) -> bytes:
    """Serialize records to canonical JSONL: one compact, ASCII-escaped
    object per line, LF-terminated, with the keys id, parents, author_time,
    author_tz, commit_time, commit_tz, author_name, author_email, message,
    files (sorted, only when not None) and project.

    Each line is rendered straight from the record's fields, every string
    through the C escaper that json.dumps(..., ensure_ascii=True) applies,
    so the bytes are json.dumps' with the separators "," and ":".
    """
    quoted = encode_basestring_ascii
    zones = QuotedZones()
    lines = []
    append = lines.append
    for (commit_id, parents, author_time, author_tz, commit_time, commit_tz,
         author_name, author_email, message, project, files) in records:
        listed = "" if files is None else f'"files":[{",".join(map(quoted, sorted(files)))}],'
        append(
            f'{{"id":{quoted(commit_id)},"parents":[{",".join(map(quoted, parents))}],'
            f'"author_time":{author_time},"author_tz":{zones[author_tz]},'
            f'"commit_time":{commit_time},"commit_tz":{zones[commit_tz]},'
            f'"author_name":{quoted(author_name)},"author_email":{quoted(author_email)},'
            f'"message":{quoted(message)},{listed}"project":{quoted(project)}}}\n'
        )
    return "".join(lines).encode("ascii")


def git_executable() -> str:
    return os.environ.get(GIT_ENV_VAR, "git")


@contextlib.contextmanager
def run_git(
    path: str, args: list[str], stdin: IO[bytes] | None = None
) -> Iterator[subprocess.Popen]:
    """Run one git sub-command in path for the block, its stdout piped.

    stdin is an open file for git to read; by default git reads nothing. Its
    stderr goes to a temporary file, which never fills, so the process
    cannot block on it. On leaving the block, on every path, the process is
    reaped and the file closed. Only if it failed and no other error is in
    flight does RepositoryError name the sub-command, with git's non-blank
    stderr lines joined on one line by "; ", so that it is one diagnostic.
    """
    # imported here, so that a run that starts no git does not load them
    import subprocess
    import tempfile

    # neither replace refs nor grafts are followed: commits are read as stored.
    # An empty GIT_GRAFT_FILE names no file; /dev/null would be read, and git
    # would print a deprecation hint ahead of a failed command's error.
    cmd = [git_executable(), "--no-replace-objects", "-C", path, *args]
    with tempfile.TemporaryFile() as err:
        try:
            proc = subprocess.Popen(
                cmd, bufsize=1 << 16, stdin=subprocess.DEVNULL if stdin is None else stdin,
                stdout=subprocess.PIPE, stderr=err, env={**os.environ, "GIT_GRAFT_FILE": ""},
            )
        except FileNotFoundError as exc:
            raise GitEnvironmentError(f"git executable not found: {cmd[0]}") from exc
        with proc:  # closes stdout and waits, also when the block raises
            yield proc
        if proc.returncode != 0:
            err.seek(0)
            lines = err.read().decode("utf-8", errors="replace").splitlines()
            stderr = "; ".join(line.strip() for line in lines if line.strip())
            raise RepositoryError(f"git {args[0]} failed in {path}: {stderr}")


def _read_commits(stream: IO[bytes], path: str, report: IngestReport) -> list[tuple]:
    """Parse a cat-file --batch stream into CommitRecord fields, one tuple per commit."""
    commits = []
    while line := stream.readline():
        entry = _ENTRY_RE.fullmatch(line)
        if entry is None:
            raise RepositoryError(f"git cat-file: unexpected output in {path}: {line!r}")
        oid = entry[1].decode("ascii")
        size = int(entry[2])
        data = stream.read(size + 1)  # the object and its trailing LF
        m = _HEADER_RE.match(data, 0, size)
        if m is None:
            report.reject(oid, "malformed commit header")
            continue
        parents, name, email, a_epoch, a_zone, c_epoch, c_zone = m.groups()
        try:
            author_time = normalize_time(int(a_epoch), a_zone.decode("latin-1"))
            commit_time = normalize_time(int(c_epoch), c_zone.decode("latin-1"))
        except ValueError as exc:
            report.reject(oid, f"bad timestamp: {exc}")
            continue
        blank = data.find(b"\n\n", m.end() - 1, size)
        message = data[blank + 2:size] if blank >= 0 else b""
        commits.append((
            oid,
            tuple(parents.decode("ascii").split()[1::2]),
            *author_time,
            *commit_time,
            # surrogateescape keeps arbitrary bytes round-trippable
            name.decode("utf-8", errors="surrogateescape"),
            email.decode("utf-8", errors="surrogateescape"),
            message.decode("utf-8", errors="surrogateescape"),
        ))
    return commits


def _changed_files(path: str, ids: list[str]) -> dict[str, frozenset[str]]:
    """Each commit's changed paths; a merge has none.

    ``--always`` prints every id fed in, in order, even with no paths after
    it, so each id is known in advance and no path is mistaken for one.
    """
    import tempfile

    with tempfile.TemporaryFile() as id_file:
        id_file.write("".join(f"{oid}\n" for oid in ids).encode("ascii"))
        id_file.seek(0)  # flushes the ids, too
        args = ["diff-tree", "--stdin", "-r", "--root", "--always", "--name-only", "-z"]
        with run_git(path, args, id_file) as diff_tree:
            out = diff_tree.stdout.read()
    files: dict[str, list[str]] = {}
    pending = iter(ids)
    upcoming = next(pending, None)
    current: list[str] = []
    for token in out.split(b"\0")[:-1]:
        text = token.decode("utf-8", errors="surrogateescape")
        if text == upcoming:
            current = files[text] = []
            upcoming = next(pending, None)
        else:
            current.append(text)
    return {oid: frozenset(names) for oid, names in files.items()}


def read_repository(
    path: str,
    project: str,
    with_files: bool = False,
    first_parent: bool = False,
    branches: str | None = None,
) -> tuple[list[CommitRecord], IngestReport]:
    """Read commit metadata from a git repository on disk.

    History is read as stored: replace refs and ``.git/info/grafts`` are not
    followed. By default every ref but the replace refs is walked
    (``--all``), so a commit that only ``git replace`` wrote, such as a
    graft's copy, is not read; first_parent/branches narrow the walk for
    studies that want main-branch-only history. branches is a branch name,
    or a glob over branch names if it has ``*``, ``?`` or ``[``. with_files
    populates each record's changed-file set. A commit whose header cannot
    be read is rejected in the report; the rest are kept.

    A shallow clone raises RepositoryError naming a parent of a commit read
    (its first only, under first_parent) that cat-file printed neither as a
    record nor as a reject: the walk stops at the clone's boundary.
    """
    if branches is None:
        revs = ["--exclude=refs/replace/*", "--all"]
    elif _GLOB_RE.search(branches):
        revs = [f"--branches={branches}"]
    else:
        # git reads --branches=<name> as refs/heads/<name>/*
        revs = [f"refs/heads/{branches}"]
    walk = ["rev-list", "--first-parent"] if first_parent else ["rev-list"]
    walk += [*revs, "--"]
    report = IngestReport()
    # when both fail, the inner block's error, cat-file's, is the one raised
    with run_git(path, walk) as rev_list:
        # rev-list writes its ids straight into cat-file through an OS pipe
        with run_git(path, ["cat-file", "--batch", "--buffer"], rev_list.stdout) as cat_file:
            rev_list.stdout.close()  # cat-file holds its own copy
            commits = _read_commits(cat_file.stdout, path, report)
    printed = {c[0] for c in commits}.union(oid for oid, _ in report.rejected)
    missing = {p for c in commits for p in c[1][:1 if first_parent else None]} - printed
    if missing:
        raise RepositoryError(f"shallow history refused in {path}: "
                              f"parent {min(missing)} was not read")
    files = _changed_files(path, [c[0] for c in commits]) if with_files else {}
    records = [_NEW_RECORD(CommitRecord, (*c, project, files.get(c[0]))) for c in commits]
    # the walk order depends on git internals; normalize for reproducibility
    records.sort(key=COMMIT_ORDER)
    return records, report
