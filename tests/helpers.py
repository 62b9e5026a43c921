"""Shared test helpers: record factories, independent oracles, repo builders."""

from __future__ import annotations

import hashlib
import io
import json
import operator
import os
import random
import re
import subprocess
from datetime import datetime, timezone

from hypothesis import strategies as st

from chronolint.graph import build_history, linearize
from chronolint.model import AnomalyKind, CommitRecord, is_commit_hash


def fake_hash(seed) -> str:
    return hashlib.sha1(str(seed).encode()).hexdigest()


def rec(
    seed,
    commit_epoch: int = 1_600_000_000,
    author_epoch: int | None = None,
    parents: tuple[str, ...] = (),
    message: str = "update",
    author_name: str = "Alice Dev",
    author_email: str = "alice@example.com",
    project: str = "proj",
    files: frozenset[str] | None = None,
    offset: int = 0,
) -> CommitRecord:
    return CommitRecord(
        id=fake_hash(seed),
        parents=parents,
        author_time=author_epoch if author_epoch is not None else commit_epoch,
        author_tz=offset,
        commit_time=commit_epoch,
        commit_tz=offset,
        author_name=author_name,
        author_email=author_email,
        message=message,
        project=project,
        files=files,
    )


def utc_epoch(year, month=1, day=1, hour=0, minute=0, second=0) -> int:
    return int(datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc).timestamp())


# ---------------------------------------------------------------------------
# independent oracles

def is_valid_topological_order(records: list[CommitRecord], order: tuple[str, ...]) -> bool:
    """Linear scan with a visited set over every parent->child edge."""
    present = {r.id for r in records}
    if sorted(order) != sorted(present):
        return False
    position = {cid: i for i, cid in enumerate(order)}
    for r in records:
        for p in r.parents:
            if p in present and position[p] >= position[r.id]:
                return False
    return True


def brute_force_parent_pairs(records: list[CommitRecord], basis: str = "committer"):
    """All (commit, parent) pairs where the parent is strictly newer."""
    by_id = {r.id: r for r in records}

    def t(r):
        return r.commit_time if basis == "committer" else r.author_time

    pairs = set()
    for r in records:
        for p in r.parents:
            if p in by_id and t(by_id[p]) > t(r):
                pairs.add((r.id, p))
    return pairs


def replay_linear_loop(sequence: list[CommitRecord], merge_exclusion: bool = True,
                       basis: str = "committer"):
    """Straight-line replay of the running previous-commit comparison."""

    def t(r):
        return r.commit_time if basis == "committer" else r.author_time

    flagged = set()
    last = None
    for r in sequence:
        if (
            last is not None
            and t(r) < t(last)
            and not (
                merge_exclusion
                and ("merge" in last.message.lower() or "merge" in r.message.lower())
            )
        ):
            flagged.add(r.id)
        last = r
    return flagged


def oracle_filter(records: list[CommitRecord], policy, cfg):
    """(kept, dropped, blacklisted) of a filter policy over the records of
    several projects, decided one record at a time: the kept records in
    (project, committer time, id) order, the count of records that a rule
    dropped, and the count of records in blacklisted projects.

    The rules are the boundaries that chronolint.filters states, written
    afresh: a record is dropped if one of the kinds it is flagged with in
    its own project is listed, if t < min_epoch_seconds, if t is strictly
    before (or after) the cutoff, or if t is outside the window, which
    includes both ends. The flags come from the brute-force detectors above
    and from comparisons with the detector thresholds.
    """
    basis = cfg.time_basis
    by_project: dict[str, list[CommitRecord]] = {}
    for r in records:
        by_project.setdefault(r.project, []).append(r)
    kinds: dict[tuple[str, str], set[AnomalyKind]] = {}
    for project, recs in by_project.items():
        if project in policy.project_blacklist:
            continue
        late = {child for child, _ in brute_force_parent_pairs(recs, basis)}
        linear = replay_linear_loop(linearize(build_history(recs, project)),
                                    cfg.merge_exclusion, basis)
        for r in recs:
            t = r.commit_time if basis == "committer" else r.author_time
            kinds[project, r.id] = {kind for kind, hit in (
                (AnomalyKind.SUSPICIOUS_OLD, t < cfg.old_threshold),
                (AnomalyKind.ZERO_EPOCH, t == 0),
                (AnomalyKind.FUTURE, t > cfg.future_reference),
                (AnomalyKind.OUT_OF_ORDER_PARENT, r.id in late),
                (AnomalyKind.OUT_OF_ORDER_LINEAR, r.id in linear),
            ) if hit}

    def dropped(r: CommitRecord) -> bool:
        t = r.commit_time if policy.time_basis == "committer" else r.author_time
        before = policy.cutoff_mode == "before"
        return bool(
            kinds[r.project, r.id] & policy.drop_flagged_kinds
            or (policy.min_epoch_seconds is not None and t < policy.min_epoch_seconds)
            or (policy.cutoff is not None and (t < policy.cutoff if before else t > policy.cutoff))
            or (policy.window is not None and not policy.window[0] <= t <= policy.window[1])
        )

    listed = [r for r in records if r.project not in policy.project_blacklist]
    kept = sorted((r for r in listed if not dropped(r)),
                  key=lambda r: (r.project, r.commit_time, r.id))
    return kept, len(listed) - len(kept), len(records) - len(listed)


# ---------------------------------------------------------------------------
# the JSONL reader before its per-line loop was rebuilt around the C scanner:
# one json.loads call per line and one nested check per field

_ORACLE_OFFSET_RE = re.compile(r"([+-])(\d\d)(\d\d)", re.ASCII)
_ORACLE_FIELDS = operator.itemgetter(
    "id", "parents", "author_time", "author_tz", "commit_time", "commit_tz",
    "author_name", "author_email", "message",
)


def oracle_normalize_time(raw_seconds, raw_offset) -> tuple[int, int]:
    """(epoch, zone minutes), or ValueError, with no memo."""
    if type(raw_seconds) is not int:
        raise ValueError(f"non-integer epoch: {raw_seconds!r}")
    if not -2**62 <= raw_seconds < 2**62:
        raise ValueError(f"epoch out of sanity bounds: {raw_seconds}")
    m = _ORACLE_OFFSET_RE.fullmatch(raw_offset) if type(raw_offset) is str else None
    if m is None:
        raise ValueError(f"malformed UTC offset: {raw_offset!r}")
    minutes = int(m.group(2)) * 60 + int(m.group(3))
    if int(m.group(3)) > 59 or minutes > 1440:
        raise ValueError(f"UTC offset out of range: {raw_offset!r}")
    return raw_seconds, -minutes if m.group(1) == "-" else minutes


def oracle_record_from_object(obj: dict, default_project: str) -> CommitRecord:
    try:
        (commit_id, parents, author_time, author_tz, commit_time, commit_tz,
         author_name, author_email, message) = _ORACLE_FIELDS(obj)
    except KeyError as exc:
        raise ValueError(f"missing {exc.args[0]}") from None
    if not is_commit_hash(commit_id):
        raise ValueError("malformed id")
    if type(parents) is not list or not all(map(is_commit_hash, parents)):
        raise ValueError("malformed parents")
    for name in ("author_name", "author_email", "message"):
        if type(obj[name]) is not str:
            raise ValueError(f"non-string {name}")
    files = obj.get("files")
    if files is not None:
        if type(files) is not list or not all(type(f) is str for f in files):
            raise ValueError("malformed files")
        files = frozenset(files)
    project = obj.get("project", default_project)
    if type(project) is not str:
        raise ValueError("non-string project")
    author_time, author_tz = oracle_normalize_time(author_time, author_tz)
    commit_time, commit_tz = oracle_normalize_time(commit_time, commit_tz)
    return CommitRecord(
        commit_id, tuple(parents), author_time, author_tz, commit_time, commit_tz,
        author_name, author_email, message, project, files,
    )


def oracle_parse_export_stream(data: bytes, project: str = ""):
    """(records, rejects) as (position, reason) pairs, one json.loads per line.

    Nesting past the recursion limit, which crashed this reader, is rejected
    with json.loads' message, as the reader under test rejects it.
    """
    records, rejects = [], []
    for lineno, raw in enumerate(io.BytesIO(data), start=1):
        if raw.isspace():
            continue
        try:
            text = raw.decode("utf-8").rstrip("\n")
        except UnicodeDecodeError:
            rejects.append((f"line {lineno}", "undecodable bytes"))
            continue
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            rejects.append((f"line {lineno}", f"invalid JSON: {getattr(exc, 'msg', exc)}"))
            continue
        if type(obj) is not dict:
            rejects.append((f"line {lineno}", "record is not an object"))
            continue
        try:
            records.append(oracle_record_from_object(obj, project))
        except ValueError as exc:
            rejects.append((f"line {lineno}", str(exc)))
    return records, rejects


# ---------------------------------------------------------------------------
# the writers as they were: one dict per row, encoded by json's own encoder

# the compact, ASCII-escaped form of every row the package writes
JSONL_ENCODER = json.JSONEncoder(ensure_ascii=True, separators=(",", ":"))


# text that json's escaper treats apart: quotes, backslashes, C0 controls,
# DEL, the line and paragraph separators, lone surrogates (category Cs,
# which st.text() leaves out) and characters beyond the BMP
AWKWARD_CHARACTERS = st.one_of(
    st.characters(blacklist_categories=()),
    st.sampled_from(['"', "\\", "/", "\x00", "\x08", "\x1f", "\x7f", "\u2028", "\u2029",
                     "\ud800", "\udbff", "\udc80", "\udfff", "\ufeff", "\U0001f600",
                     "\U0010ffff"]),
)
AWKWARD_TEXT = st.text(AWKWARD_CHARACTERS, max_size=20)


def oracle_format_offset(minutes: int) -> str:
    """minutes east of UTC as ±HHMM."""
    hours, rest = divmod(abs(minutes), 60)
    return "%s%02d%02d" % ("-" if minutes < 0 else "+", hours, rest)


def record_to_object(record: CommitRecord) -> dict:
    """Render a CommitRecord as a flat export object with canonical key order."""
    obj = {
        "id": record.id,
        "parents": list(record.parents),
        "author_time": record.author_time,
        "author_tz": oracle_format_offset(record.author_tz),
        "commit_time": record.commit_time,
        "commit_tz": oracle_format_offset(record.commit_tz),
        "author_name": record.author_name,
        "author_email": record.author_email,
        "message": record.message,
    }
    if record.files is not None:
        obj["files"] = sorted(record.files)
    obj["project"] = record.project
    return obj


def oracle_export_stream(records) -> bytes:
    """The export lines of records, one encoder call per record dict."""
    return "".join(JSONL_ENCODER.encode(record_to_object(r)) + "\n"
                   for r in records).encode("ascii")


def anomaly_to_object(a, commit: CommitRecord | None) -> dict:
    """An anomaly row as a dict in its documented key order."""
    obj = {
        "kind": a.kind.value,
        "commit_id": a.commit_id,
        "project": a.project,
        "observed_epoch": a.observed,
        "observed_tz": oracle_format_offset(a.observed_tz),
    }
    for key, value in (("reference_epoch", a.reference), ("counterpart_id", a.counterpart_id),
                       ("delta_seconds", a.delta_seconds)):
        if value is not None:
            obj[key] = value
    if commit is not None:
        obj["author_name"] = commit.author_name
        obj["author_email"] = commit.author_email
        obj["message"] = commit.message
    return obj


def oracle_anomaly_stream(anomalies, commits=None) -> bytes:
    """The anomaly rows in stream order, one encoder call per row dict."""
    commits = commits or {}
    ordered = sorted(anomalies, key=lambda a: (
        a.project, a.commit_id, a.kind.value, a.counterpart_id or "", a.delta_seconds or 0))
    return "".join(JSONL_ENCODER.encode(anomaly_to_object(a, commits.get((a.project, a.commit_id))))
                   + "\n" for a in ordered).encode("ascii")


# ---------------------------------------------------------------------------
# random history generation

MESSAGES = [
    "update parser",
    "fix typo",
    "Merge branch 'dev'",
    "add tests",
    "merge upstream changes",
    "refactor io layer",
    "bump version",
    "submerged pump driver",
]


def random_records(rng: random.Random, n: int, project: str = "proj") -> list[CommitRecord]:
    """A random DAG: each node picks parents among earlier nodes; timestamps
    are random and include ties."""
    records: list[CommitRecord] = []
    for i in range(n):
        k = rng.randint(0, min(i, 3))
        parents = tuple(r.id for r in rng.sample(records, k)) if k else ()
        epoch = rng.randint(0, 50) * 1000  # coarse grid forces ties
        records.append(
            CommitRecord(
                id=fake_hash((project, i, rng.random())),
                parents=parents,
                author_time=epoch,
                author_tz=0,
                commit_time=epoch,
                commit_tz=0,
                author_name=f"dev{rng.randint(0, 4)}",
                author_email=f"dev{rng.randint(0, 4)}@example.com",
                message=rng.choice(MESSAGES),
                project=project,
            )
        )
    rng.shuffle(records)
    return records


# ---------------------------------------------------------------------------
# synthetic planted corpus

PLANT_ZERO = "zero"
PLANT_OLD = "old"
PLANT_FUTURE = "future"
PLANT_SKEW = "skew"

FUTURE_YEARS = (2025, 2027, 2037)
OLD_EPOCHS = (-2044178335, 730, 7403)


def planted_corpus(rng: random.Random, repos: int = 50, commits_per_repo: int = 200):
    """Linear-history corpus with anomalies planted at known locations.

    Returns (corpus, manifest) where corpus maps project -> records and the
    manifest records, per anomaly kind, exactly the flags a correct detector
    must raise (including flags implied by a plant on its chain neighbours).
    """
    corpus: dict[str, list[CommitRecord]] = {}
    manifest = {
        "zero_epoch": set(),        # commit ids
        "suspicious_old": set(),    # commit ids
        "future": set(),            # commit ids
        "out_of_order_parent": set(),   # (commit id, parent id)
        "out_of_order_linear": set(),   # commit ids
    }
    reference_epoch = utc_epoch(2020)

    for repo_i in range(repos):
        project = f"synth/repo{repo_i:03d}"
        base = utc_epoch(2015) + repo_i * 86400
        clean = []
        t = base
        for j in range(commits_per_repo):
            t += rng.randint(100, 500)
            clean.append(t)

        # non-adjacent interior plant positions keep the implied-flag
        # bookkeeping local to each plant
        positions = rng.sample(range(2, commits_per_repo - 2), 8)
        positions.sort()
        positions = [p for i, p in enumerate(positions) if i == 0 or p - positions[i - 1] > 2]
        plans = {}
        for pos in positions:
            plans[pos] = rng.choice((PLANT_ZERO, PLANT_OLD, PLANT_FUTURE, PLANT_SKEW))

        times = list(clean)
        for pos, plant in plans.items():
            if plant == PLANT_ZERO:
                times[pos] = 0
            elif plant == PLANT_OLD:
                times[pos] = rng.choice(OLD_EPOCHS)
            elif plant == PLANT_FUTURE:
                times[pos] = utc_epoch(rng.choice(FUTURE_YEARS)) + rng.randint(0, 10**6)
            elif plant == PLANT_SKEW:
                times[pos] = times[pos + 1] + 3600

        ids = [fake_hash((project, j)) for j in range(commits_per_repo)]
        records = []
        for j in range(commits_per_repo):
            records.append(
                CommitRecord(
                    id=ids[j],
                    parents=(ids[j - 1],) if j > 0 else (),
                    author_time=times[j],
                    author_tz=0,
                    commit_time=times[j],
                    commit_tz=0,
                    author_name=f"dev{j % 7}",
                    author_email=f"dev{j % 7}@synth.example",
                    message=f"change {j} in {project}",
                    project=project,
                )
            )
        corpus[project] = records

        for pos, plant in plans.items():
            cid, prev, nxt = ids[pos], ids[pos - 1], ids[pos + 1]
            if plant == PLANT_ZERO:
                manifest["zero_epoch"].add(cid)
                manifest["suspicious_old"].add(cid)
                manifest["out_of_order_parent"].add((cid, prev))
                manifest["out_of_order_linear"].add(cid)
            elif plant == PLANT_OLD:
                manifest["suspicious_old"].add(cid)
                manifest["out_of_order_parent"].add((cid, prev))
                manifest["out_of_order_linear"].add(cid)
            elif plant == PLANT_FUTURE:
                manifest["future"].add(cid)
                manifest["out_of_order_parent"].add((nxt, cid))
                manifest["out_of_order_linear"].add(nxt)
            elif plant == PLANT_SKEW:
                manifest["out_of_order_parent"].add((nxt, cid))
                manifest["out_of_order_linear"].add(nxt)
    return corpus, manifest


# ---------------------------------------------------------------------------
# processes started by the code under test

def record_processes(monkeypatch) -> list:
    """Record every process started through subprocess.Popen from now on.

    Returns the list that each (process, stderr argument) pair is appended
    to. Build any repository first: its git commands would be recorded too.
    """
    started = []
    popen = subprocess.Popen

    def recording(*args, **kwargs):
        started.append((popen(*args, **kwargs), kwargs.get("stderr")))
        return started[-1][0]

    monkeypatch.setattr(subprocess, "Popen", recording)
    return started


def assert_reaped(started) -> None:
    """Every recorded process was waited for and its stderr file closed."""
    for proc, err in started:
        assert proc.returncode is not None, proc.args
        assert err.closed, proc.args


def git_subcommands(started) -> list[str]:
    """The sub-command of each recorded git process, each of which must run
    as ``git --no-replace-objects -C <path> <sub-command> ...``."""
    for proc, _ in started:
        assert proc.args[1:3] == ["--no-replace-objects", "-C"], proc.args
    return [proc.args[4] for proc, _ in started]


# ---------------------------------------------------------------------------
# real git repositories built with fast-import

def init_repo(path) -> None:
    subprocess.run(
        ["git", "init", "-q", "-b", "main", str(path)], check=True, capture_output=True
    )
    subprocess.run(
        ["git", "-C", str(path), "config", "user.email", "test@example.com"],
        check=True, capture_output=True,
    )
    subprocess.run(
        ["git", "-C", str(path), "config", "user.name", "Test"],
        check=True, capture_output=True,
    )


def build_repo(path, commits: list[dict]) -> dict[str, str]:
    """Create a git repository from commit plans via fast-import.

    Each plan: {key, parents (keys), author_epoch, commit_epoch, message,
    name, email, tz, files: {path: content}}. Every commit gets its own ref
    so --all sees the whole graph. Returns key -> real commit sha.
    """
    init_repo(path)
    lines: list[bytes] = []
    marks = {}
    for i, plan in enumerate(commits, start=1):
        marks[plan["key"]] = i
        name = plan.get("name", "Test")
        email = plan.get("email", "test@example.com")
        tz = plan.get("tz", "+0000")
        author_epoch = plan.get("author_epoch", plan["commit_epoch"])
        message = plan.get("message", "commit " + str(plan["key"])).encode()
        lines.append(f"commit refs/heads/c{i}".encode())
        lines.append(f"mark :{i}".encode())
        lines.append(f"author {name} <{email}> {author_epoch} {tz}".encode())
        lines.append(f"committer {name} <{email}> {plan['commit_epoch']} {tz}".encode())
        lines.append(f"data {len(message)}".encode())
        lines.append(message)
        parents = plan.get("parents", ())
        for j, parent_key in enumerate(parents):
            word = "from" if j == 0 else "merge"
            lines.append(f"{word} :{marks[parent_key]}".encode())
        for fpath, content in plan.get("files", {}).items():
            body = content.encode()
            lines.append(f"M 644 inline {fpath}".encode())
            lines.append(f"data {len(body)}".encode())
            lines.append(body)
        lines.append(b"")
    stream = b"\n".join(lines) + b"\n"
    marks_file = str(path) + ".marks"
    subprocess.run(
        ["git", "-C", str(path), "fast-import", "--quiet", f"--export-marks={marks_file}"],
        input=stream, check=True, capture_output=True,
    )
    mark_to_sha = {}
    with open(marks_file) as fh:
        for line in fh:
            mark, sha = line.split()
            mark_to_sha[int(mark.lstrip(":"))] = sha
    return {key: mark_to_sha[m] for key, m in marks.items()}


def write_raw_commit(path, headers: str, message: str, ref: str) -> str:
    """Write a commit object byte for byte with ``hash-object --literally``.

    ``headers`` are the lines after ``tree``, which is the empty tree; the
    object is stored even when git would refuse to create it. Points
    ``refs/heads/<ref>`` at it and returns its sha.
    """
    def git(*args, data=b""):
        return subprocess.run(["git", "-C", str(path), *args], input=data,
                              check=True, capture_output=True).stdout.decode().strip()

    tree = git("mktree")
    body = f"tree {tree}\n{headers}\n{message}".encode("utf-8", "surrogateescape")
    sha = git("hash-object", "-t", "commit", "--literally", "-w", "--stdin", data=body)
    git("update-ref", f"refs/heads/{ref}", sha)
    return sha


def tip_only_repo(path) -> dict[str, str]:
    """a, b and c, each the parent of the next and dated in order, with one
    branch, c3, at c; returns key -> sha."""
    shas = build_repo(path, [
        {"key": "a", "commit_epoch": 1_400_000_000},
        {"key": "b", "commit_epoch": 1_400_001_000, "parents": ["a"]},
        {"key": "c", "commit_epoch": 1_400_002_000, "parents": ["b"]},
    ])
    keep_only_branch(path, "c3")
    return shas


def keep_only_branch(path, branch: str) -> None:
    """Delete every branch of the repository but ``refs/heads/<branch>``, so
    that a walk of ``--all`` starts from that tip alone."""
    def git(*args):
        return subprocess.run(["git", "-C", str(path), *args],
                              check=True, capture_output=True).stdout.decode()

    for ref in git("for-each-ref", "--format=%(refname)", "refs/heads").split():
        if ref != f"refs/heads/{branch}":
            git("update-ref", "-d", ref)


def shallow_clone(src, dest, branch: str) -> None:
    """Clone ``refs/heads/<branch>`` of src into dest with ``--depth 1``; git
    ignores the depth of a plain local path, so it clones a ``file://`` URL."""
    subprocess.run(["git", "clone", "-q", "--depth", "1", "--branch", branch,
                    f"file://{src}", str(dest)], check=True, capture_output=True)


def write_grafts(path, line: str) -> None:
    """Write one line, a commit id and the parents it is to have, to the
    repository's ``.git/info/grafts``. git has deprecated that file, so the
    test is skipped where the installed git does not follow it."""
    import pytest

    info = os.path.join(str(path), ".git", "info")
    os.makedirs(info, exist_ok=True)
    with open(os.path.join(info, "grafts"), "w") as fh:
        fh.write(line + "\n")
    walked = subprocess.run(
        ["git", "-C", str(path), "-c", "advice.graftFileDeprecated=false",
         "rev-list", "--parents", "-n", "1", line.split()[0]],
        check=True, capture_output=True,
    ).stdout.decode().split()
    if walked != line.split():
        pytest.skip("the installed git does not follow .git/info/grafts")
