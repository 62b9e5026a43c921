"""Seeded synthetic inputs for the chronolint benchmark, with planted truth.

Nothing here imports chronolint. The commit model, the JSONL writer and the
``git fast-import`` writer belong to the benchmark, so the oracle that checks
chronolint's answers shares no code with the program under test.

Every input is a pure function of the seed. Each workload function returns a
``Case``: the chronolint command line to run, the exit code it must give, the
files whose bytes must repeat across invocations, and the generated projects
that the oracle turns into the expected answers.
"""

from __future__ import annotations

import calendar
import copy
import hashlib
import json
import os
import random
import subprocess
from dataclasses import dataclass, field

# --reference is pinned so that reports are byte-identical across runs.
REFERENCE_EPOCH = calendar.timegm((2021, 1, 1, 0, 0, 0))
REFERENCE_ARG = "2021-01-01T00:00:00+00:00"
# Dirty values seen in real corpora; git cannot store negative epochs, so
# the 1905 value is used only in JSONL inputs.
OLD_EPOCHS_GIT = (730, 7403, 88211, 1000000, 315772873, 566635987, 589770257)
OLD_EPOCHS_JSONL = OLD_EPOCHS_GIT + (-2044178335,)
FUTURE_EPOCHS = tuple(calendar.timegm((y, 1, 1, 0, 0, 0)) for y in (2025, 2027, 2037))
# Skewed clocks stay a day short of the reference so they never read as future.
SKEW_CAP = REFERENCE_EPOCH - 86400
ZONES = ("+0000", "-0700", "+0100", "+0530", "-0500", "+0900")

PLANT_KINDS = ("zero", "old", "future", "skew")

# Raw bytes that real corpora carry in messages. Each is appended after the
# meaningful text; in live repositories the lone 0x1F is used only on the
# one designated commit (see ``git_corpus``), so that which checks the
# known ingest defect breaks does not depend on the seed.
RAW_SUFFIXES = (b" \x1ers-trailer", b" us\x1ffield", b" \xff\xfe\xfdbytes")
RAW_SUFFIXES_GIT = (b" \x1ers-trailer", b" \xff\xfe\xfdbytes")

WORDS = (
    "parser buffer packet cache index layout schema encoder decoder socket "
    "thread queue config module handler render widget table loader format "
    "branch option plugin script report export import release version build "
    "header footer window dialog process token stream filter matrix vector "
    "kernel network storage journal backup search cursor sorter printer"
).split()
VERBS = ("Fix", "Add", "Update", "Remove", "Refactor", "Rename", "Document", "Port")

FINGERPRINT_LINES = {
    "git-svn-id": lambda rng, p: b"git-svn-id: svn://svn.example.org/%s/trunk@%d %s"
    % (p.encode(), rng.randint(1, 99999), _hex(rng, 32)[:36].encode()),
    "Change-Id": lambda rng, p: b"Change-Id: I" + _hex(rng, 40).encode(),
    "Reviewed-by": lambda rng, p: b"Reviewed-by: Rev Iewer <rev@example.org>",
    "rebase_source": lambda rng, p: b"--HG--\nextra : rebase_source : " + _hex(rng, 40).encode(),
    "hg": lambda rng, p: b"converted from hg changeset " + _hex(rng, 12).encode(),
    "MOE|push_codebase": lambda rng, p: b"MOE_MIGRATED_REVID=%d" % rng.randint(1, 10**8),
}


def _hex(rng: random.Random, n: int) -> str:
    return "%0*x" % (n, rng.getrandbits(4 * n))


class Commit:
    """One planned commit. ``plant`` names the time anomaly planted on it."""

    __slots__ = ("index", "ref", "parent_idx", "id", "parents", "author_time",
                 "author_tz", "commit_time", "commit_tz", "name", "email",
                 "message", "plant")

    def text(self) -> str:
        """The message as chronolint decodes it (surrogateescape)."""
        return self.message.decode("utf-8", "surrogateescape")


@dataclass(frozen=True)
class Profile:
    """Shape of one generated project."""

    gap: tuple[int, int] = (100, 500)
    merge_share: float = 0.0
    branch_share: float = 0.0
    plant_share: float = 0.008
    plant_weights: tuple[float, ...] = (1, 1, 1, 1)   # zero, old, future, skew
    rebase_share: float = 0.0
    zero_author_share: float = 0.0
    raw_share: float = 0.005
    raw_suffixes: tuple[bytes, ...] = RAW_SUFFIXES
    old_epochs: tuple[int, ...] = OLD_EPOCHS_JSONL
    imported: bool = False                  # importer-style messages
    fingerprint_shares: dict = field(default_factory=dict)
    merge_text_share: float = 0.0           # non-merge messages mentioning merge
    authors: int = 7


LINEAR = Profile()
IMPORT = Profile(
    gap=(60, 900),
    merge_share=0.25,
    branch_share=0.3,
    plant_share=0.28,
    plant_weights=(3, 2, 2, 3),
    rebase_share=0.1,
    zero_author_share=0.01,
    imported=True,
    fingerprint_shares={
        "git-svn-id": 0.3, "Change-Id": 0.2, "Reviewed-by": 0.1,
        "rebase_source": 0.03, "hg": 0.03, "MOE|push_codebase": 0.02,
    },
    merge_text_share=0.03,
    authors=40,
)
IMPORT_GIT = Profile(**{**IMPORT.__dict__, "old_epochs": OLD_EPOCHS_GIT,
                        "raw_suffixes": RAW_SUFFIXES_GIT})
EPOCH_ZONE_GIT = Profile(**{**IMPORT_GIT.__dict__, "plant_share": 0.0})


def zone_seconds(zone: str) -> int:
    sign = -1 if zone[0] == "-" else 1
    return sign * (int(zone[1:3]) * 3600 + int(zone[3:5]) * 60)


def renders_before_epoch(c: "Commit") -> bool:
    """True when a date's local time is before 1970, which git log cannot print."""
    return (c.author_time + zone_seconds(c.author_tz) < 0
            or c.commit_time + zone_seconds(c.commit_tz) < 0)


def _message(rng: random.Random, profile: Profile, project: str, c: Commit,
             branch_name: str | None) -> bytes:
    if not profile.imported:
        msg = b"change %d in %s" % (c.index, project.encode())
    elif len(c.parent_idx) > 1:
        msg = b"Merge branch '%s' into %s" % (branch_name.encode(), c.ref.encode())
    else:
        subject = "%s %s %s" % (rng.choice(VERBS), rng.choice(WORDS), rng.choice(WORDS))
        if rng.random() < profile.merge_text_share:
            subject += " after merge upstream"
        body = " ".join(rng.choice(WORDS) for _ in range(rng.randint(12, 40)))
        lines = [subject.encode(), b"", body.encode()]
        tags = [FINGERPRINT_LINES[name](rng, project)
                for name, share in profile.fingerprint_shares.items()
                if rng.random() < share]
        if tags:
            lines += [b""] + tags
        msg = b"\n".join(lines)
    if rng.random() < profile.raw_share:
        msg += rng.choice(profile.raw_suffixes)
    return msg


def make_project(rng: random.Random, project: str, n: int, profile: Profile,
                 start_epoch: int) -> list[Commit]:
    """Plan ``n`` commits: a chain, or a branchy DAG when merges are on.

    Clean times grow with creation order, so a clean commit is never older
    than its parents; every anomaly comes from a plant.
    """
    commits: list[Commit] = []
    live: list[list] = [["main", 0]]        # [ref, tip index]
    branches = 0
    zones = [rng.choice(ZONES) for _ in range(profile.authors)]
    t = start_epoch
    for i in range(n):
        t += rng.randint(*profile.gap)
        c = Commit()
        c.index = i
        merged_name = None
        if i == 0:
            c.parent_idx = ()
            c.ref = "main"
        elif len(live) >= 2 and rng.random() < profile.merge_share:
            a, b = rng.sample(range(len(live)), 2)
            c.parent_idx = (live[a][1], live[b][1])
            c.ref = live[a][0]
            merged_name = live[b][0]
            live[a][1] = i
            del live[b]
        elif len(live) < 4 and rng.random() < profile.branch_share:
            base = rng.choice(live)
            branches += 1
            c.parent_idx = (base[1],)
            c.ref = "topic-%d" % branches
            live.append([c.ref, i])
        else:
            k = rng.randrange(len(live))
            c.parent_idx = (live[k][1],)
            c.ref = live[k][0]
            live[k][1] = i
        author = rng.randrange(profile.authors)
        c.name = "dev%d" % author
        c.email = "dev%d@%s.example" % (author, project.replace("/", "-"))
        c.author_tz = c.commit_tz = zones[author]
        c.plant = None
        commit_time = author_time = t
        if rng.random() < profile.plant_share:
            c.plant = rng.choices(PLANT_KINDS, profile.plant_weights)[0]
            if c.plant == "zero":
                commit_time = 0
            elif c.plant == "old":
                commit_time = rng.choice(profile.old_epochs)
            elif c.plant == "future":
                commit_time = rng.choice(FUTURE_EPOCHS) + rng.randint(0, 10**6)
            else:
                commit_time = min(t + rng.randint(7200, 200 * 86400), SKEW_CAP)
            author_time = commit_time
        elif rng.random() < profile.zero_author_share:
            author_time = 0             # importer zeroed only the author date
        elif rng.random() < profile.rebase_share:
            author_time = t - rng.randint(60, 30 * 86400)
        c.commit_time, c.author_time = commit_time, author_time
        c.message = _message(rng, profile, project, c, merged_name)
        commits.append(c)
    assert t < SKEW_CAP, "clean history ran past the skew cap"
    return commits


def assign_fake_ids(seed: int, project: str, commits: list[Commit]) -> None:
    for c in commits:
        c.id = hashlib.sha1(b"%d:%s:%d" % (seed, project.encode(), c.index)).hexdigest()
    for c in commits:
        c.parents = tuple(commits[p].id for p in c.parent_idx)


def jsonl_line(project: str, c: Commit) -> bytes:
    obj = {
        "id": c.id, "parents": list(c.parents),
        "author_time": c.author_time, "author_tz": c.author_tz,
        "commit_time": c.commit_time, "commit_tz": c.commit_tz,
        "author_name": c.name, "author_email": c.email,
        "message": c.text(), "project": project,
    }
    return json.dumps(obj, ensure_ascii=True, separators=(",", ":")).encode("ascii")


def write_jsonl(path: str, projects: dict[str, list[Commit]]) -> None:
    with open(path, "wb") as fh:
        for project, commits in projects.items():
            fh.write(b"\n".join(jsonl_line(project, c) for c in commits) + b"\n")


# ---------------------------------------------------------------------------
# live repositories

def git_env(home: str) -> dict:
    """Environment that keeps user and system git config out of the run."""
    env = dict(os.environ)
    env.update(HOME=home, GIT_CONFIG_NOSYSTEM="1", LC_ALL="C")
    env.pop("GIT_DIR", None)
    return env


def fast_import(repo: str, commits: list[Commit], env: dict) -> None:
    """Write the planned commits into a new bare repository and set ids."""
    subprocess.run(["git", "init", "--bare", "-q", "-b", "main", repo],
                   env=env, check=True, capture_output=True)
    parts = []
    for c in commits:
        parts.append(b"commit refs/heads/%s\nmark :%d\n" % (c.ref.encode(), c.index + 1))
        parts.append(b"author %s <%s> %d %s\n" % (c.name.encode(), c.email.encode(),
                                                  c.author_time, c.author_tz.encode()))
        parts.append(b"committer %s <%s> %d %s\n" % (c.name.encode(), c.email.encode(),
                                                     c.commit_time, c.commit_tz.encode()))
        parts.append(b"data %d\n%s\n" % (len(c.message), c.message))
        for j, p in enumerate(c.parent_idx):
            parts.append(b"%s :%d\n" % (b"from" if j == 0 else b"merge", p + 1))
        parts.append(b"\n")
    marks = repo + ".marks"
    subprocess.run(["git", "-C", repo, "fast-import", "--quiet", "--export-marks=" + marks],
                   input=b"".join(parts), env=env, check=True, capture_output=True)
    sha_of = {}
    with open(marks) as fh:
        for line in fh:
            mark, sha = line.split()
            sha_of[int(mark[1:]) - 1] = sha
    os.unlink(marks)
    for c in commits:
        c.id = sha_of[c.index]
        c.parents = tuple(sha_of[p] for p in c.parent_idx)


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Case:
    """One workload instance: what to run and what it must answer."""

    command: str                        # scan | filter | corpus
    argv: list[str]
    exit_code: int
    outputs: list[str]                  # files that must repeat byte for byte
    projects: dict[str, list[Commit]]
    policy: dict | None = None
    live_git: bool = False              # known live-ingest/fork defects apply

    @property
    def commits(self) -> int:
        return sum(len(v) for v in self.projects.values())


def _scan_case(work: str, projects: dict[str, list[Commit]]) -> Case:
    data = os.path.join(work, "commits.jsonl")
    write_jsonl(data, projects)
    report = os.path.join(work, "report.json")
    anomalies = os.path.join(work, "anomalies.jsonl")
    return Case(
        command="scan",
        argv=["scan", "--jsonl", data, "--reference", REFERENCE_ARG,
              "--out", report, "--anomalies-out", anomalies],
        exit_code=1,
        outputs=[report, anomalies],
        projects=projects,
    )


def planted_scan(seed: int, work: str, repos: int = 100, per_repo: int = 200) -> Case:
    """Many linear projects with about 1% of commits flagged."""
    rng = random.Random(seed)
    projects = {}
    for i in range(repos):
        name = "synth/repo%03d" % i
        start = calendar.timegm((2015, 1, 1, 0, 0, 0)) + i * 86400
        projects[name] = make_project(rng, name, per_repo, LINEAR, start)
        assign_fake_ids(seed, name, projects[name])
    return _scan_case(work, projects)


def _import_projects(seed: int, sizes: list[int]) -> dict[str, list[Commit]]:
    rng = random.Random(seed * 7919 + 17)
    projects = {}
    for i, n in enumerate(sizes):
        name = "import/proj%d" % i
        start = calendar.timegm((2014, 6, 1, 0, 0, 0)) + i * 10 * 86400
        projects[name] = make_project(rng, name, n, IMPORT, start)
        assign_fake_ids(seed, name, projects[name])
    return projects


DIRTY_SIZES = [3500, 2800, 2100, 1400]
FILTER_POLICY = {
    "drop_flagged_kinds": ["suspicious_old", "zero_epoch", "future",
                           "out_of_order_linear", "out_of_order_parent"],
    "min_epoch_seconds": 1,
    "cutoff": "2014-06-20",
}


def dirty_scan(seed: int, work: str, sizes: list[int] = DIRTY_SIZES) -> Case:
    """A few large import-style DAGs with about a third of commits flagged."""
    return _scan_case(work, _import_projects(seed, sizes))


def dirty_filter(seed: int, work: str, sizes: list[int] = DIRTY_SIZES) -> Case:
    """The dirty-scan corpus through ``filter`` with every drop rule on."""
    projects = _import_projects(seed, sizes)
    data = os.path.join(work, "commits.jsonl")
    write_jsonl(data, projects)
    policy = os.path.join(work, "policy.json")
    with open(policy, "w") as fh:
        json.dump(FILTER_POLICY, fh)
    kept = os.path.join(work, "kept.jsonl")
    return Case(
        command="filter",
        argv=["filter", "--jsonl", data, "--policy", policy,
              "--reference", REFERENCE_ARG, "--out", kept],
        exit_code=0,
        outputs=[kept],
        projects=projects,
        policy=FILTER_POLICY,
    )


ALL_FINGERPRINTS = b"\n".join([
    b"Imported snapshot", b"",
    b"git-svn-id: svn://svn.example.org/small/trunk@1 0f2e4d6c-0000-0000-0000-000000000000",
    b"Change-Id: I0123456789abcdef0123456789abcdef01234567",
    b"Reviewed-by: Rev Iewer <rev@example.org>",
    b"extra : rebase_source : 0123456789abcdef0123456789abcdef01234567",
    b"converted from hg changeset 0123456789ab",
    b"MOE_MIGRATED_REVID=1",
])


def git_corpus(seed: int, work: str, large: int = 3000, small: int = 400,
               smalls: int = 4) -> Case:
    """Bare repositories of skewed size, plus a fork that shares commits.

    Four commits are designated so that the known defects show on every
    seed, each in a fixed set of checks:
    - the large repo's middle commit is a zero-epoch plant whose message has
      0x1E before its git-svn-id line (live-ingest truncation);
    - the forked repo's middle commit is a zero-epoch plant carrying every
      fingerprint, so the fork's shared flags hit every per-kind and
      fingerprint count (fork miscount);
    - another small repo gets an orphan root dated one second before the
      reference with a lone 0x1F in its message, which live ingest drops.
      It has no children and is newer than every other non-future commit,
      so dropping it changes totals and percentages but no anomaly set;
    - a 40-commit repo has a root commit at epoch 730 in zone -0500, whose
      local time is before 1970. ``git log`` refuses to render it, so the
      whole repo fails to read. As a root older than everything, it is in
      no parent or linear flag, so only its suspicious_old flag and the
      totals go missing. Every other commit near the epoch gets zone
      +0000, so this stays the only such repo.
    """
    rng = random.Random(seed * 104729 + 3)
    home = os.path.join(work, "home")
    os.makedirs(home)
    env = git_env(home)
    plans = {"large": large, **{"small%d" % i: small for i in range(smalls)},
             "epoch-zone": 40}
    repos: dict[str, list[Commit]] = {}
    for i, (label, n) in enumerate(plans.items()):
        start = calendar.timegm((2014, 6, 1, 0, 0, 0)) + i * 5 * 86400
        profile = IMPORT_GIT if label != "epoch-zone" else EPOCH_ZONE_GIT
        repos[label] = make_project(rng, label, n, profile, start)
        for c in repos[label]:
            if renders_before_epoch(c):
                c.author_tz = c.commit_tz = "+0000"

    def designate_zero(commits: list[Commit], message: bytes) -> None:
        c = commits[len(commits) // 2]
        c.plant, c.commit_time, c.author_time, c.message = "zero", 0, 0, message
        c.author_tz = c.commit_tz = "+0000"

    designate_zero(repos["large"], b"Import r1 from svn\x1e\ngit-svn-id: "
                   b"svn://svn.example.org/large/trunk@1 0f2e4d6c-0000")
    root = repos["epoch-zone"][0]
    root.plant, root.commit_time, root.author_time = "old", 730, 730
    root.author_tz = root.commit_tz = "-0500"
    designate_zero(repos["small0"], ALL_FINGERPRINTS)
    orphan = copy.copy(repos["small1"][-1])
    orphan.index, orphan.ref, orphan.parent_idx, orphan.plant = len(repos["small1"]), "orphan", (), None
    orphan.commit_time = orphan.author_time = REFERENCE_EPOCH - 1
    orphan.message = b"wip\x1fscratch notes"
    repos["small1"].append(orphan)

    projects: dict[str, list[Commit]] = {}
    for label, commits in repos.items():
        path = os.path.join(work, label + ".git")
        fast_import(path, commits, env)
        projects[path] = commits
    origin = os.path.join(work, "small0.git")
    fork = os.path.join(work, "small0-fork.git")
    subprocess.run(["git", "clone", "--bare", "--quiet", origin, fork],
                   env=env, check=True, capture_output=True)
    projects[fork] = [copy.copy(c) for c in projects[origin]]

    listing = os.path.join(work, "repos.txt")
    with open(listing, "w") as fh:
        fh.write("".join(p + "\n" for p in projects))
    report = os.path.join(work, "report.json")
    anomalies = os.path.join(work, "anomalies.jsonl")
    return Case(
        command="corpus",
        argv=["corpus", "--list", listing, "--jobs", "2", "--reference", REFERENCE_ARG,
              "--out", report, "--anomalies-out", anomalies],
        exit_code=1,
        outputs=[report, anomalies],
        projects=projects,
        live_git=True,
    )


WORKLOADS = {
    "jsonl-scan": planted_scan,
    "dirty-scan": dirty_scan,
    "dirty-filter": dirty_filter,
    "git-corpus": git_corpus,
}
