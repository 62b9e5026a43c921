"""chronolint command line: scan, filter, report, and corpus subcommands.

Exit codes: 0 clean, 1 anomalies found, 2 usage or environment error.
stdout carries data only, by write_output; diagnostics go to stderr, by write_diagnostic.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import errno
import functools
import gc
import itertools
import json
import operator
import os
import re
import sys
from collections import Counter
from datetime import datetime, timezone
from typing import Callable, Collection, Iterable, Sequence, TypeVar

from . import __version__, parallel
from .detect import (
    DEFAULT_FINGERPRINT_RULES,
    DetectorConfig,
    FingerprintRule,
    run_all_detectors,
    sanitize_message,
    scan_fingerprints,
)
from .filters import (
    date_cutoff,
    drop_flagged,
    drop_pre_epoch,
    drop_projects,
    time_window,
)
from .graph import build_history
from .ingest import (
    COMMIT_ORDER,
    IngestReport,
    emit_export_stream,
    normalize_time,
    parse_export_stream,
    range_lines,
    read_repository,
    run_git,
)
from .model import (
    AnomalyRecord,
    ChronolintError,
    CommitRecord,
    ConfigError,
    Fields,
    FilterPolicy,
    TIME_BASES,
)
from .report import (
    ScanReport,
    Tally,
    csv_tables,
    cutoff_table,
    emit,
    emit_anomaly_stream,
    parse_anomaly_stream,
    ranked_tokens,
    summarize,
    tally,
    token_frequencies,
    top_n,
)

EXIT_CLEAN = 0
EXIT_ANOMALIES = 1
EXIT_ERROR = 2


class UsageError(ChronolintError):
    pass


def parse_instant(text: str) -> int:
    """Parse an ISO-8601 date/datetime (or a raw epoch integer) to epoch seconds.

    A trailing Z is read as +00:00, as render_instant writes it; fromisoformat
    accepts Z only from Python 3.11 on.
    """
    try:
        epoch = int(text)
    except ValueError:
        try:
            dt = datetime.fromisoformat(text[:-1] + "+00:00" if text.endswith("Z") else text)
        except ValueError as exc:
            raise UsageError(f"unparseable instant: {text!r}") from exc
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        epoch = int(dt.timestamp())
    try:
        return normalize_time(epoch, "+0000")[0]
    except ValueError as exc:
        raise UsageError(f"unparseable instant: {text!r}: {exc}") from exc


def render_instant(epoch: int) -> str:
    try:
        return datetime.fromtimestamp(epoch, timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    except (OverflowError, OSError, ValueError):
        return f"epoch:{epoch}"


CONFIG_KEYS = frozenset(("old_threshold", "reference", "time_basis", "merge_exclusion",
                         "fingerprint_rules", "policy"))
POLICY_KEYS = frozenset(FilterPolicy._fields)
RULE_KEYS = frozenset(FingerprintRule._fields)


def reject_unknown_keys(obj: dict, known: Collection[str], what: str) -> None:
    """Raise ConfigError naming the first key of obj that is not known.

    A misspelt key would otherwise be ignored, and its default used silently.
    """
    for key in obj:
        if key not in known:
            raise ConfigError(f"{what} {key}: unknown key")


def read_json_object(path: str, what: str) -> dict:
    """The JSON object in the file at path; what, "config" or "policy",
    names the file in its errors."""
    try:
        with open(path, "rb") as fh:
            obj = json.load(fh)
    # ValueError: bad JSON or UTF-8, or an integer beyond int_max_str_digits;
    # RecursionError: JSON nested past the recursion limit
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise UsageError(f"{what} {path} is not a JSON object")
    return obj


def fingerprint_rules_from_config(config: dict) -> tuple[FingerprintRule, ...]:
    raw = config.get("fingerprint_rules")
    if raw is None:
        return DEFAULT_FINGERPRINT_RULES
    if not isinstance(raw, list):
        raise ConfigError(f"fingerprint_rules must be a list: {raw!r}")
    rules = []
    for entry in raw:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("pattern"), str)
        ):
            raise ConfigError(f"bad fingerprint rule entry: {entry!r}")
        reject_unknown_keys(entry, RULE_KEYS, f"fingerprint rule {entry['name']!r}")
        rules.append(FingerprintRule(**entry))
    scan_fingerprints((), rules)  # duplicate names and bad patterns fail at load time
    return tuple(rules)


def detector_config_from(args: argparse.Namespace, config: dict) -> DetectorConfig:
    """The detector settings of the flags, else of the config, else the defaults.

    Only a missing flag or key is unset: an empty value is checked as any other.
    """

    def setting(flag: str | None, key: str):
        return flag if flag is not None else config.get(key)

    old = setting(args.old_threshold, "old_threshold")
    reference = setting(args.reference, "reference")
    basis = setting(args.time_basis, "time_basis")
    merge_exclusion = config.get("merge_exclusion", True)
    if args.no_merge_exclusion:
        merge_exclusion = False
    kwargs: dict = {"merge_exclusion": merge_exclusion}
    if basis is not None:
        kwargs["time_basis"] = basis
    if old is not None:
        kwargs["old_threshold"] = parse_instant(str(old))
    if reference is not None:
        kwargs["future_reference"] = parse_instant(str(reference))
    return DetectorConfig(**kwargs)


def policy_from_object(obj: dict) -> FilterPolicy:
    """Build a FilterPolicy from its JSON form: its instants are read here,
    and FilterPolicy checks every value.

    A bad value raises ConfigError naming its key. A null value takes the
    default, as a missing key does, except that a null min_epoch_seconds is
    no pre-epoch floor.
    """

    def instant(key: str, value) -> int:
        try:
            return parse_instant(str(value))
        except UsageError as exc:
            raise ConfigError(f"policy {key}: {exc}") from exc

    if not isinstance(obj, dict):
        raise ConfigError(f"policy is not a JSON object: {obj!r}")
    reject_unknown_keys(obj, POLICY_KEYS, "policy")
    kwargs = {key: value for key, value in obj.items()
              if value is not None or key == "min_epoch_seconds"}
    if "cutoff" in kwargs:
        kwargs["cutoff"] = instant("cutoff", kwargs["cutoff"])
    if "window" in kwargs:
        window = kwargs["window"]
        if not isinstance(window, list) or len(window) != 2:
            raise ConfigError(f"policy window must be [start, end]: {window!r}")
        kwargs["window"] = (instant("window", window[0]), instant("window", window[1]))
    return FilterPolicy(**kwargs)


def settings_from(
    args: argparse.Namespace,
) -> tuple[DetectorConfig, tuple[FingerprintRule, ...], FilterPolicy]:
    """The detector settings, fingerprint rules and filter policy of a
    command's flags and files; for scan and filter, a check of the input
    flags too.

    Every command builds them before it reads any input, so one file and one
    set of flags are valid or invalid for all, and the first error reported
    does not depend on the input. A config key whose value is null takes its
    default, as a missing key does. The config's policy is checked whichever
    command reads the config; filter's --policy replaces it.
    """
    config = read_json_object(args.config, "config") if args.config is not None else {}
    reject_unknown_keys(config, CONFIG_KEYS, "config")
    config = {key: value for key, value in config.items() if value is not None}
    policy = policy_from_object(config.get("policy", {}))
    cfg, rules = detector_config_from(args, config), fingerprint_rules_from_config(config)
    if getattr(args, "policy", None) is not None:
        policy = policy_from_object(read_json_object(args.policy, "policy"))
    if "jsonl" in args:  # scan and filter read one input source
        if bool(args.repo) == bool(args.jsonl):
            raise UsageError("exactly one of --repo or --jsonl is required")
        if args.jsonl:
            # a JSONL export has no git history for these flags to narrow
            for flag in ("first_parent", "branches", "with_files"):
                if vars(args).get(flag) not in (None, False):
                    raise UsageError(f"--{flag.replace('_', '-')} applies to --repo only")
    return cfg, rules, policy


def load_records(args: argparse.Namespace) -> Parsed:
    """Read the commit records of --repo, which settings_from checked."""
    return read_repository(
        args.repo,
        args.project or args.repo,
        with_files=getattr(args, "with_files", False),
        first_parent=args.first_parent,
        branches=args.branches,
    )


def print_rejects(report: IngestReport, label: str = "chronolint") -> None:
    write_diagnostic("".join(f"{label}: rejected {at}: {why}\n" for at, why in report.rejects))


_PROJECT = operator.attrgetter("project")


def group_by_project(records: Iterable[CommitRecord]) -> dict[str, list[CommitRecord]]:
    corpus: dict[str, list[CommitRecord]] = {}
    # exports list a project's commits together, so each run of them is moved
    # in one step; a project that turns up again is extended, in input order
    for project, run in itertools.groupby(records, key=_PROJECT):
        if project in corpus:
            corpus[project].extend(run)
        else:
            corpus[project] = list(run)
    return corpus


Corpus = dict[str, list[CommitRecord]]


class Scan(Tally):
    """The result of a scan, all that its report and anomaly stream read.

    A unit of a scan finishes its own share of them, so that neither a
    commit record nor an anomaly leaves it: the tally of its flagged
    (project, commit id) pairs, each project's commit count, and, over the
    flagged pairs, each rule's fingerprint count and each token's count in
    their sanitized messages. rows holds each project's anomaly stream
    rows, when the command writes the stream. A new field is one FIELDS
    entry: it merges by its type (see merged), with no merge code.
    """

    FIELDS = {**Tally.FIELDS, "counts": dict, "fingerprints": Counter, "tokens": Counter,
              "rows": dict}


def scan_corpus(
    corpus: Corpus, cfg: DetectorConfig, rules: Sequence[FingerprintRule], rows: bool = False
) -> Scan:
    """Build each project's history, run every detector over it, and tally
    the flagged commits; with rows, render their anomaly stream rows too."""
    counts: dict[str, int] = {}
    anomalies: list[AnomalyRecord] = []
    flagged: dict[tuple[str, str], CommitRecord] = {}
    rendered: dict[str, bytes] = {}
    for project in sorted(corpus):
        history = build_history(corpus[project], project)
        found = run_all_detectors(history, cfg)
        counts[project] = len(history)
        anomalies.extend(found)
        commits = {(project, a.commit_id): history.commits[a.commit_id] for a in found}
        flagged.update(commits)
        if rows and found:
            rendered[project] = emit_anomaly_stream(found, commits)
    messages = [sanitize_message(r.message) for r in flagged.values()]
    authors = {commit: (r.author_name, r.author_email) for commit, r in flagged.items()}
    return Scan(**vars(tally(anomalies, authors)), counts=counts,
                fingerprints=Counter(scan_fingerprints(messages, rules)),
                tokens=Counter(token_frequencies(messages)), rows=rendered)


def build_report(scan: Scan, meta: dict, top: int) -> ScanReport:
    """Assemble a report from a scan's tallies: its meta, the per-kind
    table, the top projects and authors, top rows each, the cutoff table,
    the fingerprints and the tokens."""
    report = summarize(scan.counts, scan)
    report.meta = meta
    report.top_projects = top_n(scan, key="project", n=top)
    report.top_authors = top_n(scan, key="author", n=top)
    report.cutoff_table = cutoff_table(scan)
    report.fingerprints = scan.fingerprints
    report.tokens = ranked_tokens(scan.tokens, limit=50)
    return report


def write_output(data: bytes, out: str | None) -> None:
    """Write data to the file out, or to stdout if out is None, or raise UsageError naming it."""
    try:
        if out is None and sys.stdout is None:  # file descriptor 1 was closed at start
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        with contextlib.nullcontext(sys.stdout.buffer) if out is None else open(out, "wb") as fh:
            fh.write(data)
            fh.flush()
    except OSError as exc:
        if out is None and sys.stdout is not None:  # else the exit flush retries what it kept
            with contextlib.suppress(OSError):
                sys.stdout.close()
        name = "<stdout>" if out is None else out
        raise UsageError(f"cannot write {name}: {exc.strerror or exc}") from exc


def write_diagnostic(text: str) -> None:
    """Write text to stderr; a stderr that is missing, closed or failing drops it."""
    if sys.stderr is not None and not sys.stderr.closed:
        try:
            sys.stderr.write(text)
            sys.stderr.flush()
        except OSError:  # closed, as the exit flush would retry what it kept
            with contextlib.suppress(OSError):
                sys.stderr.close()


def write_report(report: ScanReport, format: str, out: str | None) -> None:
    if format != "csv" or out is None:
        return write_output(emit(report, format), out)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from exc
    for name, body in csv_tables(report).items():
        write_output(body, os.path.join(out, f"{name}.csv"))


def in_project_order(chunks: dict[str, bytes]) -> bytes:
    """The chunks of each project's lines, joined in project order."""
    return b"".join(chunks[project] for project in sorted(chunks))


def finish_scan(
    args: argparse.Namespace,
    scan: Scan,
    cfg: DetectorConfig,
    failures: list[dict] | None = None,
) -> int:
    """Write the report and anomaly stream of a scan; return its exit code."""
    meta = {
        "tool_version": __version__,
        "scan_time": render_instant(cfg.future_reference),
        "future_reference": render_instant(cfg.future_reference),
        "old_threshold": render_instant(cfg.old_threshold),
        "time_basis": cfg.time_basis,
        "merge_exclusion": cfg.merge_exclusion,
    }
    if failures is not None:
        meta["failures"] = failures
    report = build_report(scan, meta, args.top)
    write_report(report, args.format, args.out)
    if args.anomalies_out:
        # the stream is sorted by project first, and each project's rows
        # were rendered whole by the one unit that scanned it
        write_output(in_project_order(scan.rows), args.anomalies_out)
    return EXIT_ANOMALIES if scan.by_project else EXIT_CLEAN


Parsed = tuple[list[CommitRecord], IngestReport]
Read = Callable[[], Parsed]
Result = TypeVar("Result")
Step = Callable[[Corpus], Result]  # a unit's work on the projects it read


def scan_step(
    args: argparse.Namespace, cfg: DetectorConfig, rules: Sequence[FingerprintRule]
) -> Step[Scan]:
    """The unit step of scan and corpus: scan_corpus with every tally, and
    with the anomaly rows when --anomalies-out asks for them."""
    rows = bool(args.anomalies_out)
    return lambda corpus: scan_corpus(corpus, cfg, rules, rows)


def parse_range(path: str, start: int, end: int, project: str) -> Parsed:
    with open(path, "rb") as fh:
        return parse_export_stream(range_lines(fh, start, end), project)


def joined(reports: Iterable[IngestReport]) -> IngestReport:
    """The ingest reports of consecutive reads of one input, as one."""
    whole = IngestReport()
    for report in reports:
        whole.extend(report)
    return whole


def merged(parts: Sequence[Result]) -> Result:
    """The results of units that share no project, as one. The fields are
    those of each result's vars(). An int field adds; every other field
    calls its own update, so a Counter adds counts, and a set, or a dict
    keyed by project or (project, commit id), joins."""
    whole = type(parts[0])()
    for part in parts:
        for name, value in vars(part).items():
            if isinstance(value, int):
                setattr(whole, name, getattr(whole, name) + value)
            else:
                getattr(whole, name).update(value)
    return whole


def scan_units(reads: Sequence[Read], sizes: Sequence[int], step: Step[Result],
               processes: int = 1) -> Result:
    """Run step over the records of reads, the parts of one input in order;
    the one runner of scan and filter, and the one keeper of their rejects.

    With more than one read, each is a unit of parallel.share, sizes[i]
    large, worked by no more processes than processes, the reads and the
    usable CPUs: a unit reads, its keys are the projects it read, and its
    finish returns its ingest report and step's result over those projects.
    merged joins the results, which need no merge code of their own, and
    the rejects of the joined reports are printed after the units. With one
    read, or if two units share a project or any unit fails, this process
    reads what it has not read yet and runs step once over the whole, its
    rejects printed first, so that they precede the error of a step that
    fails. The reads are the input's lines in order, so no output depends
    on how the input was cut.
    """
    parsed: dict[int, Parsed] = {}

    def prepare(i: int) -> tuple[list[str], Callable[[], tuple[IngestReport, Result]]]:
        records, report = parsed[i] = reads[i]()
        corpus = group_by_project(records)
        return list(corpus), lambda: (report, step(corpus))

    if len(reads) > 1:
        try:
            reports, results = zip(*parallel.share(processes, sizes, prepare))
        except (parallel.Shared, ChronolintError):
            pass
        else:
            print_rejects(joined(reports))
            return merged(results)
    parts = [parsed.pop(i, None) or read() for i, read in enumerate(reads)]
    print_rejects(joined(report for _, report in parts))
    return step(group_by_project(itertools.chain.from_iterable(records for records, _ in parts)))


def scan_input(args: argparse.Namespace, step: Step[Result]) -> Result:
    """Run step over the one input source that settings_from checked, as
    the reads of scan_units.

    A repository is one read, as is a JSONL export that range_count keeps
    in one unit, a pipe's among them, read from the file already open.
    Otherwise plan_ranges cuts the export at the starts of project runs into
    up to range_count ranges, several for each process it is planned for,
    each a read as large as its bytes, worked by no more processes than
    planned; targets inside one project find the same start, so an export
    of few projects has fewer.
    """
    if args.repo:
        return scan_units([functools.partial(load_records, args)], [0], step)
    path, project = args.jsonl, args.project or args.jsonl
    try:
        with open(path, "rb") as fh:
            count = parallel.range_count(fh)
            if count == 1:
                read = functools.partial(parse_export_stream, fh, project)
                return scan_units([read], [0], step)
            plan = parallel.plan_ranges(fh, os.fstat(fh.fileno()).st_size, project, count)
            reads = [functools.partial(parse_range, path, *bounds, project) for bounds in plan]
            return scan_units(reads, [end - start for start, end in plan], step,
                              parallel.planned_processes(count))
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def cmd_scan(args: argparse.Namespace) -> int:
    cfg, rules, _ = settings_from(args)
    return finish_scan(args, scan_input(args, scan_step(args, cfg, rules)), cfg)


class Kept(Fields):
    """The result of a filter: the counts of its summary line, and each
    project's kept records as export lines. A new field is one FIELDS entry:
    it merges by its type (see merged)."""

    FIELDS = {"kept": int, "dropped": int, "blacklisted": int, "lines": dict}


def filter_corpus(corpus: Corpus, cfg: DetectorConfig, policy: FilterPolicy) -> Kept:
    """The unit step of filter, one project at a time: drop the blacklisted
    projects unread; build each other project's history, so that filter
    rejects what scan rejects; then drop its flagged, pre-epoch, cut-off and
    out-of-window records, and emit the rest in COMMIT_ORDER."""
    projects = drop_projects(corpus, policy.project_blacklist)
    result = Kept(blacklisted=sum(len(corpus[p]) for p in corpus.keys() - projects.keys()))
    basis = policy.time_basis
    for project in sorted(projects):
        kept = projects[project]
        history = build_history(kept, project)
        if policy.drop_flagged_kinds:
            kept, _ = drop_flagged(kept, run_all_detectors(history, cfg),
                                   policy.drop_flagged_kinds)
        if policy.min_epoch_seconds is not None:
            kept, _ = drop_pre_epoch(kept, policy.min_epoch_seconds, basis)
        if policy.cutoff is not None:
            kept, _ = date_cutoff(kept, policy.cutoff, policy.cutoff_mode, basis)
        if policy.window is not None:
            kept = time_window(kept, policy.window[0], policy.window[1], basis)
        result.kept += len(kept)
        result.dropped += len(history) - len(kept)
        if kept:
            result.lines[project] = emit_export_stream(sorted(kept, key=COMMIT_ORDER))
    return result


def cmd_filter(args: argparse.Namespace) -> int:
    cfg, _, policy = settings_from(args)
    result = scan_input(args, lambda corpus: filter_corpus(corpus, cfg, policy))
    # kept lines are in project order, and each project's lines were
    # emitted whole by the one unit that filtered it
    write_output(in_project_order(result.lines), args.out)
    summary = json.dumps({"kept": result.kept, "dropped": result.dropped + result.blacklisted,
                          "dropped_blacklisted_projects": result.blacklisted})
    if args.out is not None:
        write_output(f"{summary}\n".encode(), None)
    else:
        write_diagnostic(f"{summary}\n")
    return EXIT_CLEAN


def cmd_report(args: argparse.Namespace) -> int:
    try:
        with open(args.infile, "rb") as fh:
            anomalies, authors, messages = parse_anomaly_stream(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {args.infile}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    # commit counts are not in the stream, so every denominator reads 0
    scan = Scan(**vars(tally(anomalies, authors)),
                tokens=Counter(token_frequencies(sanitize_message(m) for m in messages.values())))
    meta = {"tool_version": __version__, "source": args.infile}
    report = build_report(scan, meta, args.top)
    write_report(report, args.format, args.out)
    return EXIT_CLEAN


_URL_RE = re.compile(r"^[a-z+]+://|^git@")


def _cache_path(cache_dir: str, url: str) -> str:
    """The clone directory of url: a readable name, then a digest of the whole URL.

    Sanitizing alone maps different URLs to one name ("a/b", "a_b", "a b").
    The readable part keeps its first 238 characters, so that the name fits
    in the 255 bytes a file name may take.
    """
    import hashlib  # loads OpenSSL, which only a run with URLs needs

    safe = re.sub(r"[^0-9A-Za-z._-]+", "_", url).strip("_")[:238]
    digest = hashlib.sha256(url.encode("utf-8")).hexdigest()
    return os.path.join(cache_dir, f"{safe}-{digest[:16]}")


def _ensure_local(url: str, target: str) -> None:
    """Clone a corpus list URL to target, its _cache_path, unless target is
    there; git runs in the cache directory, which is made if missing."""
    if not os.path.isdir(target):
        cache_dir = os.path.dirname(target)
        os.makedirs(cache_dir, exist_ok=True)
        # absolute, as git runs in the cache directory
        with run_git(cache_dir, ["clone", "--quiet", url, os.path.abspath(target)]) as clone:
            clone.stdout.read()  # empty, but a hook may print


Outcome = tuple[IngestReport, Scan] | str


def scan_repository(path: str, project: str, step: Step[Scan]) -> Outcome:
    """Read one repository of a corpus and run step over it: the ingest
    report of the read and what the report needs of it, or the error that
    fails it alone. project is the corpus list's entry; a URL's is cloned
    to path first, unless the clone is there, and a failed clone fails it
    as a failed read does."""
    try:
        if _URL_RE.match(project):
            _ensure_local(project, path)
        records, report = read_repository(path, project)
        return report, step({project: records})
    except (ChronolintError, OSError) as exc:
        return str(exc)


def object_store_size(path: str) -> int:
    """The bytes of the files under a repository's object store, .git/objects
    or a bare repository's objects; 0 for a store that cannot be read."""
    objects = os.path.join(path, ".git", "objects")
    if not os.path.isdir(objects):
        objects = os.path.join(path, "objects")
    size = 0
    for directory, _, names in os.walk(objects):  # an unreadable directory is skipped
        for name in names:
            try:
                size += os.lstat(os.path.join(directory, name)).st_size
            except OSError:
                pass
    return size


def scan_repositories(repos: list[tuple[str, str]], step: Step[Scan], jobs: int) -> list[Outcome]:
    """scan_repository over each (path, project) of repos, in up to jobs
    processes, the outcomes in the order of repos: each repository is a unit
    of parallel.share, as large as its object store, cloned if it is a URL's
    and not yet cloned, and scanned when it is prepared, with no keys. A
    clone not yet made is 0 bytes large, so it is taken after every unit
    that has a size."""

    def prepare(i: int) -> tuple[tuple[()], Callable[[], Outcome]]:
        outcome = scan_repository(*repos[i], step)
        return (), lambda: outcome

    sizes = [object_store_size(path) for path, _ in repos]
    return parallel.share(jobs, sizes, prepare)


def cmd_corpus(args: argparse.Namespace) -> int:
    cfg, rules, _ = settings_from(args)
    try:
        with open(args.list, "r", encoding="utf-8") as fh:
            entries = sorted({ln.strip() for ln in fh if ln.strip()})
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {args.list}: {exc}") from exc
    if not entries:
        raise UsageError("corpus list is empty")

    urls = [entry for entry in entries if _URL_RE.match(entry)]
    if urls and not args.cache:  # an empty --cache names no directory either
        raise UsageError(f"--cache is required for remote repositories: {urls[0]}")
    repos = [(_cache_path(args.cache, entry) if _URL_RE.match(entry) else entry, entry)
             for entry in entries]
    outcomes = scan_repositories(repos, scan_step(args, cfg, rules), args.jobs)

    # in the sorted list's order, so that stderr is the same whatever --jobs is
    failures: list[dict] = []
    scans: list[Scan] = []
    for entry, outcome in zip(entries, outcomes):
        if isinstance(outcome, str):
            failures.append({"entry": entry, "error": outcome})
            write_diagnostic(f"chronolint: {entry}: {outcome}\n")
        else:
            report, scan = outcome
            print_rejects(report, f"chronolint: {entry}")
            scans.append(scan)
    if not scans:
        write_diagnostic("chronolint: all repositories failed\n")
        return EXIT_ERROR
    return finish_scan(args, merged(scans), cfg, failures=failures)


def positive_int(text: str) -> int:
    """argparse type for a count flag: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {value}")
    return value


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--repo", help="path to a git repository")
    parser.add_argument("--jsonl", help="path to a JSONL commit export")
    parser.add_argument("--project", help="project label for the input")
    parser.add_argument("--first-parent", action="store_true",
                        help="walk first-parent history only")
    parser.add_argument("--branches", metavar="NAME|GLOB",
                        help="walk only branch NAME, or the branches matching GLOB "
                             "(a value with *, ? or [)")


def _add_detector_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--old-threshold", help="suspicious-old cutoff (ISO-8601)")
    parser.add_argument("--reference", help="future-date reference instant (ISO-8601); "
                                            "defaults to scan wall-clock time")
    parser.add_argument("--time-basis", choices=tuple(TIME_BASES),
                        help="which commit date detectors read (default committer)")
    parser.add_argument("--no-merge-exclusion", action="store_true",
                        help="keep merge-related commits in the linear comparison")
    parser.add_argument("--config", help="JSON config file (flags take precedence)")


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    parser.add_argument("--out", help="write report here instead of stdout "
                                      "(a directory for csv)")
    parser.add_argument("--top", type=positive_int, default=20,
                        help="rows in the top-projects/top-authors tables")


class Parser(argparse.ArgumentParser):
    """argparse's parser: --help and --version go to write_output, errors to write_diagnostic."""

    def _print_message(self, message: str, file=None) -> None:
        if file is not sys.stdout:
            return write_diagnostic(message)
        write_output(b"" if file is None else message.encode(file.encoding, file.errors), None)

    def print_usage(self, file=None) -> None:
        # only error() calls it, with sys.stderr, which argparse swaps for stdout where it is None
        write_diagnostic(self.format_usage())


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="chronolint",
        description="Detect, quantify, and filter temporal anomalies in git history.",
    )
    parser.add_argument("--version", action="version", version=f"chronolint {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="scan one repository or export for anomalies")
    _add_input_options(p_scan)
    _add_detector_options(p_scan)
    _add_output_options(p_scan)
    p_scan.add_argument("--anomalies-out", help="also write flagged commits as JSONL")
    p_scan.set_defaults(func=cmd_scan)

    p_filter = sub.add_parser("filter", help="apply a mitigation policy to commit records")
    _add_input_options(p_filter)
    _add_detector_options(p_filter)
    p_filter.add_argument("--with-files", action="store_true",
                          help="collect changed-file lists (slower)")
    p_filter.add_argument("--policy", help="JSON filter policy file")
    p_filter.add_argument("--out", help="write the filtered JSONL here")
    p_filter.set_defaults(func=cmd_filter)

    p_report = sub.add_parser("report", help="summarize a previously written anomaly JSONL")
    p_report.add_argument("--in", dest="infile", required=True,
                          help="anomaly JSONL produced by scan --anomalies-out")
    _add_output_options(p_report)
    p_report.set_defaults(func=cmd_report)

    p_corpus = sub.add_parser("corpus", help="scan many repositories and merge reports")
    p_corpus.add_argument("--list", required=True,
                          help="file of repository paths/URLs, one per line")
    p_corpus.add_argument("--jobs", type=positive_int, default=1)
    p_corpus.add_argument("--cache", help="clone cache directory for remote URLs")
    _add_detector_options(p_corpus)
    _add_output_options(p_corpus)
    p_corpus.add_argument("--anomalies-out", help="also write flagged commits as JSONL")
    p_corpus.set_defaults(func=cmd_corpus)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the command in argv, or, when argv is None, the command line of
    this process: then main is the program, and the collector is frozen at
    exit, however the program ends.

    The cyclic collector is off for the whole command, in forked workers
    too: the few hundred objects a command leaves in reference cycles,
    argparse's mostly, do not grow with its input, while a run holds many
    tracked objects (records are tuples) that each collection would walk.
    The interpreter still collects as it exits, so the program freezes
    what it holds first and those collections walk nothing; a caller of
    main(argv) keeps its objects and its collector as they were.
    """
    if argv is None:
        atexit.register(gc.freeze)
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ChronolintError as exc:
        write_diagnostic(f"chronolint: {exc}\n")
        return EXIT_ERROR
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
