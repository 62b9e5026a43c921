"""Aggregate anomalies into corpus-level tables and serialize reports.

tally counts the flagged commits once, and every table reads that tally.
Every table is sorted deterministically (count descending, then key
ascending) and serialization is byte-stable across runs and input
permutations. Both denominators are always reported for percentages:
the whole corpus and just the affected projects. A flagged commit is a
(project, commit id) pair, so a commit shared by two projects counts in
each, as it does in the denominators.
"""

from __future__ import annotations

import io
import json
import os
import re
from collections import Counter
from datetime import MAXYEAR, datetime, timezone
from json.encoder import encode_basestring_ascii
from typing import IO, Iterable, Mapping, NamedTuple

from .ingest import QuotedZones, load_json_line, normalize_time
from .model import AnomalyKind, AnomalyRecord, CommitRecord, Fields, is_commit_hash

TOKEN_RE = re.compile(r"[0-9a-z/_-]+")
# Each byte of a token kept, every other byte made a space, so that the
# words of a message's ASCII encoding are the tokens TOKEN_RE finds in it;
# a character outside ASCII, never in a token, is encoded as "?" first.
_TOKEN_BYTES = bytes(c if TOKEN_RE.fullmatch(chr(c)) else 0x20 for c in range(256))

class CutoffRow(NamedTuple):
    year: int
    percent_removed: float  # fraction in [0, 1]


class ScanReport(Fields):
    """Corpus-level scan results in the canonical report layout."""

    FIELDS = {"meta": dict, "totals": lambda: {"commits": 0, "projects": 0}, "anomalies": dict,
              "top_projects": list, "top_authors": list, "cutoff_table": list,
              "fingerprints": dict, "tokens": list}


def default_stopwords() -> frozenset[str]:
    """The bundled English stop word list (overridable by callers).

    Read through this module's own loader, from a source tree, a wheel or
    a zip alike, so that no import of importlib.resources (and of the
    tempfile, shutil and pathlib behind it) is paid at start-up.
    """
    path = os.path.join(os.path.dirname(__file__), "data", "stopwords.txt")
    text = __spec__.loader.get_data(path).decode("utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


def _epoch_year(epoch: int) -> int:
    """The UTC year of epoch; a time before year 1 is in year 1, and one
    after MAXYEAR in MAXYEAR."""
    try:
        return datetime.fromtimestamp(epoch, timezone.utc).year
    except (OverflowError, OSError, ValueError):
        return 1 if epoch < 0 else MAXYEAR


class Tally(Fields):
    """Flagged (project, commit id) pairs, each counted once, keyed four
    ways: by (kind, project), by project, by the UTC year of the pair's
    first observed time, and by its author's (email, name). The tables of
    a report read only these counts."""

    FIELDS = {"by_kind": Counter, "by_project": Counter, "by_year": Counter,
              "by_author": Counter}


def tally(
    anomalies: Iterable[AnomalyRecord],
    authors: Mapping[tuple[str, str], tuple[str, str]] | None = None,
) -> Tally:
    """Count the distinct flagged (project, commit id) pairs of anomalies.

    authors maps a pair to its (name, email); a pair missing from it is
    counted by no author. The only place anomalies become counts.
    """
    first: dict[tuple[str, str], int] = {}
    kinds: set[tuple[AnomalyKind, str, str]] = set()
    for a in anomalies:
        first.setdefault((a.project, a.commit_id), a.observed)
        kinds.add((a.kind, a.project, a.commit_id))
    authors = authors or {}
    return Tally(
        by_kind=Counter((kind, project) for kind, project, _ in kinds),
        by_project=Counter(project for project, _ in first),
        by_year=Counter(map(_epoch_year, first.values())),
        by_author=Counter((authors[pair][1], authors[pair][0])
                          for pair in first if pair in authors),
    )


def summarize(commit_counts: Mapping[str, int], counts: Tally) -> ScanReport:
    """Compute totals and per-kind counts/percentages over the corpus.

    commit_counts maps each project to its number of commits. For each
    kind, the corpus percentage divides by all commits and the affected
    percentage divides by the commit count of just the projects with at
    least one flag of that kind.
    """
    total_commits = sum(commit_counts.values())
    report = ScanReport()
    report.totals = {"commits": total_commits, "projects": len(commit_counts)}

    for kind in AnomalyKind:
        flagged = {p: c for (k, p), c in counts.by_kind.items() if k == kind}
        count = sum(flagged.values())
        affected_commits = sum(commit_counts.get(p, 0) for p in flagged)
        report.anomalies[kind.value] = {
            "count": count,
            "affected_projects": len(flagged),
            "corpus_percent": count / total_commits if total_commits else 0.0,
            "corpus_denominator": total_commits,
            "affected_percent": count / affected_commits if affected_commits else 0.0,
            "affected_denominator": affected_commits,
        }
    return report


def cutoff_table(counts: Tally, years: Iterable[int] | None = None) -> list[CutoffRow]:
    """Fraction of anomalous commits removed by dropping each year and earlier.

    A commit counts as removed for year y when the UTC year of its flagged
    time is y or earlier. years defaults to those from the earliest flagged
    year to the latest, none when nothing is flagged. Rows come back sorted
    by year descending.
    """
    later = sorted(counts.by_year.items(), reverse=True)  # the earliest year last
    total = sum(counts.by_year.values())
    if years is None:
        years = range(later[-1][0], later[0][0] + 1) if later else ()
    rows, removed = [], 0
    for year in sorted(set(years)):
        while later and later[-1][0] <= year:
            removed += later.pop()[1]
        rows.append(CutoffRow(year=year, percent_removed=removed / total if total else 0.0))
    return rows[::-1]


def top_n(counts: Tally, key: str = "project", n: int = 20) -> list[dict]:
    """Rank projects or authors by distinct flagged (project, commit id) pairs.

    Author rows merge by email (display names alias too easily); an empty
    name renders as "(no name)". Flagged commits with no author are not
    ranked by author. Rows carry count, share of all flagged commits, and
    cumulative share; ties order by key ascending.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if key not in ("project", "author"):
        raise ValueError(f"unknown ranking key: {key!r}")
    ranks, names = counts.by_project, {}
    if key == "author":
        ranks = Counter()
        for (email, name), count in counts.by_author.items():
            ranks[email] += count
            names.setdefault(email, set()).add(name)

    total = sum(counts.by_project.values())
    ranked = sorted(ranks.items(), key=lambda kv: (-kv[1], kv[0]))
    rows = []
    cumulative = 0
    for k, count in ranked[:n]:
        cumulative += count
        label = f"{min(names[k] - {''}, default='(no name)')} <{k}>" if key == "author" else k
        rows.append({"key": label, "count": count, "share": count / total if total else 0.0,
                     "cumulative_share": cumulative / total if total else 0.0})
    return rows


def token_frequencies(
    messages: Iterable[str], stopwords: Iterable[str] | None = None
) -> dict[str, int]:
    """Count message tokens after lowercasing and stop word removal.

    Tokens split on anything outside [a-z0-9/-_] so composite markers like
    "git-svn-id" or "external/" survive whole; tokens with no alphanumeric
    character are discarded. A lone str as messages or stopwords raises
    TypeError, as it would be read as its characters.
    """
    for name, value in (("messages", messages), ("stopwords", stopwords)):
        if isinstance(value, str):
            raise TypeError(f"{name} must be a collection of str, not a str: {value!r}")
    stop = frozenset(stopwords) if stopwords is not None else default_stopwords()
    counts: Counter[bytes] = Counter()
    for message in messages:
        counts.update(message.lower().encode("ascii", "replace").translate(_TOKEN_BYTES).split())
    # dropped once per distinct token; a token is [0-9a-z/_-]+, so it has
    # an alphanumeric unless it is all "/", "_" and "-"
    return {token: c for t, c in counts.items()
            if (token := t.decode("ascii")) not in stop and token.strip("/_-")}


def ranked_tokens(counts: Mapping[str, int], limit: int | None = None) -> list[tuple[str, int]]:
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ordered[:limit] if limit is not None else ordered


def _report_object(report: ScanReport) -> dict:
    return {
        "meta": dict(sorted(report.meta.items())),
        "totals": report.totals,
        "anomalies": dict(sorted(report.anomalies.items())),
        "top_projects": report.top_projects,
        "top_authors": report.top_authors,
        "cutoff_table": [
            {"year": row.year, "percent_removed": row.percent_removed}
            for row in report.cutoff_table
        ],
        "fingerprints": dict(sorted(report.fingerprints.items())),
        "tokens": [{"token": t, "count": c} for t, c in report.tokens],
    }


def csv_tables(report: ScanReport) -> dict[str, bytes]:
    """Render each table of the JSON report as a standalone CSV file body:
    its header, then a row per entry. A map's entries lead with their key,
    and floats print with 6 decimals."""
    headers = {
        "anomalies": ["kind", "count", "affected_projects", "corpus_percent",
                      "corpus_denominator", "affected_percent", "affected_denominator"],
        "top_projects": ["project", "count", "share", "cumulative_share"],
        "top_authors": ["author", "count", "share", "cumulative_share"],
        "cutoff_table": ["year", "percent_removed"],
        "fingerprints": ["rule", "count"],
        "tokens": ["token", "count"],
    }
    import csv  # only --format csv writes CSV

    obj = _report_object(report)
    tables = {}
    for name, header in headers.items():
        table = obj[name]
        if isinstance(table, dict):
            entries = [[key, *(value.values() if isinstance(value, dict) else [value])]
                       for key, value in table.items()]
        else:
            entries = [row.values() for row in table]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([f"{v:.6f}" if isinstance(v, float) else v for v in entry]
                         for entry in entries)
        tables[name] = buf.getvalue().encode("utf-8")
    return tables


def emit(report: ScanReport, format: str = "json") -> bytes:
    """Serialize a report deterministically (stable keys, LF endings)."""
    if format == "json":
        text = json.dumps(_report_object(report), indent=2, ensure_ascii=True) + "\n"
        return text.encode("ascii")
    if format == "csv":
        return b"\n".join(f"# {name}\n".encode("utf-8") + body
                          for name, body in csv_tables(report).items())
    if format == "text":
        lines = ["chronolint scan report"]
        for k, v in sorted(report.meta.items()):
            lines.append(f"  {k}: {v}")
        lines.append(
            f"commits: {report.totals['commits']}  projects: {report.totals['projects']}"
        )
        for kind, s in sorted(report.anomalies.items()):
            lines.append(
                f"{kind}: {s['count']} "
                f"({100 * s['corpus_percent']:.2f}% of corpus, "
                f"{100 * s['affected_percent']:.2f}% of {s['affected_projects']} affected project(s))"
            )
        for title, rows in (
            ("top projects:", [f"  {r['count']:>6}  {r['key']}" for r in report.top_projects]),
            ("top authors:", [f"  {r['count']:>6}  {r['key']}" for r in report.top_authors]),
            ("cutoff table (year: % of anomalies removed):",
             [f"  <= {row.year}: {100 * row.percent_removed:.2f}%"
              for row in report.cutoff_table]),
            ("fingerprints:",
             [f"  {count:>6}  {name}" for name, count in sorted(report.fingerprints.items())]),
            ("frequent tokens:", [f"  {c:>6}  {t}" for t, c in report.tokens]),
        ):
            if rows:
                lines.append(title)
                lines.extend(rows)
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format: {format!r}")


def anomaly_sort_key(a: AnomalyRecord) -> tuple:
    """The order of the anomaly stream: project, commit id, kind, then
    counterpart and delta, read from the record's tuple slots."""
    kind, commit_id, project, _, _, _, counterpart_id, delta_seconds = a
    return (project, commit_id, _KIND_VALUES[kind], counterpart_id or "", delta_seconds or 0)


_KIND_VALUES = {kind: kind.value for kind in AnomalyKind}
# each kind's value as a JSON string, for the rows of the anomaly stream
_QUOTED_KINDS = {kind: encode_basestring_ascii(kind.value) for kind in AnomalyKind}


def emit_anomaly_stream(
    anomalies: Iterable[AnomalyRecord],
    commits: Mapping[tuple[str, str], CommitRecord] | None = None,
) -> bytes:
    """Serialize anomalies as deterministic JSONL.

    Each row is compact, ASCII-escaped JSON with the keys kind, commit_id,
    project, observed_epoch, observed_tz, then reference_epoch,
    counterpart_id and delta_seconds when set. A row is enriched with
    author_name, author_email and message from its commit in ``commits``, a
    (project, commit id) -> record map, when given. The rows of one commit
    are adjacent once sorted, so its enrichment is encoded once for all of
    them; a zone is rendered once for all the rows that hold it.
    """
    commits = commits or {}
    quoted = encode_basestring_ascii  # a str as a JSON string, ASCII-escaped
    zones = QuotedZones()
    parts = []
    append = parts.append
    current = None
    for (kind, commit_id, project, observed, observed_tz, reference, counterpart_id,
         delta_seconds) in sorted(anomalies, key=anomaly_sort_key):
        if (project, commit_id) != current:
            current = (project, commit_id)
            ids = f'"commit_id":{quoted(commit_id)},"project":{quoted(project)}'
            r = commits.get(current)
            end = "}\n" if r is None else (
                f',"author_name":{quoted(r.author_name)}'
                f',"author_email":{quoted(r.author_email)}'
                f',"message":{quoted(r.message)}}}\n'
            )
        append(f'{{"kind":{_QUOTED_KINDS[kind]},{ids},'
               f'"observed_epoch":{observed},"observed_tz":{zones[observed_tz]}')
        if reference is not None:
            append(f',"reference_epoch":{reference}')
        if counterpart_id is not None:
            append(f',"counterpart_id":{quoted(counterpart_id)}')
        if delta_seconds is not None:
            append(f',"delta_seconds":{delta_seconds}')
        append(end)
    return "".join(parts).encode("ascii")


def parse_anomaly_stream(stream: bytes | IO[bytes]) -> tuple[
    list[AnomalyRecord], dict[tuple[str, str], tuple[str, str]], dict[tuple[str, str], str]
]:
    """Parse an anomaly JSONL stream.

    stream is the stream's bytes or an open binary file; either is read
    line by line, so a file is never held whole. Returns the anomalies plus
    two side maps keyed by (project, commit id): author (name, email) and
    message, for the rows that carried enrichment. A malformed line raises
    ValueError naming the line.
    """
    lines = io.BytesIO(stream) if isinstance(stream, bytes) else stream
    anomalies: list[AnomalyRecord] = []
    authors: dict[tuple[str, str], tuple[str, str]] = {}
    messages: dict[tuple[str, str], str] = {}
    for lineno, raw in enumerate(lines, start=1):
        if raw.isspace():  # never empty: a line holds at least its LF
            continue
        try:
            obj = load_json_line(raw.decode("utf-8").rstrip("\n"))
            if not isinstance(obj, dict):
                raise ValueError("record is not an object")
            kind = AnomalyKind(obj["kind"])
            for name in ("project", "author_name", "author_email", "message"):
                if not isinstance(obj.get(name, ""), str):
                    raise ValueError(f"non-string {name}")
            for name in ("commit_id", "counterpart_id"):
                if name in obj and not is_commit_hash(obj[name]):
                    raise ValueError(f"malformed {name}")
            if "delta_seconds" in obj and type(obj["delta_seconds"]) is not int:
                raise ValueError(f"non-integer delta_seconds: {obj['delta_seconds']!r}")
            observed, observed_tz = normalize_time(
                obj["observed_epoch"], obj.get("observed_tz", "+0000")
            )
            reference = (
                normalize_time(obj["reference_epoch"], "+0000")[0]
                if "reference_epoch" in obj
                else None
            )
            anomaly = AnomalyRecord(
                kind=kind,
                commit_id=obj["commit_id"],
                project=obj["project"],
                observed=observed,
                observed_tz=observed_tz,
                reference=reference,
                counterpart_id=obj.get("counterpart_id"),
                delta_seconds=obj.get("delta_seconds"),
            )
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            raise ValueError(f"bad anomaly record at line {lineno}: {exc}") from exc
        anomalies.append(anomaly)
        commit = (anomaly.project, anomaly.commit_id)
        if "author_email" in obj:
            authors[commit] = (obj.get("author_name", ""), obj["author_email"])
        if "message" in obj:
            messages[commit] = obj["message"]
    return anomalies, authors, messages
