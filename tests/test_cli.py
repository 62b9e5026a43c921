import contextlib
import csv
import errno
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from chronolint import cli, parallel
from chronolint.cli import main, parse_instant
from chronolint.detect import sanitize_message, scan_fingerprints
from chronolint.ingest import (
    emit_export_stream,
    parse_export_stream,
    read_repository,
    run_git,
)
from chronolint.model import ConfigError, FilterPolicy, RepositoryError
from chronolint.report import ranked_tokens, token_frequencies
from helpers import (
    assert_reaped,
    build_repo,
    fake_hash,
    git_subcommands,
    keep_only_branch,
    planted_corpus,
    rec,
    record_processes,
    replay_linear_loop,
    shallow_clone,
    tip_only_repo,
    utc_epoch,
    write_grafts,
    write_raw_commit,
)

REF = "2021-01-01T00:00:00+00:00"
SRC = Path(__file__).resolve().parent.parent / "src"


def canonical(records):
    ordered = sorted(records, key=lambda r: (r.project, r.commit_time, r.id))
    return emit_export_stream(ordered)


def run(args):
    return main(args)


def read_json(path):
    with open(path, "rb") as fh:
        return json.load(fh)


def planted_export(path, seed=3):
    corpus, _ = planted_corpus(random.Random(seed), repos=3, commits_per_repo=40)
    path.write_bytes(emit_export_stream([r for recs in corpus.values() for r in recs]))


# each CSV table's header; a column reads the JSON field of its name, but
# "project" and "author" read a ranked row's "key"
CSV_HEADERS = {
    "anomalies": ["kind", "count", "affected_projects", "corpus_percent",
                  "corpus_denominator", "affected_percent", "affected_denominator"],
    "top_projects": ["project", "count", "share", "cumulative_share"],
    "top_authors": ["author", "count", "share", "cumulative_share"],
    "cutoff_table": ["year", "percent_removed"],
    "fingerprints": ["rule", "count"],
    "tokens": ["token", "count"],
}


def csv_oracle(report: dict) -> dict[str, list[list[str]]]:
    """The CSV rows of each table of a JSON report: the header, then one row
    per entry, floats at 6 decimals."""
    tables = {}
    for name, header in CSV_HEADERS.items():
        table = report[name]
        if name == "anomalies":
            entries = [[kind, *(stats[column] for column in header[1:])]
                       for kind, stats in table.items()]
        elif name == "fingerprints":
            entries = [[rule, count] for rule, count in table.items()]
        else:
            fields = ["key" if column in ("project", "author") else column for column in header]
            entries = [[row[field] for field in fields] for row in table]
        tables[name] = [header, *([f"{v:.6f}" if isinstance(v, float) else str(v) for v in entry]
                                  for entry in entries)]
    return tables


def assert_csv_matches_json(argv, tmp_path, capsysbinary):
    """argv's report as JSON, as a CSV directory and as CSV on stdout: each
    CSV table holds the rows the JSON report gives it; those rows are returned."""
    out, outdir = tmp_path / "report.json", tmp_path / "csv"
    codes = {run([*argv, "--out", str(out)]),
             run([*argv, "--format", "csv", "--out", str(outdir)])}
    capsysbinary.readouterr()
    codes.add(run([*argv, "--format", "csv"]))
    assert len(codes) == 1
    expected = csv_oracle(read_json(out))
    assert sorted(p.name for p in outdir.iterdir()) == sorted(f"{t}.csv" for t in expected)
    for name, rows in expected.items():
        with open(outdir / f"{name}.csv", newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == rows, name
    sections = capsysbinary.readouterr().out.decode().split("\n\n# ")
    assert [section.partition("\n")[0] for section in sections] == [
        f"# {name}" if i == 0 else name for i, name in enumerate(expected)]
    for section, rows in zip(sections, expected.values()):
        assert list(csv.reader(section.partition("\n")[2].splitlines())) == rows
    return expected


class TestCsvTables:
    def test_scan(self, tmp_path, capsysbinary):
        src = tmp_path / "in.jsonl"
        planted_export(src)
        tables = assert_csv_matches_json(
            ["scan", "--jsonl", str(src), "--reference", REF, "--top", "3"], tmp_path, capsysbinary)
        assert all(len(rows) > 1 for rows in tables.values())

    def test_corpus(self, tmp_path, capsysbinary):
        listing = tmp_path / "list.txt"
        for name, epochs in (("r1", [0, 1_600_000_000, 500_000_000]), ("r2", [4_000_000_000])):
            build_repo(tmp_path / name, [
                {"key": f"c{i}", "commit_epoch": epoch, "parents": [f"c{i - 1}"] if i else [],
                 "message": "git-svn-id: r1" if i % 2 else "fix Parser"}
                for i, epoch in enumerate(epochs)])
        listing.write_text(f"{tmp_path / 'r1'}\n{tmp_path / 'r2'}\n")
        tables = assert_csv_matches_json(
            ["corpus", "--list", str(listing), "--reference", REF], tmp_path, capsysbinary)
        assert all(len(rows) > 1 for rows in tables.values())

    def test_report_in(self, tmp_path, capsysbinary):
        src, stream = tmp_path / "in.jsonl", tmp_path / "anomalies.jsonl"
        planted_export(src)
        assert run(["scan", "--jsonl", str(src), "--reference", REF,
                    "--out", str(tmp_path / "scan.json"), "--anomalies-out", str(stream)]) == 1
        tables = assert_csv_matches_json(
            ["report", "--in", str(stream), "--top", "2"], tmp_path, capsysbinary)
        # a stream has no rules to count, so only the fingerprint table is bare
        assert [name for name, rows in tables.items() if len(rows) == 1] == ["fingerprints"]


class TestParseInstant:
    def test_iso_date(self):
        assert parse_instant("2014-01-01") == 1388534400

    def test_epoch_integer(self):
        assert parse_instant("1388534400") == 1388534400

    def test_garbage(self):
        from chronolint.cli import UsageError
        with pytest.raises(UsageError):
            parse_instant("not-a-date")

    def test_rendered_reference_reads_back(self, tmp_path):
        """A report's meta.future_reference, with its Z, is a valid --reference."""
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([rec("a", commit_epoch=utc_epoch(2030))]))
        reports = []
        for reference in ("2021-01-01T00:00:00Z", "2021-01-01T00:00:00+00:00"):
            out = tmp_path / "r.json"
            assert run(["scan", "--jsonl", str(src), "--reference", reference,
                        "--out", str(out)]) == 1
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["meta"]["future_reference"] == "2021-01-01T00:00:00Z"


class TestScan:
    def test_clean_repo_exit_zero(self, tmp_path):
        repo = tmp_path / "r"
        build_repo(repo, [{"key": "a", "commit_epoch": 1_600_000_000}])
        out = tmp_path / "report.json"
        code = run(["scan", "--repo", str(repo), "--reference", REF,
                    "--out", str(out)])
        assert code == 0
        report = read_json(out)
        assert report["totals"]["commits"] == 1
        assert all(s["count"] == 0 for s in report["anomalies"].values())

    def test_zero_epoch_repo_exit_one(self, tmp_path):
        repo = tmp_path / "r"
        shas = build_repo(repo, [
            {"key": "a", "commit_epoch": 0},
            {"key": "b", "commit_epoch": 1_600_000_000, "parents": ["a"]},
        ])
        out = tmp_path / "report.json"
        anomalies_out = tmp_path / "anomalies.jsonl"
        code = run(["scan", "--repo", str(repo), "--reference", REF,
                    "--out", str(out), "--anomalies-out", str(anomalies_out)])
        assert code == 1
        report = read_json(out)
        assert report["anomalies"]["zero_epoch"]["count"] == 1
        assert shas["a"] in anomalies_out.read_text()

    def test_replace_refs_are_not_followed(self, tmp_path):
        """b is stored in order after a; b2, a second child of a, is dated
        before it, and ``git replace b b2`` points b at it. The scan reads
        each commit as stored, so b is never reported with b2's date."""
        repo = tmp_path / "r"
        shas = build_repo(repo, [
            {"key": "a", "commit_epoch": 1_400_000_000},
            {"key": "b", "commit_epoch": 1_400_002_000, "parents": ["a"]},
            {"key": "b2", "commit_epoch": 1_399_990_000, "parents": ["a"]},
        ])
        subprocess.run(["git", "-C", str(repo), "replace", shas["b"], shas["b2"]],
                       check=True, capture_output=True)
        out, anomalies_out = tmp_path / "report.json", tmp_path / "anomalies.jsonl"
        assert run(["scan", "--repo", str(repo), "--reference", REF, "--out", str(out),
                    "--anomalies-out", str(anomalies_out)]) == 1
        report = read_json(out)
        assert report["totals"]["commits"] == 3
        assert report["anomalies"]["out_of_order_parent"]["count"] == 1
        rows = [json.loads(line) for line in anomalies_out.read_bytes().splitlines()]
        assert {row["commit_id"] for row in rows} == {shas["b2"]}
        parent_rows = [row for row in rows if row["kind"] == "out_of_order_parent"]
        assert [(row["observed_epoch"], row["counterpart_id"]) for row in parent_rows] \
            == [(1_399_990_000, shas["a"])]

    def test_replace_ref_tips_are_not_walked(self, tmp_path):
        """``git replace --graft c a`` stores, under refs/replace/, a copy of
        the tip c whose one parent is the root a. That copy is no commit of
        the history as stored, so the scan reads a, b and c only."""
        repo = tmp_path / "r"
        shas = build_repo(repo, [
            {"key": "a", "commit_epoch": 1_400_000_000},
            {"key": "b", "commit_epoch": 1_400_001_000, "parents": ["a"]},
            {"key": "c", "commit_epoch": 1_400_002_000, "parents": ["b"]},
        ])
        subprocess.run(["git", "-C", str(repo), "replace", "--graft", shas["c"], shas["a"]],
                       check=True, capture_output=True)
        out = tmp_path / "report.json"
        assert run(["scan", "--repo", str(repo), "--reference", REF, "--out", str(out)]) == 0
        assert read_json(out)["totals"]["commits"] == 3
        records, _ = read_repository(str(repo), "p")
        assert sorted(r.id for r in records) == sorted(shas.values())

    def test_cutoff_table_ends_at_year_9999(self, tmp_path):
        # epoch 3e11 is in year 11476: inside the epoch bounds, past datetime's years
        first = rec("a")
        late = rec("b", commit_epoch=300_000_000_000, parents=(first.id,))
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([first, late]))
        out, anomalies = tmp_path / "r.json", tmp_path / "a.jsonl"
        assert run(["scan", "--jsonl", str(src), "--reference", REF, "--out", str(out),
                    "--anomalies-out", str(anomalies)]) == 1
        assert read_json(out)["cutoff_table"] == [{"year": 9999, "percent_removed": 1.0}]
        assert run(["report", "--in", str(anomalies), "--out", str(out)]) == 0
        assert read_json(out)["cutoff_table"] == [{"year": 9999, "percent_removed": 1.0}]

    def test_cutoff_table_starts_at_year_1(self, tmp_path):
        # epoch -1e11 is in year -1199: inside the epoch bounds, before datetime's years
        early = rec("a", commit_epoch=-100_000_000_000)
        later = rec("b", parents=(early.id,))
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([early, later]))
        out, anomalies = tmp_path / "r.json", tmp_path / "a.jsonl"
        assert run(["scan", "--jsonl", str(src), "--reference", REF, "--out", str(out),
                    "--anomalies-out", str(anomalies)]) == 1
        assert read_json(out)["cutoff_table"] == [{"year": 1, "percent_removed": 1.0}]
        assert run(["report", "--in", str(anomalies), "--out", str(out)]) == 0
        assert read_json(out)["cutoff_table"] == [{"year": 1, "percent_removed": 1.0}]

    def test_planted_jsonl_counts(self, tmp_path):
        corpus, manifest = planted_corpus(random.Random(55), repos=4,
                                          commits_per_repo=60)
        records = [r for recs in corpus.values() for r in recs]
        src = tmp_path / "corpus.jsonl"
        src.write_bytes(emit_export_stream(records))
        out = tmp_path / "report.json"
        code = run(["scan", "--jsonl", str(src), "--reference", REF,
                    "--out", str(out)])
        assert code == 1
        report = read_json(out)
        assert report["totals"]["projects"] == 4
        assert report["anomalies"]["zero_epoch"]["count"] == len(manifest["zero_epoch"])
        assert report["anomalies"]["future"]["count"] == len(manifest["future"])
        assert report["anomalies"]["out_of_order_parent"]["count"] == len(
            {cid for cid, _ in manifest["out_of_order_parent"]}
        )

    @pytest.mark.parametrize("source", ["jsonl", "git"])
    def test_non_ascii_flagged_message(self, tmp_path, source):
        """A flagged message that is not ASCII reaches the fingerprints and
        tokens as sanitize_message gives it: from JSONL any character, from
        git any byte, one that is not UTF-8 as U+FFFD."""
        if source == "jsonl":
            message = "Imported caf\u00e9 git-svn-id r1\n"
            src = tmp_path / "in.jsonl"
            src.write_bytes(emit_export_stream([rec("a", commit_epoch=0, message=message),
                                                rec("b", message="fix")]))
            argv = ["--jsonl", str(src)]
        else:
            message = "Imported caf\udcff git-svn-id r1\n"
            repo = tmp_path / "r"
            build_repo(repo, [{"key": "b", "commit_epoch": 1_600_000_000, "message": "fix"}])
            write_raw_commit(repo, "author A <a@example.com> 0 +0000\n"
                                   "committer A <a@example.com> 0 +0000\n", message, "zero")
            argv = ["--repo", str(repo)]
        sanitized = sanitize_message(message)
        assert sanitized == message.replace("\udcff", "\ufffd")
        out = tmp_path / "r.json"
        assert run(["scan", *argv, "--reference", REF, "--out", str(out)]) == 1
        report = read_json(out)
        assert report["anomalies"]["zero_epoch"]["count"] == 1
        assert report["fingerprints"] == scan_fingerprints([sanitized])
        assert report["fingerprints"]["git-svn-id"] == 1
        assert report["tokens"] == [{"token": t, "count": c} for t, c in
                                    ranked_tokens(token_frequencies([sanitized]), limit=50)]

    def test_old_threshold_before_year_one_written_as_epoch(self, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([rec("a")]))
        out = tmp_path / "r.json"
        assert run(["scan", "--jsonl", str(src), "--old-threshold=-99999999999",
                    "--reference", REF, "--out", str(out)]) == 0
        assert read_json(out)["meta"]["old_threshold"] == "epoch:-99999999999"

    def test_conflicting_inputs_exit_two(self, tmp_path):
        code = run(["scan", "--repo", "x", "--jsonl", "y"])
        assert code == 2

    def test_missing_input_exit_two(self, tmp_path):
        assert run(["scan", "--jsonl", str(tmp_path / "missing.jsonl")]) == 2

    def test_unreadable_input_exit_two(self, tmp_path, capsys):
        assert run(["scan", "--jsonl", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"chronolint: cannot read {tmp_path}: ")

    def test_unpinned_run_uses_one_reference(self, tmp_path, monkeypatch):
        clock = iter(range(1_600_000_000, 1_700_000_000, 1000))
        monkeypatch.setattr("time.time", lambda: float(next(clock)))
        future = utc_epoch(2030)
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([
            rec("f1", commit_epoch=future, project="one"),
            rec("f2", commit_epoch=future, project="two"),
        ]))
        out = tmp_path / "r.json"
        anomalies_out = tmp_path / "a.jsonl"
        assert run(["scan", "--jsonl", str(src), "--out", str(out),
                    "--anomalies-out", str(anomalies_out)]) == 1
        meta_reference = parse_instant(read_json(out)["meta"]["future_reference"])
        rows = [json.loads(line) for line in anomalies_out.read_text().splitlines()]
        future_rows = [row for row in rows if row["kind"] == "future"]
        assert len(future_rows) == 2
        assert {row["reference_epoch"] for row in future_rows} == {meta_reference}

    def test_shared_commit_counted_in_each_project(self, tmp_path):
        # one zero-epoch commit in two projects, as after a fork
        shared = [rec("shared", commit_epoch=0, project=p, message=f"import into {p}",
                      author_email=f"dev@{p}.example") for p in ("fork", "origin")]
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream(shared))
        out = tmp_path / "r.json"
        anomalies_out = tmp_path / "a.jsonl"
        assert run(["scan", "--jsonl", str(src), "--reference", REF, "--out", str(out),
                    "--anomalies-out", str(anomalies_out)]) == 1
        report = read_json(out)
        zero = report["anomalies"]["zero_epoch"]
        assert (zero["count"], zero["corpus_denominator"]) == (2, 2)
        assert zero["corpus_percent"] == zero["affected_percent"] == 1.0
        assert [(r["key"], r["count"], r["cumulative_share"])
                for r in report["top_projects"]] == [("fork", 1, 0.5), ("origin", 1, 1.0)]
        assert [r["key"] for r in report["top_authors"]] == [
            "Alice Dev <dev@fork.example>", "Alice Dev <dev@origin.example>"
        ]
        assert report["cutoff_table"] == [{"year": 1970, "percent_removed": 1.0}]
        tokens = {t["token"]: t["count"] for t in report["tokens"]}
        assert (tokens["import"], tokens["fork"], tokens["origin"]) == (2, 1, 1)
        rows = [json.loads(line) for line in anomalies_out.read_text().splitlines()]
        assert {(row["project"], row["message"]) for row in rows} == {
            ("fork", "import into fork"), ("origin", "import into origin")
        }
        summary = tmp_path / "summary.json"
        assert run(["report", "--in", str(anomalies_out), "--top", "5",
                    "--out", str(summary)]) == 0
        again = read_json(summary)
        assert again["anomalies"]["zero_epoch"]["count"] == 2
        assert again["top_projects"][-1]["cumulative_share"] == 1.0
        assert [r["count"] for r in again["top_authors"]] == [1, 1]

    def test_csv_directory_output(self, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([rec("a", commit_epoch=0)]))
        outdir = tmp_path / "csv"
        assert run(["scan", "--jsonl", str(src), "--reference", REF,
                    "--format", "csv", "--out", str(outdir)]) == 1
        assert (outdir / "anomalies.csv").exists()
        assert (outdir / "cutoff_table.csv").exists()

    def test_custom_fingerprint_rules_replace_the_defaults(self, tmp_path):
        rules = [{"name": "imported", "pattern": "imported-from", "case_insensitive": True},
                 {"name": "svn", "pattern": "git-svn-id"}]
        messages = ["Imported-From: cvs", "IMPORTED-FROM x\n\ngit-svn-id: y", "imported-from",
                    "git-svn-id: z", "GIT-SVN-ID: w", "Change-Id: I1", "Reviewed-by: x"]
        records = [rec(("fp", i), commit_epoch=0 if i % 3 else 1_500_000_000 + i, message=m)
                   for i, m in enumerate(messages * 3)]
        src, cfg = tmp_path / "in.jsonl", tmp_path / "cfg.json"
        src.write_bytes(emit_export_stream(records))
        cfg.write_text(json.dumps({"fingerprint_rules": rules}))
        out, anomalies = tmp_path / "r.json", tmp_path / "a.jsonl"
        assert run(["scan", "--jsonl", str(src), "--config", str(cfg), "--reference", REF,
                    "--out", str(out), "--anomalies-out", str(anomalies)]) == 1
        flagged = {json.loads(line)["commit_id"] for line in anomalies.read_text().splitlines()}
        flagged_messages = [r.message for r in records if r.id in flagged]

        def count(pattern, flags=0):
            return sum(bool(re.search(pattern, m, flags)) for m in flagged_messages)

        expected = {"imported": count("imported-from", re.IGNORECASE), "svn": count("git-svn-id")}
        assert read_json(out)["fingerprints"] == expected
        assert expected["imported"] > count("imported-from") > 0

    def test_no_merge_exclusion_flags_the_merge_pairs(self, tmp_path):
        rng = random.Random(7)
        chain = []
        for i in range(60):
            epoch = 1_500_000_000 + 100 * i + rng.randrange(-900, 900)
            chain.append(rec(("mx", i), commit_epoch=epoch,
                             message="Merge branch 'topic'" if rng.random() < 0.3 else "update",
                             parents=(chain[-1].id,) if chain else ()))
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream(chain))
        found = []
        for flags in ([], ["--no-merge-exclusion"]):
            anomalies = tmp_path / "a.jsonl"
            assert run(["scan", "--jsonl", str(src), *flags, "--reference", REF,
                        "--out", str(tmp_path / "r.json"), "--anomalies-out", str(anomalies)]) == 1
            rows = [json.loads(line) for line in anomalies.read_text().splitlines()]
            found.append({row["commit_id"] for row in rows if row["kind"] == "out_of_order_linear"})
        assert found == [replay_linear_loop(chain),
                         replay_linear_loop(chain, merge_exclusion=False)]
        assert found[1] > found[0]

    def test_csv_to_stdout_joins_the_directory_tables(self, tmp_path, capsysbinary):
        tables = ["anomalies", "top_projects", "top_authors", "cutoff_table", "fingerprints",
                  "tokens"]
        src, outdir = tmp_path / "in.jsonl", tmp_path / "csv"
        planted_export(src)
        argv = ["scan", "--jsonl", str(src), "--reference", REF, "--format", "csv"]
        assert run([*argv, "--out", str(outdir)]) == 1
        assert run(argv) == 1
        assert sorted(p.name for p in outdir.iterdir()) == sorted(f"{t}.csv" for t in tables)
        assert capsysbinary.readouterr().out == b"\n".join(
            f"# {t}\n".encode() + (outdir / f"{t}.csv").read_bytes() for t in tables)

    def test_text_report_lists_the_top_rows(self, tmp_path, capsys):
        src, out = tmp_path / "in.jsonl", tmp_path / "r.json"
        planted_export(src)
        argv = ["scan", "--jsonl", str(src), "--reference", REF, "--top", "2"]
        assert run([*argv, "--out", str(out)]) == 1
        assert run([*argv, "--format", "text"]) == 1
        report, lines = read_json(out), capsys.readouterr().out.splitlines()
        for title, table in (("top projects:", "top_projects"), ("top authors:", "top_authors")):
            rows = [f"  {r['count']:>6}  {r['key']}" for r in report[table]]
            at = lines.index(title) + 1
            assert len(rows) == 2
            assert lines[at:at + 2] == rows
            assert not lines[at + 2].startswith("  ")

    def test_jsonl_from_a_pipe(self, tmp_path):
        """A pipe is read as one range, and gives the report the file gives."""
        src, out = tmp_path / "in.jsonl", tmp_path / "r.json"
        planted_export(src)
        assert run(["scan", "--jsonl", str(src), "--reference", REF, "--out", str(out)]) == 1
        piped = subprocess.run(
            [sys.executable, "-m", "chronolint.cli", "scan", "--jsonl", "/dev/stdin",
             "--reference", REF],
            input=src.read_bytes(), env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, check=False)
        assert (piped.returncode, piped.stderr) == (1, b"")
        assert piped.stdout == out.read_bytes()

    @pytest.mark.parametrize("git", ["not-executable", "empty", "no-shebang"])
    def test_git_that_cannot_be_run_exit_two(self, git, tmp_path, monkeypatch, capsys):
        """A git that cannot be started is an environment error, as a missing
        one is: exit 2 and one diagnostic line, not a traceback."""
        repo = tmp_path / "r"
        build_repo(repo, [{"key": "a", "commit_epoch": 1_600_000_000}])
        script = tmp_path / "git"
        script.write_text("echo not git\n")
        if git == "no-shebang":
            script.chmod(0o755)
        monkeypatch.setenv("CHRONOLINT_GIT", "" if git == "empty" else str(script))
        out = tmp_path / "report.json"
        assert run(["scan", "--repo", str(repo), "--reference", REF, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("chronolint: git executable ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestFilter:
    def test_missing_input_exit_two(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        out = tmp_path / "out.jsonl"
        assert run(["filter", "--jsonl", str(missing), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"chronolint: cannot read {missing}: ")
        assert not out.exists()

    def test_min_epoch_drops_zero_commits(self, tmp_path):
        zero = rec("z", commit_epoch=0)
        good = rec("g", commit_epoch=1_600_000_000)
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([zero, good]))
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"min_epoch_seconds": 1}))
        out = tmp_path / "out.jsonl"
        code = run(["filter", "--jsonl", str(src), "--policy", str(policy),
                    "--out", str(out)])
        assert code == 0
        kept, _ = parse_export_stream(out.read_bytes())
        assert [r.id for r in kept] == [good.id]

    @pytest.mark.parametrize("basis", ["author", "committer"])
    def test_cutoff_after_and_window(self, tmp_path, capsysbinary, basis):
        rng = random.Random(11)
        low, high = utc_epoch(2019), utc_epoch(2023)
        records = [rec(("cw", i), commit_epoch=rng.randrange(low, high),
                       author_epoch=rng.randrange(low, high), project=f"p{i % 3}")
                   for i in range(200)]
        src, path = tmp_path / "in.jsonl", tmp_path / "policy.json"
        src.write_bytes(emit_export_stream(records))
        path.write_text(json.dumps({"min_epoch_seconds": None, "cutoff": "2022-03-01",
                                    "cutoff_mode": "after",
                                    "window": ["2020-01-01", "2022-06-30T12:00:00"],
                                    "time_basis": basis}))
        cutoff, start, end = utc_epoch(2022, 3, 1), utc_epoch(2020), utc_epoch(2022, 6, 30, 12)
        kept = []
        for r in records:
            t = r.author_time if basis == "author" else r.commit_time
            if t <= cutoff and start <= t <= end:
                kept.append(r)
        assert 0 < len(kept) < len(records)
        summary = json.dumps({"kept": len(kept), "dropped": len(records) - len(kept),
                              "dropped_blacklisted_projects": 0}).encode() + b"\n"
        argv = ["filter", "--jsonl", str(src), "--policy", str(path)]
        out = tmp_path / "kept.jsonl"
        assert run([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == canonical(kept)
        assert capsysbinary.readouterr() == (summary, b"")
        assert run(argv) == 0
        assert capsysbinary.readouterr() == (canonical(kept), summary)

    def test_with_files_is_a_filter_flag_only(self, tmp_path, capsys):
        """filter writes the changed paths; no scan output reads them, so
        scan has no such flag."""
        repo = tmp_path / "r"
        build_repo(repo, [{"key": "a", "commit_epoch": 1_600_000_000,
                           "files": {"src/x.py": "x\n"}}])
        out = tmp_path / "out.jsonl"
        assert run(["filter", "--repo", str(repo), "--with-files", "--out", str(out)]) == 0
        (kept,), _ = parse_export_stream(out.read_bytes())
        assert "src/x.py" in kept.files
        with pytest.raises(SystemExit) as exc:
            run(["scan", "--repo", str(repo), "--with-files"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --with-files" in capsys.readouterr().err

    def test_drop_flagged_rescan_clean(self, tmp_path):
        p = rec("p", commit_epoch=1000, author_epoch=1000)
        c = rec("c", commit_epoch=900, author_epoch=900, parents=(p.id,))
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([p, c]))
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({
            "min_epoch_seconds": None,
            "drop_flagged_kinds": ["out_of_order_parent"],
        }))
        out = tmp_path / "out.jsonl"
        assert run(["filter", "--jsonl", str(src), "--policy", str(policy),
                    "--reference", REF, "--out", str(out)]) == 0
        report_out = tmp_path / "rescan.json"
        run(["scan", "--jsonl", str(out), "--reference", REF,
             "--out", str(report_out)])
        rescan = read_json(report_out)
        assert rescan["anomalies"]["out_of_order_parent"]["count"] == 0

    def test_empty_policy_round_trip(self, tmp_path):
        records = [rec(("rt", i), commit_epoch=1_500_000_000 + i * 60)
                   for i in range(10)]
        src = tmp_path / "in.jsonl"
        src.write_bytes(canonical(records))
        policy = tmp_path / "policy.json"
        policy.write_text("{}")
        out = tmp_path / "out.jsonl"
        assert run(["filter", "--jsonl", str(src), "--policy", str(policy),
                    "--out", str(out)]) == 0
        assert out.read_bytes() == src.read_bytes()

    def test_ingest_rejects_reported(self, tmp_path, capsys):
        records = [rec(("rj", i), commit_epoch=1_500_000_000 + i) for i in range(3)]
        policy = tmp_path / "policy.json"
        policy.write_text("{}")
        clean, dirty = tmp_path / "clean.jsonl", tmp_path / "dirty.jsonl"
        clean.write_bytes(canonical(records))
        lines = canonical(records).splitlines(keepends=True)
        dirty.write_bytes(lines[0] + b"not json\n" + b"".join(lines[1:]))
        outs = []
        for src in (clean, dirty):
            out = tmp_path / f"{src.stem}-kept.jsonl"
            assert run(["filter", "--jsonl", str(src), "--policy", str(policy),
                        "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert "chronolint: rejected line 2: invalid JSON" in capsys.readouterr().err

    def test_duplicate_id_rejected_as_scan_does(self, tmp_path, capsys):
        first = rec("dup", commit_epoch=1_500_000_000)
        second = rec("dup", commit_epoch=1_500_000_060, message="same id again")
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([first, second]))
        policy = tmp_path / "policy.json"
        policy.write_text("{}")
        out = tmp_path / "kept.jsonl"
        assert run(["filter", "--jsonl", str(src), "--policy", str(policy),
                    "--out", str(out)]) == 2
        assert run(["scan", "--jsonl", str(src), "--reference", REF,
                    "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err.splitlines()
        expected = f"chronolint: duplicate commit id {first.id} in project proj"
        assert err == [expected, expected]

    def test_histories_checked_in_project_order(self, tmp_path, capsys):
        """filter reports the first bad history in project order, as scan
        does, whether or not its policy drops flagged commits."""
        cycle = [rec("x", parents=(fake_hash("y"),), project="b"),
                 rec("y", parents=(fake_hash("x"),), project="b")]
        duplicate = [rec("d", project="a"), rec("d", commit_epoch=1_600_000_060, project="a")]
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream(cycle + duplicate))
        policy = tmp_path / "policy.json"
        for body in ({"drop_flagged_kinds": ["future"]}, {}):
            policy.write_text(json.dumps(body))
            assert run(["filter", "--jsonl", str(src), "--policy", str(policy),
                        "--reference", REF, "--out", str(tmp_path / "kept.jsonl")]) == 2
        assert run(["scan", "--jsonl", str(src), "--reference", REF,
                    "--out", str(tmp_path / "r.json")]) == 2
        expected = f"chronolint: duplicate commit id {fake_hash('d')} in project a"
        assert capsys.readouterr().err.splitlines() == [expected] * 3

    @pytest.mark.parametrize("caller_collects", [True, False])
    @pytest.mark.parametrize("duplicate, code", [(False, 0), (True, 2)])
    def test_collector_off_during_the_run_only(
        self, tmp_path, monkeypatch, duplicate, code, caller_collects
    ):
        records = [rec(("gc", i), commit_epoch=1_500_000_000 + i) for i in range(3)]
        if duplicate:
            records.append(records[0])
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream(records))
        policy = tmp_path / "policy.json"
        policy.write_text("{}")
        collecting = []
        real = cli.build_history

        def build_history(*args):
            collecting.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(cli, "build_history", build_history)
        if not caller_collects:
            gc.disable()
        try:
            assert run(["filter", "--jsonl", str(src), "--policy", str(policy),
                        "--out", str(tmp_path / "kept.jsonl")]) == code
            assert gc.isenabled() is caller_collects
        finally:
            gc.enable()
        assert collecting and not any(collecting)

    def test_project_blacklist(self, tmp_path):
        a = rec("a", project="keep")
        b = rec("b", project="bad/proj")
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([a, b]))
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"project_blacklist": ["bad/proj"]}))
        out = tmp_path / "out.jsonl"
        run(["filter", "--jsonl", str(src), "--policy", str(policy),
             "--out", str(out)])
        kept, _ = parse_export_stream(out.read_bytes())
        assert [r.project for r in kept] == ["keep"]

    def test_blacklisted_project_dropped_unread(self, tmp_path, capsys):
        """A blacklisted project's history is never built, so a duplicate id
        in it, which scan rejects, does not stop filter."""
        good = rec("g", project="good")
        first = rec("dup", project="bad")
        second = rec("dup", commit_epoch=1_600_000_060, project="bad", message="again")
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([good, first, second]))
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"project_blacklist": ["bad"]}))
        out = tmp_path / "kept.jsonl"
        assert run(["filter", "--jsonl", str(src), "--policy", str(policy),
                    "--out", str(out)]) == 0
        assert out.read_bytes() == emit_export_stream([good])
        assert capsys.readouterr() == (json.dumps(
            {"kept": 1, "dropped": 2, "dropped_blacklisted_projects": 2}) + "\n", "")
        assert run(["scan", "--jsonl", str(src), "--reference", REF,
                    "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            f"chronolint: duplicate commit id {first.id} in project bad\n")


class TestReport:
    def test_report_from_anomaly_stream(self, tmp_path):
        repo = tmp_path / "r"
        build_repo(repo, [
            {"key": "a", "commit_epoch": 1_500_000_000,
             "message": "good change"},
            {"key": "b", "commit_epoch": 1_400_000_000, "parents": ["a"],
             "message": "rewound clock change"},
        ])
        anomalies = tmp_path / "anomalies.jsonl"
        run(["scan", "--repo", str(repo), "--reference", REF,
             "--out", str(tmp_path / "ignored.json"),
             "--anomalies-out", str(anomalies)])
        out = tmp_path / "report.json"
        code = run(["report", "--in", str(anomalies), "--top", "5", "--out", str(out)])
        assert code == 0
        report = read_json(out)
        assert report["anomalies"]["out_of_order_parent"]["count"] == 1
        assert report["top_projects"][0]["count"] == 1
        assert report["cutoff_table"]
        assert any(t["token"] == "rewound" for t in report["tokens"])

    def test_missing_input_exit_two(self, tmp_path):
        assert run(["report", "--in", str(tmp_path / "none.jsonl")]) == 2

    def test_report_in_agrees_with_scan(self, tmp_path):
        """report --in over a scan's anomaly stream gives the scan report's
        per-kind counts and affected projects, top tables, cutoff table and
        tokens.
        The fork shares origin's first two commits, ann@example.org commits
        under two names, and ghost@example.org under none."""
        epochs = [0, 1_600_000_000, 500_000_000, 1_600_100_000, 4_000_000_000, 1_300_000_000]
        authors = [("Ann", "ann@example.org"), ("", "ghost@example.org"),
                   ("A. Nonymous", "ann@example.org"), ("Bo", "bo@example.org"),
                   ("Cy", "cy@example.org")]
        records = []
        for project, n in (("origin", 14), ("fork", 9), ("other", 11)):
            parents = ()
            for i in range(n):
                owner = "origin" if project == "fork" and i < 2 else project
                epoch = epochs[i % len(epochs)] + i * 3600 * (epochs[i % len(epochs)] > 0)
                name, email = authors[i % len(authors)]
                r = rec((owner, i), commit_epoch=epoch, parents=parents, project=project,
                        author_name=name, author_email=email)
                records.append(r)
                parents = (r.id,)
        src, stream = tmp_path / "in.jsonl", tmp_path / "a.jsonl"
        src.write_bytes(emit_export_stream(records))
        scanned, again = tmp_path / "scan.json", tmp_path / "again.json"
        assert run(["scan", "--jsonl", str(src), "--reference", REF, "--top", "3",
                    "--out", str(scanned), "--anomalies-out", str(stream)]) == 1
        assert run(["report", "--in", str(stream), "--top", "3", "--out", str(again)]) == 0

        def tables(report):
            kinds = {kind: (s["count"], s["affected_projects"])
                     for kind, s in report["anomalies"].items()}
            return (kinds, report["top_projects"], report["top_authors"],
                    report["cutoff_table"], report["tokens"])

        scan = read_json(scanned)
        assert tables(read_json(again)) == tables(scan)
        # the inputs reach what they are meant to: the shared zero-epoch root
        # counts in both projects (3 + 2 + 2 at i = 0, 6, 12), and both
        # authors with odd names rank
        assert scan["anomalies"]["zero_epoch"]["count"] == 7
        keys = [r["key"] for r in scan["top_authors"]]
        assert "A. Nonymous <ann@example.org>" in keys
        assert "(no name) <ghost@example.org>" in keys
        assert len(keys) == 3 and scan["top_authors"][-1]["cumulative_share"] < 1.0
        assert scan["cutoff_table"]

    def test_report_in_reads_the_first_row_time_of_a_commit(self, tmp_path):
        """In a hand-made stream whose rows of one commit disagree on
        observed_epoch, the cutoff table reads the first row's year."""
        row = '{"kind":"%s","commit_id":"%s","project":"p","observed_epoch":%d}\n'
        stream = tmp_path / "a.jsonl"
        stream.write_text(row % ("suspicious_old", "a" * 40, utc_epoch(1989, 6, 1))
                          + row % ("out_of_order_linear", "a" * 40, utc_epoch(2010, 6, 1))
                          + row % ("future", "b" * 40, utc_epoch(1992, 6, 1)))
        out = tmp_path / "r.json"
        assert run(["report", "--in", str(stream), "--out", str(out)]) == 0
        report = read_json(out)
        assert [report["anomalies"][kind]["count"] for kind in (
            "suspicious_old", "out_of_order_linear", "future")] == [1, 1, 1]
        assert report["cutoff_table"] == [
            {"year": year, "percent_removed": share}
            for year, share in ((1992, 1.0), (1991, 0.5), (1990, 0.5), (1989, 0.5))]


class TestMalformedInput:
    """Bad outside input exits 2 with a message, never 1 or a traceback."""

    @pytest.mark.parametrize("config, message", [
        ({"time_basis": "author"}, "config time_basis: unknown key"),
        ({"merge_exclusion": False}, "config merge_exclusion: unknown key"),
        ({"fingerprint_rules": 5}, "fingerprint_rules must be a list: 5"),
        ({"fingerprint_rules": [{"name": "r", "pattern": 5}]},
         "bad fingerprint rule entry: {'name': 'r', 'pattern': 5}"),
        ({"fingerprint_rules": [{"name": None, "pattern": "x"}]},
         "bad fingerprint rule entry: {'name': None, 'pattern': 'x'}"),
        ({"fingerprint_rules": ["x"]}, "bad fingerprint rule entry: 'x'"),
        ({"old_treshold": "2000-01-01"}, "config old_treshold: unknown key"),
        ({"fingerprint_rules": [{"name": "r", "pattern": "x", "flags": "i"}]},
         "fingerprint rule 'r' flags: unknown key"),
        ({"fingerprint_rules": [{"name": "r", "pattern": "x", "case_insensitive": "false"}]},
         "fingerprint rule 'r': case_insensitive must be a boolean: 'false'"),
        ({"fingerprint_rules": [{"name": "r", "pattern": "("}]},
         "fingerprint rule 'r': bad pattern: missing ), unterminated subpattern at position 0"),
    ])
    def test_bad_config(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([rec("a", commit_epoch=0)]))
        assert run(["scan", "--jsonl", str(src), "--config", str(cfg), "--reference", REF,
                    "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == f"chronolint: {message}\n"

    @pytest.mark.parametrize("command", ["scan", "filter", "corpus"])
    @pytest.mark.parametrize("flags, message", [
        (["--old-threshold", "nonsense"], "unparseable instant: 'nonsense'"),
        (["--old-threshold", "2030-01-01", "--reference", "2020-01-01"],
         "old threshold must precede the future reference"),
        (["--reference="], "unparseable instant: ''"),
        (["--old-threshold="], "unparseable instant: ''"),
    ], ids=["threshold-garbage", "threshold-after-reference", "reference-empty",
            "threshold-empty"])
    def test_bad_detector_setting_in_every_command(self, tmp_path, capsys, command, flags,
                                                   message):
        """One set of flags is valid or invalid for every command, and an
        empty value is a bad value, not an unset one."""
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([rec("a", commit_epoch=1_500_000_000)]))
        build_repo(tmp_path / "r", [{"key": "a", "commit_epoch": 1_500_000_000}])
        listing = tmp_path / "repos.txt"
        listing.write_text(f"{tmp_path / 'r'}\n")
        out = tmp_path / "out"
        source = ["--list", str(listing)] if command == "corpus" else ["--jsonl", str(src)]
        assert run([command, *source, *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"chronolint: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["scan", "filter", "corpus"])
    @pytest.mark.parametrize("flag, message", [
        ("--time-basis=bogus", "argument --time-basis: invalid choice: 'bogus'"),
        ("--time-basis=", "argument --time-basis: invalid choice: ''"),
        ("--no-merge-exclusion=no", "argument --no-merge-exclusion: ignored explicit argument"),
    ], ids=["basis-bogus", "basis-empty", "merge-exclusion-value"])
    def test_bad_detector_flag_value_in_every_command(self, tmp_path, capsys, command, flag,
                                                      message):
        """A time basis or merge exclusion flag with a value it does not take
        is a usage error of every command, before any input is read."""
        out = tmp_path / "out"
        source = "--list" if command == "corpus" else "--jsonl"
        with pytest.raises(SystemExit) as exc:
            run([command, source, str(tmp_path / "missing"), flag, "--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["scan", "corpus"])
    @pytest.mark.parametrize("key, value", [
        ("old_threshold", "2000-01-01"), ("reference", REF), ("time_basis", "author"),
        ("merge_exclusion", False), ("policy", {}),
    ])
    def test_config_holds_only_fingerprint_rules(self, tmp_path, capsys, command, key, value):
        """fingerprint_rules is the config's one key: a config that sets a
        detector value, which has its flag, or a filter policy, which has
        filter's --policy, exits 2 naming the key before any input is read,
        even with a valid value, and is never silently ignored."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fingerprint_rules": [], key: value}))
        out, anomalies = tmp_path / "out", tmp_path / "a.jsonl"
        source = "--list" if command == "corpus" else "--jsonl"
        assert run([command, source, str(tmp_path / "missing"), "--config", str(cfg),
                    "--out", str(out), "--anomalies-out", str(anomalies)]) == 2
        assert capsys.readouterr().err == f"chronolint: config {key}: unknown key\n"
        assert not out.exists() and not anomalies.exists()

    def test_filter_takes_no_config(self, tmp_path, capsys):
        """filter applies no fingerprint rule, so it reads no config file:
        --config is an unrecognized argument, not a file read and ignored."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fingerprint_rules": []}))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(["filter", "--jsonl", str(tmp_path / "missing"), "--config", str(cfg),
                 "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --config {cfg}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["scan", "--first-parent"], "--first-parent"),
        (["scan", "--branches", "x*"], "--branches"),
        (["filter", "--first-parent"], "--first-parent"),
        (["filter", "--branches", "main"], "--branches"),
        (["filter", "--with-files"], "--with-files"),
    ])
    def test_git_walk_flag_with_jsonl(self, tmp_path, capsys, argv, flag):
        """A JSONL export has no git history to walk, so a git-walk flag with
        --jsonl is an error before any input is read, never ignored."""
        out = tmp_path / "out"
        assert run([*argv, "--jsonl", str(tmp_path / "missing.jsonl"), "--reference", REF,
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"chronolint: {flag} applies to --repo only\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["scan", "corpus"])
    @pytest.mark.parametrize("key", sorted(cli.CONFIG_KEYS))
    def test_null_config_value_is_unset(self, tmp_path, capsys, command, key):
        """A config key whose value is null takes the default, as a missing key does."""
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([rec("a", commit_epoch=0),
                                            rec("b", commit_epoch=1_500_000_000)]))
        build_repo(tmp_path / "r", [{"key": "a", "commit_epoch": 0}])
        listing = tmp_path / "repos.txt"
        listing.write_text(f"{tmp_path / 'r'}\n")
        source = ["--list", str(listing)] if command == "corpus" else ["--jsonl", str(src)]
        outputs = []
        for config in ({}, {key: None}):
            cfg, out = tmp_path / "cfg.json", tmp_path / "out"
            cfg.write_text(json.dumps(config))
            code = run([command, *source, "--config", str(cfg), "--reference", REF,
                        "--out", str(out)])
            outputs.append((code, out.read_bytes(), capsys.readouterr()))
            out.unlink()
        assert outputs[0][0] != 2
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("key", ["cutoff", "cutoff_mode", "window", "project_blacklist",
                                     "drop_flagged_kinds", "time_basis"])
    def test_null_policy_value_is_unset(self, tmp_path, capsys, key):
        """A policy key whose value is null takes the default, as a missing key does."""
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([rec("a", commit_epoch=0),
                                            rec("b", commit_epoch=1_500_000_000)]))
        outputs = []
        for policy in ({}, {key: None}):
            path, out = tmp_path / "policy.json", tmp_path / "out"
            path.write_text(json.dumps(policy))
            code = run(["filter", "--jsonl", str(src), "--policy", str(path), "--reference", REF,
                        "--out", str(out)])
            outputs.append((code, out.read_bytes(), capsys.readouterr()))
            out.unlink()
        assert outputs[0][0] != 2
        assert outputs[1] == outputs[0]

    def test_null_min_epoch_seconds_keeps_every_commit(self, tmp_path):
        """A null min_epoch_seconds is no pre-epoch floor; a missing one is the default 1."""
        records = [rec("a", commit_epoch=0, author_epoch=0),
                   rec("b", commit_epoch=1_500_000_000, author_epoch=1_500_000_000)]
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream(records))
        kept = []
        for policy in ({}, {"min_epoch_seconds": None}):
            path, out = tmp_path / "policy.json", tmp_path / "out.jsonl"
            path.write_text(json.dumps(policy))
            assert run(["filter", "--jsonl", str(src), "--policy", str(path),
                        "--out", str(out)]) == 0
            kept.append(len(out.read_bytes().splitlines()))
        assert kept == [1, 2]

    def test_empty_policy_flag_is_a_bad_value(self, tmp_path, capsys):
        """--policy "" is read as the path "", as --config "" is, never as no policy."""
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([rec("a", commit_epoch=0, author_epoch=0)]))
        out = tmp_path / "out.jsonl"
        assert run(["filter", "--jsonl", str(src), "--policy", "",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("chronolint: cannot read policy : ")
        assert not out.exists()

    def test_unknown_cutoff_mode(self, tmp_path, capsys):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"cutoff_mode": "sideways"}))
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([rec("a")]))
        out = tmp_path / "kept.jsonl"
        assert run(["filter", "--jsonl", str(src), "--policy", str(path),
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == "chronolint: unknown cutoff mode: 'sideways'\n"
        assert not out.exists()

    def test_reference_out_of_sanity_bounds(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([rec("a")]))
        out = tmp_path / "r.json"
        assert run(["scan", "--jsonl", str(src), "--reference", str(2**62),
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"chronolint: unparseable instant: '{2**62}': epoch out of sanity bounds: ")
        assert not out.exists()

    def test_count_flag_not_an_integer(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            run(["scan", "--jsonl", str(tmp_path / "in.jsonl"), "--top", "x",
                 "--out", str(out)])
        assert exc.value.code == 2
        assert "--top: not an integer: 'x'" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_rules_rejected_before_reading_input(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fingerprint_rules": [
            {"name": "x", "pattern": "a"}, {"name": "x", "pattern": "b"}]}))
        assert run(["scan", "--jsonl", str(tmp_path / "missing.jsonl"),
                    "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "chronolint: duplicate fingerprint rule name: 'x'\n"

    @pytest.mark.parametrize("body", [
        pytest.param(b'{"fingerprint_rules": "\xff"}', id="undecodable"),
        pytest.param(b'{"x": ' + b"1" * 5000 + b"}", id="overlong-integer",
                     marks=pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                              reason="this Python has no integer digit limit")),
    ])
    def test_unreadable_config(self, tmp_path, capsys, body):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(body)
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([rec("a")]))
        assert run(["scan", "--jsonl", str(src), "--config", str(cfg),
                    "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err.startswith(f"chronolint: cannot read config {cfg}: ")

    @pytest.mark.parametrize("flag", ["--config", "--policy"])
    def test_config_nested_past_recursion_limit(self, tmp_path, capsys, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"[" * 100_000)
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([rec("a")]))
        command = "scan" if flag == "--config" else "filter"
        assert run([command, "--jsonl", str(src), flag, str(cfg),
                    "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            f"chronolint: cannot read {flag[2:]} {cfg}: maximum recursion depth exceeded")

    @pytest.mark.parametrize("flag", ["--config", "--policy"])
    @pytest.mark.parametrize("body", [b"[]", b'"policy"', None],
                             ids=["array", "string", "directory"])
    def test_settings_file_unreadable_or_not_an_object(self, tmp_path, capsys, flag, body):
        """Each settings file is named in its own read errors, before any input is read."""
        what = flag[2:]
        path = tmp_path / f"{what}.json"
        if body is None:
            path.mkdir()
        else:
            path.write_bytes(body)
        command = "scan" if flag == "--config" else "filter"
        out = tmp_path / "out"
        assert run([command, "--jsonl", str(tmp_path / "missing.jsonl"), flag, str(path),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        if body is None:
            assert err.startswith(f"chronolint: cannot read {what} {path}: [Errno 21] ")
        else:
            assert err == f"chronolint: {what} {path} is not a JSON object\n"
        assert not out.exists()

    def test_jsonl_line_nested_past_recursion_limit(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_bytes(b"[" * 100_000 + b"\n" + emit_export_stream([rec("a")]))
        out = tmp_path / "r.json"
        assert run(["scan", "--jsonl", str(src), "--reference", REF, "--out", str(out)]) == 0
        assert capsys.readouterr().err.startswith(
            "chronolint: rejected line 1: invalid JSON: maximum recursion depth exceeded")
        assert read_json(out)["totals"]["commits"] == 1

    def test_anomaly_stream_nested_past_recursion_limit(self, tmp_path, capsys):
        good = '{"kind": "future", "commit_id": "%s", "project": "p", "observed_epoch": 5}'
        stream = tmp_path / "a.jsonl"
        stream.write_text(good % ("a" * 40) + "\n" + "[" * 100_000 + "\n")
        assert run(["report", "--in", str(stream), "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err.startswith(
            "chronolint: bad anomaly record at line 2: maximum recursion depth exceeded")

    @pytest.mark.parametrize("argv", [
        ["scan", "--jsonl", "{jsonl}", "--top", "0"],
        ["scan", "--jsonl", "{jsonl}", "--top", "-3"],
        ["corpus", "--list", "{list}", "--top", "0"],
        ["corpus", "--list", "{list}", "--jobs", "0"],
        ["report", "--in", "{anomalies}", "--top", "0"],
    ], ids=["scan-top-0", "scan-top-negative", "corpus-top-0", "corpus-jobs-0",
            "report-top-0"])
    def test_count_flag_below_one(self, tmp_path, capsys, argv):
        paths = {"jsonl": tmp_path / "in.jsonl", "list": tmp_path / "repos.txt",
                 "anomalies": tmp_path / "a.jsonl"}
        if argv[0] == "corpus":
            build_repo(tmp_path / "r", [{"key": "a", "commit_epoch": 0}])
            paths["list"].write_text(f"{tmp_path / 'r'}\n")
        paths["jsonl"].write_bytes(emit_export_stream([rec("a", commit_epoch=0)]))
        assert run(["scan", "--jsonl", str(paths["jsonl"]), "--reference", REF,
                    "--out", str(tmp_path / "r.json"),
                    "--anomalies-out", str(paths["anomalies"])]) == 1
        capsys.readouterr()
        argv = [a.format(**paths) for a in argv] + ["--out", str(tmp_path / "out.json")]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("flag", [
        ["--cutoff-table"], ["--tokens"], ["--top-projects", "5"], ["--top-authors", "5"],
    ], ids=lambda flag: flag[0])
    def test_removed_report_flag(self, tmp_path, capsys, flag):
        """report writes every table at --top rows, as scan does; the flags
        that chose its tables are unrecognized arguments."""
        stream = tmp_path / "a.jsonl"
        stream.write_text('{"kind":"future","commit_id":"%s","project":"p","observed_epoch":5}\n'
                          % ("a" * 40))
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            run(["report", "--in", str(stream), *flag, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("policy, key", [
        ({"drop_flagged_kinds": ["bogus"]}, "drop_flagged_kinds"),
        ({"drop_flagged_kinds": "zero_epoch"}, "drop_flagged_kinds"),
        ({"window": ["2014-01-01"]}, "window"),
        ({"window": ["2014-01-01", "someday"]}, "window"),
        ({"cutoff": "someday"}, "cutoff"),
        ({"min_epoch_seconds": "5"}, "min_epoch_seconds"),
        ({"min_epoch_seconds": True}, "min_epoch_seconds"),
        ({"project_blacklist": "bad/proj"}, "project_blacklist"),
        ({"project_blacklist": [1]}, "project_blacklist"),
        ({"min_epoch_secs": 5_000_000_000, "cutof": "2030-01-01"}, "min_epoch_secs"),
        ({"cutof": "2030-01-01"}, "cutof"),
    ])
    def test_bad_policy(self, tmp_path, capsys, policy, key):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(policy))
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([rec("a")]))
        out = tmp_path / "kept.jsonl"
        assert run(["filter", "--jsonl", str(src), "--policy", str(path),
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"chronolint: policy {key}")
        assert not out.exists()

    @pytest.mark.parametrize("policy, message", [
        *(({key: value}, f"policy {key} must be a list of strings: {value!r}")
          for key in ("project_blacklist", "drop_flagged_kinds")
          for value in ("proj", [1], {"a": 1}, 5)),
        *(({"min_epoch_seconds": value}, f"policy min_epoch_seconds must be an integer: {value!r}")
          for value in ("5", 1.5, True)),
        ({"drop_flagged_kinds": ["bogus"]},
         "policy drop_flagged_kinds: 'bogus' is not a valid AnomalyKind"),
    ])
    def test_bad_policy_value_same_text_everywhere(self, tmp_path, capsys, policy, message):
        """A bad value is refused with one text whether the policy is read
        from JSON, by filter --policy, or made in Python."""
        with pytest.raises(ConfigError) as from_json:
            cli.policy_from_object(json.loads(json.dumps(policy)))
        with pytest.raises(ConfigError) as made:
            FilterPolicy(**policy)
        assert str(from_json.value) == str(made.value) == message
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(policy))
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([rec("a")]))
        assert run(["filter", "--jsonl", str(src), "--policy", str(path),
                    "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"chronolint: {message}\n"

    @pytest.mark.parametrize("basis", [{}, ["author"]], ids=["object", "list"])
    def test_policy_time_basis_not_a_string(self, tmp_path, capsys, basis):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"time_basis": basis}))
        src = tmp_path / "in.jsonl"
        src.write_bytes(emit_export_stream([rec("a")]))
        out = tmp_path / "kept.jsonl"
        assert run(["filter", "--jsonl", str(src), "--policy", str(path),
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"chronolint: unknown time basis: {basis!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "[1]",
        '"future"',
        '{"kind": "future", "commit_id": "%s", "project": "p", "observed_epoch": "abc"}',
        '{"kind": "future", "commit_id": "%s", "project": "p", "observed_epoch": null}',
        '{"kind": "future", "commit_id": "%s", "project": "p", "observed_epoch": 5, '
        '"reference_epoch": "abc"}',
        '{"kind": "future", "commit_id": "%s", "project": "p", "observed_epoch": 5, '
        '"reference_epoch": null}',
        '{"kind": "future", "commit_id": "%s", "project": 7, "observed_epoch": 5}',
        '{"kind": "future", "commit_id": "%s", "project": "p", "observed_epoch": 5, '
        '"observed_tz": 0}',
        '{"kind": "future", "commit_id": "%s", "project": "p", "observed_epoch": 5, '
        '"counterpart_id": 7}',
        '{"kind": "future", "commit_id": "%s", "project": "p", "observed_epoch": 5, '
        '"delta_seconds": "5"}',
        '{"kind": "future", "commit_id": "%s", "project": "p", "observed_epoch": 5, '
        '"delta_seconds": 1.5}',
        '{"kind": "future", "commit_id": "abc", "project": "p", "observed_epoch": 5}',
        '{"kind": "future", "commit_id": "%s", "project": "p", "observed_epoch": 5, '
        '"counterpart_id": "HEAD~1"}',
        '{"kind": "future", "commit_id": "%s", "project": "p", "observed_epoch": 5, '
        '"counterpart_id": "' + "A" * 40 + '"}',
    ], ids=["list", "string", "epoch-text", "epoch-null", "reference-text",
            "reference-null", "project-number", "zone-number", "counterpart-number",
            "delta-text", "delta-float", "commit-id-short", "counterpart-not-id",
            "counterpart-uppercase"])
    def test_bad_anomaly_stream(self, tmp_path, capsys, line):
        good = '{"kind": "future", "commit_id": "%s", "project": "p", "observed_epoch": 5}'
        stream = tmp_path / "a.jsonl"
        stream.write_text((good + "\n" + line + "\n").replace("%s", "a" * 40))
        assert run(["report", "--in", str(stream), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("chronolint: bad anomaly record at line 2: ")


class TestUnwritableOutput:
    """An output that cannot be written exits 2 naming it, not 1 with a traceback."""

    def export(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(emit_export_stream([rec(1, commit_epoch=0)]))
        return path

    def assert_cannot_write(self, capsys, path, code):
        assert code == 2
        assert capsys.readouterr().err == (
            f"chronolint: cannot write {path}: No such file or directory\n")

    @pytest.mark.parametrize("flag", ["--out", "--anomalies-out"])
    def test_scan(self, tmp_path, capsys, flag):
        missing = tmp_path / "no" / "dir" / "out"
        code = run(["scan", "--jsonl", str(self.export(tmp_path)), "--reference", REF,
                    flag, str(missing)])
        self.assert_cannot_write(capsys, missing, code)

    def test_scan_csv_directory(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = run(["scan", "--jsonl", str(self.export(tmp_path)), "--reference", REF,
                    "--format", "csv", "--out", str(blocker / "csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"chronolint: cannot write {blocker / 'csv'}: ")

    def test_filter(self, tmp_path, capsys):
        missing = tmp_path / "no" / "k.jsonl"
        code = run(["filter", "--jsonl", str(self.export(tmp_path)), "--out", str(missing)])
        self.assert_cannot_write(capsys, missing, code)

    def test_report(self, tmp_path, capsys):
        stream = tmp_path / "a.jsonl"
        stream.write_bytes(b"")
        missing = tmp_path / "no" / "r.json"
        code = run(["report", "--in", str(stream), "--out", str(missing)])
        self.assert_cannot_write(capsys, missing, code)

    def test_corpus(self, tmp_path, capsys):
        repo = tmp_path / "r"
        build_repo(repo, [{"key": "a", "commit_epoch": 1_600_000_000}])
        listing = tmp_path / "list.txt"
        listing.write_text(f"{repo}\n")
        missing = tmp_path / "no" / "m.json"
        code = run(["corpus", "--list", str(listing), "--reference", REF,
                    "--out", str(missing)])
        self.assert_cannot_write(capsys, missing, code)


def launch(argv, cwd, unbuffered, closed=None, **streams):
    """Run chronolint as the program, its stdout buffered as by default or
    unbuffered as by PYTHONUNBUFFERED, with file descriptor closed (1 or 2)
    closed at its start; streams are subprocess.run's stdout, stderr and
    text."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(SRC), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    command = [sys.executable, "-m", "chronolint.cli", *argv]
    if closed is not None:
        command = ["sh", "-c", f'exec "$@" {closed}>&-', "sh", *command]
    return subprocess.run(command, cwd=cwd, env=env, check=False, **streams)


def program(argv, cwd, stdout, unbuffered):
    """Run chronolint as the program, its stdout on the open file stdout,
    buffered as by default or unbuffered as by PYTHONUNBUFFERED; its exit
    code and stderr."""
    done = launch(argv, cwd, unbuffered, stdout=stdout, stderr=subprocess.PIPE, text=True)
    return done.returncode, done.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
class TestUnwritableStdout:
    """Output that cannot reach stdout exits 2 naming <stdout>, as an
    unwritable --out does: not 1, which reads as anomalies found, nor 0.
    Buffered, a failed write leaves its bytes in stdout's buffer, and the
    interpreter's flush at exit must not fail on them again (exit 120)."""

    @pytest.mark.parametrize("argv", [
        ["scan", "--jsonl", "dirty.jsonl", "--reference", REF],
        ["scan", "--jsonl", "dirty.jsonl", "--reference", REF, "--format", "text"],
        ["scan", "--jsonl", "dirty.jsonl", "--reference", REF, "--format", "csv"],
        ["filter", "--jsonl", "dirty.jsonl", "--reference", REF],
        ["filter", "--jsonl", "dirty.jsonl", "--reference", REF, "--out", "kept.jsonl"],
        ["report", "--in", "empty.jsonl"],
        ["corpus", "--list", "list.txt", "--reference", REF],
        ["--version"],
        ["--help"],
        ["scan", "--help"],
    ], ids=["scan-json", "scan-text", "scan-csv", "filter", "filter-summary", "report",
            "corpus", "version", "help", "scan-help"])
    def test_full(self, tmp_path, argv, unbuffered):
        (tmp_path / "dirty.jsonl").write_bytes(emit_export_stream(
            [rec(i, commit_epoch=i * 1_000_000) for i in range(3)]))
        (tmp_path / "empty.jsonl").write_bytes(b"")
        if argv[0] == "corpus":
            build_repo(tmp_path / "r", [{"key": "a", "commit_epoch": 0}])
            (tmp_path / "list.txt").write_text("r\n")
        with open("/dev/full", "wb") as full:
            code, err = program(argv, tmp_path, full, unbuffered)
        assert (code, err) == (2, "chronolint: cannot write <stdout>: No space left on device\n")

    def test_closed_pipe(self, tmp_path, monkeypatch, unbuffered):
        """A report larger than a pipe's buffer, to a pipe no one reads."""
        (tmp_path / "wide.jsonl").write_bytes(emit_export_stream(
            [rec(i, commit_epoch=0, project=f"project-{i:04}", author_email=f"a{i}@example.com")
             for i in range(1000)]))
        argv = ["scan", "--jsonl", "wide.jsonl", "--reference", REF, "--top", "1000"]
        monkeypatch.chdir(tmp_path)
        assert run([*argv, "--out", "r.json"]) == 1
        assert (tmp_path / "r.json").stat().st_size > 1 << 16
        read, write = os.pipe()
        os.close(read)
        with open(write, "wb") as closed:
            code, err = program(argv, tmp_path, closed, unbuffered)
        assert (code, err) == (2, "chronolint: cannot write <stdout>: Broken pipe\n")


# each command of TestStreams; {} is the directory of its inputs
STREAM_COMMANDS = {
    "usage": ["scan", "--top", "0"],
    "missing-input": ["scan", "--jsonl", "{}/missing.jsonl"],
    "rejects": ["scan", "--jsonl", "{}/small.jsonl", "--reference", REF,
                "--anomalies-out", "a.jsonl"],
    "forked": ["scan", "--jsonl", "{}/large.jsonl", "--reference", REF,
               "--anomalies-out", "a.jsonl"],
    "filter": ["filter", "--jsonl", "{}/small.jsonl", "--reference", REF],
    "corpus-failed": ["corpus", "--list", "{}/failed.txt", "--reference", REF],
    "corpus-partial": ["corpus", "--list", "{}/partial.txt", "--reference", REF],
    "report": ["report", "--in", "{}/bad.jsonl"],
    "version": ["--version"],
}


@pytest.fixture(scope="module")
def stream_inputs(tmp_path_factory):
    """The directory of TestStreams' inputs: a 101-line export whose line 51
    is bad; one over 2 * MIN_RANGE_BYTES with a bad line every 1000, which
    a scan cuts into ranges and forks for where two CPUs are usable; a
    corpus list whose one entry fails, and one with a good repository too;
    an anomaly stream of one bad line."""
    root = tmp_path_factory.mktemp("streams")
    small = emit_export_stream([rec(i, commit_epoch=i * 1_000_000) for i in range(100)])
    lines = small.splitlines(keepends=True)
    (root / "small.jsonl").write_bytes(b"".join([*lines[:50], b"not json\n", *lines[50:]]))
    lines = emit_export_stream([
        rec((p, i), commit_epoch=0 if i % 97 == 0 else 1_600_000_000 + i, project=f"p{p}",
            message="update " * 10)
        for p in range(8) for i in range(600)]).splitlines(keepends=True)
    for at in range(0, len(lines), 1000):
        lines.insert(at, b"{}\n")
    (root / "large.jsonl").write_bytes(b"".join(lines))
    assert (root / "large.jsonl").stat().st_size > 2 * parallel.MIN_RANGE_BYTES
    build_repo(root / "repo", [{"key": "a", "commit_epoch": 0}])
    (root / "failed.txt").write_text(f"{root / 'no-repo'}\n")
    (root / "partial.txt").write_text(f"{root / 'repo'}\n{root / 'no-repo'}\n")
    (root / "bad.jsonl").write_bytes(b"not json\n")
    return root


@pytest.fixture(scope="module")
def open_runs():
    """The outcomes of TestStreams' runs with every stream open, by
    (command, unbuffered), each run once."""
    return {}


def outcome(argv, cwd, unbuffered, stderr):
    """(exit code, stdout, stderr, output files) of a run in the new
    directory cwd, its stderr open, on /dev/full, on a pipe with no reader
    or missing (file descriptor 2 closed)."""
    cwd.mkdir()
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    with contextlib.ExitStack() as stack:
        if stderr == "full":
            streams["stderr"] = stack.enter_context(open("/dev/full", "wb"))
        elif stderr == "no-reader":
            read, write = os.pipe()
            os.close(read)
            streams["stderr"] = stack.enter_context(open(write, "wb"))
        elif stderr == "missing":
            streams.update(stderr=None, closed=2)
        done = launch(argv, cwd, unbuffered, **streams)
    files = {path.name: path.read_bytes() for path in cwd.iterdir()}
    return done.returncode, done.stdout, done.stderr or b"", files


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", STREAM_COMMANDS)
class TestStreams:
    """A stderr that is missing or fails drops the diagnostics and changes
    nothing else; a missing stdout fails as a failing stdout does. Neither
    lets a diagnostic into stdout, a traceback out, or the interpreter's
    flush at exit turn the exit code into 120."""

    def open_run(self, tmp_path, stream_inputs, open_runs, command, unbuffered):
        argv = [arg.format(stream_inputs) for arg in STREAM_COMMANDS[command]]
        if (command, unbuffered) not in open_runs:
            open_runs[command, unbuffered] = outcome(argv, tmp_path / "open", unbuffered, "open")
        return argv, open_runs[command, unbuffered]

    @pytest.mark.parametrize("stderr", ["full", "no-reader", "missing"])
    def test_stderr(self, tmp_path, stream_inputs, open_runs, command, unbuffered, stderr):
        """The exit code, stdout and output files of the run with stderr open."""
        if stderr == "full" and not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        argv, (code, out, _, files) = self.open_run(tmp_path, stream_inputs, open_runs,
                                                    command, unbuffered)
        got, out_got, _, files_got = outcome(argv, tmp_path / stderr, unbuffered, stderr)
        assert (got, out_got, files_got) == (code, out, files)

    def test_missing_stdout(self, tmp_path, stream_inputs, open_runs, command, unbuffered):
        """A command that writes stdout exits 2 with the diagnostics it
        wrote before and one line naming <stdout>; any other runs as with
        stdout open."""
        argv, (code, out, err, _) = self.open_run(tmp_path, stream_inputs, open_runs,
                                                  command, unbuffered)
        done = launch(argv, tmp_path, unbuffered, closed=1, stderr=subprocess.PIPE)
        if out:
            diagnostics = b"".join(line for line in err.splitlines(keepends=True)
                                   if line.startswith(b"chronolint: "))
            code, err = 2, diagnostics + b"chronolint: cannot write <stdout>: Bad file descriptor\n"
        assert (done.returncode, done.stderr) == (code, err)


class NoReader(io.StringIO):
    """A stderr whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


class TestStreamsInProcess:
    """TestStreams' rules for main(argv), with sys's streams replaced."""

    @pytest.mark.parametrize("stderr", [None, NoReader], ids=["missing", "no-reader"])
    def test_stderr(self, tmp_path, monkeypatch, capsysbinary, stderr):
        """A reject dropped: the exit code and report of the run with stderr
        open, and a failing stderr left closed."""
        export = tmp_path / "e.jsonl"
        export.write_bytes(b"not json\n" + emit_export_stream([rec(1, commit_epoch=0)]))
        argv = ["scan", "--jsonl", str(export), "--reference", REF]
        code = run(argv)
        out, err = capsysbinary.readouterr()
        assert code == 1 and err.startswith(b"chronolint: rejected line 1: invalid JSON")
        stream = stderr and stderr()
        monkeypatch.setattr(sys, "stderr", stream)
        assert (run(argv), capsysbinary.readouterr().out) == (code, out)
        assert stream is None or stream.closed

    def test_usage_error_with_stderr_missing(self, monkeypatch, capsysbinary):
        monkeypatch.setattr(sys, "stderr", None)
        with pytest.raises(SystemExit) as exit_:
            run(["scan", "--top", "0"])
        assert (exit_.value.code, capsysbinary.readouterr().out) == (2, b"")

    def test_missing_stdout(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", None)
        assert run(["--version"]) == 2
        assert capsys.readouterr().err == "chronolint: cannot write <stdout>: Bad file descriptor\n"


class TestCorpus:
    def make_repos(self, tmp_path):
        r1 = tmp_path / "repo1"
        build_repo(r1, [
            {"key": "a", "commit_epoch": 0},
            {"key": "b", "commit_epoch": 1_600_000_000, "parents": ["a"]},
        ])
        r2 = tmp_path / "repo2"
        build_repo(r2, [{"key": "a", "commit_epoch": 1_500_000_000}])
        return r1, r2

    def test_list_of_blank_lines_exit_two(self, tmp_path, capsys):
        listing = tmp_path / "list.txt"
        listing.write_text("\n  \n\t\n")
        assert run(["corpus", "--list", str(listing), "--reference", REF,
                    "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == "chronolint: corpus list is empty\n"

    def test_list_not_utf8_exit_two(self, tmp_path, capsys):
        listing = tmp_path / "list.txt"
        listing.write_bytes(b"\xff\xfe\n")
        assert run(["corpus", "--list", str(listing), "--reference", REF,
                    "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"chronolint: cannot read {listing}: ")
        assert err.count("\n") == 1

    def test_url_without_cache_exit_two_before_any_clone(self, tmp_path, monkeypatch, capsys):
        """A URL entry exits 2 before any git process starts, whether or not
        --cache is given: the flag is gone, so argparse refuses it."""
        r1, _ = self.make_repos(tmp_path)
        urls = [f"file://{tmp_path / 'b'}", f"file://{tmp_path / 'a'}"]
        listing = tmp_path / "list.txt"
        listing.write_text(f"{urls[0]}\n{r1}\n{urls[1]}\n")
        started = record_processes(monkeypatch)
        out = tmp_path / "o.json"
        argv = ["corpus", "--list", str(listing), "--reference", REF, "--out", str(out)]
        assert run(argv) == 2
        # the first URL of the sorted list
        assert capsys.readouterr() == (
            "", f"chronolint: corpus entries are local repository paths, not URLs: {urls[1]}\n")
        cache = tmp_path / "cache"
        with pytest.raises(SystemExit) as exit_:
            run([*argv, "--cache", str(cache)])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: unrecognized arguments: --cache {cache}\n")
        assert started == []
        assert not out.exists()
        assert not cache.exists()

    def test_merged_totals_additive(self, tmp_path):
        r1, r2 = self.make_repos(tmp_path)
        outs = []
        for i, repo in enumerate((r1, r2)):
            out = tmp_path / f"single{i}.json"
            run(["scan", "--repo", str(repo), "--project", str(repo),
                 "--reference", REF, "--out", str(out)])
            outs.append(read_json(out))
        listing = tmp_path / "list.txt"
        listing.write_text(f"{r1}\n{r2}\n")
        merged_out = tmp_path / "merged.json"
        code = run(["corpus", "--list", str(listing), "--reference", REF,
                    "--out", str(merged_out)])
        assert code == 1
        merged = read_json(merged_out)
        assert merged["totals"]["commits"] == sum(
            o["totals"]["commits"] for o in outs
        )
        assert merged["anomalies"]["zero_epoch"]["count"] == sum(
            o["anomalies"]["zero_epoch"]["count"] for o in outs
        )

    def test_partial_failure_noted(self, tmp_path):
        r1, r2 = self.make_repos(tmp_path)
        listing = tmp_path / "list.txt"
        listing.write_text(f"{r1}\n{tmp_path / 'nope'}\n{r2}\n")
        out = tmp_path / "merged.json"
        code = run(["corpus", "--list", str(listing), "--reference", REF,
                    "--out", str(out)])
        assert code == 1  # anomalies found in surviving repos
        merged = read_json(out)
        assert len(merged["meta"]["failures"]) == 1
        assert str(tmp_path / "nope") in merged["meta"]["failures"][0]["entry"]

    def test_ingest_rejects_reported(self, tmp_path, capsys):
        repo = tmp_path / "repo"
        shas = build_repo(repo, [
            {"key": "a", "commit_epoch": 1_500_000_000},
            {"key": "b", "commit_epoch": 1_500_000_060, "parents": ["a"],
             "message": "lone \x1f unit separator"},
        ])
        bad = write_raw_commit(repo, (
            f"parent {shas['b']}\n"
            "author A <a@example.com> 1500000120 +2500\n"
            "committer A <a@example.com> 1500000120 +2500\n"
        ), "out of range zone\n", "bad-zone")
        listing = tmp_path / "list.txt"
        listing.write_text(f"{repo}\n")
        out = tmp_path / "o.json"
        assert run(["corpus", "--list", str(listing), "--reference", REF,
                    "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert (f"chronolint: {repo}: rejected {bad}: bad timestamp: "
                "UTC offset out of range: '+2500'") in err
        assert read_json(out)["totals"]["commits"] == 2
        records, _ = read_repository(str(repo), "proj")
        assert [r.message for r in records if r.id == shas["b"]] == ["lone \x1f unit separator"]

    def test_all_failed_exit_two(self, tmp_path):
        listing = tmp_path / "list.txt"
        listing.write_text(f"{tmp_path / 'a'}\n{tmp_path / 'b'}\n")
        assert run(["corpus", "--list", str(listing),
                    "--out", str(tmp_path / "o.json")]) == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_git_that_cannot_be_run_stops_the_corpus(self, jobs, tmp_path, monkeypatch,
                                                     capsys):
        """A git that cannot be started fails every entry alike, so it is the
        run's one error, not each entry's: one line, exit 2 and no report."""
        r1, r2 = self.make_repos(tmp_path)
        listing = tmp_path / "list.txt"
        listing.write_text(f"{r1}\n{r2}\n")
        monkeypatch.setenv("CHRONOLINT_GIT", os.devnull)
        out = tmp_path / "o.json"
        assert run(["corpus", "--list", str(listing), "--jobs", jobs, "--reference", REF,
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"chronolint: git executable {os.devnull!r} cannot be run: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_jobs_and_order_deterministic(self, tmp_path):
        r1, r2 = self.make_repos(tmp_path)
        forward = tmp_path / "fwd.txt"
        forward.write_text(f"{r1}\n{r2}\n")
        backward = tmp_path / "bwd.txt"
        backward.write_text(f"{r2}\n{r1}\n")
        outputs = []
        for listing, jobs in ((forward, "1"), (backward, "8"), (forward, "8")):
            out = tmp_path / f"out-{listing.stem}-{jobs}.json"
            run(["corpus", "--list", str(listing), "--jobs", jobs,
                 "--reference", REF, "--out", str(out)])
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_missing_path_names_git_cat_file_and_reaps_git(self, tmp_path, monkeypatch,
                                                            capsys):
        """Both processes of the read fail in a missing directory; the
        error is the inner one's, cat-file's, and neither is left running."""
        missing = tmp_path / "missing"
        listing = tmp_path / "list.txt"
        listing.write_text(f"{missing}\n")
        started = record_processes(monkeypatch)
        assert run(["corpus", "--list", str(listing), "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"chronolint: {missing}: git cat-file failed in {missing}: ")
        assert git_subcommands(started) == ["rev-list", "cat-file"]
        assert_reaped(started)

    def test_failed_clone_error_is_one_line(self, tmp_path):
        """git prints five lines when it cannot clone a missing file:// path;
        run_git's error keeps the non-blank ones on one line, joined by "; "."""
        url = f"file://{tmp_path / 'missing'}"
        with pytest.raises(RepositoryError) as exc:
            with run_git(str(tmp_path), ["clone", "--quiet", url, "clone"]) as clone:
                clone.stdout.read()
        message = str(exc.value)
        assert "\n" not in message
        assert message.startswith(f"git clone failed in {tmp_path}: fatal: ")
        assert "; fatal: " in message


class TestCutHistory:
    """A history cut short by a shallow clone is refused by scan and filter
    --repo, and is one failed entry of a corpus. A .git/info/grafts line is
    not followed, so a grafted history is read as stored."""

    @pytest.fixture(params=["shallow"])
    def cut(self, tmp_path):
        """(a repository whose tip c is read without its parent b, b's id)."""
        src = tmp_path / "src"
        shas = tip_only_repo(src)
        shallow_clone(src, tmp_path / "cut", "c3")
        return tmp_path / "cut", shas["b"]

    @pytest.fixture(params=["drops", "adds"])
    def grafted(self, request, tmp_path):
        """(a repository of a, b and c, each the parent of the next, whose
        grafts line either drops c's parent b or gives b a second parent d, a
        commit that no ref reaches, dated in the future; the ids of a, b, c)."""
        repo = tmp_path / "src"
        shas = build_repo(repo, [
            {"key": "a", "commit_epoch": 1_400_000_000},
            {"key": "b", "commit_epoch": 1_400_001_000, "parents": ["a"]},
            {"key": "c", "commit_epoch": 1_400_002_000, "parents": ["b"]},
            {"key": "d", "commit_epoch": 2_000_000_000},
        ])
        keep_only_branch(repo, "c3")
        if request.param == "drops":
            write_grafts(repo, shas["c"])
        else:
            write_grafts(repo, f"{shas['b']} {shas['a']} {shas['d']}")
        return repo, sorted(shas[key] for key in "abc")

    @staticmethod
    def refused(path, missing):
        return f"shallow history refused in {path}: parent {missing} was not read"

    @pytest.mark.parametrize("command", ["scan", "filter"])
    def test_repo_exit_two(self, cut, command, tmp_path, capsys):
        path, missing = cut
        out = tmp_path / "out"
        assert run([command, "--repo", str(path), "--reference", REF, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"chronolint: {self.refused(path, missing)}\n"
        assert not out.exists()

    def test_corpus_lists_it_under_failures(self, cut, tmp_path, capsys):
        path, missing = cut
        whole = tmp_path / "whole"
        build_repo(whole, [
            {"key": "a", "commit_epoch": 1_500_000_000},
            {"key": "b", "commit_epoch": 1_500_000_060, "parents": ["a"]},
        ])
        listing = tmp_path / "list.txt"
        listing.write_text(f"{whole}\n{path}\n")
        out = tmp_path / "o.json"
        assert run(["corpus", "--list", str(listing), "--reference", REF,
                    "--out", str(out)]) == 0
        report = read_json(out)
        assert report["totals"] == {"commits": 2, "projects": 1}
        assert report["meta"]["failures"] == [
            {"entry": str(path), "error": self.refused(path, missing)}]
        assert capsys.readouterr().err == f"chronolint: {path}: {self.refused(path, missing)}\n"

    @pytest.mark.parametrize("command", ["scan", "filter"])
    def test_repo_read_as_stored(self, grafted, command, tmp_path, capsys):
        path, ids = grafted
        out = tmp_path / "out"
        assert run([command, "--repo", str(path), "--reference", REF, "--out", str(out)]) == 0
        if command == "scan":
            report = read_json(out)
            assert report["totals"] == {"commits": 3, "projects": 1}
            assert not any(s["count"] for s in report["anomalies"].values())
        else:
            assert sorted(json.loads(line)["id"] for line in out.read_text().splitlines()) == ids
        assert capsys.readouterr().err == ""

    def test_corpus_reads_it_as_stored(self, grafted, tmp_path, capsys):
        path, _ = grafted
        listing = tmp_path / "list.txt"
        listing.write_text(f"{path}\n")
        out = tmp_path / "o.json"
        assert run(["corpus", "--list", str(listing), "--reference", REF,
                    "--out", str(out)]) == 0
        report = read_json(out)
        assert report["totals"] == {"commits": 3, "projects": 1}
        assert report["meta"]["failures"] == []
        assert capsys.readouterr().err == ""
