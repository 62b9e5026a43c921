"""Every ``scan`` and ``filter`` input is read and stepped over by one runner.

``cli.scan_units`` takes the reads of an input (a repository's one read, a
pipe's or a one-range export's one read, or a ranged export's one read per
range) and is the only place where they reach ``parallel.share`` or the
one-process step, and the only keeper of their ingest report. The AST guard
keeps a second path from growing back: in ``cli.py``, only ``scan_units``
and ``cmd_corpus`` (whose units are whole repositories) may name
``parallel.share`` or ``print_rejects``. The runner tests check that an
input of one read runs in this process: no share, one read and one step.
"""

import ast
from pathlib import Path

import pytest

from chronolint import cli, parallel
from chronolint.ingest import emit_export_stream
from helpers import build_repo, rec

CLI = Path(__file__).resolve().parent.parent / "src" / "chronolint" / "cli.py"
REF = "2021-01-01T00:00:00+00:00"


def owners(is_mention):
    """The top-level definitions of cli.py that hold a node is_mention
    accepts; "<module>" for one outside any function."""
    found = set()
    for top in ast.parse(CLI.read_text("utf-8")).body:
        owner = top.name if isinstance(top, ast.FunctionDef) else "<module>"
        if any(is_mention(node) for node in ast.walk(top)):
            found.add(owner)
    return found


def names_share(node):
    if isinstance(node, ast.Attribute):
        return node.attr == "share" and isinstance(node.value, ast.Name) \
            and node.value.id == "parallel"
    return isinstance(node, ast.ImportFrom) and (node.module or "").endswith("parallel") \
        and any(alias.name == "share" for alias in node.names)


def names_print_rejects(node):
    return isinstance(node, ast.Name) and node.id == "print_rejects"


def test_only_the_runners_share():
    assert owners(names_share) == {"scan_units", "cmd_corpus"}


def test_only_the_runner_and_corpus_print_rejects():
    assert owners(names_print_rejects) == {"scan_units", "cmd_corpus"}


@pytest.fixture
def calls(monkeypatch):
    """The names of the spied functions, in the order they were called."""
    called = []

    def spy(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, **k: called.append(name) or real(*a, **k))

    spy(parallel, "share")
    for name in ("load_records", "parse_export_stream", "scan_corpus", "filter_corpus"):
        spy(cli, name)
    return called


@pytest.fixture
def inputs(tmp_path):
    """A repository and an export of three commits each, one zero-epoch."""
    repo = tmp_path / "repo"
    build_repo(repo, [{"key": "a", "commit_epoch": 0},
                      {"key": "b", "commit_epoch": 1_600_000_000, "parents": ["a"]},
                      {"key": "c", "commit_epoch": 1_600_003_600, "parents": ["b"]}])
    a = rec("a", commit_epoch=0, project="p")
    b = rec("b", commit_epoch=1_600_000_000, parents=(a.id,), project="p")
    export = tmp_path / "commits.jsonl"
    export.write_bytes(emit_export_stream([a, b, rec("c", parents=(b.id,), project="p")]))
    return {"--repo": repo, "--jsonl": export}


@pytest.mark.usefixtures("four_cpus")
@pytest.mark.parametrize("command, code, step", [("scan", 1, "scan_corpus"),
                                                 ("filter", 0, "filter_corpus")])
@pytest.mark.parametrize("source, read", [("--repo", "load_records"),
                                          ("--jsonl", "parse_export_stream")])
def test_one_read_runs_in_this_process(monkeypatch, tmp_path, calls, inputs,
                                       command, code, step, source, read):
    monkeypatch.setattr(parallel, "range_count", lambda fh: 1)
    out = tmp_path / "out"
    argv = [command, source, str(inputs[source]), "--reference", REF, "--out", str(out)]
    assert cli.main(argv) == code
    assert out.stat().st_size > 0
    assert calls == [read, step]
