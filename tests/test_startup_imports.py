"""Importing the command line loads no machinery that most runs never use.

Every run imports ``chronolint.cli``, but no run starts a thread pool (a
``corpus`` run clones each URL in the unit that scans it), only git ingest
starts processes, only forked workers pickle and only ``--format csv`` writes
CSV; each imports what it needs where it runs. The package's types are named
tuples and plain classes, so no run pays for ``dataclasses`` and the
``inspect`` chain behind it, and the stop word list is read without
``importlib.resources``.

The child runs with ``-S``, so that no site hook that preloads a module can
hide an import of the package. A module counts only if a baseline child,
which imports just the stdlib modules the package imports at top level, does
not load it too: a Python whose own ``argparse`` loads ``dataclasses`` is no
fault of the package.
"""

import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

from chronolint.report import default_stopwords
from helpers import build_repo

SRC = Path(__file__).resolve().parent.parent / "src"
DEFERRED = ("concurrent.futures", "subprocess", "multiprocessing", "pickle",
            "dataclasses", "inspect", "importlib.resources", "tempfile", "csv")
# the stdlib modules that the package's modules import at top level
BASELINE = ("argparse", "atexit", "bisect", "collections", "contextlib", "datetime", "enum",
            "functools", "gc", "heapq", "io", "itertools", "json", "json.encoder", "operator",
            "os", "re", "stat", "sys", "time", "typing")


def loaded(statements):
    """The modules a fresh interpreter with no site hook has loaded after
    statements."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = f"import json, sys; {statements}; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         check=True).stdout
    return set(json.loads(out.splitlines()[-1]))


def loaded_after(statements, deferred=DEFERRED):
    """Which of deferred a fresh interpreter loads after statements and the
    baseline child does not."""
    new = loaded(statements) - loaded(f"import {', '.join(BASELINE)}")
    return [m for m in deferred if m in new]


def test_cli_import_loads_no_process_machinery():
    assert loaded_after("import chronolint.cli") == []


def assert_corpus_runs_no_thread_pool(tmp_path, scheme, *flags):
    """corpus --jobs 2 over two one-commit repositories, listed as paths
    after scheme, reads both and loads no concurrent.futures."""
    for name in ("a", "b"):
        build_repo(tmp_path / name, [{"key": "x", "commit_epoch": 1_500_000_000}])
    listing = tmp_path / "list.txt"
    listing.write_text(f"{scheme}{tmp_path / 'a'}\n{scheme}{tmp_path / 'b'}\n")
    argv = ["corpus", "--list", str(listing), "--jobs", "2", "--out", str(tmp_path / "o.json"),
            *flags]
    run = f"from chronolint.cli import main; main({argv!r})"
    assert loaded_after(run, ("concurrent.futures",)) == []
    assert json.loads((tmp_path / "o.json").read_text())["totals"]["commits"] == 2


def test_corpus_of_local_repos_runs_no_thread_pool(tmp_path):
    assert_corpus_runs_no_thread_pool(tmp_path, "")


def test_corpus_of_urls_runs_no_thread_pool(tmp_path):
    assert_corpus_runs_no_thread_pool(tmp_path, "file://", "--cache", str(tmp_path / "cache"))


def test_stop_words_read_from_a_zip_as_from_the_tree(tmp_path):
    archive = tmp_path / "chronolint.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in (SRC / "chronolint").rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(SRC))
    code = ("import json, chronolint.report as r; "
            "print(r.__file__); print(json.dumps(sorted(r.default_stopwords())))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(archive)), text=True).stdout
    where, words = out.splitlines()[-2:]
    assert where.startswith(str(archive))
    assert json.loads(words) == sorted(default_stopwords())
