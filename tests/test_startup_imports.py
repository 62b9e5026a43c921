"""Importing the command line loads no process or pickling machinery.

Every run imports ``chronolint.cli``, but only a ``corpus`` run with URLs
runs a thread pool (for the clones), only git ingest starts processes and
only forked workers pickle; each imports what it needs where it runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from helpers import build_repo

SRC = Path(__file__).resolve().parent.parent / "src"
DEFERRED = ("concurrent.futures", "subprocess", "multiprocessing", "pickle")


def loaded_after(statements, deferred=DEFERRED):
    """Which of deferred a fresh interpreter has loaded after statements."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (f"import json, sys; {statements}; "
            f"print(json.dumps([m for m in {deferred!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_cli_import_loads_no_process_machinery():
    assert loaded_after("import chronolint.cli") == []


def test_corpus_of_local_repos_runs_no_thread_pool(tmp_path):
    for name in ("a", "b"):
        build_repo(tmp_path / name, [{"key": "x", "commit_epoch": 1_500_000_000}])
    listing = tmp_path / "list.txt"
    listing.write_text(f"{tmp_path / 'a'}\n{tmp_path / 'b'}\n")
    argv = ["corpus", "--list", str(listing), "--jobs", "2", "--out", str(tmp_path / "o.json")]
    run = f"from chronolint.cli import main; main({argv!r})"
    assert loaded_after(run, ("concurrent.futures",)) == []
    assert json.loads((tmp_path / "o.json").read_text())["totals"]["commits"] == 2
