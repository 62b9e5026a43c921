"""Importing the command line loads no process or pickling machinery.

Every run imports ``chronolint.cli``, but only ``corpus`` runs a thread
pool, only git ingest starts processes and only a parallel JSONL scan
pickles; each imports what it needs where it runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DEFERRED = ("concurrent.futures", "subprocess", "multiprocessing", "pickle")


def test_cli_import_loads_no_process_machinery():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import json, sys; import chronolint.cli; "
            f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         check=True).stdout
    assert json.loads(out) == []
