"""Only ``cli.main`` decides when the cyclic collector runs.

No command makes reference cycles, so ``main`` turns the collector off for
the whole command and restores the caller's setting at exit; forked workers
inherit it. When ``main`` runs as the program (``argv`` is None: the
installed script, ``python -m chronolint.cli``), it also has ``atexit``
freeze the collector, so that the interpreter's last collections walk
nothing; called with an ``argv`` it registers nothing and leaves no object
frozen. A pause or a freeze anywhere else would be a second policy, so no
module of the package but ``cli.py`` names ``gc``, and ``cli.py`` names it
only in its ``import gc`` and inside ``main``.
"""

import ast
import atexit
import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chronolint.cli import main
from chronolint.ingest import emit_export_stream
from helpers import rec

SRC = Path(__file__).resolve().parent.parent / "src" / "chronolint"
REF = "2021-01-01T00:00:00+00:00"
# the benchmark's launch, with a hook registered before main's, so that it
# runs after main's and reads the freeze count the interpreter exits with
LAUNCH = ("import atexit, gc, sys; from chronolint.cli import main; "
          "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr)); "
          "sys.exit(main())")


def gc_mentions(tree):
    """Each node that imports gc, or names it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "gc":
            yield node
        elif isinstance(node, ast.Import) and any(alias.name == "gc" for alias in node.names):
            yield node
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            yield node


def allowed(tree):
    """The nodes of a module's top-level ``import gc`` and of its ``main``."""
    nodes = set()
    for node in tree.body:
        if isinstance(node, ast.Import) and [(a.name, a.asname) for a in node.names] \
                == [("gc", None)]:
            nodes.add(node)
        elif isinstance(node, ast.FunctionDef) and node.name == "main":
            nodes.update(ast.walk(node))
    return nodes


def test_only_cli_main_touches_the_collector():
    modules = sorted(SRC.glob("*.py"))
    assert "cli.py" in {path.name for path in modules}
    found = []
    for path in modules:
        tree = ast.parse(path.read_text("utf-8"))
        keep = allowed(tree) if path.name == "cli.py" else set()
        found += [f"{path.name}:{node.lineno}" for node in gc_mentions(tree) if node not in keep]
    assert found == []


def export(path, epoch):
    path.write_bytes(emit_export_stream([rec(("x", i), commit_epoch=epoch + i) for i in range(3)]))
    return str(path)


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["scan", "--jsonl", "clean.jsonl", "--reference", REF], 0),
    (["scan", "--jsonl", "dirty.jsonl", "--reference", REF], 1),
    (["scan", "--jsonl", "missing.jsonl", "--reference", REF], 2),
    (["scan", "--no-such-flag"], 2),
], ids=["version", "clean", "dirty", "unreadable", "usage"])
def test_program_exits_frozen(tmp_path, argv, code):
    """Every way out of the program leaves the collector frozen, and keeps
    its exit code."""
    export(tmp_path / "clean.jsonl", 1_500_000_000)
    export(tmp_path / "dirty.jsonl", 0)
    done = subprocess.run([sys.executable, "-c", LAUNCH, *argv], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                          capture_output=True, text=True, check=False)
    assert done.returncode == code, done.stderr
    last = done.stderr.splitlines()[-1].split()
    assert last[0] == "frozen" and int(last[1]) > 0, done.stderr


def test_only_the_program_registers_the_freeze(tmp_path, monkeypatch, capsys):
    registered = []
    monkeypatch.setattr(atexit, "register", lambda *args: registered.append(args))
    argv = ["scan", "--jsonl", export(tmp_path / "in.jsonl", 1_500_000_000), "--reference", REF]
    try:
        assert main(argv) == 0
        assert registered == []
        monkeypatch.setattr(sys, "argv", ["chronolint", *argv])
        assert main() == 0
        assert registered == [(gc.freeze,)]
    finally:
        atexit.unregister(gc.freeze)
    assert gc.get_freeze_count() == 0 and gc.isenabled()
    capsys.readouterr()
