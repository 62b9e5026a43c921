"""Every byte the package writes goes through one of two writers.

``cli.write_output`` writes stdout and every output file, and a write it
cannot make exits 2. ``cli.write_diagnostic`` writes stderr, and a stderr
that is missing or fails drops the line and changes nothing else. A bare
``print`` or a direct use of ``sys.stdout`` or ``sys.stderr`` would be a
route with neither rule: with file descriptor 2 closed, ``print(...,
file=sys.stderr)`` writes to stdout. This keeps such a route from coming
back: no module of the package calls ``print``, and only the two writers and
``Parser._print_message``, which hands argparse's stdout text to
``write_output``, name ``sys.stdout`` or ``sys.stderr``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chronolint"
STREAMS = {"stdout", "stderr", "__stdout__", "__stderr__"}
WRITERS = {"write_output", "write_diagnostic", "_print_message"}


def stream_uses(tree):
    """Each node that calls print or names one of sys's streams."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
                node.func.id == "print"):
            yield node
        elif isinstance(node, ast.Attribute) and node.attr in STREAMS and (
                isinstance(node.value, ast.Name) and node.value.id == "sys"):
            yield node
        elif isinstance(node, ast.ImportFrom) and node.module == "sys" and any(
                alias.name in STREAMS for alias in node.names):
            yield node


def allowed_in_cli(tree):
    """The nodes of the two writers and of Parser._print_message."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in WRITERS:
            allowed |= {id(inner) for inner in ast.walk(node)}
    return allowed


def test_only_the_writers_write():
    modules = sorted(SRC.glob("*.py"))
    assert {path.name for path in modules} >= {"cli.py", "parallel.py"}
    found = []
    for path in modules:
        tree = ast.parse(path.read_text("utf-8"))
        allowed = allowed_in_cli(tree) if path.name == "cli.py" else set()
        found += [f"{path.name}:{node.lineno}" for node in stream_uses(tree)
                  if id(node) not in allowed]
    assert found == []

