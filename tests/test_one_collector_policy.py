"""Only ``cli.main`` decides when the cyclic collector runs.

No command makes reference cycles, so ``main`` turns the collector off for
the whole command and restores the caller's setting at exit; forked workers
inherit it. A pause or a freeze anywhere else would be a second policy, so
no module of the package but ``cli.py`` names ``gc``, and ``cli.py`` names
it only in its ``import gc`` and inside ``main``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chronolint"


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

