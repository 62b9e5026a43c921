"""Only ``ingest.run_git`` starts processes, so git is run one way everywhere.

A git sub-command started any other way would need its own reaping, its own
stderr handling and its own error text. This keeps a second way from coming
back: outside ``run_git``, no module of the package may mention
``subprocess``, ingest's own import of it aside.

Every repository is read where it lies, so no git command reaches the
network: no module may hold the sub-command ``clone`` or ``fetch``, or
import ``hashlib``, which named clone directories when ``corpus`` cloned.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chronolint"


def subprocess_mentions(tree):
    """Each node that names or imports subprocess."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "subprocess":
            yield node
        elif isinstance(node, ast.Import) and any(
            alias.name == "subprocess" for alias in node.names
        ):
            yield node
        elif isinstance(node, ast.ImportFrom) and node.module == "subprocess":
            yield node


def allowed_in_ingest(tree):
    """The nodes of run_git and the module's own ``import subprocess``."""
    (helper,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "run_git"
    ]
    allowed = {id(node) for node in ast.walk(helper)}
    allowed |= {
        id(node) for node in tree.body
        if isinstance(node, ast.Import) and [a.name for a in node.names] == ["subprocess"]
    }
    return allowed


def network_mentions(tree):
    """Each node that imports hashlib or holds the string "clone" or "fetch"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(alias.name == "hashlib" for alias in node.names):
            yield node
        elif isinstance(node, ast.ImportFrom) and node.module == "hashlib":
            yield node
        elif isinstance(node, ast.Constant) and node.value in ("clone", "fetch"):
            yield node


def test_no_module_clones_fetches_or_hashes():
    modules = sorted(SRC.glob("*.py"))
    assert {path.name for path in modules} >= {"cli.py", "ingest.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in network_mentions(ast.parse(path.read_text("utf-8")))
    ]
    assert found == []


def test_only_run_git_touches_subprocess():
    modules = sorted(SRC.glob("*.py"))
    assert {path.name for path in modules} >= {"cli.py", "ingest.py"}
    found = []
    for path in modules:
        tree = ast.parse(path.read_text("utf-8"))
        allowed = allowed_in_ingest(tree) if path.name == "ingest.py" else set()
        found += [
            f"{path.name}:{node.lineno}"
            for node in subprocess_mentions(tree)
            if id(node) not in allowed
        ]
    assert found == []
