"""Only ``parallel`` forks, makes pipes, places processes or reads their state.

Fork safety, pipe and fd hygiene and CPU placement are each got right in one
module. This keeps them from spreading back into the commands: outside
``parallel.py``, no module of the package may call ``os.fork``, ``os.pipe``,
``os.sched_setaffinity`` or ``os.sched_getaffinity``, or name
``/proc/self/stat`` or ``/sys/fs/cgroup``. Nor may it name
``parallel.forked`` or a private name of ``parallel``: a command's parallel
work goes through ``parallel.share``, the one driver. And no module of the
package, ``parallel.py`` included, imports ``threading``, ``_thread`` or
``concurrent``: a process runs one thread, so ``share`` may always fork.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chronolint"
CALLS = frozenset(("fork", "pipe", "sched_setaffinity", "sched_getaffinity"))
PATHS = ("/proc/self/stat", "/sys/fs/cgroup")
THREADS = frozenset(("threading", "_thread", "concurrent"))


def process_mentions(tree):
    """Each node that names one of CALLS on os, or holds one of PATHS."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in CALLS \
                and isinstance(node.value, ast.Name) and node.value.id == "os":
            yield node
        elif isinstance(node, ast.ImportFrom) and node.module == "os" \
                and any(alias.name in CALLS for alias in node.names):
            yield node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and any(path in node.value for path in PATHS):
            yield node


def driver_mentions(tree):
    """Each node that names parallel.forked or a private name of parallel."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "parallel" and is_hidden(node.attr):
            yield node
        elif isinstance(node, ast.ImportFrom) \
                and node.module in ("parallel", "chronolint.parallel") \
                and any(is_hidden(alias.name) for alias in node.names):
            yield node


def is_hidden(name):
    return name == "forked" or name.startswith("_")


def thread_imports(tree):
    """Each node that imports one of THREADS or a module under it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] in THREADS for name in names):
            yield node


def mentions(find, exempt=("parallel.py",)):
    """path:line of each node find yields in a module not in exempt."""
    modules = sorted(SRC.glob("*.py"))
    assert {path.name for path in modules} >= {"cli.py", "parallel.py"}
    return [
        f"{path.name}:{node.lineno}"
        for path in modules if path.name not in exempt
        for node in find(ast.parse(path.read_text("utf-8")))
    ]


def test_only_parallel_forks_pipes_and_places():
    assert mentions(process_mentions) == []


def test_only_parallel_drives_workers():
    assert mentions(driver_mentions) == []


def test_no_module_imports_threads():
    assert mentions(thread_imports, exempt=()) == []
