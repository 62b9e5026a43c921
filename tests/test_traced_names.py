"""Every function the benchmark's tracer wraps still exists under its name.

The tracer rebinds names it cannot find to nothing, so a refactor that drops
one would otherwise only show up as a missing span in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_are_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{short}.{name}"
        for short, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"chronolint.{short}"), name, None))
    ]
    assert missing == []
