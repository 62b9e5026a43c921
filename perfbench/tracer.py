"""Run one chronolint command in process, with spans around its layers.

Usage: python3 perfbench/tracer.py SPANS_OUT -- <chronolint arguments>

The public functions of each layer are wrapped from outside: every name in
every chronolint module that is bound to a traced function is rebound to the
wrapper, because ``cli`` imports functions by name. Spans (name, start, end,
parent, thread) and counters are kept in memory and written to SPANS_OUT as
JSON when the command ends. The process exits with the command's exit code.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import threading
import time

TRACED = {
    "ingest": ("parse_export_stream", "emit_export_stream", "read_repository"),
    "graph": ("build_history",),
    "detect": ("detect_old", "detect_future", "detect_out_of_order_linear",
               "detect_out_of_order_parent", "scan_fingerprints", "run_all_detectors"),
    "filters": ("drop_flagged", "drop_pre_epoch", "date_cutoff"),
    "report": ("summarize", "top_n", "cutoff_table", "token_frequencies",
               "ranked_tokens", "emit", "emit_anomaly_stream"),
    "cli": ("load_records", "group_by_project", "scan_corpus", "build_report",
            "write_report", "cmd_scan", "cmd_filter", "cmd_corpus", "_ensure_local"),
}
DETECTORS = ("detect.detect_old", "detect.detect_future",
             "detect.detect_out_of_order_linear", "detect.detect_out_of_order_parent")


def _rejected(name: str, result) -> dict:
    return {name + ".rejected": result[1].records_rejected}


def _by_kind(name: str, result) -> dict:
    counts: dict = {}
    for anomaly in result:
        key = "detect.anomalies." + anomaly.kind.value
        counts[key] = counts.get(key, 0) + 1
    return counts


def _dropped(name: str, result) -> dict:
    return {"filters.dropped": len(result[1])}


COUNTERS = {
    "ingest.parse_export_stream": _rejected,
    "ingest.read_repository": _rejected,
    **{name: _by_kind for name in DETECTORS},
    "filters.drop_flagged": _dropped,
    "filters.drop_pre_epoch": _dropped,
    "filters.date_cutoff": _dropped,
}


class Tracer:
    """In-memory span and counter store shared by every wrapped function."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        # The git/Python CPU split is read around each live read; it
        # attributes cleanly only when repositories are read one at a time.
        cpu_split = name == "ingest.read_repository"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            if cpu_split:
                own0 = resource.getrusage(resource.RUSAGE_SELF)
                kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = (name, start, end, parent, threading.get_ident())
            if cpu_split:
                own1 = resource.getrusage(resource.RUSAGE_SELF)
                kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
                self.add(name + ".py_cpu_s", own1.ru_utime + own1.ru_stime
                         - own0.ru_utime - own0.ru_stime)
                self.add(name + ".git_cpu_s", kids1.ru_utime + kids1.ru_stime
                         - kids0.ru_utime - kids0.ru_stime)
            if counter is not None:
                for key, value in counter(name, result).items():
                    self.add(key, value)
            return result

        return traced

    def install(self) -> list[str]:
        """Rebind every traced name in every loaded chronolint module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "chronolint" or n.startswith("chronolint.")]
        missing = []
        for short, names in TRACED.items():
            home = sys.modules["chronolint." + short]
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    missing.append(short + "." + fname)
                    continue
                wrapped = self.wrap(short + "." + fname, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
        return missing


def current_rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, command = argv[0], argv[2:]
    from chronolint import cli

    tracer = Tracer()
    missing = tracer.install()
    rss_after_import = current_rss_bytes()
    started = time.perf_counter()
    code = cli.main(command)
    ended = time.perf_counter()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    with open(out_path, "w") as fh:
        json.dump({
            "exit_code": code,
            "main_s": ended - started,
            "spans": tracer.spans,
            "counts": tracer.counts,
            "missing": missing,
            "rss_after_import": rss_after_import,
            "peak_rss": peak,
            "main_thread": threading.main_thread().ident,
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
