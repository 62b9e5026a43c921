"""chronolint benchmark: one workload, one seed, one JSON result line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a chronolint checkout; the program is taken from
``src/`` there. Inputs are generated from the seed under ``.bench_work/``
(not timed) and removed afterwards. Every invocation is a fresh CLI process,
run back to back by one client (a closed loop). The first invocation warms
the caches and fixes the reference outputs; every later one must reproduce
them byte for byte. The reference outputs are checked against the oracle.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a separate traced run (see
``tracer.py``), next to a short untraced run that gives the tracing overhead.
The lines before it say the same for a reader, with the failing checks and
the span summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import gen
import verify

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
# What the installed ``chronolint`` console script runs.
LAUNCH = "import sys; from chronolint.cli import main; sys.exit(main())"
INVOCATION_TIMEOUT_S = 40
# Every process is killed once the run is this old, so that even a hung
# program lets the benchmark end within 180 s.
RUN_CAP_S = 120
STARTED = time.monotonic()
SETUP_LAUNCHES = 5
MIN_SAMPLES = 3

# Self times the traced run reports, by layer (the package's modules).
SELF_TIMED = (
    "ingest.parse_export_stream", "ingest.emit_export_stream", "ingest.read_repository",
    "graph.build_history",
    "detect.detect_old", "detect.detect_future", "detect.detect_out_of_order_linear",
    "detect.detect_out_of_order_parent", "detect.scan_fingerprints",
    "filters.drop_flagged", "filters.drop_pre_epoch", "filters.date_cutoff",
    "report.summarize", "report.top_n", "report.cutoff_table",
    "report.token_frequencies", "report.emit", "report.emit_anomaly_stream",
    "cli.load_records", "cli.group_by_project", "cli.scan_corpus", "cli.build_report",
)
LAYERS = ("ingest", "graph", "detect", "filters", "report", "cli")
COUNTED = (
    ("ingest.parse_export_stream.rejected", "count"),
    ("ingest.read_repository.rejected", "count"),
    ("ingest.read_repository.git_cpu_s", "s"),
    ("ingest.read_repository.py_cpu_s", "s"),
    *(("detect.anomalies." + kind, "count") for kind in (
        "future", "out_of_order_linear", "out_of_order_parent",
        "suspicious_old", "zero_epoch")),
    ("filters.dropped", "count"),
)


def child_env(home: str) -> dict:
    env = gen.git_env(home)
    env["PYTHONPATH"] = SRC
    return env


def run_process(cmd: list[str], env: dict, stdout_path: str) -> tuple[float, int, int, str]:
    """Run one process to completion: (wall s, max RSS KiB, exit code, stderr)."""
    stderr_path = stdout_path + ".err"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timeout = min(INVOCATION_TIMEOUT_S, STARTED + RUN_CAP_S - time.monotonic())
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stderr_path, "rb") as fh:
        stderr = fh.read().decode("utf-8", "replace")
    return wall, usage.ru_maxrss, proc.returncode, stderr


# A fixed task run as its own process between invocations. The machine's
# speed drifts by tens of percent over seconds (a shared 2-vCPU guest), so
# every timing is scaled by PROBE_NOMINAL_S / (the probe's wall around it).
PROBE = """
import json
rows = [{"id": "%040x" % i, "t": i * 7, "m": "change %d in repo" % i,
         "p": ["%040x" % (i - 1)]} for i in range(12000)]
back = json.loads(json.dumps(rows))
sorted((r["t"], r["id"], tuple(r["p"])) for r in back)
"""
PROBE_NOMINAL_S = 0.1


def probe_seconds(env: dict, work: str) -> float:
    return run_process([sys.executable, "-c", PROBE], env, os.path.join(work, "probe.out"))[0]


def scaled(walls: list[float], probes: list[float]) -> list[float]:
    """Each wall scaled by the mean of the probes just before and after it."""
    return [wall * 2 * PROBE_NOMINAL_S / (before + after)
            for wall, before, after in zip(walls, probes, probes[1:])]


def setup_seconds(env: dict, work: str) -> tuple[float, float]:
    """Median wall of fresh ``chronolint --version`` processes, caches warm.

    Returns (scaled, raw) medians.
    """
    cmd = [sys.executable, "-c", LAUNCH, "--version"]
    out = os.path.join(work, "version.out")
    run_process(cmd, env, out)
    walls, probes = [], [probe_seconds(env, work)]
    for _ in range(SETUP_LAUNCHES):
        wall, _, code, stderr = run_process(cmd, env, out)
        if code != 0:
            raise RuntimeError("chronolint --version failed: " + stderr.strip())
        walls.append(wall)
        probes.append(probe_seconds(env, work))
    return statistics.median(scaled(walls, probes)), statistics.median(walls)


class Loop:
    """Closed-loop invocations of one case; the first fixes the reference."""

    def __init__(self, case: gen.Case, env: dict, work: str) -> None:
        self.case, self.env, self.work = case, env, work
        self.stdout = os.path.join(work, "stdout.txt")
        self.reference: dict[str, bytes] | None = None
        self.reference_digest: dict[str, bytes] = {}
        self.walls: list[float] = []
        self.rss_kib: list[int] = []
        self.probes: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def outputs(self) -> dict[str, bytes]:
        found = {}
        for path in [*self.case.outputs, self.stdout]:
            key = "stdout" if path == self.stdout else path
            try:
                with open(path, "rb") as fh:
                    found[key] = fh.read()
            except OSError:
                found[key] = b""
        return found

    def invoke(self, cmd: list[str]) -> tuple[float, int]:
        """One invocation, judged for exit code and repeatability."""
        for path in self.case.outputs:
            if os.path.exists(path):
                os.unlink(path)
        wall, rss, code, stderr = run_process(cmd, self.env, self.stdout)
        self.attempted += 1
        if code != self.case.exit_code:
            self.failures.append("exit code %d, expected %d: %s"
                                 % (code, self.case.exit_code, stderr.strip()[-300:]))
            return wall, rss
        digest = {k: hashlib.sha256(v).digest() for k, v in self.outputs().items()}
        if self.reference is None:
            self.reference = self.outputs()
            self.reference_digest = digest
        elif digest != self.reference_digest:
            differing = sorted(k for k in digest if digest[k] != self.reference_digest[k])
            self.failures.append("outputs differ from the first invocation: "
                                 + ", ".join(os.path.basename(k) for k in differing))
        return wall, rss

    def run(self, seconds: float) -> None:
        cmd = [sys.executable, "-c", LAUNCH, *self.case.argv]
        self.invoke(cmd)                        # warm-up, not timed
        deadline = time.perf_counter() + seconds
        self.probes.append(probe_seconds(self.env, self.work))
        # At least MIN_SAMPLES when invocations are slow, within twice the time.
        while (time.perf_counter() < deadline or len(self.walls) < MIN_SAMPLES
               and time.perf_counter() < deadline + seconds):
            wall, rss = self.invoke(cmd)
            self.probes.append(probe_seconds(self.env, self.work))
            self.walls.append(wall)
            self.rss_kib.append(rss)


def judge(case: gen.Case, outputs: dict[str, bytes] | None, truth: dict,
          models: dict) -> list[tuple[str, str]]:
    observed = verify.observe(case, outputs) if outputs is not None else {}
    results = verify.judge(observed, truth, models)
    for name, status in results:
        if status != "ok":
            print("check failed [%s] %s" % (status, verify.describe(
                name, truth[name], observed.get(name, verify.MISSING))))
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(case: gen.Case, env: dict, work: str, seconds: float,
               truth: dict, models: dict) -> dict:
    setup, setup_raw = setup_seconds(env, work)
    loop = Loop(case, env, work)
    loop.run(seconds)
    checks = judge(case, loop.reference, truth, models)
    wrong = sum(1 for _, status in checks if status != "ok")
    walls = scaled(loop.walls, loop.probes)
    q1, median, q3 = quartiles(walls)
    raw = statistics.median(loop.walls)
    rss_mb = statistics.median(loop.rss_kib) / 1024
    print("commits %d, invocations %d (1 warm-up + %d timed)"
          % (case.commits, loop.attempted, len(walls)))
    print("scaled wall s: median %.4f, quartiles %.4f..%.4f, min %.4f, max %.4f"
          % (median, q1, q3, min(walls), max(walls)))
    print("raw wall s: median %.4f (%.1f commits/s); probe s: median %.4f, min %.4f, max %.4f"
          % (raw, case.commits / raw, statistics.median(loop.probes),
             min(loop.probes), max(loop.probes)))
    print("commits_per_s %.1f (median of %d), peak_rss_mb %.2f, setup_s %.4f (raw %.4f)"
          % (case.commits / median, len(walls), rss_mb, setup, setup_raw))
    print("failed_share %.4f (%d of %d invocations), wrong_share %.4f (%d of %d checks)"
          % (len(loop.failures) / loop.attempted, len(loop.failures), loop.attempted,
             wrong / len(checks), wrong, len(checks)))
    for failure in loop.failures:
        print("invocation failed: " + failure)
    metrics = {
        "commits_per_s": (case.commits / median, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup, "s"),
        "ok_share": (1 - len(loop.failures) / loop.attempted, "share"),
        "right_share": (1 - wrong / len(checks), "share"),
    }
    return result(checks, loop, metrics)


def result(checks: list, loop: Loop, metrics: dict) -> dict:
    return {
        "correct": all(status != "wrong" for _, status in checks),
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def traced_run(case: gen.Case, loop: Loop, argv: list[str], work: str,
               label: str) -> tuple[float, dict]:
    """One in-process traced run; its outputs must match the reference."""
    dump = os.path.join(work, "spans-%s.json" % label)
    cmd = [sys.executable, TRACER, dump, "--", *argv]
    wall, _ = loop.invoke(cmd)
    try:
        with open(dump) as fh:
            spans = json.load(fh)
    except (OSError, ValueError):
        spans = {"spans": [], "counts": {}, "missing": [], "peak_rss": 0,
                 "rss_after_import": 0, "main_thread": None}
    if spans["missing"]:
        print("traced names not found: " + ", ".join(spans["missing"]))
    return wall, spans


def self_times(dump: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Self time (span minus its children) and call count per span name.

    A root span of a pool thread counts as a child of the innermost
    main-thread span around it, which waited for it; self times therefore
    attribute cleanly only for a run whose pool has one worker.
    """
    spans = [s for s in dump["spans"] if s is not None]
    main = [i for i, s in enumerate(spans) if s[4] == dump["main_thread"]]
    child_total = [0.0] * len(spans)
    for name, start, end, parent, thread in spans:
        if parent is None and thread != dump["main_thread"]:
            around = [i for i in main if spans[i][1] <= start and end <= spans[i][2]]
            parent = max(around, key=lambda i: spans[i][1]) if around else None
        if parent is not None:
            child_total[parent] += end - start
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_total[i]
        calls[name] = calls.get(name, 0) + 1
    return totals, calls


def busy_share(dump: dict, jobs: int) -> float:
    """Per-repository work (root spans of pool threads) over jobs x command wall."""
    spans = [s for s in dump["spans"] if s is not None]
    command = [end - start for name, start, end, _, _ in spans if name == "cli.cmd_corpus"]
    work = sum(end - start for _, start, end, parent, thread in spans
               if parent is None and thread != dump["main_thread"])
    return work / (jobs * command[0]) if command else 0.0


def per_layer(workload: str, case: gen.Case, env: dict, work: str, seconds: float,
              truth: dict, models: dict) -> dict:
    loop = Loop(case, env, work)
    loop.run(seconds)
    untraced = statistics.median(loop.walls)
    if case.command == "corpus":
        jobs = case.argv.index("--jobs") + 1
        serial = list(case.argv)
        serial[jobs] = "1"
        # Serial run: clean self times and git/Python CPU split.
        serial_wall, dump = traced_run(case, loop, serial, work, "jobs1")
        wall, parallel = traced_run(case, loop, case.argv, work, "jobs2")
        extra = {"cli.corpus.busy_share": (busy_share(parallel, 2), "share"),
                 "cli.corpus.jobs2_speedup": (serial_wall / wall, "ratio")}
    else:
        wall, dump = traced_run(case, loop, case.argv, work, "run")
        extra = {"cli.corpus.busy_share": (0.0, "share"),
                 "cli.corpus.jobs2_speedup": (0.0, "ratio")}
    checks = judge(case, loop.reference, truth, models)
    totals, calls = self_times(dump)
    metrics = {name + ".self_s": (totals.get(name, 0.0), "s") for name in SELF_TIMED}
    metrics.update({key: (dump["counts"].get(key, 0), unit) for key, unit in COUNTED})
    metrics.update(extra)
    for layer in LAYERS:
        metrics["layer.%s.self_s" % layer] = (
            sum(totals.get(n, 0.0) for n in SELF_TIMED if n.startswith(layer + ".")), "s")
    growth = max(dump["peak_rss"] - dump["rss_after_import"], 0)
    metrics["model.rss_bytes_per_commit"] = (growth / case.commits, "B/commit")
    metrics["trace.overhead_s"] = (wall - untraced, "s")

    print("commits %d; untraced: %d timed invocations, median wall %.4f s "
          "(%.1f commits/s); traced wall %.4f s; overhead %.4f s"
          % (case.commits, len(loop.walls), untraced, case.commits / untraced,
             wall, wall - untraced))
    for failure in loop.failures:
        print("invocation failed: " + failure)
    print("span dump (self s, calls), largest first:")
    for name, total in sorted(totals.items(), key=lambda kv: -kv[1]):
        print("  %9.4f  %6d  %s" % (total, calls[name], name))
    keep = os.path.join(WORK_ROOT, "spans-%s.json" % workload)
    with open(keep, "w") as fh:
        json.dump(dump, fh)
    print("raw spans: " + os.path.relpath(keep, ROOT))
    return result(checks, loop, metrics)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "chronolint", "cli.py")):
        print("perfbench: no chronolint source under %s" % SRC, file=sys.stderr)
        return 2
    if shutil.which("git") is None:
        print("perfbench: git is required", file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=WORK_ROOT)
    try:
        case = gen.WORKLOADS[args.workload](args.seed, work)
        truth, models = verify.expectations(case)
        env = child_env(os.path.join(work, "home"))
        os.makedirs(env["HOME"], exist_ok=True)
        print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
        if args.trace:
            out = per_layer(args.workload, case, env, work, args.seconds / 3, truth, models)
        else:
            out = end_to_end(case, env, work, args.seconds, truth, models)
    except RuntimeError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
