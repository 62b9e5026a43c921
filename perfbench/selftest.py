"""Self-test of the benchmark at tiny sizes.

Usage: python3 perfbench/selftest.py   (from the root of a checkout)

For every workload it generates a tiny input, runs chronolint on it once,
and checks that the verifier accepts the output: every check passes, or on
live repositories fails only as a known defect predicts, and each known
defect is still visible. It then corrupts the outputs (one anomaly line
removed, one kept id added) and checks that the verifier flags them as
wrong, so a fast wrong answer cannot pass. Last, it runs one traced command
and checks that the parse span was recorded. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import gen
import oracle
import run
import verify

TINY = {
    "jsonl-scan": lambda seed, work: gen.planted_scan(seed, work, repos=4, per_repo=80),
    "dirty-scan": lambda seed, work: gen.dirty_scan(seed, work, sizes=[300, 200]),
    "dirty-filter": lambda seed, work: gen.dirty_filter(seed, work, sizes=[300, 200]),
    "git-corpus": lambda seed, work: gen.git_corpus(seed, work, large=200, small=80, smalls=2),
}


def expect(ok: bool, what: str) -> None:
    print("[%s] %s" % ("PASS" if ok else "FAIL", what))
    if not ok:
        raise SystemExit(1)


def run_once(case: gen.Case, env: dict, work: str) -> dict[str, bytes]:
    loop = run.Loop(case, env, work)
    loop.invoke([sys.executable, "-c", run.LAUNCH, *case.argv])
    expect(loop.reference is not None, "%s exits %d" % (case.command, case.exit_code))
    return loop.reference


def statuses(case: gen.Case, outputs: dict[str, bytes]) -> dict[str, str]:
    truth, models = verify.expectations(case)
    return dict(verify.judge(verify.observe(case, outputs), truth, models))


def check_workload(name: str, work: str) -> None:
    case = TINY[name](7, work)
    env = run.child_env(os.path.join(work, "home"))
    os.makedirs(env["HOME"], exist_ok=True)
    truth, _ = verify.expectations(case)
    if name in ("dirty-scan", "git-corpus"):
        expect(all(truth["anomalies." + kind] for kind in oracle.KINDS),
               "%s: every anomaly kind is planted" % name)
    outputs = run_once(case, env, work)
    found = statuses(case, outputs)
    expect("wrong" not in found.values(), "%s: verifier accepts the output" % name)
    if case.live_git:
        seen = {s for s in found.values() if s.startswith("known:")}
        expect({"known:fork-miscount", "known:live-ingest-log-format"} <= seen,
               "%s: both known defects stay visible" % name)
    else:
        expect(set(found.values()) == {"ok"}, "%s: every check passes" % name)

    corrupted = dict(outputs)
    if case.command == "filter":
        kept = outputs[case.outputs[0]]
        kept_ids = {json.loads(line)["id"] for line in kept.splitlines()}
        with open(case.argv[case.argv.index("--jsonl") + 1], "rb") as fh:
            extra = next(line for line in fh.read().splitlines()
                         if json.loads(line)["id"] not in kept_ids)
        corrupted[case.outputs[0]] = kept + extra + b"\n"
        check = "filter.kept_ids"
    else:
        lines = outputs[case.outputs[1]].splitlines(keepends=True)
        check = "anomalies." + json.loads(lines[0])["kind"]
        corrupted[case.outputs[1]] = b"".join(lines[1:])
    expect(statuses(case, corrupted)[check] == "wrong",
           "%s: verifier flags a corrupted %s" % (name, check))


def check_tracer(work: str) -> None:
    case = TINY["jsonl-scan"](3, work)
    env = run.child_env(os.path.join(work, "home"))
    os.makedirs(env["HOME"], exist_ok=True)
    loop = run.Loop(case, env, work)
    _, dump = run.traced_run(case, loop, case.argv, work, "selftest")
    _, calls = run.self_times(dump)
    expect(not loop.failures and calls.get("ingest.parse_export_stream") == 1
           and calls.get("graph.build_history") == 4 and not dump["missing"],
           "tracer records one parse span and one history span per project")


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "chronolint", "cli.py")):
        print("selftest: no chronolint source under %s" % run.SRC, file=sys.stderr)
        return 2
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    for name in TINY:
        work = tempfile.mkdtemp(prefix="selftest-%s-" % name, dir=run.WORK_ROOT)
        try:
            check_workload(name, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    work = tempfile.mkdtemp(prefix="selftest-trace-", dir=run.WORK_ROOT)
    try:
        check_tracer(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
