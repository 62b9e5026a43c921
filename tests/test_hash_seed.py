"""Outputs do not depend on the hash seed.

Every other byte-identity test compares runs inside one interpreter, and
forked workers inherit its seed, so all of them run under one hash seed.
Here each command runs in fresh interpreters under two PYTHONHASHSEED
values, with --reference pinned, and every byte they write is compared.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from chronolint.ingest import emit_export_stream
from helpers import build_repo, planted_corpus

SRC = Path(__file__).resolve().parent.parent / "src"
REF = "2021-01-01T00:00:00+00:00"
LAUNCH = "import sys; from chronolint.cli import main; sys.exit(main())"
SEEDS = ("0", "12345")


def outputs(argv, produced, seed):
    """(exit code, stdout, stderr, each produced file) of one fresh run."""
    for path in produced:
        path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
    run = subprocess.run([sys.executable, "-c", LAUNCH, *map(str, argv)], env=env,
                         capture_output=True, timeout=120)
    return run.returncode, run.stdout, run.stderr, [path.read_bytes() for path in produced]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("seeded")
    corpus, _ = planted_corpus(random.Random(21), repos=6, commits_per_repo=50)
    (root / "in.jsonl").write_bytes(
        emit_export_stream([r for records in corpus.values() for r in records]))
    (root / "policy.json").write_text(json.dumps({
        "cutoff": "2000-01-01", "project_blacklist": [sorted(corpus)[0]],
        "drop_flagged_kinds": ["future", "out_of_order_parent", "out_of_order_linear"]}))
    rng = random.Random(22)
    for name in ("r1", "r2", "r3"):
        build_repo(root / name, [
            {"key": i, "commit_epoch": rng.choice([0, 700_000_000, 4_000_000_000]
                                                  + [1_500_000_000 + i * 60] * 4),
             "parents": [i - 1] if i else [], "message": rng.choice(
                 ["fix", "git-svn-id: r1", "Merge branch x", "Change-Id: I1 hg"])}
            for i in range(30)])
    (root / "list.txt").write_text(
        "".join(f"{root / name}\n" for name in ("r1", "r2", "r3", "missing")))
    return root


@pytest.mark.parametrize("command", ["scan", "filter", "corpus"])
def test_same_bytes_under_two_hash_seeds(inputs, command):
    report, stream, kept = inputs / "report.json", inputs / "a.jsonl", inputs / "kept.jsonl"
    argv, produced = {
        "scan": (["scan", "--jsonl", inputs / "in.jsonl", "--out", report,
                  "--anomalies-out", stream], [report, stream]),
        "filter": (["filter", "--jsonl", inputs / "in.jsonl", "--policy",
                    inputs / "policy.json", "--out", kept], [kept]),
        "corpus": (["corpus", "--list", inputs / "list.txt", "--jobs", "2", "--out", report,
                    "--anomalies-out", stream], [report, stream]),
    }[command]
    runs = [outputs([*argv, "--reference", REF], produced, seed) for seed in SEEDS]
    assert runs[0][0] in (0, 1)
    assert runs[0] == runs[1]
