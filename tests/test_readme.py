"""The README's examples run against the code they document."""

import json
import re
import shlex
from pathlib import Path

from chronolint.cli import build_parser, policy_from_object
from helpers import build_repo

README = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")


def blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README, re.S)


def test_cli_examples_parse():
    commands = []
    for block in blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["chronolint"]:
                commands.append(words[1:])
    assert {argv[0] for argv in commands} == {"scan", "filter", "report", "corpus"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_policy_example_loads():
    (policy,) = blocks("json")
    policy_from_object(json.loads(policy))


def test_library_example_runs(tmp_path, capsys):
    repo = tmp_path / "repo"
    build_repo(repo, [
        {"key": "a", "commit_epoch": 0},
        {"key": "b", "commit_epoch": 1_600_000_000, "parents": ["a"]},
    ])
    (code,) = blocks("python")
    exec(code.replace('"/path/to/repo"', repr(str(repo))), {})
    assert "zero_epoch: 1 " in capsys.readouterr().out
