"""Each unit of a parallel run finishes its own share of the output.

``filter --jsonl`` cut into ranges gives the outputs of a filter in one
range: the kept file, stdout, stderr and the exit code, byte for byte. A
ranged ``scan`` and a ``corpus`` at any ``--jobs``, whose units tally the
flagged commits, count the fingerprints and tokens and render the anomaly
rows, give the report and stream of a run in one process; no commit record
or anomaly leaves a unit. These tests force the number of ranges to 1-8
through ``parallel.range_count``, and the usable CPUs to one, two or four.
They also check that ``corpus`` hands out its largest repository first, and
that no child process or pipe outlives a filter.
"""

import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from chronolint import cli, parallel
from chronolint.ingest import emit_export_stream
from chronolint.model import AnomalyRecord, CommitRecord, Fields
from helpers import build_repo, rec

REF = "2021-01-01T00:00:00+00:00"
SRC = Path(__file__).resolve().parent.parent / "src"
JUNK = [b"\n", b"not json\n", b'{"id": 1}\n', b"\xff\xfe\n", b"[]\n"]
# a message cycle of 5 against an epoch cycle of 6 (three flagged), so that
# the flagged commits of every project of 12 or more hit every rule of CONFIG
MESSAGES = ["fix", "git-svn-id: svn://x/trunk@1", "Café au lait", "修正 bug 42",
            "Ticket-7 naïve"]
CONFIG = {"fingerprint_rules": [
    {"name": "svn", "pattern": "git-svn-id"},
    {"name": "cafe", "pattern": "CAFÉ", "case_insensitive": True},
    {"name": "cjk", "pattern": "[一-鿿]"},
    {"name": "ticket", "pattern": r"ticket-\d+", "case_insensitive": True},
]}
EPOCHS = [1_600_000_000, 0, 1_600_100_000, 700_000_000, 1_600_200_000, 4_000_000_000]
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def project_lines(project, n, seed=0):
    """n commits of one linear project as export lines."""
    records, parents = [], ()
    for i in range(n):
        epoch = EPOCHS[i % len(EPOCHS)] + i * 3600 * (EPOCHS[i % len(EPOCHS)] > 0)
        r = rec((project, i, seed), commit_epoch=epoch, parents=parents, project=project,
                message=MESSAGES[i % len(MESSAGES)], author_name=f"Dév {i % 3}",
                author_email=f"dev{i % 3}@example.org")
        records.append(r)
        parents = (r.id,)
    return emit_export_stream(records).splitlines(keepends=True)


def layout(sizes, interleave=False, junk=0, seed=0):
    """Export lines of projects p0, p1, ... of the given sizes, listed
    together unless interleave, with junk lines among them."""
    rng = random.Random(seed)
    lines = [line for k, n in enumerate(sizes) for line in project_lines(f"p{k}", n, seed)]
    if interleave:
        rng.shuffle(lines)
    for _ in range(junk):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(JUNK))
    return lines


def write(path, lines):
    path.write_bytes(b"".join(lines))
    return path


def forced(ranges):
    return mock.patch.object(parallel, "range_count", lambda fh: ranges)


def run(argv, capsysbinary):
    """(exit code, stdout, stderr) of the command in this process."""
    capsysbinary.readouterr()
    code = cli.main(argv)
    out, err = capsysbinary.readouterr()
    return code, out, err


def read(path):
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def filter_jsonl(export, ranges, policy, capsysbinary, to_file=True):
    """(exit code, kept file, stdout, stderr) of a filter cut into ranges."""
    kept = export.parent / "kept.jsonl"
    argv = ["filter", "--jsonl", str(export), "--reference", REF]
    if policy is not None:
        argv += ["--policy", str(policy)]
    if to_file:
        argv += ["--out", str(kept)]
    with forced(ranges):
        code, out, err = run(argv, capsysbinary)
    outputs = code, read(kept), out, err
    kept.unlink(missing_ok=True)
    return outputs


@contextlib.contextmanager
def merged(name):
    """The results cli.<name> merged during the block; a fallback merges none."""
    seen = []
    real = getattr(cli, name)

    def spy(parts):
        seen.append(real(parts))
        return seen[-1]

    with mock.patch.object(cli, name, spy):
        yield seen


@pytest.fixture
def policies(tmp_path):
    """Policy files by name; None is no --policy at all."""
    objects = {
        "empty": {},
        "blacklist-window": {"project_blacklist": ["p1"],
                             "window": ["2020-09-14T00:00:00Z", "2020-10-30T00:00:00Z"]},
        "flagged-cutoff": {"drop_flagged_kinds": ["zero_epoch", "future", "out_of_order_linear"],
                           "cutoff": "2020-09-15", "min_epoch_seconds": None,
                           "time_basis": "committer"},
    }
    paths = {None: None}
    for name, obj in objects.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    return paths


@needs_fork
@pytest.mark.usefixtures("four_cpus")
class TestFilterSameAsOneRange:
    @pytest.mark.parametrize("policy", [None, "empty", "blacklist-window", "flagged-cutoff"])
    @pytest.mark.parametrize("to_file", [True, False])
    def test_contiguous_projects_merge(self, tmp_path, capsysbinary, policies, policy, to_file):
        export = write(tmp_path / "in.jsonl", layout([30, 25, 20, 15], junk=6, seed=1))
        serial = filter_jsonl(export, 1, policies[policy], capsysbinary, to_file)
        assert serial[0] == 0 and b'"kept": ' in serial[2] + serial[3]
        for ranges in (2, 3, 4, 8):
            with merged("merged") as seen:
                assert filter_jsonl(export, ranges, policies[policy], capsysbinary,
                                    to_file) == serial, ranges
            assert len(seen) == 1

    def test_interleaved_projects_fall_back(self, tmp_path, capsysbinary, policies):
        export = write(tmp_path / "in.jsonl", layout([30, 30, 30], interleave=True, seed=2))
        serial = filter_jsonl(export, 1, policies["blacklist-window"], capsysbinary)
        for ranges in (2, 3, 4):
            with merged("merged") as seen:
                assert filter_jsonl(export, ranges, policies["blacklist-window"],
                                    capsysbinary) == serial
            assert seen == []

    def test_rejected_lines_keep_their_numbers(self, tmp_path, capsysbinary, policies):
        lines = [*project_lines("a", 20), b"not json\n", b'{"id": 1}\n',
                 *project_lines("b", 20), b"[]\n", *project_lines("c", 20)]
        export = write(tmp_path / "in.jsonl", lines)
        serial = filter_jsonl(export, 1, policies["empty"], capsysbinary)
        for ranges in (2, 3, 4):
            assert filter_jsonl(export, ranges, policies["empty"], capsysbinary) == serial
        assert serial[3].decode().splitlines() == [
            "chronolint: rejected line 21: invalid JSON: Expecting value",
            "chronolint: rejected line 22: missing parents",
            "chronolint: rejected line 43: record is not an object",
        ]

    def test_duplicate_id_in_the_second_range(self, tmp_path, capsysbinary, policies):
        a, b = project_lines("a", 30), project_lines("b", 30)
        export = write(tmp_path / "in.jsonl", [*a, b"oops\n", *b, b[3]])
        serial = filter_jsonl(export, 1, policies["empty"], capsysbinary)
        assert serial[:3] == (2, None, b"")
        assert serial[3].decode().splitlines() == [
            "chronolint: rejected line 31: invalid JSON: Expecting value",
            f"chronolint: duplicate commit id {b[3][7:47].decode()} in project b",
        ]
        for ranges in (2, 3):
            assert filter_jsonl(export, ranges, policies["empty"], capsysbinary) == serial

    def test_piped_export_is_read_once(self, tmp_path, capsysbinary, policies):
        """A pipe cannot be read twice: it is filtered whole, as one range."""
        export = write(tmp_path / "in.jsonl", layout([30, 25, 20], junk=3, seed=3))
        ranged = filter_jsonl(export, 2, policies["flagged-cutoff"], capsysbinary,
                              to_file=False)
        piped = subprocess.run(
            [sys.executable, "-m", "chronolint.cli", "filter", "--jsonl", "/dev/stdin",
             "--project", str(export), "--policy", str(policies["flagged-cutoff"]),
             "--reference", REF],
            input=export.read_bytes(), env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, check=False)
        assert (piped.returncode, piped.stdout, piped.stderr) == (
            ranged[0], ranged[2], ranged[3])


@needs_fork
class TestFilterUnitsPerProcess:
    """Several units for each process give the outputs of one unit: on an
    export of a few large projects, as the benchmark's dirty-scan, and on one
    of many small projects, in one process and in two."""

    @pytest.mark.parametrize("sizes", [[70, 56, 42, 28], [1 + k % 6 for k in range(40)]],
                             ids=["skewed", "many-small"])
    @pytest.mark.parametrize("processes", [1, 2])
    def test_same_at_every_unit_count(self, tmp_path, capsysbinary, policies, monkeypatch,
                                      sizes, processes):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: processes)
        export = write(tmp_path / "in.jsonl", layout(sizes, junk=4, seed=7))
        for policy in ("flagged-cutoff", "blacklist-window"):
            serial = filter_jsonl(export, 1, policies[policy], capsysbinary)
            assert serial[0] == 0 and serial[1]
            for units in (2, 4, 8):
                with merged("merged") as seen:
                    assert filter_jsonl(export, units, policies[policy],
                                        capsysbinary) == serial, (policy, units)
                assert len(seen) == 1


def fingerprints_hit(report):
    return json.loads(report)["fingerprints"]


@needs_fork
@pytest.mark.usefixtures("four_cpus")
class TestUnitsFinishTheirShare:
    @pytest.fixture
    def config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(CONFIG))
        return path

    def scan(self, export, ranges, config, capsysbinary):
        report, stream = export.parent / "report.json", export.parent / "anomalies.jsonl"
        with forced(ranges):
            code, out, err = run(["scan", "--jsonl", str(export), "--reference", REF,
                                  "--config", str(config), "--out", str(report),
                                  "--anomalies-out", str(stream)], capsysbinary)
        outputs = code, read(report), read(stream), out, err
        report.unlink(missing_ok=True)
        stream.unlink(missing_ok=True)
        return outputs

    def test_ranged_scan_with_custom_rules(self, tmp_path, config, capsysbinary):
        # projects listed out of name order, so that the stream's project
        # order is not the file's
        lines = [*project_lines("p3", 30), *project_lines("p0", 24),
                 *project_lines("p2", 18), *project_lines("p1", 12)]
        export = write(tmp_path / "in.jsonl", lines)
        serial = self.scan(export, 1, config, capsysbinary)
        assert serial[0] == 1
        assert all(count > 0 for count in fingerprints_hit(serial[1]).values())
        assert b"\\u4fee\\u6b63" in serial[2] and b"Caf\\u00e9" in serial[2]
        for ranges in (2, 3, 4):
            with merged("merged") as seen:
                assert self.scan(export, ranges, config, capsysbinary) == serial, ranges
            assert len(seen) == 1

    def test_corpus_with_custom_rules(self, tmp_path, config, capsysbinary):
        entries = []
        for name, n in (("x", 20), ("big", 40), ("a", 8), ("m", 13)):
            build_repo(tmp_path / name, [
                {"key": f"c{i}", "commit_epoch": EPOCHS[i % len(EPOCHS)] + i,
                 "parents": [f"c{i - 1}"] if i else [],
                 "message": MESSAGES[i % len(MESSAGES)], "name": f"Dév {i % 2}"}
                for i in range(n)])
            entries.append(str(tmp_path / name))
        entries.append(str(tmp_path / "missing"))
        listing = tmp_path / "list.txt"
        listing.write_text("".join(f"{entry}\n" for entry in entries))
        report, stream = tmp_path / "report.json", tmp_path / "anomalies.jsonl"

        def corpus(jobs):
            code, out, err = run(["corpus", "--list", str(listing), "--jobs", str(jobs),
                                  "--reference", REF, "--config", str(config),
                                  "--out", str(report), "--anomalies-out", str(stream)],
                                 capsysbinary)
            return code, report.read_bytes(), stream.read_bytes(), out, err

        serial = corpus(1)
        assert serial[0] == 1
        assert all(count > 0 for count in fingerprints_hit(serial[1]).values())
        assert serial[4].decode().startswith(f"chronolint: {tmp_path / 'missing'}: ")
        for jobs in (2, 8):
            assert corpus(jobs) == serial, jobs

    def test_no_commit_record_leaves_a_unit(self, tmp_path, config, capsysbinary):
        export = write(tmp_path / "in.jsonl", layout([30, 25, 20], seed=4))
        with merged("merged") as seen:
            assert self.scan(export, 3, config, capsysbinary)[0] == 1
        assert len(seen) == 1
        assert seen[0].rows and seen[0].by_author and seen[0].tokens
        assert not list(records_in(seen[0]))

    def test_no_commit_record_in_a_filter_result(self, tmp_path, capsysbinary, policies):
        export = write(tmp_path / "in.jsonl", layout([30, 25, 20], seed=5))
        with merged("merged") as seen:
            assert filter_jsonl(export, 3, policies["flagged-cutoff"], capsysbinary)[0] == 0
        assert len(seen) == 1 and seen[0].lines
        assert not list(records_in(seen[0]))


def records_in(value):
    """Each CommitRecord or AnomalyRecord held anywhere in value, fields and
    items walked."""
    if isinstance(value, (CommitRecord, AnomalyRecord)):
        yield value
    elif isinstance(value, Fields):
        for item in vars(value).values():
            yield from records_in(item)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from records_in(key)
            yield from records_in(item)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from records_in(item)


def store_size(path):
    """The bytes of the files under a repository's object store."""
    objects = path / ".git" / "objects"
    return sum(f.stat().st_size for f in objects.rglob("*") if f.is_file())


@pytest.mark.usefixtures("four_cpus")
class TestCorpusLargestFirst:
    @pytest.fixture(scope="class")
    def corpus_dir(self, tmp_path_factory):
        """Repositories of skewed size whose largest sorts last, and a list
        naming them and an entry that is no repository."""
        root = tmp_path_factory.mktemp("largest")
        for name, n in (("a-small", 3), ("b-mid", 12), ("c-tiny", 1), ("z-big", 50)):
            build_repo(root / name, [
                {"key": f"c{i}", "commit_epoch": EPOCHS[i % len(EPOCHS)] + i,
                 "parents": [f"c{i - 1}"] if i else [], "message": f"change {i} " * 20}
                for i in range(n)])
        (root / "list.txt").write_text("".join(
            f"{root / name}\n" for name in ("z-big", "a-small", "missing", "c-tiny", "b-mid")))
        return root

    def corpus(self, root, jobs):
        err = io.StringIO()
        report, stream = root / "report.json", root / "anomalies.jsonl"
        with contextlib.redirect_stderr(err):
            code = cli.main(["corpus", "--list", str(root / "list.txt"), "--jobs", str(jobs),
                             "--reference", REF, "--out", str(report),
                             "--anomalies-out", str(stream)])
        return code, report.read_bytes(), stream.read_bytes(), err.getvalue()

    def test_largest_repository_is_scanned_first(self, corpus_dir):
        scanned, real = [], cli.scan_repository

        def spy(path, step):
            scanned.append(path)
            return real(path, step)

        with mock.patch.object(cli, "scan_repository", spy):
            code, _, _, err = self.corpus(corpus_dir, 1)
        repos = [corpus_dir / name for name in ("a-small", "b-mid", "c-tiny", "z-big")]
        by_size = sorted(repos, key=lambda repo: -store_size(repo))
        assert by_size[0].name == "z-big"
        assert scanned == [*map(str, by_size), str(corpus_dir / "missing")]
        # stderr stays in list order: the one failure
        assert code == 1 and err.startswith(f"chronolint: {corpus_dir / 'missing'}: ")
        assert err.count("\n") == 1

    @needs_fork
    def test_outputs_the_same_for_all_jobs(self, corpus_dir):
        serial = self.corpus(corpus_dir, 1)
        for jobs in (2, 8):
            assert self.corpus(corpus_dir, jobs) == serial, jobs

    def test_unreadable_store_counts_zero(self, tmp_path):
        assert cli.object_store_size(str(tmp_path / "missing")) == 0
        assert cli.object_store_size(str(tmp_path)) == 0

    def test_file_that_cannot_be_read_is_skipped(self, tmp_path, monkeypatch):
        """A file gone between the walk and its lstat (a git gc, say) counts 0."""
        objects = tmp_path / "objects"
        objects.mkdir()
        (objects / "kept").write_bytes(bytes(10))
        (objects / "gone").write_bytes(bytes(100))
        real = os.lstat

        def lstat(path, *args, **kwargs):
            if os.path.basename(path) == "gone":
                raise FileNotFoundError(path)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(os, "lstat", lstat)
        assert cli.object_store_size(str(tmp_path)) == 10


@needs_fork
class TestFilterProcessHygiene:
    @pytest.fixture
    def clean(self):
        """Check, after the test, that the run left nothing behind."""
        fds, cpus = set(os.listdir("/proc/self/fd")), os.sched_getaffinity(0)
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert set(os.listdir("/proc/self/fd")) == fds
        assert os.sched_getaffinity(0) == cpus
        assert gc.get_freeze_count() == 0 and gc.isenabled()

    @pytest.mark.usefixtures("four_cpus", "clean")
    def test_run_that_exits_zero(self, tmp_path, capsysbinary, policies):
        export = write(tmp_path / "in.jsonl", layout([30, 30, 30], seed=6))
        with merged("merged") as seen:
            assert filter_jsonl(export, 3, policies["empty"], capsysbinary)[0] == 0
        assert len(seen) == 1

    @pytest.mark.usefixtures("four_cpus", "clean")
    def test_run_that_exits_two_on_a_duplicate_id(self, tmp_path, capsysbinary, policies):
        a, b = project_lines("a", 30), project_lines("b", 30)
        export = write(tmp_path / "in.jsonl", [*a, *b, b[7]])
        code, kept, _, err = filter_jsonl(export, 2, policies["empty"], capsysbinary)
        assert (code, kept) == (2, None)
        assert err.decode() == (
            f"chronolint: duplicate commit id {b[7][7:47].decode()} in project b\n")
