"""A JSONL scan cut into ranges gives the outputs of a scan in one range.

These tests force the number of ranges to 1-8 through
``parallel.range_count``, and the usable CPUs to one, two or four, and
compare the report, the anomaly stream, stderr and the exit code with the
one-range scan byte for byte. They also check the cut planner and that no
child process or pipe outlives a scan on any path.
"""

import contextlib
import errno
import gc
import io
import os
import random
import signal
import tempfile
import threading
import time
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from chronolint import cli, parallel
from chronolint.ingest import emit_export_stream, parse_export_stream
from helpers import fake_hash, rec

REF = "2021-01-01T00:00:00+00:00"
JUNK = [b"\n", b"  \t\n", b"not json\n", b'{"id": 1}\n', b"\xff\xfe\n", b"[]\n"]
MANY_CPUS = len(os.sched_getaffinity(0)) >= 2 if hasattr(os, "sched_getaffinity") else False
# project sizes: a few large projects, as the benchmark's dirty-scan (3500,
# 2800, 2100 and 1400 commits) scaled down, and many small ones
SKEWED = [70, 56, 42, 28]
MANY_SMALL = [1 + k % 6 for k in range(40)]


def project_lines(rng, project, n):
    """n commits of one linear project as export lines; some are flagged."""
    records, parents = [], ()
    for i in range(n):
        epoch = rng.choice([1_600_000_000 + i * 3600] * 6 + [0, 700_000_000, 4_000_000_000])
        r = rec((project, i, rng.random()), commit_epoch=epoch, parents=parents,
                project=project, message=rng.choice(["fix", "Merge branch x", "git-svn-id: 1"]))
        records.append(r)
        parents = (r.id,)
    return emit_export_stream(records).splitlines(keepends=True)


def layout(rng, sizes, interleave=False, junk=0):
    """Export lines of one project per size, listed together unless interleave."""
    runs = [project_lines(rng, f"p{k}", n) for k, n in enumerate(sizes)]
    lines = [line for run in runs for line in run]
    if interleave:
        rng.shuffle(lines)
    for _ in range(junk):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(JUNK))
    return lines


def read(path):
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        return None


def scan(path, ranges):
    """(exit code, report, anomaly stream, stderr) of a scan cut into ranges;
    None leaves the count to range_count."""
    out_dir = Path(path).parent
    report, stream = out_dir / f"report{ranges}.json", out_dir / f"anomalies{ranges}.jsonl"
    err = io.StringIO()
    count = mock.patch.object(parallel, "range_count", lambda fh: ranges)
    with count if ranges is not None else contextlib.nullcontext(), \
            contextlib.redirect_stderr(err):
        code = cli.main(["scan", "--jsonl", str(path), "--reference", REF,
                         "--out", str(report), "--anomalies-out", str(stream)])
    outputs = code, read(report), read(stream), err.getvalue()
    for produced in (report, stream):
        produced.unlink(missing_ok=True)
    return outputs


@contextlib.contextmanager
def merges_seen():
    """The merged calls of the scans in the block; a fallback makes none."""
    seen = []
    real = cli.merged

    def spy(parts):
        seen.append(parts)
        return real(parts)

    with mock.patch.object(cli, "merged", spy):
        yield seen


def open_fds():
    return set(os.listdir("/proc/self/fd"))


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_same_for_all_ranges(path, counts=(2, 3, 4, 8)):
    serial = scan(path, 1)
    for ranges in counts:
        assert scan(path, ranges) == serial, ranges
    return serial


def write(tmp_path, lines, final_lf=True):
    data = b"".join(lines)
    if not final_lf:
        data = data.rstrip(b"\n")
    path = tmp_path / "commits.jsonl"
    path.write_bytes(data)
    return path


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.usefixtures("four_cpus")
class TestSameAsOneRange:
    @settings(max_examples=25, deadline=None)
    @given(sizes=st.lists(st.integers(1, 30), min_size=1, max_size=5),
           seed=st.integers(0, 2**16), interleave=st.booleans(),
           junk=st.integers(0, 6), final_lf=st.booleans(), crlf=st.booleans())
    def test_generated_exports(self, sizes, seed, interleave, junk, final_lf, crlf):
        rng = random.Random(seed)
        lines = layout(rng, sizes, interleave, junk)
        if crlf:
            k = rng.randrange(len(lines))
            lines[k] = lines[k].replace(b"\n", b"\r\n")
        with tempfile.TemporaryDirectory() as tmp:
            assert_same_for_all_ranges(write(Path(tmp), lines, final_lf))

    def test_interleaved_projects_fall_back(self, tmp_path):
        path = write(tmp_path, layout(random.Random(1), [40, 40, 40], interleave=True))
        with merges_seen() as seen:
            serial = assert_same_for_all_ranges(path)
        assert seen == []
        assert serial[0] == 1

    def test_fallback_parses_each_range_once_and_scans_once(self, tmp_path):
        path = write(tmp_path, layout(random.Random(1), [40, 40, 40], interleave=True))
        parent, calls = os.getpid(), []

        def spy(real):
            def called(*args):
                if os.getpid() == parent:
                    calls.append(real.__name__)
                return real(*args)
            return called

        with mock.patch.object(cli, "parse_range", spy(cli.parse_range)), \
                mock.patch.object(cli, "scan_corpus", spy(cli.scan_corpus)):
            code = scan(path, 3)[0]
        assert code == 1
        assert calls == ["parse_range"] * 3 + ["scan_corpus"]

    def test_contiguous_projects_merge(self, tmp_path):
        path = write(tmp_path, layout(random.Random(2), [40, 40, 40, 40]))
        with merges_seen() as seen:
            assert_same_for_all_ranges(path)
        assert len(seen) == 4 and all(merged is not None for merged in seen)

    def test_rejects_around_a_cut(self, tmp_path):
        rng = random.Random(3)
        lines = [*project_lines(rng, "a", 30), b"not json\n", b'{"id": 1}\n',
                 *project_lines(rng, "b", 30), b"[]\n", *project_lines(rng, "c", 30)]
        path = write(tmp_path, lines)
        with open(path, "rb") as fh:
            plan = parallel.plan_ranges(fh, path.stat().st_size, str(path), 3)
        assert len(plan) == 3
        code, _, _, stderr = assert_same_for_all_ranges(path)
        assert stderr.splitlines() == [
            "chronolint: rejected line 31: invalid JSON: Expecting value",
            "chronolint: rejected line 32: missing parents",
            "chronolint: rejected line 63: record is not an object",
        ]

    def test_crlf_line_and_no_final_lf(self, tmp_path):
        rng = random.Random(4)
        a, b = project_lines(rng, "a", 20), project_lines(rng, "b", 20)
        a[-1] = a[-1].replace(b"\n", b"\r\n")
        b[0] = b[0].replace(b"\n", b"\r\n")
        path = write(tmp_path, [*a, *b], final_lf=False)
        code, report, _, stderr = assert_same_for_all_ranges(path)
        assert b'"commits":40' in report.replace(b" ", b"") and stderr == ""

    @pytest.mark.parametrize("tail", [b" " * 99 + b"\n", b"not json" * 12 + b"\n"])
    def test_range_of_only_blank_or_rejected_lines(self, tmp_path, tail):
        rng = random.Random(5)
        lines = [*project_lines(rng, "a", 3), *project_lines(rng, "b", 3), *[tail] * 50]
        path = write(tmp_path, lines)
        with open(path, "rb") as fh:
            plan = parallel.plan_ranges(fh, path.stat().st_size, str(path), 3)
        last = path.read_bytes()[plan[-1][0]:]
        assert set(last.splitlines(keepends=True)) == {tail}
        with merges_seen() as seen:
            assert_same_for_all_ranges(path, counts=(3,))
        assert len(seen) == 1

    def test_long_stretch_without_records_is_not_cut(self, tmp_path):
        lines = [*project_lines(random.Random(12), "a", 30), *[b"\n"] * parallel.PROBE_LINES,
                 *project_lines(random.Random(13), "b", 2)]
        path = write(tmp_path, lines)
        with open(path, "rb") as fh:
            assert parallel.plan_ranges(fh, path.stat().st_size, "x", 2) == [
                (0, path.stat().st_size)]

    def test_long_line_where_the_planner_probes_is_not_cut(self, tmp_path):
        """A line the planner's probe cannot read whole leaves the export in
        one range, scanned as a forced one-range scan is."""
        rng = random.Random(14)
        long = rec("long", commit_epoch=0, project="a",
                   message="x" * (4 * parallel.PROBE_BYTES))
        lines = [*project_lines(rng, "a", 10), *emit_export_stream([long]).splitlines(True),
                 *project_lines(rng, "b", 10)]
        path = write(tmp_path, lines)
        size = path.stat().st_size
        start = path.read_bytes().index(b'"message":"xxx')
        assert start < size // 2 < start + 3 * parallel.PROBE_BYTES  # a probe there reads too far
        with open(path, "rb") as fh:
            assert parallel.plan_ranges(fh, size, str(path), 2) == [(0, size)]
        with merges_seen() as seen:
            serial = assert_same_for_all_ranges(path, counts=(2,))
        assert seen == [] and serial[0] == 1

    def test_same_id_in_two_projects_across_a_cut(self, tmp_path):
        rng = random.Random(6)
        a, b = project_lines(rng, "a", 20), project_lines(rng, "b", 20)
        shared = a[-1]
        b.insert(0, shared.replace(b'"project":"a"', b'"project":"b"'))
        path = write(tmp_path, [*a, *b])
        with merges_seen() as seen:
            code, report, _, _ = assert_same_for_all_ranges(path, counts=(2,))
        assert len(seen) == 1 and b'"commits":41' in report.replace(b" ", b"")

    def test_duplicate_line_on_both_sides_of_a_cut(self, tmp_path):
        rng = random.Random(7)
        a, b = project_lines(rng, "a", 20), project_lines(rng, "b", 20)
        path = write(tmp_path, [*a, *b, a[5]])
        code, report, _, stderr = assert_same_for_all_ranges(path)
        assert (code, report) == (2, None)
        assert stderr == f"chronolint: duplicate commit id {a[5][7:47].decode()} in project a\n"

    def test_cycle_exits_two_with_the_serial_message(self, tmp_path):
        rng = random.Random(8)
        x, y = fake_hash("x"), fake_hash("y")
        cycle = [rec("x", parents=(y,), project="b"), rec("y", parents=(x,), project="b")]
        lines = [*project_lines(rng, "a", 30), b"oops\n",
                 *emit_export_stream(cycle).splitlines(keepends=True),
                 *project_lines(rng, "c", 30)]
        path = write(tmp_path, lines)
        code, report, stream, stderr = assert_same_for_all_ranges(path)
        assert (code, report, stream) == (2, None, None)
        assert stderr.splitlines() == [
            "chronolint: rejected line 31: invalid JSON: Expecting value",
            f"chronolint: cycle detected in commit graph involving {min(x, y)}",
        ]

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, [])
        code, report, stream, stderr = assert_same_for_all_ranges(path)
        assert (code, stream, stderr) == (0, b"", "")


def line_projects(data):
    """(line start, project or None) of every line, parsed one by one."""
    starts, found, pos = [], [], 0
    for line in data.splitlines(keepends=True):
        records, _ = parse_export_stream(line, "default")
        starts.append(pos)
        found.append(records[0].project if records else None)
        pos += len(line)
    return starts, found


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestUnitsPerProcess:
    """Several units for each process give the outputs of one unit: on an
    export of a few large projects, as the benchmark's dirty-scan, and on one
    of many small projects, in one process and in two."""

    @pytest.mark.parametrize("sizes", [SKEWED, MANY_SMALL], ids=["skewed", "many-small"])
    @pytest.mark.parametrize("processes", [1, 2])
    def test_same_at_every_unit_count(self, tmp_path, monkeypatch, sizes, processes):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: processes)
        path = write(tmp_path, layout(random.Random(15), sizes, junk=4))
        serial = scan(path, 1)
        assert serial[0] == 1
        for units in (2, 4, 8):
            with merges_seen() as seen:
                assert scan(path, units) == serial, units
            assert len(seen) == 1


class TestPlanRanges:
    def test_cuts_start_project_runs(self, tmp_path):
        rng = random.Random(9)
        cuts = inside = 0
        for _ in range(120):
            sizes = [rng.randint(1, 40) for _ in range(rng.randint(1, 8))]
            lines = layout(rng, sizes)
            for _ in range(len(lines) // 20):
                lines.insert(rng.randrange(len(lines) + 1), rng.choice(JUNK))
            data = b"".join(lines)
            path = write(tmp_path, lines)
            count = rng.randint(2, 6)
            with open(path, "rb") as fh:
                plan = parallel.plan_ranges(fh, len(data), "default", count)
            assert plan[0][0] == 0 and plan[-1][1] == len(data)
            assert all(end == start for (_, end), (start, _) in zip(plan, plan[1:]))
            assert len(plan) <= count
            starts, projects = line_projects(data)
            for _, cut in plan[:-1]:
                assert cut in starts
                k = starts.index(cut)
                before = [p for p in projects[:k] if p is not None]
                after = [p for p in projects[k:] if p is not None]
                cuts += 1
                if before and after and before[-1] == after[0]:
                    inside += 1
        assert cuts > 100 and inside == 0

    def test_targets_in_one_project_find_one_start(self, tmp_path):
        """8 units of an export of four large projects are the four projects."""
        lines = layout(random.Random(17), SKEWED, junk=4)
        path = write(tmp_path, lines)
        data = path.read_bytes()
        with open(path, "rb") as fh:
            plan = parallel.plan_ranges(fh, len(data), "x", 8)
        assert len(plan) == 4
        for k, (start, end) in enumerate(plan):
            records, _ = parse_export_stream(data[start:end], "x")
            assert {record.project for record in records} == {f"p{k}"}

    def test_probes_a_few_lines_per_cut_each_once(self, tmp_path, monkeypatch):
        """8 cuts of a 100-project export parse at most 16 lines each, and no
        line twice."""
        rng = random.Random(16)
        path = write(tmp_path, layout(rng, [rng.randint(20, 60) for _ in range(100)]))
        probed, real = [], parallel.parse_export_stream

        def parse(lines, project):
            probed.extend(lines)
            return real(lines, project)

        monkeypatch.setattr(parallel, "parse_export_stream", parse)
        with open(path, "rb") as fh:
            assert len(parallel.plan_ranges(fh, path.stat().st_size, "x", 9)) == 9
        assert len(probed) <= 8 * 16
        assert len(set(probed)) == len(probed)

    @pytest.mark.parametrize("final_lf", [True, False])
    def test_target_in_the_last_line(self, tmp_path, final_lf):
        """A target inside the export's last line, whose next line start is
        the end of the file, leaves the run past the last record to search."""
        a = project_lines(random.Random(18), "a", 2)
        long = rec("long", project="a", parents=(), message="x" * 2000)
        path = write(tmp_path, [a[0], b"\xff\xfe\n", b"not json\n",
                                *emit_export_stream([long]).splitlines(True)], final_lf)
        size = path.stat().st_size
        with open(path, "rb") as fh:
            assert parallel.plan_ranges(fh, size, "x", 2) == [(0, size)]

    def test_one_project_is_one_range(self, tmp_path):
        path = write(tmp_path, project_lines(random.Random(10), "a", 50))
        with open(path, "rb") as fh:
            assert parallel.plan_ranges(fh, path.stat().st_size, "x", 4) == [
                (0, path.stat().st_size)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestProcessHygiene:
    @pytest.fixture
    def export(self, tmp_path):
        return write(tmp_path, layout(random.Random(11), [30, 30, 30]))

    def check_clean(self, fds, cpus):
        assert_no_children()
        assert open_fds() == fds
        assert os.sched_getaffinity(0) == cpus
        assert gc.get_freeze_count() == 0 and gc.isenabled()

    def failing_children(self, action):
        """A parse_range that does action in a forked child only."""
        parent, real = os.getpid(), cli.parse_range

        def parse_range(*args):
            if os.getpid() != parent:
                action()
            return real(*args)

        return mock.patch.object(cli, "parse_range", parse_range)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.usefixtures("four_cpus")
    def test_worker_that_raises(self, export, error):
        serial = scan(export, 1)
        fds, cpus = open_fds(), os.sched_getaffinity(0)

        def boom():
            raise error("boom")

        with self.failing_children(boom), merges_seen() as seen:
            assert scan(export, 3) == serial
        assert len(seen) == 1
        self.check_clean(fds, cpus)

    @pytest.mark.usefixtures("four_cpus")
    def test_worker_killed_by_a_signal(self, export):
        serial = scan(export, 1)
        fds, cpus = open_fds(), os.sched_getaffinity(0)
        with self.failing_children(lambda: os.kill(os.getpid(), signal.SIGKILL)), \
                merges_seen() as seen:
            assert scan(export, 3) == serial
        assert len(seen) == 1
        self.check_clean(fds, cpus)

    @pytest.mark.usefixtures("four_cpus")
    def test_no_pipe_left_scans_in_one_process(self, export):
        serial = scan(export, 1)
        fds, cpus = open_fds(), os.sched_getaffinity(0)
        pipes = []

        def pipe():
            if pipes:
                raise OSError(24, "Too many open files")
            pipes.append(real_pipe())
            return pipes[-1]

        real_pipe = os.pipe
        with mock.patch.object(os, "pipe", pipe), merges_seen() as seen:
            assert scan(export, 3) == serial
        assert len(pipes) == 1 and len(seen) == 1
        self.check_clean(fds, cpus)

    @pytest.mark.usefixtures("four_cpus")
    def test_no_fork_scans_in_one_process(self, export):
        serial = scan(export, 1)
        fds, cpus = open_fds(), os.sched_getaffinity(0)
        forks = []

        def fork():
            forks.append(os.getpid())
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        with mock.patch.object(os, "fork", fork), merges_seen() as seen:
            assert scan(export, 3) == serial
        assert forks == [os.getpid()] and len(seen) == 1
        self.check_clean(fds, cpus)

    @pytest.mark.usefixtures("four_cpus")
    def test_full_disk_for_the_queue_scans_in_one_process(self, export, monkeypatch):
        serial = scan(export, 1)
        fds, cpus = open_fds(), os.sched_getaffinity(0)
        real_file, made, forks = tempfile.TemporaryFile, [], []

        class Full:
            """A temporary file whose every write fails as on a full disk."""

            def __init__(self, file):
                self.file = file

            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def __getattr__(self, name):
                return getattr(self.file, name)

        def temporary_file(*args, **kwargs):
            made.append(Full(real_file(*args, **kwargs)))
            return made[-1]

        def fork():
            forks.append(os.getpid())
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
        with mock.patch.object(os, "fork", fork), merges_seen() as seen:
            assert scan(export, 3) == serial
        assert len(made) == 1 and made[0].closed
        assert forks == [] and len(seen) == 1
        self.check_clean(fds, cpus)

    @pytest.mark.usefixtures("four_cpus")
    def test_keyboard_interrupt_in_the_parent(self, export):
        fds, cpus = open_fds(), os.sched_getaffinity(0)
        parent = os.getpid()

        def parse_range(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        started = time.monotonic()
        with mock.patch.object(cli, "parse_range", parse_range), pytest.raises(KeyboardInterrupt):
            scan(export, 3)
        assert time.monotonic() - started < 30  # the sleeping children were killed
        self.check_clean(fds, cpus)

    @pytest.mark.usefixtures("four_cpus")
    def test_nothing_left_in_the_temporary_directory(self, tmp_path, monkeypatch):
        """The queue and the workers' results files are unlinked temporary
        files: none is left behind by a scan that exits 0, one that exits 2,
        or one interrupted in this process."""
        rng = random.Random(12)
        x, y = fake_hash("x"), fake_hash("y")
        cycle = [rec("x", parents=(y,), project="b"), rec("y", parents=(x,), project="b")]
        exports = []
        for name, lines in [
            ("clean", layout(rng, [30, 30, 30])),
            ("cycle", [*project_lines(rng, "a", 30),
                       *emit_export_stream(cycle).splitlines(keepends=True),
                       *project_lines(rng, "c", 30)]),
        ]:
            (tmp_path / name).mkdir()
            exports.append(write(tmp_path / name, lines))
        temporary = tmp_path / "tmp"
        temporary.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temporary))
        real_file, made = tempfile.TemporaryFile, []

        def temporary_file(*args, **kwargs):
            made.append(tempfile.gettempdir())
            return real_file(*args, **kwargs)

        monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
        fds, cpus = open_fds(), os.sched_getaffinity(0)
        parent, real = os.getpid(), cli.parse_range

        def interrupted(*args):
            if os.getpid() == parent:
                time.sleep(0.3)  # the workers write their results meanwhile
                raise KeyboardInterrupt
            return real(*args)

        for path, code in zip(exports, (1, 2)):
            assert scan(path, 3)[0] == code
            assert list(temporary.iterdir()) == []
        with mock.patch.object(cli, "parse_range", interrupted), \
                pytest.raises(KeyboardInterrupt):
            scan(exports[0], 3)
        assert list(temporary.iterdir()) == []
        assert made == [str(temporary)] * 9  # the queue and two workers' files, thrice
        self.check_clean(fds, cpus)

    def test_live_thread_keeps_one_range(self, export, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_RANGE_BYTES", 1)
        calls = []
        real = parallel.plan_ranges
        monkeypatch.setattr(parallel, "plan_ranges", lambda *a: calls.append(a) or real(*a))
        serial = scan(export, 1)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert scan(export, None) == serial
        finally:
            stop.set()
            thread.join()
        assert calls == []
        # a joined thread can take milliseconds more to exit, and the OS
        # counts it until then; cmd_corpus waits for it the same way
        deadline = time.monotonic() + 5
        while parallel.thread_count() > 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        if MANY_CPUS:  # the same scan without the thread does fork
            assert scan(export, None) == serial
            assert len(calls) == 1


class TestRangeCount:
    @pytest.mark.parametrize("files, cpus", [
        ({"cpu.max": "max 100000\n"}, None),
        ({"cpu.max": "150000 100000\n"}, 1),
        ({"cpu.max": "250000 100000\n"}, 2),
        ({"cpu.max": "20000 100000\n"}, 1),
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
        ({"cpu/cpu.cfs_quota_us": "300000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
        ({}, None),
    ])
    def test_cpu_quota(self, tmp_path, files, cpus):
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        assert parallel.cpu_quota(str(tmp_path)) == cpus

    @pytest.mark.parametrize("own, files, cpus", [
        # v2: every level from the process's cgroup up to the root counts
        ("0::/a/b\n", {"a/b/cpu.max": "max 100000\n", "a/cpu.max": "150000 100000\n",
                        "cpu.max": "400000 100000\n"}, 1),
        ("0::/a/b\n", {"a/b/cpu.max": "300000 100000\n", "cpu.max": "max 100000\n"}, 3),
        # a level whose directory is not there, as in a container, is skipped
        ("0::/docker/x\n", {"cpu.max": "200000 100000\n"}, 2),
        # v1: the cpu controller's own line and directory tree
        ("4:cpu,cpuacct:/x/y\n3:memory:/z\n0::/\n",
         {"cpu/x/y/cpu.cfs_quota_us": "300000\n", "cpu/x/y/cpu.cfs_period_us": "100000\n",
          "cpu/x/cpu.cfs_quota_us": "-1\n", "cpu/x/cpu.cfs_period_us": "100000\n",
          "cpu/z/cpu.cfs_quota_us": "100000\n", "cpu/z/cpu.cfs_period_us": "100000\n"}, 3),
        # both hierarchies, as on a hybrid host: the smaller quota wins
        ("1:cpu:/x\n0::/y\n", {"cpu/x/cpu.cfs_quota_us": "500000\n",
                               "cpu/x/cpu.cfs_period_us": "100000\n",
                               "y/cpu.max": "200000 100000\n"}, 2),
        # outside the cgroup namespace, or no cgroup file: the root alone
        ("0::/../../x\n", {"cpu.max": "200000 100000\n", "x/cpu.max": "100000 100000\n"}, 2),
        (None, {"cpu.max": "200000 100000\n", "a/cpu.max": "100000 100000\n"}, 2),
        ("0::/a\n", {}, None),
    ])
    def test_cpu_quota_of_own_cgroup(self, tmp_path, own, files, cpus):
        root = tmp_path / "cgroup"
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
        own_file = tmp_path / "self-cgroup"
        if own is not None:
            own_file.write_text(own)
        assert parallel.cpu_quota(str(root), str(own_file)) == cpus

    @pytest.mark.skipif(not MANY_CPUS, reason="needs two CPUs")
    @pytest.mark.parametrize("quota, most, processes", [
        (None, 2, 2), (1, 2, 1), (None, 1, 1), (8, 2, 2)])
    def test_bounded_by_quota_and_max_ranges(self, tmp_path, monkeypatch, quota, most,
                                             processes):
        """UNITS_PER_PROCESS units for each process the scan is planned for,
        or one unit where one process is."""
        monkeypatch.setattr(parallel, "cpu_quota", lambda: quota)
        monkeypatch.setattr(parallel, "MAX_RANGES", most)
        monkeypatch.setattr(parallel, "MIN_RANGE_BYTES", 1)
        path = write(tmp_path, [b"\n"] * 10)
        units = parallel.UNITS_PER_PROCESS * processes if processes > 1 else 1
        with open(path, "rb") as fh:
            assert parallel.range_count(fh) == units

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.usefixtures("four_cpus")
    def test_runs_the_planned_processes(self, tmp_path, monkeypatch):
        """An export planned for two processes is worked by two, not by one
        per usable CPU, and gives the one-range outputs."""
        lines = layout(random.Random(5), [60] * 60)
        path = write(tmp_path, lines)
        assert 2 * parallel.MIN_RANGE_BYTES <= path.stat().st_size < 3 * parallel.MIN_RANGE_BYTES
        serial = scan(path, 1)
        forks, real = [], parallel.forked
        monkeypatch.setattr(parallel, "forked", lambda count, work: forks.append(count)
                            or real(count, work))
        with open(path, "rb") as fh:
            assert parallel.range_count(fh) == 2 * parallel.UNITS_PER_PROCESS
        assert scan(path, None) == serial
        assert forks == [2]

    @pytest.mark.parametrize("size, cpus, units", [
        (parallel.MIN_RANGE_BYTES - 1, 2, 1), (2 * parallel.MIN_RANGE_BYTES - 1, 2, 1),
        (2 * parallel.MIN_RANGE_BYTES, 2, 2 * parallel.UNITS_PER_PROCESS),
        (2 * parallel.MIN_RANGE_BYTES, 1, 1),
        (9 * parallel.MIN_RANGE_BYTES, 4, parallel.MAX_RANGES * parallel.UNITS_PER_PROCESS)])
    def test_processes_planned_by_size(self, tmp_path, monkeypatch, size, cpus, units):
        """Each process is planned for at least MIN_RANGE_BYTES of export."""
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        path = tmp_path / "sparse.jsonl"
        with open(path, "wb") as fh:
            fh.truncate(size)
        with open(path, "rb") as fh:
            assert parallel.range_count(fh) == units

    def test_a_pipe_is_one_unit(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        read_end, write_end = os.pipe()
        with open(read_end, "rb") as fh, open(write_end, "wb"):
            assert parallel.range_count(fh) == 1
