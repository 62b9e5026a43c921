"""``corpus --jobs N`` in forked workers gives the outputs of ``--jobs 1``.

The report, the anomaly stream, stderr and the exit code are compared byte
for byte across job counts and list orders. The process tests make workers
fail in every way a worker can, and check that each costs time but never a
result, and that no child process, pipe or CPU placement outlives the run.
"""

import contextlib
import gc
import io
import os
import pickle
import random
import shutil
import signal
import sys
import tempfile
import threading
import time
import warnings
from unittest import mock

import pytest

from chronolint import cli, parallel
from helpers import build_repo, write_raw_commit

REF = "2021-01-01T00:00:00+00:00"
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def plans(rng, n):
    """n commits of one linear history; some are zero-epoch, old or future."""
    commits = []
    for i in range(n):
        epoch = rng.choice([1_500_000_000 + i * 3600] * 5 + [0, 700_000_000, 4_000_000_000])
        commits.append({"key": f"c{i}", "commit_epoch": epoch,
                        "parents": [f"c{i - 1}"] if i else [],
                        "message": rng.choice(["fix", "Merge branch x", "git-svn-id: 1"])})
    return commits


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """Six repositories of skewed size, one with an unreadable commit
    header, and a list naming them and an entry that is no repository."""
    root = tmp_path_factory.mktemp("corpus")
    rng = random.Random(1)
    entries, shas = [], {}
    for name, n in (("big", 60), ("a", 8), ("b", 8), ("c", 5), ("d", 3), ("bad-header", 4)):
        shas = build_repo(root / name, plans(rng, n))
        entries.append(str(root / name))
    write_raw_commit(root / "bad-header", (
        f"parent {shas['c3']}\n"
        "author A <a@example.com> 1500000120 +2500\n"
        "committer A <a@example.com> 1500000120 +2500\n"
    ), "out of range zone\n", "bad-zone")
    entries.append(str(root / "missing"))
    (root / "list.txt").write_text("".join(f"{entry}\n" for entry in entries))
    return root


def corpus(root, jobs, listing="list.txt", *flags):
    """(exit code, report, anomaly stream, stderr) of a corpus run."""
    report, stream = root / f"report-{jobs}.json", root / f"anomalies-{jobs}.jsonl"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["corpus", "--list", str(root / listing), "--jobs", str(jobs),
                         "--reference", REF, "--out", str(report),
                         "--anomalies-out", str(stream), *flags])
    outputs = code, report.read_bytes(), stream.read_bytes(), err.getvalue()
    report.unlink()
    stream.unlink()
    return outputs


@contextlib.contextmanager
def parent_scans():
    """The repositories scanned in this process during the block."""
    parent, real, scanned = os.getpid(), cli.scan_repository, []

    def spy(path, project, cfg):
        if os.getpid() == parent:
            scanned.append(project)
        return real(path, project, cfg)

    with mock.patch.object(cli, "scan_repository", spy):
        yield scanned


def open_fds():
    return set(os.listdir("/proc/self/fd"))


@needs_fork
@pytest.mark.usefixtures("four_cpus")
class TestSameForAllJobs:
    def test_jobs_1_2_8(self, corpus_dir):
        serial = corpus(corpus_dir, 1)
        assert serial[0] == 1
        for jobs in (2, 8):
            with parent_scans() as scanned:
                assert corpus(corpus_dir, jobs) == serial, jobs
            assert len(scanned) < 7  # the workers scanned the rest

    def test_shuffled_list(self, corpus_dir):
        lines = (corpus_dir / "list.txt").read_text().splitlines(keepends=True)
        random.Random(2).shuffle(lines)
        (corpus_dir / "shuffled.txt").write_text("".join(lines))
        assert corpus(corpus_dir, 3, "shuffled.txt") == corpus(corpus_dir, 1)

    def test_stderr_in_list_order(self, corpus_dir):
        serial = corpus(corpus_dir, 1)
        assert corpus(corpus_dir, 2)[3] == serial[3]
        bad, missing = corpus_dir / "bad-header", corpus_dir / "missing"
        lines = serial[3].splitlines()
        assert len(lines) == 2
        assert lines[0].startswith(f"chronolint: {bad}: rejected ")
        assert lines[0].endswith(": bad timestamp: UTC offset out of range: '+2500'")
        assert lines[1].startswith(f"chronolint: {missing}: git ")


@needs_fork
class TestProcessHygiene:
    @pytest.fixture
    def clean(self):
        """Check, after the test, that the run left nothing behind."""
        fds, cpus = open_fds(), os.sched_getaffinity(0)
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert open_fds() == fds
        assert os.sched_getaffinity(0) == cpus
        assert gc.get_freeze_count() == 0 and gc.isenabled()

    def failing_workers(self, action):
        """A scan_repository that does action in a forked worker only."""
        parent, real = os.getpid(), cli.scan_repository

        def scan_repository(*args):
            if os.getpid() != parent:
                action()
            return real(*args)

        return mock.patch.object(cli, "scan_repository", scan_repository)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.usefixtures("four_cpus")
    def test_worker_that_raises(self, corpus_dir, clean, error):
        serial = corpus(corpus_dir, 1)

        def boom():
            raise error("boom")

        with self.failing_workers(boom):
            assert corpus(corpus_dir, 3) == serial

    @pytest.mark.usefixtures("four_cpus")
    def test_worker_killed_by_a_signal(self, corpus_dir, clean):
        serial = corpus(corpus_dir, 1)
        with self.failing_workers(lambda: os.kill(os.getpid(), signal.SIGKILL)):
            assert corpus(corpus_dir, 3) == serial

    @pytest.mark.parametrize("lacking", [0, 1, 2])
    @pytest.mark.usefixtures("four_cpus")
    def test_no_pipe_left(self, corpus_dir, clean, lacking):
        """The queue's file cannot be made (0), or there is no pipe for the
        first worker (1) or the second (2)."""
        serial = corpus(corpus_dir, 1)
        real_pipe, pipes = os.pipe, []
        real_file, refused = tempfile.TemporaryFile, []
        pipes_made = max(lacking - 1, 0)

        def pipe():
            if sys._getframe(1).f_globals["__name__"] != parallel.__name__:
                return real_pipe()  # git's pipes
            if len(pipes) == pipes_made:
                raise OSError(24, "Too many open files")
            pipes.append(real_pipe())
            return pipes[-1]

        def temporary_file(*args, **kwargs):
            if lacking or sys._getframe(1).f_globals["__name__"] != parallel.__name__:
                return real_file(*args, **kwargs)  # git's stderr
            refused.append(args)
            raise OSError(28, "No space left on device")

        with mock.patch.object(os, "pipe", pipe), \
                mock.patch.object(tempfile, "TemporaryFile", temporary_file), \
                parent_scans() as scanned:
            assert corpus(corpus_dir, 3) == serial
        assert len(pipes) == pipes_made and len(refused) == (lacking == 0)
        if lacking < 2:
            assert len(scanned) == 7

    @pytest.mark.parametrize("lacking", [1, 2])
    @pytest.mark.usefixtures("four_cpus")
    def test_no_result_file(self, corpus_dir, clean, lacking):
        """There is no results file for the first worker (1) or the second
        (2): the outputs are the same, and fewer workers run."""
        serial = corpus(corpus_dir, 1)
        real_file, made = tempfile.TemporaryFile, []
        real_fork, forks = os.fork, []

        def temporary_file(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] != parallel.__name__:
                return real_file(*args, **kwargs)  # git's stderr
            if len(made) == lacking:  # the queue's file, then one per worker
                raise OSError(28, "No space left on device")
            made.append(args)
            return real_file(*args, **kwargs)

        def fork():
            forks.append(None)
            return real_fork()

        with mock.patch.object(tempfile, "TemporaryFile", temporary_file), \
                mock.patch.object(os, "fork", fork), parent_scans() as scanned:
            assert corpus(corpus_dir, 3) == serial
        assert len(made) == lacking and len(forks) == lacking - 1
        if lacking == 1:
            assert len(scanned) == 7

    @pytest.mark.usefixtures("four_cpus")
    def test_keyboard_interrupt_in_the_parent(self, corpus_dir, clean):
        parent = os.getpid()

        def scan_repository(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        started = time.monotonic()
        with mock.patch.object(cli, "scan_repository", scan_repository), \
                pytest.raises(KeyboardInterrupt):
            corpus(corpus_dir, 3)
        assert time.monotonic() - started < 30  # the sleeping workers were killed

    def test_mixed_list_of_paths_and_urls(self, corpus_dir, clean):
        """Paths, file:// URLs of the corpus's repositories and a URL that
        cannot be cloned: each --jobs gives the outputs of --jobs 1, from an
        empty cache and again from the cache that run filled."""
        root, cache = corpus_dir, corpus_dir / "cache"
        nowhere = f"file://{root / 'nowhere'}"
        entries = [root / "a", root / "d", root / "missing", nowhere,
                   *(f"file://{root / name}" for name in ("big", "bad-header", "c"))]
        (root / "mixed.txt").write_text("".join(f"{entry}\n" for entry in entries))
        flags = ("--cache", str(cache))
        try:
            runs = []
            for jobs in (1, 2, 8):
                shutil.rmtree(cache, ignore_errors=True)
                runs += [corpus(root, jobs, "mixed.txt", *flags) for _ in ("empty", "warm")]
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        assert all(run == runs[0] for run in runs)
        code, _, _, err = runs[0]
        assert code == 1
        lines = err.splitlines()
        assert all(line.startswith("chronolint: ") for line in lines)
        assert len(lines) == 3
        assert lines[0].startswith(f"chronolint: {root / 'missing'}: git ")
        assert lines[1].startswith(f"chronolint: file://{root / 'bad-header'}: rejected ")
        assert lines[2].startswith(f"chronolint: {nowhere}: git clone failed in {cache}: ")

    def test_live_thread_runs_in_process(self, corpus_dir, clean, monkeypatch):
        forks = []
        real = parallel.forked
        monkeypatch.setattr(parallel, "forked", lambda *a: forks.append(a) or real(*a))
        serial = corpus(corpus_dir, 1)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert corpus(corpus_dir, 2) == serial
        finally:
            stop.set()
            thread.join()
        assert forks == []
        if parallel.usable_cpus() > 1:  # the same run without the thread does fork
            assert corpus(corpus_dir, 2) == serial
            assert len(forks) == 1


@needs_fork
def test_queue_gives_each_index_once():
    """Many indices, and more processes than CPUs: every index is taken, by
    one process, within a minute."""
    count = 40_000

    def work(out, file):
        pickle.dump(list(queue), out)

    def too_slow(signum, frame):
        raise TimeoutError("the queue did not end")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(60)
    try:
        with parallel._Queue(range(count)) as queue, \
                parallel.forked(len(os.sched_getaffinity(0)) + 2, work) as workers:
            taken = list(queue)
            for messages in workers.values():
                taken += next(messages)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert sorted(taken) == list(range(count))


@needs_fork
def test_workers_forked_for_a_list_of_urls(tmp_path, monkeypatch):
    """A list of URLs alone forks its workers on every run, the first, which
    clones each URL in the unit that scans it, as the later ones, which read
    the clones, and every run gives the same report."""
    if parallel.usable_cpus() < 2:
        pytest.skip("needs two usable CPUs")
    entries = []
    for name in ("x", "y"):
        build_repo(tmp_path / name, plans(random.Random(name), 4))
        entries.append(f"file://{tmp_path / name}")
    (tmp_path / "list.txt").write_text("".join(f"{entry}\n" for entry in entries))
    forks = []
    real = parallel.forked
    monkeypatch.setattr(parallel, "forked", lambda *a: forks.append(a) or real(*a))
    reports = set()
    for _ in range(8):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["corpus", "--list", str(tmp_path / "list.txt"), "--jobs", "2",
                             "--cache", str(tmp_path / "cache"), "--reference", REF,
                             "--out", str(tmp_path / "o.json")]) == 1
        reports.add((tmp_path / "o.json").read_bytes())
    assert len(forks) == 8 and len(reports) == 1
