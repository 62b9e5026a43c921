"""The process layer: how many processes a run may use, where each runs,
and how forked workers start, report back and end.

``share`` is the one driver of parallel work: a command gives it the sizes
of its units (``cli.scan_units`` the reads of a JSONL export's byte ranges,
``cli.scan_repositories`` a corpus's repositories), and it hands them out
largest first from one queue, so a process that ends its units sooner takes
more. A JSONL export is planned for a number of processes by what a process
costs to start (``range_count``), then cut into several units for each
(``plan_ranges``), since a unit costs far less. A worker sends the keys of
its units through a pipe and their results through an unlinked file, which
this process reads once the worker has exited, so a large result never
waits for this process to read it. This module holds every ``os.fork``,
``os.pipe``, worker file and CPU placement of the package, and every read
of ``/proc`` or the cgroup files; git's own processes are started by
``ingest.run_git``.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import stat
import sys
from typing import IO, Callable, Collection, Hashable, Iterable, Iterator, NoReturn, Sequence

from .ingest import parse_export_stream

# The least bytes of export that each process of a parallel JSONL scan is
# planned for. Forking a worker, placing it and passing its results back cost
# about 6 ms on a 2-vCPU x86 guest, what a scan of about 150 KiB of export
# takes; there a 650 KB export ran about 10% faster in two processes than in
# one, a 130 KB one 50% slower.
MIN_RANGE_BYTES = 1 << 19
# The most processes a JSONL scan is planned for: the most CPUs it was
# measured on (a 2-vCPU guest), where one process per CPU paid. More are
# untried. share itself runs no more processes than usable CPUs and units.
MAX_RANGES = 2
# The units a JSONL scan is cut into for each process it is planned for. The
# queue then evens out projects of unequal size and CPUs of unequal speed,
# where one range per process left the worker of a 4-project export idle for
# a third of the parallel part. A unit costs far less than a process: its
# cuts (a few dozen planner probes, about 10-20 us each), its open of the
# export and its own result to pickle.
UNITS_PER_PROCESS = 4
# A probe of the cut planner reads at most this many lines of at most
# this many bytes each, so that planning never reads much of an export.
PROBE_LINES = 64
PROBE_BYTES = 1 << 16


def _own_cgroups(own: str) -> tuple[str, str]:
    """This process's cgroup paths, (v2, v1 cpu controller), read from own
    (/proc/self/cgroup); "/" for one not listed."""
    v2 = v1 = "/"
    try:
        with open(own) as fh:
            for line in fh:
                _, controllers, path = line.rstrip("\n").split(":", 2)
                if not controllers:
                    v2 = path
                elif "cpu" in controllers.split(","):
                    v1 = path
    except (OSError, ValueError):
        pass
    return v2, v1


def _up_to(base: str, path: str) -> list[str]:
    """The directory of cgroup path under base, then each parent up to base."""
    parts = [part for part in path.split("/") if part not in ("", ".")]
    if ".." in parts:  # outside the cgroup namespace: only base is known
        parts = []
    return [os.path.join(base, *parts[:n]) for n in range(len(parts), -1, -1)]


def _quota_share(directory: str, v1: bool) -> float | None:
    """The CPUs the quota set in one cgroup directory allows; None if none is."""
    try:
        if v1:
            with open(os.path.join(directory, "cpu.cfs_quota_us")) as fq, \
                    open(os.path.join(directory, "cpu.cfs_period_us")) as fp:
                quota, period = fq.read(), fp.read()
        else:
            with open(os.path.join(directory, "cpu.max")) as fh:
                quota, period = fh.read().split()
        share = int(quota) / int(period)
    # no file, or "max" (v2) or -1 (v1): no quota
    except (OSError, ValueError, ZeroDivisionError):
        return None
    return share if share > 0 else None


def cpu_quota(root: str = "/sys/fs/cgroup", own: str = "/proc/self/cgroup") -> int | None:
    """The whole CPUs, at least one, that the CPU quotas over this process allow.

    This process's cgroup is read from own: cgroup v2's "0::" line and the
    v1 line of the cpu controller. Every quota set from that cgroup up to
    root counts, v2's cpu.max under root and v1's CFS quota under root/cpu,
    and the smallest wins. A level whose directory is not there (a container
    sees its own cgroup as root) is skipped. None if nothing caps the CPU.
    """
    v2, v1 = _own_cgroups(own)
    levels = [(directory, False) for directory in _up_to(root, v2)]
    levels += [(directory, True) for directory in _up_to(os.path.join(root, "cpu"), v1)]
    shares = [share for directory, is_v1 in levels
              if (share := _quota_share(directory, is_v1)) is not None]
    return max(1, int(min(shares))) if shares else None


def _own_stat(field: int) -> int | None:
    """Field field (counted from 1) of /proc/self/stat, where Linux has it."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            # counted past field 2, the command name, which may hold anything
            return int(fh.read().rsplit(b")", 1)[1].split()[field - 3])
    except (OSError, ValueError, IndexError):
        return None


def thread_count() -> int:
    """This process's threads; as the OS counts them where it can, which
    also counts a joined thread that is still exiting, and threads that
    Python did not start."""
    count = _own_stat(20)
    if count is None:
        threading = sys.modules.get("threading")
        count = threading.active_count() if threading is not None else 1
    return count


def usable_cpus() -> int:
    """How many processes may work at once: one per CPU of the affinity
    mask, no more than the cgroup quotas allow.

    One where os.fork or CPU placement is missing, or where another thread
    is alive (a forked child keeps only the thread that forked).
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if thread_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0))
    return min(cpus, cpu_quota() or cpus)


def range_count(fh: IO[bytes]) -> int:
    """How many units a scan of fh is cut into: UNITS_PER_PROCESS for each
    process it is planned for, one per usable CPU.

    One, unless fh is a regular file and each process would scan at least
    MIN_RANGE_BYTES; never planned for more than MAX_RANGES processes.
    """
    status = os.fstat(fh.fileno())
    if not stat.S_ISREG(status.st_mode):
        return 1
    processes = min(usable_cpus(), MAX_RANGES, status.st_size // MIN_RANGE_BYTES)
    return UNITS_PER_PROCESS * processes if processes > 1 else 1


def planned_processes(units: int) -> int:
    """The processes a scan of units is planned for: one for each
    UNITS_PER_PROCESS units, as range_count plans them, or one for each
    unit of a count that is no such plan."""
    processes, rest = divmod(units, UNITS_PER_PROCESS)
    return units if rest else processes


class _NoCut(Exception):
    """A probe of the cut planner would read more than it may."""


def _probe_line(fh: IO[bytes]) -> bytes:
    line = fh.readline(PROBE_BYTES)
    if len(line) == PROBE_BYTES:
        raise _NoCut
    return line


class _Probes:
    """What one plan has read of fh, by line start: the project of the first
    record at or after it, None past the last record, and the start of the
    line after that record. Each line start is probed at most once.

    Each line is read by parse_export_stream, so what counts as a record
    here is what counts in the scan.
    """

    def __init__(self, fh: IO[bytes], size: int, project: str) -> None:
        self.fh, self.size, self.project = fh, size, project
        self.found: dict[int, tuple[str | None, int]] = {size: (None, size)}
        self.starts = [size]  # the keys of found, in order

    def line(self, offset: int) -> int:
        """The first line start at or after offset."""
        if offset <= 0:
            return 0
        self.fh.seek(offset - 1)
        _probe_line(self.fh)
        return self.fh.tell()

    def at(self, start: int) -> tuple[str | None, int]:
        """(project, end) of line start start; each line start read on the
        way to the record gets the same."""
        if start not in self.found:
            self.fh.seek(start)
            passed = [start]
            for _ in range(PROBE_LINES):
                line = _probe_line(self.fh)
                if not line:
                    found: tuple[str | None, int] = (None, passed[-1])
                    break
                records, _ = parse_export_stream((line,), self.project)
                if records:
                    found = (records[0].project, self.fh.tell())
                    break
                passed.append(self.fh.tell())
            else:
                raise _NoCut
            for passed_start in passed:
                if passed_start not in self.found:
                    self.found[passed_start] = found
                    bisect.insort(self.starts, passed_start)
        return self.found[start]


class _Side:
    """The search on one side of a target for the nearest project-run start:
    a line start whose project differs from that of the record before it.

    The start lies in [lo, hi], two line starts, and is found when they
    meet. Forward, lo ends a record of the target's project and hi's project
    is another; backward, lo ends a record of another project and hi's
    project is the target's.
    """

    def __init__(self, forward: bool, lo: int, hi: int, width: int) -> None:
        self.forward, self.lo, self.hi, self.width = forward, lo, hi, width

    def nearest(self, target: int) -> int:
        """The least distance from target that the run start may lie at."""
        return self.lo - target if self.forward else target - self.hi

    def step(self, probes: _Probes, here: str | None) -> None:
        """Probe once between lo and hi: width from the end nearer the target,
        the width doubling at each step, or in the middle once that is nearer."""
        middle = (self.lo + self.hi) // 2
        offset = min(middle, self.lo + self.width) if self.forward else max(
            middle, self.hi - self.width)
        self.width *= 2
        start = probes.line(offset)
        if start >= self.hi:  # no line starts in [offset, hi)
            if offset != middle:
                return
            start = self.lo
        project, end = probes.at(start)
        if (project != here) == self.forward:
            self.hi = start
        else:
            self.lo = end


def _nearest_run_start(probes: _Probes, target: int) -> int | None:
    """The project-run start nearest to target, None if there is none.

    On each side, the probes of earlier targets bound the search: the nearest
    whose project differs from the target's, and those of the target's
    project short of it. The side that may hold the nearer run start is
    probed next, so that only the nearer is searched to its end.
    """
    start = probes.line(target)
    here, end = probes.at(start)
    width = max(end - start, 1)  # past the last line, end is start
    starts, found = probes.starts, probes.found
    sides = []
    if here is not None:  # else no record, and no run start, follows
        after = starts[bisect.bisect_right(starts, start):]
        hi = next(known for known in after if found[known][0] != here)
        lo = max([end, *(found[known][1] for known in after if known < hi)])
        sides.append(_Side(True, lo, hi, width))
    hi = start
    for known in reversed(starts[:bisect.bisect_left(starts, start)]):
        if found[known][0] != here:
            sides.append(_Side(False, found[known][1], hi, width))
            break
        hi = known
    while sides:
        side = min(sides, key=lambda side: side.nearest(target))
        if side.lo == side.hi:
            return side.hi
        side.step(probes, here)
    return None


def plan_ranges(fh: IO[bytes], size: int, project: str, count: int) -> list[tuple[int, int]]:
    """Cut the size bytes of fh into at most count line-aligned ranges.

    Each cut is the project-run start nearest to size*k/count, so that on
    an export that lists each project's commits together, every project
    falls in one range; targets inside one project find the same start. A
    run past the last record (blank or rejected lines only) counts as a run
    of its own. A line of PROBE_BYTES or more, or PROBE_LINES lines without
    a record, where a probe reads leaves the file in one range.
    """
    probes = _Probes(fh, size, project)
    cuts = set()
    try:
        probes.at(0)  # so that every search has a probe below it
        for k in range(1, count):
            cut = _nearest_run_start(probes, size * k // count)
            if cut is not None:
                cuts.add(cut)
    except _NoCut:
        cuts.clear()
    bounds = [0, *sorted(cuts - {0, size}), size]
    return list(zip(bounds, bounds[1:]))


def _own_cpu(cpus: list[int]) -> int:
    """The CPU of cpus this process runs on (read on Linux), else the first."""
    cpu = _own_stat(39)
    return cpu if cpu in cpus else cpus[0]


def _place(cpus: Collection[int]) -> None:
    """Run this process on cpus; a refusal only costs speed."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, cpus)


Work = Callable[[IO[bytes], IO[bytes]], None]


def _worker(work: Work, cpu: int, write_end: int, results: int, inherited: list[int]) -> NoReturn:
    """The life of a forked worker: close what it inherited, place itself,
    run work(out, file) with out its end of the pipe and file its results
    file, flush and close the file, then the pipe, exit."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        _place({cpu})
        # closed in reverse: the end of the pipe tells that the file is whole
        with open(write_end, "wb") as out, open(results, "wb") as file:
            work(out, file)
        code = 0
    finally:
        os._exit(code)


def _loaded(file: IO[bytes]) -> Iterator[object]:
    """The messages pickled to file, up to its end or a torn message."""
    import pickle

    while True:
        try:
            yield pickle.load(file)
        except (EOFError, pickle.UnpicklingError):
            return


def _messages(pipe: IO[bytes], results: IO[bytes]) -> Iterator[object]:
    """The messages a worker sent through its pipe, then, once the pipe is at
    its end, those it wrote to its results file, from the file's start."""
    yield from _loaded(pipe)
    pipe.read()  # after a torn message, too, the file is read only once the worker is gone
    results.seek(0)
    yield from _loaded(results)


@contextlib.contextmanager
def forked(count: int, work: Work) -> Iterator[dict[int, Iterator[object]]]:
    """Run work in up to count - 1 forked workers, each on a CPU of its own,
    while this process, on another, runs the block.

    Worker k (1 to count - 1) runs work(out, file) and exits: out is a
    buffered file on a pipe to this process, file one on an unlinked
    temporary file made for worker k before the fork. The block gets, by k,
    the messages each started worker pickled: those to out in the order
    written, then, once out is at its end (the worker has exited), those to
    file in the order written. So a worker never waits for this process to
    read what it writes to file. The messages end early where the worker
    failed. Workers stop being started where the file, os.pipe or os.fork
    fails. This process stays on the CPU it runs on, so that it does not
    move onto one that other work keeps busy; it is pinned there for the
    block, and its own CPUs are restored after it. On leaving the block, on
    every path, every pipe and file is closed and every worker killed if it
    still runs, and reaped.
    """
    import tempfile  # loads random and shutil, which only a parallel run needs

    cpus = os.sched_getaffinity(0)
    mine = _own_cpu(sorted(cpus))
    order = [mine, *sorted(cpus - {mine})]
    children: list[int] = []
    pipes: dict[int, IO[bytes]] = {}  # k: read end of worker k's pipe
    files: dict[int, IO[bytes]] = {}  # k: worker k's results file
    try:
        for k in range(1, count):
            try:
                files[k] = tempfile.TemporaryFile()
                read_end, write_end = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                break
            if pid == 0:
                inherited = [*pipes.values(), *(files[j] for j in pipes)]
                _worker(work, order[k % len(order)], write_end, files[k].fileno(),
                        [read_end, *(file.fileno() for file in inherited)])
            children.append(pid)
            os.close(write_end)
            pipes[k] = open(read_end, "rb")
        _place({order[0]})
        yield {k: _messages(pipe, files[k]) for k, pipe in pipes.items()}
    finally:
        for file in [*pipes.values(), *files.values()]:
            file.close()
        if children:
            import signal

            for pid in children:
                os.kill(pid, signal.SIGKILL)  # safe once it exited: it is not reaped yet
                os.waitpid(pid, 0)
        _place(cpus)


class _Queue:
    """Indices in an unlinked file, in the order given, each taken by exactly
    one of the processes that read it.

    Each index is WIDTH bytes. The file is written whole before any worker
    is forked, so every process reads through one inherited open file
    description, and Linux (3.14 and later) moves a shared file offset
    atomically on each read: a read of WIDTH bytes takes one whole index,
    and a read at the end of the file finds the end of the queue.
    """

    WIDTH = 4

    def __init__(self, indices: Iterable[int]) -> None:
        import tempfile  # loads random and shutil, which only a parallel run needs

        self.file = tempfile.TemporaryFile()
        try:
            self.file.write(b"".join(i.to_bytes(self.WIDTH, "big") for i in indices))
            self.file.seek(0)
        except BaseException:
            self.file.close()
            raise

    def __iter__(self) -> Iterator[int]:
        while taken := os.read(self.file.fileno(), self.WIDTH):
            yield int.from_bytes(taken, "big")

    def __enter__(self) -> _Queue:
        return self

    def __exit__(self, *exc: object) -> None:
        self.file.close()


class Shared(Exception):
    """Two units of a share hold one key."""


Prepare = Callable[[int], tuple[Collection[Hashable], Callable[[], object]]]


def share(count: int, sizes: Sequence[int], prepare: Prepare) -> list[object]:
    """The results of units 0 to len(sizes) - 1, in that order, worked by up
    to count processes at once, each on a CPU of its own.

    Unit i is sizes[i] large, and on every path the units are taken largest
    first, ties in index order, so that the largest does not start last.
    prepare(i) does the first step of unit i and returns the unit's keys and
    a finish() that returns its result. The processes are this one, which
    takes the largest unit before it forks, and forked workers, no more in
    all than usable_cpus() and the units. They take the other units one at a
    time from a _Queue, so that a large unit holds back only its own
    process. Each prepares every unit it takes. Once the queue is empty, a
    worker sends the keys of all its units in one message through its pipe,
    then finishes them and writes their results to its file: it writes
    nothing while it takes units, so a full pipe never holds it back from the
    queue, and it writes its results while this process works, without
    waiting for this process to read them. This process finishes no unit
    until every key is known, its own and those of units whose worker failed
    before sending theirs; it raises Shared, the workers killed, at the
    first key two units hold. A unit whose result no worker sent (one
    raised, was killed or never started, or the queue had no file) is
    worked here: a failed worker costs time, never a result.
    """
    import pickle  # imported once here, not in every worker

    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    owner: dict[Hashable, int] = {}
    results: dict[int, object] = {}

    def claim(i: int, keys: Collection[Hashable]) -> None:
        for key in keys:
            if owner.setdefault(key, i) != i:
                raise Shared(key)

    def take(i: int) -> Callable[[], object]:
        keys, finish = prepare(i)
        claim(i, keys)
        return finish

    def work(out: IO[bytes], file: IO[bytes]) -> None:
        held = [(i, *prepare(i)) for i in queue]
        pickle.dump([(i, keys) for i, keys, _ in held], out, pickle.HIGHEST_PROTOCOL)
        out.flush()  # every key is sent before any unit is finished
        for i, _, finish in held:
            pickle.dump((i, finish()), file, pickle.HIGHEST_PROTOCOL)
            file.flush()  # so that a worker killed later has still sent it

    processes = min(count, usable_cpus(), len(sizes))
    queue = None
    if processes > 1:
        with contextlib.suppress(OSError):  # no file leaves every unit to the end
            queue = _Queue(order)
    if queue is not None:
        with queue:
            first = next(iter(queue))  # taken before the fork, so the largest is this process's
            with forked(processes, work) as workers:
                held = {first: take(first)}
                for i in queue:
                    held[i] = take(i)
                sent = set()
                for messages in workers.values():
                    for i, keys in next(messages, ()):
                        claim(i, keys)
                        sent.add(i)
                lost = [i for i in order if i not in held and i not in sent]
                held.update((i, take(i)) for i in lost)  # their workers failed before sending keys
                results.update((i, finish()) for i, finish in held.items())
                for messages in workers.values():
                    results.update(messages)
    rest = {i: take(i) for i in order if i not in results}  # every key before any finish
    return [results[i] if i in results else rest[i]() for i in range(len(sizes))]
