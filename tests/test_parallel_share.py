"""``parallel.share``, the one driver of both parallel commands, on toy units.

Each unit's result names the process that finished it, so the tests can
see where the work ran as well as what came back.
"""

import os
import signal
import time

import pytest

from chronolint import parallel

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def units_of(keys, parent, kill=None):
    """A prepare over units whose keys are keys[i], that records in this
    process the units it prepares and finishes, and that, in a worker,
    kills itself on kill: ("prepare" or "finish", unit). This process is
    slow on unit 0, so that the workers take most of the others."""
    prepared, finished = [], []

    def prepare(i):
        if os.getpid() != parent and kill == ("prepare", i):
            os.kill(os.getpid(), signal.SIGKILL)
        if os.getpid() == parent:
            prepared.append(i)
            time.sleep(0.1 if i == 0 else 0)

        def finish():
            if os.getpid() != parent and kill == ("finish", i):
                os.kill(os.getpid(), signal.SIGKILL)
            if os.getpid() == parent:
                finished.append(i)
            return i * i, os.getpid()

        return keys[i], finish

    return prepare, prepared, finished


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.usefixtures("four_cpus")
class TestShare:
    @pytest.mark.parametrize("count, units", [(2, 2), (3, 7), (4, 3), (4, 40)])
    def test_unit_0_is_this_processes(self, count, units):
        parent = os.getpid()
        for _ in range(5):
            prepare, prepared, finished = units_of([[i] for i in range(units)], parent)
            results = parallel.share(count, [0] * units, prepare)
            assert [square for square, _ in results] == [i * i for i in range(units)]
            assert results[0][1] == parent
            assert prepared[0] == 0 and 0 in finished
        assert_no_children()

    def test_this_process_takes_the_largest_unit(self):
        """Units go out largest first, ties in index order, and their
        results come back in index order."""
        parent = os.getpid()
        for _ in range(5):
            prepare, prepared, _ = units_of([[i] for i in range(4)], parent)
            results = parallel.share(2, [1, 5, 3, 5], prepare)
            assert [square for square, _ in results] == [0, 1, 4, 9]
            assert prepared[0] == 1 and results[1][1] == parent
        assert_no_children()

    def test_workers_take_units(self):
        parent = os.getpid()
        prepare, prepared, _ = units_of([()] * 40, parent)
        results = parallel.share(3, [0] * 40, prepare)
        assert {pid for _, pid in results} - {parent}
        assert len(prepared) < 40

    @pytest.mark.parametrize("shared", [(0, 1), (0, 5), (3, 4)])
    def test_shared_key_raises_before_any_finish(self, shared):
        parent = os.getpid()
        keys = [[f"k{i}"] for i in range(6)]
        for i in shared:
            keys[i].append("both")
        prepare, _, finished = units_of(keys, parent)
        with pytest.raises(parallel.Shared):
            parallel.share(3, [0] * 6, prepare)
        assert finished == []
        assert_no_children()

    @pytest.mark.parametrize("unit", [1, 5])
    def test_shared_key_of_a_lost_unit_raises_before_any_finish(self, unit):
        """The keys of a unit whose worker died before sending them are
        claimed here before this process finishes any unit."""
        parent = os.getpid()
        keys = [[f"k{i}"] for i in range(6)]
        for i in (0, unit):
            keys[i].append("both")
        prepare, _, finished = units_of(keys, parent, kill=("prepare", unit))
        with pytest.raises(parallel.Shared):
            parallel.share(3, [0] * 6, prepare)
        assert finished == []
        assert_no_children()

    def test_workers_take_their_share_of_many_units(self):
        """A worker writes nothing while it takes units, so it takes its
        share of many, not only as many as its messages fit in a pipe."""
        parent = os.getpid()
        units = 20000

        def prepare(i):
            time.sleep(0.00005)
            return (), os.getpid

        results = parallel.share(2, [0] * units, prepare)
        assert results.count(parent) < 0.65 * units
        assert_no_children()

    @pytest.mark.parametrize("step", ["prepare", "finish"])
    @pytest.mark.parametrize("unit", [1, 2, 5])
    def test_killed_worker_costs_no_result(self, step, unit):
        """A worker killed before it sent a unit's keys, or after, leaves
        every result once, the same as in one process."""
        parent = os.getpid()
        keys = [[f"k{i}"] for i in range(6)]
        alone, _, _ = units_of(keys, parent)
        expected = [square for square, _ in parallel.share(1, [0] * 6, alone)]
        prepare, prepared, finished = units_of(keys, parent, kill=(step, unit))
        results = parallel.share(3, [0] * 6, prepare)
        assert [square for square, _ in results] == expected
        assert results[unit][1] == parent
        assert unit in prepared and finished.count(unit) == 1
        assert_no_children()

    def test_one_process_without_fork(self, monkeypatch):
        """Units are prepared largest first, ties in index order, and their
        results come back in index order."""
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        monkeypatch.setattr(parallel, "forked", None)  # a call would fail
        parent = os.getpid()
        for sizes, order in [([0] * 4, [0, 1, 2, 3]), ([1, 5, 3, 5], [1, 3, 2, 0])]:
            prepare, prepared, finished = units_of([[i] for i in range(4)], parent)
            results = parallel.share(4, sizes, prepare)
            assert results == [(i * i, parent) for i in range(4)]
            assert prepared == order and finished == [0, 1, 2, 3]


@needs_fork
@pytest.mark.usefixtures("four_cpus")
class TestResultsFile:
    """A worker writes its results to a file of its own, not to its pipe."""

    @pytest.mark.skipif(not hasattr(os, "waitid"), reason="needs os.waitid")
    def test_large_result_does_not_wait_for_this_process(self):
        """A worker whose units return 1 MB each has exited while this process
        is still inside its own finish: no result waits for this process to
        read it, as one would in a pipe's 64 KiB."""
        parent = os.getpid()
        seen = []

        def exited_child():
            """A child that has exited and is not reaped yet, left so."""
            return os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)

        def prepare(i):
            if os.getpid() == parent and i == 0:
                time.sleep(0.2)  # the worker takes the other units

            def finish():
                if os.getpid() == parent:
                    deadline = time.monotonic() + 5
                    while (child := exited_child()) is None and time.monotonic() < deadline:
                        time.sleep(0.01)
                    seen.append(child)
                return i * i, os.getpid(), bytes(1 << 20)

            return [i], finish

        results = parallel.share(2, [0] * 3, prepare)
        assert [(square, len(payload)) for square, _, payload in results] == [
            (i * i, 1 << 20) for i in range(3)]
        assert [pid for _, pid, _ in results].count(parent) < 3
        (child,) = seen
        assert child is not None and child.si_pid in {pid for _, pid, _ in results}
        assert_no_children()

    @pytest.mark.parametrize("end", ["killed", "killed mid-message", "write fails mid-message"])
    def test_worker_ended_after_writing_some_results(self, end):
        """A worker that wrote the results of two units and then ends, killed
        before the third or while it writes it, or exiting on a failed write
        of it, leaves every result once: the two it wrote, and the rest
        finished by this process."""
        parent = os.getpid()
        finished, written = [], []  # written counts in the worker only

        class Tear:
            """Ends the worker as it is pickled, partway through a message."""

            def __reduce__(self):
                if end == "killed mid-message":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise OSError(28, "No space left on device")

        def prepare(i):
            if os.getpid() == parent and i == 0:
                time.sleep(0.2)  # the worker takes the other units

            def finish():
                payload = bytes(1 << 18)  # past any write buffer, so it reaches the file
                if os.getpid() == parent:
                    finished.append(i)
                    return i * i, parent, payload
                written.append(i)
                if len(written) == 3:
                    if end == "killed":
                        os.kill(os.getpid(), signal.SIGKILL)
                    return i * i, os.getpid(), payload, Tear()
                return i * i, os.getpid(), payload

            return [i], finish

        results = parallel.share(2, [0] * 6, prepare)
        assert [square for square, *_ in results] == [i * i for i in range(6)]
        by_worker = [i for i, (_, pid, *_) in enumerate(results) if pid != parent]
        assert len(by_worker) == 2
        assert sorted(finished) == sorted(set(range(6)) - set(by_worker))
        assert_no_children()
