"""CPU time and peak memory of a process and all its descendants.

Reaped children are covered by ``getrusage(RUSAGE_CHILDREN)``; children
still alive (a started backend pool, the shared-memory resource
tracker) are read from ``/proc``.  A child counted live at one sample
and reaped by the next moves from the second term to the first, so
differences of :func:`cpu_seconds` stay correct across pool restarts.
"""

from __future__ import annotations

import ctypes
import os
import resource
import signal
import threading
import time

_TICKS = os.sysconf("SC_CLK_TCK")
#: prctl(2) option that re-parents orphaned descendants to the caller.
_PR_SET_CHILD_SUBREAPER = 36


def _stat_fields(pid: int) -> "list[str] | None":
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode()
    except OSError:
        return None
    # The command name may contain spaces; fields resume after its ')'.
    return raw[raw.rindex(")") + 2:].split()


def descendants(root: "int | None" = None) -> "list[int]":
    """Live descendant pids of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    found, todo = [], [root]
    while todo:
        for child in children.get(todo.pop(), ()):
            found.append(child)
            todo.append(child)
    return found


def become_subreaper() -> bool:
    """Make this process the parent of its orphaned descendants.

    A helper whose parent exits first (the shared-memory resource
    tracker of an exited session, a pool worker of a killed one) is
    then re-parented here instead of to init, so
    :func:`reap_descendants` can wait for it.  Linux only; False where
    the call is not available.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def reap_descendants(grace: float = 10.0) -> "list[int]":
    """Wait until this process has no child left, running or zombie.

    Children still running after ``grace`` seconds are killed.  In a
    subreaper every descendant ends up as a child, so none outlives
    this call.  Returns the pids that had to be killed.
    """
    deadline = time.monotonic() + grace
    killed: list[int] = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in descendants():
                try:
                    os.kill(child, signal.SIGKILL)
                    killed.append(child)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)


def cpu_seconds() -> float:
    """User+system CPU of this process and every descendant so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    for pid in descendants():
        fields = _stat_fields(pid)
        if fields is not None:
            # utime, stime, cutime, cstime (fields 14-17 of proc(5)).
            total += sum(int(v) for v in fields[11:15]) / _TICKS
    return total


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _clear_peak(pid: int) -> None:
    """Reset ``pid``'s VmHWM to its current RSS (proc(5) clear_refs)."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


class PeakSampler:
    """Peak RSS of one iteration: this process plus its largest child.

    :meth:`start` resets the peak of this process and of every live
    descendant; a thread then reads each descendant's ``VmHWM`` every
    ``interval`` seconds, so children that start and exit within the
    iteration (the placed servers' pools) are seen too.  A peak per
    iteration, rather than one over the whole run, does not grow with
    the number of iterations a run happens to fit.
    """

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self._largest = 0
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    def start(self) -> None:
        _clear_peak(os.getpid())
        for pid in descendants():
            _clear_peak(pid)
        self._largest = 0
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        for pid in descendants():
            self._largest = max(self._largest, _vm_hwm_kib(pid))

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def stop(self) -> "tuple[float, float]":
        """End the iteration; (own peak, largest child's peak) in MB."""
        self._stop.set()
        self._thread.join()
        self._sample()
        return _vm_hwm_kib(os.getpid()) / 1024.0, self._largest / 1024.0


def cpu_ticks() -> "tuple[int, int]":
    """(steal, total) jiffies of the whole machine, from ``/proc/stat``.

    Steal is time the hypervisor gave this VM's CPUs to someone else;
    its share over a run explains wall-time drift between runs that no
    change to the program caused.
    """
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:9]]
    return fields[7], sum(fields)
