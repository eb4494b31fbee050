"""Stop and reap the processes a benchmark run starts.

The engine's process backend shuts its worker pool down without waiting
for the workers to exit, and shared memory (like the spawn-context pool
of the host probe) starts ``multiprocessing``'s resource tracker, a
helper process that by default outlives its parent for a moment.  The
benchmark waits for every such process before it goes on or exits, so
no run leaves a process behind that a later run could share the host
with.
"""

from __future__ import annotations

import os
import signal
import time
from multiprocessing import resource_tracker

#: seconds a process gets to end by itself before it is killed.
GRACE_S = 10.0


def _stat(pid: int) -> list[str] | None:
    """The fields of ``/proc/<pid>/stat`` after the command name."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def children() -> list[int]:
    """PIDs of this process's children, ended but unreaped ones too."""
    me = str(os.getpid())
    pids = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat(int(name))
            if fields is not None and fields[1] == me:
                pids.append(int(name))
    return pids


def _running(pid: int) -> bool:
    fields = _stat(pid)
    return fields is not None and fields[0] != "Z"


def wait_ended(pids: list[int], grace_s: float = GRACE_S) -> None:
    """Wait until every process in ``pids`` has ended; kill the ones
    still running after ``grace_s`` seconds and wait for them too."""
    deadline = time.monotonic() + grace_s
    killed = False
    pending = list(pids)
    while True:
        pending = [pid for pid in pending if _running(pid)]
        if not pending:
            return
        if not killed and time.monotonic() > deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
        time.sleep(0.01)


def _reap(pid: int) -> None:
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:  # already reaped, e.g. by a pool's own thread
        pass


def stop_all(grace_s: float = GRACE_S) -> None:
    """End and reap every child of this process, the resource tracker last.

    Pool workers go first: a worker forked while the tracker ran holds the
    tracker's pipe open, and the tracker only ends once that pipe closes.
    """
    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    wait_ended([pid for pid in children() if pid != tracker], grace_s)
    # Closes the tracker's pipe (it then frees any leaked segment and
    # exits) and waits for it.
    resource_tracker._resource_tracker._stop()
    for pid in children():
        wait_ended([pid], grace_s)
        _reap(pid)
