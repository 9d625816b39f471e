"""Work split with one child made by ``os.fork``: trajectory io's large
saves and loads (``io``) and verify's checks (``verify``) use it.
``ChildProcessError`` is the one signal that a split failed; each caller
then runs its serial code, which raises the serial error."""

from __future__ import annotations

import contextlib
import os
import pickle
import sys
import tempfile

# SIGKILL is 9 on every POSIX system; the signal module is not loaded for it
_SIGKILL = 9


def _fork_helps() -> bool:
    """Whether work can be split with a child made by ``os.fork``: the
    platform has it, Python is older than 3.12 and a second CPU is usable."""
    # From Python 3.12 os.fork warns in a process with threads, such as
    # OpenBLAS's pool; silencing that would swap the process-wide warning
    # filters, so 3.12 and later stay serial until the fork is checked there
    if sys.version_info >= (3, 12) or not hasattr(os, "fork"):
        return False
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def _current_cpu() -> int | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat), or
    None where that cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            # the command name in field 2 may hold spaces and ")"
            return int(fh.read().rpartition(b")")[2].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _child_cpus(usable: set[int], current: int | None) -> set[int] | None:
    """The CPUs a forked child is placed on: the usable ones other than its
    parent's ``current``, or None (it stays where it was placed) when that
    CPU is unknown or no other one is usable."""
    if current is None:
        return None
    return set(usable) - {current} or None


@contextlib.contextmanager
def _forked(work, directory: str | None = None):
    """Run ``work(part)`` in a child made by ``os.fork`` while the block runs;
    ``part`` is an anonymous binary temp file in ``directory`` (by default
    the temp directory) that takes the child's output.

    Yields a function that waits for the child and returns ``part`` at its
    start.  ``ChildProcessError`` means the split failed: entry raises it,
    chained from the ``OSError``, when no temp file or no child could be
    made, and the wait raises it when ``work`` raised in the child.  The
    child runs on the usable CPUs other than the one this process is on, so
    that the scheduler does not leave both on one CPU; it runs where it was
    placed when that CPU is unknown or the affinity cannot be set.  The
    child ends in ``os._exit``, 0 if ``work`` returned and 1 if it raised,
    so it runs no exit handler and flushes no buffer it inherited.  Leaving
    the block kills and reaps a child not yet waited for, also when the
    block raises or is interrupted, and closes ``part``.
    """
    part = status = cpus = None
    if hasattr(os, "sched_setaffinity"):
        cpus = _child_cpus(os.sched_getaffinity(0), _current_cpu())
    try:
        part = tempfile.TemporaryFile(dir=directory)
        pid = os.fork()
    except OSError as exc:
        if part is not None:
            part.close()
        raise ChildProcessError(f"no child for the split: {exc}") from exc
    if pid == 0:
        code = 1
        try:
            if cpus is not None:
                with contextlib.suppress(OSError):
                    os.sched_setaffinity(0, cpus)
            work(part)
            part.flush()
            code = 0
        finally:
            os._exit(code)

    def wait():
        nonlocal status
        if status is None:
            status = os.waitpid(pid, 0)[1]
        if status:
            raise ChildProcessError(f"the split's child ended with wait status {status}")
        part.seek(0)
        return part

    try:
        yield wait
    finally:
        if status is None:
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
        part.close()


def _unpickled(part):
    """The objects pickled to ``part`` from its current offset on, in order."""
    while part.peek(1):
        yield pickle.load(part)
