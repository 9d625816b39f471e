"""Work split with one child made by ``os.fork``: trajectory io's large
saves and loads (``io``) and verify's checks (``verify``) use it.  The
child pickles the objects it produces to a temp file, and this process
iterates them in order.  ``ChildProcessError`` is the one signal that a
split failed.  Each caller tries the split in one ``with`` block that
returns from within, under ``contextlib.suppress``, and a failed split falls
through to the caller's serial code, which raises the serial error."""

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
def _forked(produce, directory: str | None = None):
    """Run ``produce()`` in a child made by ``os.fork`` while the block runs;
    the child pickles each object it yields to an anonymous binary temp file
    in ``directory`` (by default the temp directory).

    Yields an iterator over those objects, in order; it waits for the child
    when it is first advanced, so the block's own work runs beside the
    child's.  ``ChildProcessError`` means the split failed: entry raises it,
    chained from the ``OSError``, when no temp file or no child could be
    made, and the iterator raises it when the child did not write every
    object.  The child runs on the usable CPUs other than the one this
    process is on, so that the scheduler does not leave both on one CPU; it
    runs where it was placed when that CPU is unknown or the affinity cannot
    be set.  The child ends in ``os._exit``, 0 once every object is written
    and 1 if ``produce`` or a write raised, so it runs no exit handler and
    flushes no buffer it inherited.  Leaving the block kills and reaps a
    child not yet waited for, also when the block raises or is interrupted,
    and closes the file.
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
            for obj in produce():
                pickle.dump(obj, part, protocol=5)
            part.flush()
            code = 0
        finally:
            os._exit(code)

    def objects():
        nonlocal status
        status = os.waitpid(pid, 0)[1]
        if status:
            raise ChildProcessError(f"the split's child ended with wait status {status}")
        part.seek(0)
        while part.peek(1):
            yield pickle.load(part)

    try:
        yield objects()
    finally:
        if status is None:
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
        part.close()
