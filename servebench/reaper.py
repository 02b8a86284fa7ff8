"""Leave no process behind: adopt every descendant and reap it at exit.

The benchmark starts processes at two depths.  The server is a direct
child, but its replica workers and forkserver are grandchildren, and the
ledger's in-process replica pool starts multiprocessing's forkserver and
resource tracker as children of the benchmark itself -- helpers that
multiprocessing never stops before the interpreter exits.  A descendant
whose parent dies is normally re-parented to init and lost to us.

:func:`adopt_orphans` marks this process a child subreaper
(``PR_SET_CHILD_SUBREAPER``), so orphaned descendants are re-parented to
it instead.  :func:`reap_all` then stops the multiprocessing helpers
cleanly, kills whatever children remain and waits for every one of them
until none is left.
"""

from __future__ import annotations

import ctypes
import errno
import os
import signal
import time

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Make orphaned descendants children of this process (Linux only)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _children() -> list:
    """Pids whose parent is this process (zombies included)."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                raw = handle.read().decode("ascii", "replace")
        except OSError:
            continue
        if raw[raw.rfind(")") + 2 :].split()[1] == me:
            pids.append(int(entry))
    return pids


def _stop_multiprocessing_helpers() -> None:
    """Close the pipes of multiprocessing's forkserver and resource tracker
    and wait for both; each exits on the end of its pipe."""
    import multiprocessing.forkserver as forkserver
    import multiprocessing.resource_tracker as resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is None:
            continue
        try:
            stop()
        except (OSError, ChildProcessError):
            pass  # already gone; reap_all collects whatever is left


def reap_all(timeout_s: float = 20.0) -> None:
    """Stop every child of this process and wait until none is left."""
    _stop_multiprocessing_helpers()
    deadline = time.monotonic() + timeout_s
    while True:
        # Reap what has already exited without blocking.
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                break
        pids = _children()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError as error:
                if error.errno != errno.ESRCH:
                    raise
        if time.monotonic() > deadline:
            raise RuntimeError(f"servebench: children {pids} outlived the run")
        time.sleep(0.01)
