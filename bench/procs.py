"""Child processes with their own peak RSS, and a clock shared between processes."""

from __future__ import annotations

import functools
import os
import signal
import subprocess
import threading
import time


def now():
    """CLOCK_MONOTONIC seconds: comparable between processes on one machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(argv, env, cwd, stdout_path, timeout, own_group=True):
    """Run argv to completion with stdout in a file; return (exit code, peak RSS in KiB).

    The child is reaped with os.wait4, which gives the peak RSS of this
    child alone; RUSAGE_CHILDREN would keep the maximum over every earlier
    child.  With own_group the child leads a new process group, so a
    timeout kills it together with anything it started; without, it stays
    in ours, so killing our group kills it too.  A killed child reports -9.
    """
    with open(stdout_path, "wb") as out:
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out,
                                stdin=subprocess.DEVNULL, start_new_session=own_group)
    kill = functools.partial(_kill_group if own_group else _kill, proc.pid)
    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped
    return proc.returncode, usage.ru_maxrss


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
