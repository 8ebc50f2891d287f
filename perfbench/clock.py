"""Clocks that leave out the time other processes kept a thread off the
CPU.  Standard library only: set-up helpers import it just before they
report, and its import counts in the set-up they time.

The numbers come from ``/proc/.../schedstat``: per thread, the time on
the CPU and the time spent runnable in the run queue.  Where the kernel
keeps no schedstat they read 0.0.
"""

from __future__ import annotations

import os
import time


def _schedstat(path: str, field: int) -> int:
    try:
        with open(path, encoding="ascii") as handle:
            return int(handle.read().split()[field])
    except (OSError, ValueError, IndexError):
        return 0  # no schedstat, or the thread ended meanwhile


def _process_sum(pid: int, field: int) -> float:
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0.0
    return sum(_schedstat(f"/proc/{pid}/task/{tid}/schedstat", field) for tid in tids) / 1e9


def runqueue_wait_s() -> float:
    """Seconds the calling thread has sat in the run queue since it
    started: runnable, but kept off the CPU by other threads."""
    return _schedstat("/proc/thread-self/schedstat", 1) / 1e9


def process_runqueue_wait_s(pid: int) -> float:
    """:func:`runqueue_wait_s` summed over every live thread of ``pid``
    (a thread that sleeps adds nothing)."""
    return _process_sum(pid, 1)


def process_cpu_s(pid: int) -> float:
    """Seconds on the CPU, summed over every live thread of ``pid``.
    Exact for a process that is asleep when read; for a running one it
    may lag by up to a scheduler tick."""
    return _process_sum(pid, 0)


def unqueued_clock() -> float:
    """Seconds of wall time less :func:`runqueue_wait_s`.

    Time spent sleeping, in I/O or waiting on another thread or process
    still counts; only other tenants' share of the CPUs drops out.  With
    three CPU hogs on a 2-vCPU host a fixed piece of work took 2.2x as
    long by ``perf_counter`` and 1.07x as long by this clock."""
    return time.perf_counter() - runqueue_wait_s()
