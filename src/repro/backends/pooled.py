"""The persistent worker pool: the one process runtime.

Scenario grids are the one batch that runs on :class:`PooledBackend`,
a **lazily created, explicitly shut-down** ``ProcessPoolExecutor``:
:meth:`repro.parallel.ParallelSweep.map_scenarios` and the service
daemon's checkpointed grid submit one network simulation per task.
Offset sweeps and DES spot checks always run in-process, whatever
``RuntimeProfile.jobs`` is: measured on 2 vCPUs, the pool lost every
numpy-kernel sweep and bench-horizon spot-check row
(:mod:`repro.parallel.executor` has the numbers).

* **Lazy creation** -- no processes exist until the first grid of two
  or more scenarios arrives.
* **Reuse** -- the executor survives across grids (and across
  :class:`repro.parallel.ParallelSweep` instances via
  :func:`get_pooled_backend`'s sharing keyed by ``(jobs, mp_context)``),
  so successive small grids stop paying pool startup.
* **Explicit shutdown** -- :meth:`PooledBackend.close` (or the context
  manager protocol, or module-wide :func:`shutdown_pooled_backends`)
  terminates the workers deterministically; an ``atexit`` hook is the
  backstop so no interpreter exit ever leaks processes.

Work ships through module-level functions, so everything pickles under
fork and spawn, and no per-task initializer state exists.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "PooledBackend",
    "get_pooled_backend",
    "shutdown_pooled_backends",
]


def _default_mp_context() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _pool_worker_init() -> None:
    """Detach inherited asyncio signal plumbing in fork-start workers.

    A fork-context worker forked from a process running an asyncio
    event loop inherits the loop's signal wakeup fd -- one end of a
    socketpair the parent's loop reads.  Any signal delivered to such a
    worker (e.g. the SIGTERM ``ProcessPoolExecutor``'s broken-pool
    cleanup sends to survivors) would be written into that shared pipe
    and dispatched by the *parent's* loop as if the parent had received
    it: a serve daemon would shut itself down whenever one pool child
    died.  Resetting the wakeup fd and the handler dispositions
    confines worker signals to the worker.  Harmless under spawn (no
    inherited state) and for loop-less parents (fd is already -1).
    """
    signal.set_wakeup_fd(-1)
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (OSError, ValueError):  # pragma: no cover - exotic hosts
            pass


class PooledBackend:
    """A persistent process pool for scenario grids."""

    def __init__(
        self, jobs: int | None = None, mp_context: str | None = None
    ) -> None:
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.mp_context = mp_context or _default_mp_context()
        self._executor: ProcessPoolExecutor | None = None
        self._session_refs = 0
        self._retain_generation = 0

    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Does a live worker pool exist right now?"""
        return self._executor is not None

    def executor(self) -> ProcessPoolExecutor:
        """The persistent pool, created on first use."""
        if self._executor is None:
            ctx = multiprocessing.get_context(self.mp_context)
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=ctx,
                initializer=_pool_worker_init,
            )
            _LIVE_POOLS.add(self)
            _register_atexit()
        return self._executor

    def submit(self, fn, /, *args, **kwargs):
        """Submit arbitrary picklable work to the persistent pool.

        The hook the grid drivers use: one network simulation per
        task.
        """
        return self.executor().submit(fn, *args, **kwargs)

    def close(self, wait: bool = True) -> None:
        """Shut the worker pool down (idempotent); the next grid lazily
        creates a fresh pool."""
        executor, self._executor = self._executor, None
        _LIVE_POOLS.discard(self)
        if executor is not None:
            executor.shutdown(wait=wait)

    #: ``shutdown`` is the conventional executor spelling.
    shutdown = close

    # ------------------------------------------------------------------
    @property
    def session_refs(self) -> int:
        """How many :class:`repro.api.Session` objects currently hold
        this backend (see :meth:`retain`)."""
        return self._session_refs

    def retain(self) -> int:
        """Register one owner of this (possibly shared) pool.

        :class:`repro.api.Session` retains the pooled backend it
        resolves and releases it on exit, so pool shutdown is
        deterministic without ``atexit``: the pool closes exactly when
        the *last* session holding it exits.  Returns a generation
        token to pass back to :meth:`release` -- a force
        :func:`shutdown_pooled_backends` bumps the generation, which
        voids outstanding tokens so a stale owner's later release can
        never steal a newer session's reference.
        """
        self._session_refs += 1
        return self._retain_generation

    def release(self, token: int | None = None, wait: bool = True) -> None:
        """Drop one :meth:`retain` reference; close the pool when the
        last one goes.

        ``token`` is the value :meth:`retain` returned; a stale token
        (the pool was force-shut-down and possibly re-retained since)
        makes the release a no-op instead of decrementing a *newer*
        owner's reference.  ``None`` releases unconditionally.  The
        count never goes negative and closing an already-closed pool is
        a no-op, so nested sessions sharing one profile can never
        double-shutdown a shared pool or leak its workers.
        """
        if token is not None and token != self._retain_generation:
            return  # voided by a force shutdown since this retain
        self._session_refs = max(0, self._session_refs - 1)
        if self._session_refs == 0:
            self.close(wait=wait)

    def __enter__(self) -> "PooledBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Shared instances: one persistent pool per (jobs, mp_context)
# ----------------------------------------------------------------------

_SHARED: dict[tuple, PooledBackend] = {}
_LIVE_POOLS: set[PooledBackend] = set()
_ATEXIT_REGISTERED = False


def _register_atexit() -> None:
    global _ATEXIT_REGISTERED
    if not _ATEXIT_REGISTERED:
        atexit.register(shutdown_pooled_backends)
        _ATEXIT_REGISTERED = True


def get_pooled_backend(
    jobs: int | None = None, mp_context: str | None = None
) -> PooledBackend:
    """The shared persistent-pool backend for this shape.

    Two callers asking for the same ``(jobs, mp_context)`` get the
    *same* instance -- and therefore the same worker pool -- which is
    what makes every ``jobs > 1`` :class:`repro.parallel.ParallelSweep`
    amortize startup across independent grids.  Construct
    :class:`PooledBackend` directly for a private pool.
    """
    key = (
        jobs if jobs is not None else (os.cpu_count() or 1),
        mp_context or _default_mp_context(),
    )
    backend = _SHARED.get(key)
    if backend is None:
        backend = PooledBackend(*key)
        _SHARED[key] = backend
    return backend


def shutdown_pooled_backends(wait: bool = True) -> int:
    """Explicitly shut down every live persistent pool.  **Idempotent.**

    Returns the number of pools that were actually running; a second
    call (or a call when nothing ever started) returns 0 and touches
    nothing.  This is a *force* shutdown: it also clears any session
    retain counts (see :meth:`PooledBackend.retain`), so sessions still
    holding a pool release cleanly afterwards -- their later
    :meth:`~PooledBackend.release` finds the count at zero and the pool
    already closed, which is a no-op.  Shared instances stay resolvable
    afterwards -- their next use lazily boots a fresh pool.  Registered
    via ``atexit`` as the no-leak backstop for non-session callers;
    session-managed pools close deterministically on ``Session.__exit__``.
    """
    live = list(_LIVE_POOLS)
    # Clear retain state on *every* reachable pool, not just started
    # ones: a session may have retained a lazily-created shared backend
    # whose pool never booted, and its stale reference must not survive
    # the force shutdown either.  Voiding the retain generation makes
    # such a session's later release a no-op instead of decrementing a
    # reference taken by a session created after this call.
    for backend in set(live) | set(_SHARED.values()):
        backend._session_refs = 0
        backend._retain_generation += 1
    for backend in live:
        backend.close(wait=wait)
    return len(live)
