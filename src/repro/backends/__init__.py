"""Pluggable sweep-kernel backends behind one ``SweepBackend`` interface.

Every bound-validation experiment reduces to the same hot loop --
evaluate first-discovery latency at many phase offsets.  This package
inverts the dependency structure of PR 1-2: instead of callers
reaching into cache/evaluator internals, kernels implement
:meth:`SweepBackend.evaluate_offsets_batch(params, offsets)` and
register by name, and every layer above
(:class:`repro.parallel.ParallelSweep`, :class:`repro.api.Session`,
the CLI's ``--backend`` flag) selects one without knowing how it
computes.  There are two evaluators: the uncached reference
``analytic.evaluate_offsets``, which the ``python`` kernel wraps, and
the ``numpy`` kernel pinned against it.

Backend-selection contract
--------------------------

* ``"python"`` -- the analytic reference itself
  (:mod:`repro.backends.python_loop`): every batch is
  :func:`repro.simulation.analytic.evaluate_offsets`, with no pattern
  cache.  Always available; the correctness anchor every other backend
  is pinned bit-identical against by the equivalence zoo.
* ``"numpy"`` -- the vectorized kernel
  (:mod:`repro.backends.numpy_kernel`): the receiver's listening
  pattern as int64 arrays and one compacted-lane loop -- one batched
  ``np.searchsorted`` per beacon candidate over the offsets still
  unresolved, whose per-lane state is dropped as they resolve.
  ``NumpyBackend()`` takes no arguments.  Available only when NumPy is
  importable; requesting it without NumPy raises
  :class:`BackendUnavailable`.  NumPy is an *optional extra*
  (``pip install repro-nd[fast]``), never a hard dependency --
  :mod:`repro.backends._np` is the one import-guard shim every
  vectorizing module goes through.
* ``"auto"`` (or ``None``) -- :func:`default_backend_name`: ``numpy``
  when NumPy is importable, ``python`` fallback.  All defaults route
  through auto-detection, so installing the extra is the only step a
  deployment needs to get the fastest kernel everywhere.

Whatever the selection, results are **bit-identical** by contract: the
same ``DiscoveryOutcome`` sequence in the same order for every protocol
pair, reception model and turnaround guard.  Backends that cannot
vectorize a batch (non-integer schedules, disabled pattern caches,
oversized values) silently delegate to the ``python`` reference rather
than approximate.

The ``sweep_outcomes_batch`` contract
------------------------------------

:meth:`SweepBackend.sweep_outcomes_batch(params, offsets)
<SweepBackend.sweep_outcomes_batch>` is the one sweep primitive: it
returns the batch's :class:`~repro.simulation.analytic.SweepReport`
together with the per-offset outcomes the report reduces.

* **Report.**  Equal field for field to
  ``summarize_outcomes(evaluate_offsets_batch(params, offsets))``:
  worst-case ties go to the earliest offset in batch order, means are
  exact integer sums divided by their counts, and an empty batch gives
  the empty report.
* **Outcomes.**  A sequence aligned with ``offsets`` whose items equal
  ``evaluate_offsets_batch``'s.  It may build each outcome only when
  it is read: the ``numpy`` kernel keeps its two first-discovery
  vectors behind :class:`~repro.backends.numpy_kernel.DiscoveryVectors`
  and reduces the report from them without per-offset outcomes.

The base class provides exactly that composition as the default (the
reference; the ``python`` kernel keeps it), and the persistent pool
summarizes its workers' outcomes in the parent.
:meth:`repro.parallel.ParallelSweep.sweep_offsets` is one call to the
primitive; the worst-case engine reads its DES spot-checked offsets
from the outcomes, so its replays check the numbers it reports.

The ``enumerate_critical_offsets`` operation (PR 5)
---------------------------------------------------

Backends dispatch a second operation,
:meth:`SweepBackend.enumerate_critical_offsets(params, omega, max_count)
<SweepBackend.enumerate_critical_offsets>` -- the breakpoint
enumeration feeding ``verified_worst_case`` and
``sampling="critical"`` sweeps.  Its contract mirrors
``evaluate_offsets_batch``:

* **Inputs.**  Only ``params.protocol_e`` / ``params.protocol_f`` are
  read (breakpoint positions do not depend on horizon, reception model
  or turnaround); ``omega`` adds the packet-length-shifted window
  bounds, ``max_count`` is the explosion guard.
* **Bit-identity.**  Every implementation returns the identical sorted
  list of python ints as the reference
  (:func:`repro.backends.python_loop.enumerate_critical_offsets_reference`)
  -- the ``numpy`` kernel replaces the ``beacon_times x window_bounds``
  double loop with one broadcast modular subtraction per direction,
  vectorized ``+-1`` neighbours and ``np.unique`` dedup, but builds
  both boundary lists with the exact reference code so every input
  instant is the same integer.  Pinned by the property-based
  differential harness (``tests/test_critical_offsets_property.py``)
  across all 13 zoo families and by the bench smoke's hard exit gate.
* **Guard parity.**  The ``max_count`` guards raise ``ValueError`` at
  the same points with the same messages for every backend: a
  pre-enumeration product guard per direction (on the *deduplicated*
  window-bound count) and a cumulative set-size guard after each
  direction.
* **Delegation.**  The abstract base provides the reference as the
  default implementation, so custom kernels stay correct without
  opting in, and the numpy kernel falls back to the reference
  wholesale beyond its int64 headroom.  Enumeration always runs
  in-process: it is one pass, not a batch worth sharding.

Persistent-pool lifecycle
-------------------------

Process parallelism is not a backend: ``RuntimeProfile.jobs > 1`` runs
every sharded batch on the persistent
:class:`~repro.backends.pooled.PooledBackend` pool for the profile's
``(kernel, jobs, mp_context)``, whose workers run the selected kernel.
The pool creates **no processes until first sharded use**; it then
survives across batches (and across ``ParallelSweep`` instances, via
:func:`~repro.backends.pooled.get_pooled_backend`'s keyed sharing) so
worker-side pattern registries stay warm.  Shutdown is explicit --
``pool.close()``, the context-manager protocol, or
:func:`~repro.backends.pooled.shutdown_pooled_backends` (idempotent) --
with an ``atexit`` hook as the no-leak backstop for callers that hold
no session.

The preferred owner is a :class:`repro.api.Session`: a ``jobs > 1``
session takes a :meth:`~repro.backends.pooled.PooledBackend.retain`
reference and releases it on ``__exit__``, so nested sessions sharing
one profile share one pool and the pool closes deterministically --
without ``atexit`` -- exactly when the last owning session exits.
Backend *selection* likewise flows from one
:class:`repro.api.RuntimeProfile` (``profile.backend``) or a
``ParallelSweep(backend=...)`` executor; no entry point takes a
per-call ``backend=`` kwarg.
"""

from .base import (
    available_backends,
    BackendUnavailable,
    CriticalSetTooLarge,
    default_backend_name,
    get_backend,
    register_backend,
    resolve_backend,
    SweepBackend,
    SweepParams,
)
from ._np import have_numpy, numpy_version
from .numpy_kernel import NumpyBackend
from .pooled import (
    get_pooled_backend,
    PooledBackend,
    shutdown_pooled_backends,
)
from .python_loop import PythonBackend

register_backend("python", PythonBackend)
register_backend("numpy", NumpyBackend)

__all__ = [
    "available_backends",
    "BackendUnavailable",
    "CriticalSetTooLarge",
    "default_backend_name",
    "get_backend",
    "get_pooled_backend",
    "have_numpy",
    "numpy_version",
    "NumpyBackend",
    "PooledBackend",
    "PythonBackend",
    "register_backend",
    "resolve_backend",
    "shutdown_pooled_backends",
    "SweepBackend",
    "SweepParams",
]
