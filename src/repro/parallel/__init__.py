"""Parallel orchestration of independent simulation runs.

The sweep workloads behind the paper's validation experiments are
embarrassingly parallel -- one exact computation per phase offset, one
DES replay per spot-check, one event-driven run per scenario grid
point.  This package shards them across worker processes while
guaranteeing results *bit-identical* to the serial path (same iteration
order, same tie-breaking, same derived seeds), so everything downstream
-- tier-1 tests, paper-figure reproductions -- is unchanged, only
faster.

* :class:`ParallelSweep` -- the executor: chunked offset sweeps with
  order-stable merging, one-submission-per-offset DES spot-checks, and
  cost-model-sorted work-stealing scenario grids
  (:mod:`repro.parallel.schedule`).  The *kernel* each worker runs is a
  pluggable :mod:`repro.backends` selection
  (``backend="auto"|"python"|"numpy"``): this package owns process
  orchestration, the backends package owns the math.
* :class:`ListeningCache` -- a receiver's precomputed periodic
  listening pattern, the input the ``numpy`` kernel decodes against
  (the ``python`` kernel is the uncached reference and reads none).
* :func:`get_listening_cache` -- the process-wide keyed registry
  (protocol fingerprint -> pattern) behind it.
* :func:`derive_seed` -- chunking- and scheduling-invariant per-item
  seeding.
* :func:`fit_cost_weights` -- fit the event-rate cost model's
  seconds-per-event weights to measured per-scenario wall-clock
  (``results/BENCH_parallel.json``); the bench re-derives the ladder's
  checked-in ``REFERENCE_WEIGHTS`` with it.  Nothing installs fitted
  weights at runtime: grid ranking uses unit weights and the ladder
  the constant.

Cache invalidation contract
---------------------------

Registry keys are :func:`protocol_fingerprint` content hashes of
immutable schedule objects, so **entries can never go stale**: a
protocol cannot be mutated, only replaced by a new object with a new
fingerprint.  :func:`invalidate_listening_caches` exists to reclaim
memory (or force cold rebuilds in benchmarks), never for correctness;
the registry additionally self-bounds via LRU eviction at a fixed cap.
Forked workers inherit the parent registry (safe: entries are
immutable); spawned workers start empty and build each pattern on
first use.

Process-runtime contract
------------------------

``jobs`` is the only parallelism setting.  ``jobs <= 1`` runs every
verb in-process.  ``jobs > 1`` sends every sharded batch -- offset
sweeps, DES spot-check batches above the ``_SPOT_POOL_MIN_EVENTS``
estimated-event floor, and scenario grids -- to the **persistent**
pool of :mod:`repro.backends.pooled`, shared per
``(kernel, jobs, mp_context)``: created lazily on the first sharded
batch, reused across batches and executors, shut down explicitly via
``PooledBackend.close()`` / ``shutdown_pooled_backends()`` (or the
owning ``Session.__exit__``) with an ``atexit`` backstop so no
interpreter exit leaks worker processes.  A custom kernel instance
that is not registered cannot be named inside a worker, so it keeps
everything in-process.

Persistent workers hold no per-sweep initializer state: work arrives
fully parameterized and patterns resolve through each worker's own
keyed registry, which stays warm across sweeps.  The parent builds no
pattern for a pooled sweep: a pattern is one linear pass over two
hyperperiods of windows and own-beacon blocks, cheap enough for every
worker to build its own.
"""

from .cache import (
    derive_seed,
    get_listening_cache,
    invalidate_listening_caches,
    ListeningCache,
    listening_cache_stats,
    protocol_fingerprint,
)
from .executor import ParallelSweep
from .schedule import estimate_scenario_cost, fit_cost_weights, plan_longest_first

__all__ = [
    "derive_seed",
    "estimate_scenario_cost",
    "fit_cost_weights",
    "get_listening_cache",
    "invalidate_listening_caches",
    "ListeningCache",
    "listening_cache_stats",
    "ParallelSweep",
    "plan_longest_first",
    "protocol_fingerprint",
]
