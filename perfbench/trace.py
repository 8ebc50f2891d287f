"""Layer spans for the traced run, recorded from the benchmark's own files.

:func:`install` wraps the public entry point of every layer of the
program (``src/repro``) with a timing wrapper; nothing under ``src/`` is
edited.  Each call records one span -- name, start, end, parent span,
request id and a few counts -- in memory; :meth:`Tracer.dump` writes
them out when the run ends; spans of a forked worker process are not
recorded.  :func:`layer_metrics` turns spans into the
``<layer>.<op>.<stat>`` metrics ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path

from .common import median, percentile


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: collections.Counter = collections.Counter()
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        self._cache_base = None

    # ------------------------------------------------------------------
    def set_request(self, request) -> None:
        """Tag spans opened on this thread from now on with ``request``."""
        self._local.request = request

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs=None, request_of=None):
        stack = self._stack()
        if stack and stack[-1][1] == name:
            # A kernel delegating to another kernel of the same entry
            # point: one span, the outermost.
            return fn(*args, **kwargs)
        previous = getattr(self._local, "request", None)
        request = request_of(args) if request_of else previous
        self._local.request = request
        sid = os.getpid() * 1_000_000_000 + next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self._local.request = previous
        extra = attrs(args, kwargs, result) if attrs else {}
        span = {
            "id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "request": extra.pop("request", request),
            "attrs": extra,
        }
        self._record(span)
        return result

    def _record(self, span: dict) -> None:
        if os.getpid() == self.pid:
            with self._lock:
                self.spans.append(span)

    # ------------------------------------------------------------------
    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr, name, attrs=None, request_of=None) -> None:
        """Replace ``owner.attr`` (function, method, static- or
        classmethod) by a wrapper recording one ``name`` span per call."""
        original = owner.__dict__[attr]
        kind = type(original) if isinstance(
            original, (staticmethod, classmethod)
        ) else None
        func = original.__func__ if kind else original
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return tracer.call(name, func, args, kwargs, attrs, request_of)

        self._patch(owner, attr, kind(wrapper) if kind else wrapper)

    def restore(self) -> None:
        """Undo every wrapper (the program is untouched afterwards)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def cache_snapshot(self) -> None:
        """Fold the listening-cache registry's hit/miss delta since the
        previous snapshot into the counters."""
        from repro.parallel import listening_cache_stats

        stats = listening_cache_stats()
        base = self._cache_base or {"hits": 0, "misses": 0}
        if self._cache_base is not None:
            self.count("listening_cache.hits", stats["hits"] - base["hits"])
            self.count("listening_cache.misses", stats["misses"] - base["misses"])
        self._cache_base = stats

    def dump(self, path: Path) -> None:
        Path(path).write_text(
            json.dumps({"spans": self.spans, "counters": dict(self.counters)}),
            encoding="utf-8",
        )


def load(path: Path) -> tuple[list, dict]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return data["spans"], data["counters"]


# ----------------------------------------------------------------------
# The layer boundaries
# ----------------------------------------------------------------------
def _kernel_classes():
    from repro.backends import SweepBackend

    found, frontier = [], [SweepBackend]
    while frontier:
        cls = frontier.pop()
        found.append(cls)
        frontier.extend(cls.__subclasses__())
    return found


def _worst_case_attrs(args, kwargs, outcome) -> dict:
    if outcome.budget_ms is None:
        return {}
    estimated = sum(
        tier.get("estimated_ms", 0.0) for tier in outcome.tiers if tier.get("ran")
    )
    return {"estimated_ms": estimated}


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (in layer order:
    protocols, backends, parallel, simulation, api, store, campaign,
    service)."""
    from concurrent.futures import ProcessPoolExecutor

    import repro.backends.pooled as pooled_module
    import repro.parallel.executor as executor_module
    import repro.service.protocol as protocol_module
    import repro.service.service as service_module
    import repro.simulation.runner as runner_module
    from repro.api import RunResult, Session
    from repro.api import session as session_module
    from repro.campaign import CampaignRunner
    from repro.parallel import ParallelSweep
    from repro.service import SweepService
    from repro.store import ResultStore

    # protocols: pair and grid construction, where the session and the
    # service look the builders up.
    tracer.wrap(session_module, "build_pair", "protocols.build")
    tracer.wrap(session_module, "build_grid", "protocols.build")
    tracer.wrap(service_module, "build_grid", "protocols.build")

    # backends: the two kernel-dispatched operations, on every kernel.
    for cls in _kernel_classes():
        if "enumerate_critical_offsets" in cls.__dict__:
            tracer.wrap(
                cls, "enumerate_critical_offsets", "backends.enumerate",
                attrs=lambda a, k, r: {"offsets": len(r)},
            )
        if "evaluate_offsets_batch" in cls.__dict__:
            tracer.wrap(
                cls, "evaluate_offsets_batch", "backends.sweep",
                attrs=lambda a, k, r: {"offsets": len(r)},
            )

    # parallel: the executor's offset entry points and every pool boot.
    tracer.wrap(ParallelSweep, "sweep_offsets", "parallel.sweep")
    tracer.wrap(
        ParallelSweep, "spot_check_pairs", "parallel.spot_check",
        attrs=lambda a, k, r: {"replays": len(r)},
    )

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            tracer.count("pool.boots")
            super().__init__(*args, **kwargs)

    for module in (executor_module, pooled_module):
        tracer._patch(module, "ProcessPoolExecutor", CountingPool)
    tracer.cache_snapshot()

    # simulation: the worst-case engine.
    tracer.wrap(
        runner_module, "_verified_worst_case_impl", "simulation.worst_case",
        attrs=_worst_case_attrs,
    )

    # api: the session verbs and the result copy/serialize primitives.
    for verb in ("sweep", "worst_case", "grid", "simulate"):
        tracer.wrap(Session, verb, "api.session")
    tracer.wrap(RunResult, "clone", "api.result.clone")
    tracer.wrap(RunResult, "to_dict", "api.result.to_dict")
    tracer.wrap(RunResult, "from_dict", "api.result.from_dict")

    # store
    tracer.wrap(ResultStore, "fingerprint", "store.fingerprint")
    tracer.wrap(
        ResultStore, "get", "store.get",
        attrs=lambda a, k, r: {"hit": r is not None},
    )
    tracer.wrap(
        ResultStore, "put", "store.put",
        attrs=lambda a, k, r: {"bytes": r.stat().st_size},
    )

    # campaign
    tracer.wrap(
        CampaignRunner, "run", "campaign.run",
        attrs=lambda a, k, r: {"entries": len(r["entries"])},
    )

    # service: admission, compute attempts and the wire encoder; request
    # ids are the job ids the client sees in its responses.
    tracer.wrap(
        SweepService, "submit", "service.admit",
        attrs=lambda a, k, r: {"request": r.id},
    )
    tracer.wrap(
        SweepService, "_compute", "service.compute",
        request_of=lambda a: a[1].id,
    )
    tracer.wrap(
        protocol_module, "encode_frame", "service.wire.encode",
        attrs=lambda a, k, r: {"bytes": len(r)},
        request_of=lambda a: (a[0].get("job") or {}).get("id"),
    )


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: list[dict]) -> dict:
    """Span id -> its duration minus the part its children cover."""
    children = collections.defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(children[span["id"]], span["start"], span["end"])
        for span in spans
    }


def uncovered_shares(requests: dict, spans: list[dict]) -> list[float]:
    """Per request ``id -> (start, end)``: the share of its end-to-end
    time that no layer span tagged with its id covers."""
    by_request = collections.defaultdict(list)
    for span in spans:
        if span["request"] is not None:
            by_request[span["request"]].append((span["start"], span["end"]))
    shares = []
    for request, (start, end) in requests.items():
        if end > start:
            shares.append(1.0 - covered(by_request[request], start, end) / (end - start))
    return shares


def layer_metrics(spans: list[dict], counters: dict) -> dict:
    """The per-layer metrics of ``BENCHMARK.json`` from spans + counters
    (a layer that did no work on a workload reports 0)."""
    selfs = self_times(spans)
    by_name = collections.defaultdict(list)
    by_id = {}
    children = collections.defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        by_id[span["id"]] = span
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    def calls(name):
        return len(by_name[name])

    def busy_ms(name):
        return 1e3 * sum(s["end"] - s["start"] for s in by_name[name])

    def self_ms(name):
        return 1e3 * sum(selfs[s["id"]] for s in by_name[name])

    def total(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name[name])

    ratios = [
        1e3 * (s["end"] - s["start"]) / s["attrs"]["estimated_ms"]
        for s in by_name["simulation.worst_case"]
        if s["attrs"].get("estimated_ms")
    ]
    used = run = 0
    for span in by_name["simulation.worst_case"]:
        checks = sorted(
            (c for c in children[span["id"]] if c["name"] == "parallel.spot_check"),
            key=lambda c: c["start"],
        )
        if checks:
            # Only the first batch feeds the verdict; later batches are
            # escalation replays.
            used += checks[0]["attrs"]["replays"]
            run += sum(c["attrs"]["replays"] for c in checks)
    gets = by_name["store.get"]
    disk_reads = sum(
        1 for s in by_name["api.result.from_dict"]
        if s["parent"] in by_id and by_id[s["parent"]]["name"] == "store.get"
    )
    lookups = counters.get("listening_cache.hits", 0) + counters.get(
        "listening_cache.misses", 0
    )
    return {
        "protocols.build.calls": calls("protocols.build"),
        "protocols.build.busy_ms": busy_ms("protocols.build"),
        "backends.enumerate.calls": calls("backends.enumerate"),
        "backends.enumerate.busy_ms": busy_ms("backends.enumerate"),
        "backends.enumerate.offsets": total("backends.enumerate", "offsets"),
        "backends.sweep.calls": calls("backends.sweep"),
        "backends.sweep.busy_ms": busy_ms("backends.sweep"),
        "backends.sweep.offsets": total("backends.sweep", "offsets"),
        "parallel.sweep.self_ms": self_ms("parallel.sweep"),
        "parallel.spot_check.calls": calls("parallel.spot_check"),
        "parallel.spot_check.busy_ms": busy_ms("parallel.spot_check"),
        "parallel.spot_check.replays": total("parallel.spot_check", "replays"),
        "parallel.pool.boots": counters.get("pool.boots", 0),
        "parallel.listening_cache.hit_ratio": (
            counters.get("listening_cache.hits", 0) / lookups if lookups else 0.0
        ),
        "simulation.worst_case.self_ms": self_ms("simulation.worst_case"),
        "simulation.ladder.ratio_p50": median(ratios),
        "simulation.ladder.ratio_max": max(ratios, default=0.0),
        "simulation.des.used_share": used / run if run else 0.0,
        "api.session.self_ms": self_ms("api.session"),
        "api.result.clone.calls": calls("api.result.clone"),
        "api.result.clone.busy_ms": busy_ms("api.result.clone"),
        "api.result.to_dict.busy_ms": busy_ms("api.result.to_dict"),
        "store.fingerprint.calls": calls("store.fingerprint"),
        "store.fingerprint.busy_ms": busy_ms("store.fingerprint"),
        "store.get.calls": len(gets),
        "store.get.busy_ms": busy_ms("store.get"),
        "store.get.disk_reads": disk_reads,
        "store.get.hit_ratio": (
            sum(1 for s in gets if s["attrs"]["hit"]) / len(gets) if gets else 0.0
        ),
        "store.put.calls": calls("store.put"),
        "store.put.busy_ms": busy_ms("store.put"),
        "store.put.bytes": total("store.put", "bytes"),
        "campaign.run.busy_ms": busy_ms("campaign.run"),
        "campaign.entries": total("campaign.run", "entries"),
        "service.admit.calls": calls("service.admit"),
        "service.admit.busy_ms": busy_ms("service.admit"),
        "service.wire.encode_ms": busy_ms("service.wire.encode"),
        "service.wire.response_bytes": total("service.wire.encode", "bytes"),
    }


def latency_stats(prefix: str, seconds: list[float]) -> dict:
    """``<prefix>.p50`` / ``.p90`` in milliseconds."""
    return {
        f"{prefix}.p50": 1e3 * percentile(seconds, 0.5),
        f"{prefix}.p90": 1e3 * percentile(seconds, 0.9),
    }
