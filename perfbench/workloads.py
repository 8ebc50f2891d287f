"""The two workloads.  Each runs one pass: set-up, a timed window of
``seconds``, then its correctness checks, and returns a :class:`Pass`.

* ``zoo-cold``  -- closed loop, one client, in-process
  ``Session(RuntimeProfile())``: exact ``worst_case`` + uniform
  ``sweep`` on distinct pairs.
* ``serve-zipf`` -- the ``repro-nd serve`` daemon in its own process:
  an open-loop Poisson phase (Zipf hits on a warmed store plus budgeted
  cold misses) over two connections, then a closed-loop hit phase with
  one hit in flight.

Gated times (set-up, the window's rate and latencies) leave out other
processes' share of the CPUs (``clock``) and are scaled to the reference
host's speed by speed probes (:class:`common.SpeedProbe`,
:class:`common.Window`); the open-loop numbers in ``detail`` are wall
times as measured.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import random
import shutil
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import inputs
from .common import (
    canonical,
    Failures,
    finish,
    median,
    payload_mismatches,
    percentile,
    ProbeMeanwhile,
    python_cmd,
    RssSampler,
    time_until_ready,
    Window,
    WORK,
)
from .clock import process_cpu_s, process_runqueue_wait_s, unqueued_clock
from .trace import install, latency_stats, layer_metrics, load, Tracer, uncovered_shares

#: Set-ups per pass; ``setup_s`` is their median, each scaled by the
#: speed probes this process takes while it waits (``ProbeMeanwhile``).  A
#: serve-zipf set-up warms a whole store, so it repeats fewer times.
#: The two passes of a traced run set up once each (``one_setup``):
#: their ``setup_s`` only feeds the ungated tracing overhead.
SETUP_REPEATS = 7
SERVE_SETUP_REPEATS = 3
#: When the open-loop generator sent its p99 request later than this
#: after it was due, the open-loop numbers (``detail``) are invalid: the
#: schedule, not the program, would set them.  The gated metrics come
#: from the closed loop, which has no schedule to fall behind.
LAG_BOUND_MS = 20.0


@dataclass
class Pass:
    failures: Failures
    metrics: dict
    detail: dict
    params: dict
    layers: dict = field(default_factory=dict)
    invalid: str | None = None   # why some ``detail`` numbers do not hold


def _setup_probes(traced: bool, repeats: int) -> list[float]:
    """zoo-cold set-ups, timed like its window (``unqueued_clock``): the
    helper's own run-queue wait is taken off its start-to-ready time."""
    samples = []
    for _ in range(repeats):
        with ProbeMeanwhile() as speed:
            seconds, proc, line = time_until_ready(
                python_cmd("helper.py", "session", int(traced)), "ready"
            )
        finish(proc)
        samples.append((seconds - float(line.split()[1])) * speed.factor)
    return samples


def _e2e(setup: list[float], rss: RssSampler, window: Window) -> dict:
    return {"setup_s": median(setup), "peak_rss_mb": rss.peak_mib, **window.metrics()}


#: Per-layer metrics only the daemon workload has (zero in-process).
NO_SERVICE = dict.fromkeys([
    "service.queue_wait_ms.p50", "service.queue_wait_ms.p90",
    "service.run_ms.p50", "service.run_ms.p90", "service.coalesced",
    "service.retries", "service.timeouts", "service.overloads",
    "loadgen.lag_ms.p99", "loadgen.sent",
], 0)


def _traced_layers(tracer: Tracer, requests: dict, name: str) -> dict:
    tracer.dump(WORK / f"spans-{name}.json")
    layers = layer_metrics(tracer.spans, tracer.counters)
    layers["trace.uncovered_share"] = median(uncovered_shares(requests, tracer.spans))
    return {**layers, **NO_SERVICE}


# ----------------------------------------------------------------------
# zoo-cold
# ----------------------------------------------------------------------
def bound_violated(pair: dict, payload: dict) -> bool:
    """Does an exact worst case beat the paper's bound for its shape?

    Theorem 5.5 (equal duty cycles) or 5.7 (unequal) bounds two-way
    discovery; an advertiser/scanner pair is unidirectional (Theorem
    5.4) and the Appendix-C pair is one-way (Theorem C.1).  Birthday is
    probabilistic: no deterministic bound, exempt.  The worst case is
    taken over the offsets that discover: the slotted and synthesized
    pairs miss only isolated alignment offsets, which the coverage bound
    ignores, but a periodic-interval pair that misses offsets has
    coverage holes and an unbounded worst case, so it is exempt.  The
    sweep measures from the offset instant, so up to one beacon gap is
    added before comparing (the range-entry slack of Definition 3.4).
    """
    from repro.api.spec import build_pair
    from repro.core import bounds

    family = pair.get("protocol", pair["kind"])
    analytic = payload["analytic"]
    if (
        payload["provenance"]["fidelity"] != "exact"
        or family == "Birthday"
        or (family == "PeriodicInterval" and analytic["failures"])
    ):
        return False
    protocol_e, protocol_f, _ = build_pair(pair)
    omega = inputs.pair_omega(pair)
    if family == "CorrelatedOneWay":
        bound = bounds.one_way_bound(omega, protocol_e.eta, protocol_e.alpha)
        worst = analytic["worst_one_way"]
    elif protocol_e.reception is None or protocol_f.beacons is None:
        bound = bounds.unidirectional_bound(omega, protocol_e.beta, protocol_f.gamma)
        worst = analytic["worst_one_way"]
    else:
        bound = bounds.asymmetric_bound(
            omega, protocol_e.eta, protocol_f.eta, protocol_e.alpha
        )
        worst = analytic["worst_two_way"]
    if worst is None:
        return False
    gap = max(p.beacons.period for p in (protocol_e, protocol_f) if p.beacons)
    return worst + gap < bound * (1 - 1e-9)


def zoo_cold(seed: int, seconds: float, traced: bool, small: bool, work: Path,
             one_setup: bool) -> Pass:
    setup = _setup_probes(traced, 1 if one_setup else SETUP_REPEATS)
    from repro.api import RuntimeProfile, Session

    session = Session(RuntimeProfile())
    session.backend
    tracer = Tracer() if traced else None
    if tracer:
        install(tracer)
    failures = Failures()
    requests, records = {}, []
    queries = inputs.zoo_queries(seed)
    with RssSampler() as rss:
        # One thread does all the work: its clock less its run-queue waits.
        window = Window(seconds)
        for index in itertools.count():
            verb, spec = next(queries)
            if tracer:
                tracer.set_request(index)
            t0, u0 = time.perf_counter(), unqueued_clock()
            try:
                result = getattr(session, verb)(spec)
            except Exception as exc:  # counted, the loop goes on
                failures.add(f"error:{type(exc).__name__}")
                result = None
            t1 = time.perf_counter()
            window.add(unqueued_clock() - u0)
            requests[index] = (t0, t1)
            if result is not None:
                records.append((verb, spec, result.payload))
            window.tick()
            if window.done:
                break
    if tracer:
        tracer.cache_snapshot()
        tracer.restore()
    session.close()
    failures.attempted = len(requests)
    for verb, spec, payload in records:
        if verb != "worst_case":
            continue
        if not payload["des_agrees"]:
            failures.add("des_disagreement")
        if bound_violated(spec["pair"], payload):
            failures.add("mismatch:bound")
    # A seeded sample re-runs on the python reference kernel.
    sample = random.Random(seed).sample(records, min(3 if small else 6, len(records)))
    with Session(RuntimeProfile(backend="python")) as reference:
        for verb, spec, payload in sample:
            if canonical(getattr(reference, verb)(spec).payload) != canonical(payload):
                failures.add("mismatch:python_reference")
    counts = {verb: sum(1 for r in records if r[0] == verb) for verb in ("worst_case", "sweep")}
    return Pass(
        failures=failures,
        metrics=_e2e(setup, rss, window),
        detail={
            "queries": len(requests), **counts,
            "reference_checked": len(sample), "setup_samples_s": setup,
            **window.detail(),
        },
        params={"profile": "RuntimeProfile()", "sweep_samples": 1024,
                "heavy_every": inputs.HEAVY_EVERY},
        layers=_traced_layers(tracer, requests, f"zoo-cold-seed{seed}") if tracer else {},
    )


# ----------------------------------------------------------------------
# serve-zipf
# ----------------------------------------------------------------------
#: What the checks and the per-layer metrics read from a job snapshot.
_JOB_FIELDS = ("id", "source", "queued_seconds", "run_seconds")


@dataclass
class _Request:
    key: str            # hot-set rank, or "miss-<i>"
    verb: str
    spec: dict
    due: float
    sent: float = 0.0
    done: float = 0.0
    job: dict | None = None      # the _JOB_FIELDS of the response's job
    payload: dict | None = None  # a miss's answer (a hit's is checked, then dropped)
    same: bool = True            # a hit's payload equals the bytes stored at warming
    error: str | None = None


class _Line:
    """One TCP connection; requests queue for it, one in flight at a
    time (the wire protocol is strictly request/response per line).

    A hit's payload is compared with the bytes recorded at warming as it
    arrives and then dropped: the client's memory counts in
    ``peak_rss_mb`` and must not grow with the number of requests."""

    def __init__(self, port: int, expected: dict) -> None:
        self.port = port
        self.expected = expected
        self.idle: asyncio.Queue = asyncio.Queue()

    async def open(self) -> "_Line":
        from repro.service import RemoteClient

        self.idle.put_nowait(await RemoteClient.connect("127.0.0.1", self.port))
        return self

    async def send(self, request: _Request, timeout: float = 30.0) -> None:
        from repro.service import RemoteClient, RemoteError

        client = await self.idle.get()
        request.sent = time.perf_counter()
        response = None
        try:
            response = await asyncio.wait_for(
                client.request({"op": "submit", "verb": request.verb,
                                "spec": request.spec}),
                timeout,
            )
        except RemoteError as exc:
            request.error = exc.payload.get("type", "ServiceError")
        except asyncio.TimeoutError:
            request.error = "timeout"
            await client.close()  # its line discipline is lost
            client = await RemoteClient.connect("127.0.0.1", self.port)
        finally:
            request.done = time.perf_counter()
            self.idle.put_nowait(client)
        if response is None:
            return
        job = response["job"]
        request.job = {name: job[name] for name in _JOB_FIELDS}
        payload = response["result"]["payload"]
        if request.key in self.expected:
            request.same = not payload_mismatches(self.expected, [(request.key, payload)])
        else:
            request.payload = payload

    async def close(self) -> None:
        while not self.idle.empty():
            await self.idle.get_nowait().close()


@contextlib.contextmanager
def _pinned(daemon_pid: int):
    """This thread and every thread of the daemon on one CPU, then back."""
    allowed = os.sched_getaffinity(0)
    threads = [0, *map(int, os.listdir(f"/proc/{daemon_pid}/task"))]
    for tid in threads:
        os.sched_setaffinity(tid, {min(allowed)})
    try:
        yield
    finally:
        for tid in threads:
            with contextlib.suppress(OSError):  # a daemon thread that ended
                os.sched_setaffinity(tid, allowed)


def _zipf_cumulative(n: int, s: float) -> list[float]:
    return list(itertools.accumulate(1.0 / rank ** s for rank in range(1, n + 1)))


async def _drive(port, daemon_pid, expected, hot, misses, rng, rate, open_s,
                 closed_s, zipf_s) -> dict:
    cumulative = _zipf_cumulative(len(hot), zipf_s)

    def hot_request(due):
        index = rng.choices(range(len(hot)), cum_weights=cumulative)[0]
        verb, spec = hot[index]
        return _Request(str(index), verb, spec, due)

    arrivals, at = [], 0.0
    while True:
        at += rng.expovariate(rate)
        if at >= open_s:
            break
        arrivals.append(at)
    miss_slots = dict(zip(
        sorted(rng.sample(range(len(arrivals)), min(len(misses), len(arrivals)))),
        misses,
    ))
    # Hits and misses ride separate connections, so a hit never waits
    # behind a miss on the client side: what they share is the daemon.
    hit_line = await _Line(port, expected).open()
    miss_line = await _Line(port, expected).open()
    open_loop, lags, tasks = [], [], []
    epoch = time.perf_counter()
    for i, offset in enumerate(arrivals):
        due = epoch + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(time.perf_counter() - due)
        if i in miss_slots:
            verb, spec = miss_slots[i]
            request, line = _Request(f"miss-{i}", verb, spec, due), miss_line
        else:
            request, line = hot_request(due), hit_line
        open_loop.append(request)
        tasks.append(asyncio.create_task(line.send(request)))
    await asyncio.gather(*tasks)

    # The closed loop has one hit in flight, on the two connections in
    # turn, so a hit is a chain of work in this thread and the daemon's.
    # It is timed as the CPU time both spend on it: its latency on an
    # idle host less the wake-ups between them.  Wall time less the
    # run-queue waits (as zoo-cold) would not do here: each side goes
    # on running briefly after handing over, and a wait then, off the
    # hit's path, would come off its time too.
    # Both run on one CPU meanwhile: a hit handed over within a core costs
    # less than one handed across, and the scheduler's placement would
    # otherwise change the cost from run to run.
    closed_loop = []
    with _pinned(daemon_pid):
        window = Window(closed_s)
        for line in itertools.cycle([hit_line, miss_line]):
            request = hot_request(time.perf_counter())
            daemon_cpu = process_cpu_s(daemon_pid)
            own_cpu = time.thread_time()
            await line.send(request)
            own_cpu = time.thread_time() - own_cpu
            daemon_cpu = process_cpu_s(daemon_pid) - daemon_cpu
            closed_loop.append(request)
            window.add(own_cpu + daemon_cpu)
            window.tick()
            if window.done:
                break

    from repro.service import RemoteClient

    async with await RemoteClient.connect("127.0.0.1", port) as client:
        stats = await client.stats()
    await hit_line.close()
    await miss_line.close()
    return {
        "open": open_loop, "closed": closed_loop, "lags": lags,
        "window": window, "stats": stats,
    }


def _classify_error(error: str) -> str:
    return {
        "ServiceOverload": "overload",
        "JobFailed": "job_failed",
        "timeout": "timeout",
    }.get(error, f"error:{error}")


def _stop(proc) -> None:
    proc.send_signal(signal.SIGTERM)
    finish(proc)


def serve_zipf(seed: int, seconds: float, traced: bool, small: bool, work: Path,
               one_setup: bool) -> Pass:
    hot_size = 24 if small else 384       # 3x the store's 128-entry LRU
    rate = 60.0 if small else 350.0       # open-loop arrivals per second
    zipf_s, miss_share = 1.1, 0.05
    # At most 6 s open loop (hits and budgeted misses as they fall due:
    # about 2000 hits and 105 misses, enough for a hit p99 and a miss
    # p90), the rest closed loop (hits back to back on both
    # connections), whose rate and latencies are the gated metrics.
    open_s = min(6.0, 0.4 * seconds)
    closed_s = seconds - open_s
    n_misses = max(1, round(miss_share * rate * open_s))
    hot, misses = inputs.serve_inputs(seed, hot_size, n_misses)
    hot_file, expected_file = work / "hot.json", work / "expected.json"
    hot_file.write_text(json.dumps(hot), encoding="utf-8")
    warm_trace = work / "warm-spans.json" if traced else "-"
    daemon_trace = work / "daemon-spans.json" if traced else "-"

    setup, daemon = [], None
    for repeat in range(1 if one_setup else SERVE_SETUP_REPEATS):
        if daemon is not None:
            _stop(daemon)
        store = work / "store"
        shutil.rmtree(store, ignore_errors=True)
        # Timed like the window: each helper's run-queue waits come off.
        with ProbeMeanwhile() as speed:
            warm_s, warm, warm_line = time_until_ready(
                python_cmd("helper.py", "warm", store, hot_file, expected_file,
                           warm_trace),
                "ready",
            )
            finish(warm)
            boot_s, daemon, line = time_until_ready(
                python_cmd("helper.py", "serve", store, daemon_trace), "listening on"
            )
            boot_s -= process_runqueue_wait_s(daemon.pid)
        setup.append((warm_s - float(warm_line.split()[1]) + boot_s) * speed.factor)
    port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
    expected = json.loads(expected_file.read_text(encoding="utf-8"))

    rng = random.Random(f"serve-zipf-schedule:{seed}")
    try:
        with RssSampler() as rss:
            run = asyncio.run(
                _drive(port, daemon.pid, expected, hot, misses, rng, rate, open_s,
                       closed_s, zipf_s)
            )
    finally:
        _stop(daemon)

    failures = Failures()
    hits, miss_latency = [], []
    budget_met = exact = 0
    answered_misses, queue_wait, run_time, request_spans = [], [], [], {}
    tagged = [(r, True) for r in run["open"]] + [(r, False) for r in run["closed"]]
    for request, is_open in tagged:
        if request.error is not None:
            failures.add(_classify_error(request.error))
            continue
        job = request.job
        if is_open:
            request_spans[job["id"]] = (request.sent, request.done)
        if request.payload is not None:
            latency = request.done - request.due
            miss_latency.append(latency)
            provenance = request.payload["provenance"]
            budget_met += latency <= provenance["budget_ms"] / 1e3
            exact += provenance["fidelity"] == "exact"
            if not request.payload["des_agrees"]:
                failures.add("des_disagreement")
            answered_misses.append((request.spec, provenance["bound_interval"]))
            queue_wait.append(job["queued_seconds"] or 0.0)
            run_time.append(job["run_seconds"] or 0.0)
            continue
        if job["source"] != "hit":
            failures.add("mismatch:hit_expected")
        if not request.same:
            failures.add("mismatch:hit_payload")
        if is_open:
            hits.append(request.done - request.due)
    failures.attempted = len(run["open"]) + len(run["closed"])

    # A seeded sample of budgeted answers must bracket the exact value.
    from repro.api import RunSpec, RuntimeProfile, Session

    checked = 0
    sample = random.Random(seed).sample(answered_misses, min(5, len(answered_misses)))
    with Session(RuntimeProfile()) as reference:
        for spec, (lo, hi) in sample:
            exact_spec = dict(spec, fidelity="exact", budget_ms=None)
            outcome = reference.worst_case(RunSpec.from_dict(exact_spec)).payload
            if outcome["provenance"]["fidelity"] != "exact":
                continue  # the exact engine itself fell back: nothing to pin
            checked += 1
            value = outcome["analytic"]["worst_one_way"]
            inside = (lo is None and value is None) or (
                None not in (lo, hi, value) and lo <= value <= hi
            )
            if not inside:
                failures.add("mismatch:bound_interval")

    lag_p99_ms = 1e3 * percentile(run["lags"], 0.99)
    service = run["stats"]["service"]
    detail = {
        "open_requests": len(run["open"]), "open_hits": len(hits),
        "misses": len(miss_latency), "closed_hits": len(run["closed"]),
        "hit_p50_ms": 1e3 * percentile(hits, 0.5),
        "hit_p90_ms": 1e3 * percentile(hits, 0.9),
        "hit_p99_ms": 1e3 * percentile(hits, 0.99),
        "miss_p50_ms": 1e3 * percentile(miss_latency, 0.5),
        "miss_p90_ms": 1e3 * percentile(miss_latency, 0.9),
        "budget_met_share": budget_met / len(miss_latency) if miss_latency else 0.0,
        "exact_share": exact / len(miss_latency) if miss_latency else 0.0,
        "bound_interval_checked": checked,
        "loadgen_lag_p99_ms": lag_p99_ms,
        "setup_samples_s": setup,
        **run["window"].detail(),
    }
    metrics = _e2e(setup, rss, run["window"])
    layers = {}
    if traced:
        spans, counters = [], {}
        for path in (warm_trace, daemon_trace):
            more_spans, more_counters = load(path)
            spans += more_spans
            for name, value in more_counters.items():
                counters[name] = counters.get(name, 0) + value
        (WORK / f"spans-serve-zipf-seed{seed}.json").write_text(
            json.dumps({"spans": spans, "counters": counters}), encoding="utf-8"
        )
        layers = layer_metrics(spans, counters)
        layers["trace.uncovered_share"] = median(uncovered_shares(request_spans, spans))
        layers.update({
            **latency_stats("service.queue_wait_ms", queue_wait),
            **latency_stats("service.run_ms", run_time),
            "service.coalesced": service["coalesced"],
            "service.retries": service["retries"],
            "service.timeouts": service["timeouts"],
            "service.overloads": failures.counts["overload"],
            "loadgen.lag_ms.p99": lag_p99_ms,
            "loadgen.sent": len(run["open"]),
        })
    return Pass(
        failures=failures,
        metrics=metrics,
        detail=detail,
        params={"hot_size": hot_size, "rate_per_s": rate, "zipf_s": zipf_s,
                "miss_share": miss_share, "budget_ms": 100.0, "connections": 2,
                "workers": 2, "open_s": open_s, "closed_s": closed_s},
        layers=layers,
        invalid=(
            f"open-loop numbers: load generator ran late, p99 lag "
            f"{lag_p99_ms:.1f} ms > {LAG_BOUND_MS} ms"
            if lag_p99_ms > LAG_BOUND_MS else None
        ),
    )


WORKLOADS = {"zoo-cold": zoo_cold, "serve-zipf": serve_zipf}
