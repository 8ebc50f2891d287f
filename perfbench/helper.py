"""Subprocess roles of the benchmark (started by ``perfbench/run.py``).

    helper.py session TRACED
        One set-up probe: import the program, boot a default ``Session``,
        print ``ready`` and the seconds this process's threads sat in the
        run queue.
    helper.py warm STORE HOT_JSON EXPECTED_JSON TRACE_OUT
        Warm a fresh store with the hot set through ``CampaignRunner``
        and record every stored payload's canonical bytes; print
        ``ready`` and the seconds this process's threads sat in the run
        queue.
    helper.py serve STORE TRACE_OUT
        The daemon: ``repro-nd serve`` (default profile, 2 workers,
        ephemeral port), with layer tracing when TRACE_OUT is not ``-``.
    helper.py rss PID INTERVAL [EXCLUDE...]
        Sample the summed RSS of PID and its descendants (but this one
        and the EXCLUDE pids) every INTERVAL seconds until stdin closes,
        then print the peak in KiB.
"""

from __future__ import annotations

import json
import os
import select
import sys
from pathlib import Path


def _tracer(trace_out: str):
    if trace_out == "-":
        return None
    from perfbench.trace import install, Tracer

    tracer = Tracer()
    install(tracer)
    return tracer


def session(traced: str) -> int:
    from repro.api import RuntimeProfile, Session

    if traced == "1":
        from perfbench.trace import install, Tracer

        install(Tracer())
    Session(RuntimeProfile()).backend
    from perfbench.clock import process_runqueue_wait_s

    print(f"ready {process_runqueue_wait_s(os.getpid())}", flush=True)
    return 0


def warm(store: str, hot_json: str, expected_json: str, trace_out: str) -> int:
    from perfbench.common import canonical
    from repro.api import RunSpec
    from repro.campaign import Campaign, CampaignRunner
    from repro.store import ResultStore

    hot = json.loads(Path(hot_json).read_text(encoding="utf-8"))
    campaign = Campaign("perfbench-hot", [
        {"verb": verb, "label": f"hot-{i}", "spec": spec}
        for i, (verb, spec) in enumerate(hot)
    ])
    tracer = _tracer(trace_out)
    manifest = CampaignRunner(
        campaign, store, manifest_path=Path(store) / "manifest.json"
    ).run()
    if tracer is not None:
        tracer.restore()
        tracer.dump(Path(trace_out))
    if manifest["failed"]:
        print(f"warm: {manifest['failed']} entries failed", file=sys.stderr)
        return 1
    reader = ResultStore(store)
    expected = {
        str(i): canonical(
            reader.get(reader.fingerprint(verb, RunSpec.from_dict(spec))).payload
        )
        for i, (verb, spec) in enumerate(hot)
    }
    Path(expected_json).write_text(json.dumps(expected), encoding="utf-8")
    from perfbench.clock import process_runqueue_wait_s

    print(f"ready {process_runqueue_wait_s(os.getpid())}", flush=True)
    return 0


def serve(store: str, trace_out: str) -> int:
    from repro.cli import main

    tracer = _tracer(trace_out)
    try:
        return main(
            ["serve", "--port", "0", "--store", store, "--workers", "2"]
        )
    finally:
        if tracer is not None:
            tracer.cache_snapshot()
            tracer.dump(Path(trace_out))


def rss(pid: str, interval: str, *exclude: str) -> int:
    from perfbench.common import tree_rss_kib

    root, skip = int(pid), {os.getpid(), *map(int, exclude)}
    peak = tree_rss_kib(root, skip)
    print("ready", flush=True)
    # Stdin turns readable only at EOF: the parent is done measuring.
    while not select.select([sys.stdin], [], [], float(interval))[0]:
        peak = max(peak, tree_rss_kib(root, skip))
    print(max(peak, tree_rss_kib(root, skip)), flush=True)
    return 0


if __name__ == "__main__":
    roles = {
        "session": session, "warm": warm, "serve": serve, "rss": rss,
    }
    sys.exit(roles[sys.argv[1]](*sys.argv[2:]))
