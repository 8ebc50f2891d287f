"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload zoo-cold --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):
``zoo-cold`` and ``serve-zipf`` (see ``perfbench/workloads.py``).
Inputs are generated from ``--seed``; the window measures ``--seconds``;
every run checks the program's answers.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  Lines before it give the failure counts by class, the
workload's own numbers and the run's provenance.

The end-to-end times leave out other tenants' share of the CPUs and are
scaled to a reference host speed.  On a shared host the same work runs
up to twice as slowly while other processes load it, in phases of
seconds to minutes, so wall times of the same code spread wider than
any useful bound.  So (``perfbench/clock.py``):

* a zoo-cold query is timed by wall time less the run-queue waits of
  its one thread;
* a serve-zipf closed-loop hit (one in flight, client and daemon pinned
  to one CPU) by the CPU time the client thread and the daemon spend on
  it;
* a set-up by the helper's start-to-ready wall time less the run-queue
  waits of its threads.

Three CPU hogs on a 2-vCPU host then moved zoo-cold by about 5% and
serve-zipf by about 20%, against 2x with wall time.  The window is cut
into segments of about 0.2 s, each followed by a fixed benchmark-owned
CPU probe timed the same way; a segment's times are multiplied by
``reference probe time / measured probe time`` (``perfbench/common.py``),
and each set-up by the mean of the probes this process takes while it
waits for it.  ``detail`` gives the window's probe factors and unscaled
throughput as measured.

``--trace 1`` runs two passes of the same seed, each in a fresh
process: untraced, then traced (layer spans recorded from the
benchmark's own wrappers, see ``perfbench/trace.py``).  It reports the
per-layer metrics, the tracing overhead (traced minus untraced value of
each end-to-end metric, ``trace.overhead.*``) and the share of request
time no layer span covers.

Run the benchmark's own tests with ``python3 -m pytest perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _run_pass(args) -> dict:
    from perfbench.common import provenance, WORK
    from perfbench.workloads import WORKLOADS

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = WORKLOADS[args.workload](
            args.seed, args.seconds, args.traced, args.small, work,
            one_setup=args.small or args.pass_out is not None,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = result.failures
    return {
        "correct": failures.failed == 0,
        "invalid": result.invalid,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "failures": failures.as_dict(),
        "metrics": result.metrics,
        "layers": result.layers,
        "detail": result.detail,
        "provenance": provenance(args.workload, args.seed, result.params),
    }


def _pass_subprocess(args, traced: bool) -> dict:
    from perfbench.common import child_env, python_cmd, WORK

    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / f"pass-{args.workload}-seed{args.seed}-{int(traced)}.json"
    cmd = python_cmd(
        "run.py", "--workload", args.workload, "--seed", args.seed,
        "--seconds", args.seconds, "--trace", 0, "--pass-out", out,
    )
    if traced:
        cmd.append("--traced")
    if args.small:
        cmd.append("--small")
    subprocess.run(cmd, check=True, stdout=sys.stderr, env=child_env(), cwd=ROOT)
    try:
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink()


def _report(summary: dict) -> None:
    print(
        f"attempted {summary['attempted']}, failed {summary['failed']}, "
        f"failed_share {summary['failed'] / summary['attempted']:.6f}, "
        f"failures by class {json.dumps(summary['failures'])}"
    )
    if summary["invalid"]:
        print(f"INVALID: {summary['invalid']}")
    print("detail " + json.dumps(summary["detail"]))
    print("provenance " + json.dumps(summary["provenance"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["zoo-cold", "serve-zipf"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--pass-out", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: the program (src/repro) is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Transparent huge pages come and go with the host's memory state;
    # NumPy asking for them makes peak RSS jump between runs.  Set before
    # NumPy is imported here or in any subprocess.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    definition = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    if args.pass_out is not None:
        args.pass_out.write_text(json.dumps(_run_pass(args)), encoding="utf-8")
        return 0

    if not args.trace:
        args.traced = False
        summary = _run_pass(args)
        _report(summary)
        wanted, values = definition["end_to_end"], summary["metrics"]
    else:
        plain = _pass_subprocess(args, traced=False)
        summary = _pass_subprocess(args, traced=True)
        _report(summary)
        values = dict(summary["layers"])
        for name, traced_value in summary["metrics"].items():
            values[f"trace.overhead.{name}"] = traced_value - plain["metrics"][name]
        print("untraced " + json.dumps(plain["metrics"]))
        print("traced   " + json.dumps(summary["metrics"]))
        for metric in definition["per_layer"]:
            print(f"  {metric['name']:<40} {values[metric['name']]:>14.4f} {metric['unit']}")
        summary = {
            "correct": plain["correct"] and summary["correct"],
            "attempted": plain["attempted"] + summary["attempted"],
            "failed": plain["failed"] + summary["failed"],
        }
        wanted = definition["per_layer"]
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
