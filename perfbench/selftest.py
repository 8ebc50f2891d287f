"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

Smoke runs of every workload at tiny sizes (``--small``) check that
each metric ``BENCHMARK.json`` names is printed with its unit; unit
tests check that the correctness checks fire on tampered expectations
and the span self-time arithmetic.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from perfbench.clock import unqueued_clock
from perfbench.common import canonical, child_env, payload_mismatches, ROOT
from perfbench.trace import layer_metrics, self_times, uncovered_shares

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "src"))


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1.5", "--trace", str(trace),
         "--small"],
        capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=600,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, section):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in BENCH[section]
    }
    assert all(
        isinstance(value["value"], (int, float)) for value in result["metrics"].values()
    )


def test_payload_check_fires_on_tampered_expected_payload():
    payload = {"worst_one_way": 1_320, "offsets": 64, "sampling": "uniform"}
    assert payload_mismatches({"7": canonical(payload)}, [("7", payload)]) == []
    tampered = {"7": canonical(dict(payload, worst_one_way=1_321))}
    assert payload_mismatches(tampered, [("7", payload)]) == ["7"]


def test_bound_check_fires_on_a_worst_case_below_theorem_5_5():
    from perfbench.workloads import bound_violated
    from repro.api import RunSpec, Session

    pair = {"kind": "symmetric", "eta": 0.12, "omega": 32}
    with Session() as session:
        payload = session.worst_case(RunSpec(pair=pair, omega=32)).payload
    assert not bound_violated(pair, payload)
    tampered = json.loads(canonical(payload))
    tampered["analytic"]["worst_two_way"] = 100
    assert bound_violated(pair, tampered)


def test_unqueued_clock_advances_no_faster_than_wall_time():
    wall0, clock0 = time.perf_counter(), unqueued_clock()
    while time.perf_counter() - wall0 < 0.05:
        pass
    clock1, wall1 = unqueued_clock(), time.perf_counter()
    assert 0 < clock1 - clock0 <= wall1 - wall0 + 1e-3


def _span(sid, parent, start, end, name="x", request=None, **attrs):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "request": request, "attrs": attrs}


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),     # overlaps its sibling: counted once
        _span(4, 2, 2.0, 3.0),     # grandchild: only its parent's business
        _span(5, 1, 9.0, 12.0),    # runs past the parent: clipped
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(3.0)


def test_uncovered_share_and_escalated_replays():
    spans = [
        _span(1, None, 0.0, 2.0, request="a"),
        _span(2, None, 1.0, 4.0, request="a"),
        _span(3, None, 8.0, 9.0, request="a"),
        _span(4, None, 5.0, 6.0, request="b"),
    ]
    assert uncovered_shares({"a": (0.0, 10.0)}, spans) == [pytest.approx(0.5)]
    engine = [
        _span(10, None, 0.0, 1.0, name="simulation.worst_case"),
        _span(11, 10, 0.2, 0.4, name="parallel.spot_check", replays=4),
        _span(12, 10, 0.5, 0.6, name="parallel.spot_check", replays=2),
    ]
    assert layer_metrics(engine, {})["simulation.des.used_share"] == pytest.approx(4 / 6)
