"""Quickstart: bounds, a bound-attaining schedule, and the Session API.

Run with::

    python examples/quickstart.py

Walks through the package's layers in ~70 lines: evaluate the
fundamental limits for an energy budget (Theorems 5.4-5.7, C.1), build a
schedule that attains them, then validate it through the **unified
experiment API** -- one declarative :class:`repro.api.RunSpec` per
experiment, one lifecycle-managed :class:`repro.api.Session` running
them all.  The session resolves the sweep backend once (set
``REPRO_BACKEND=python|numpy`` and ``REPRO_JOBS=N``, or pass a
:class:`repro.api.RuntimeProfile` to choose -- the only place runtime
is set; ``jobs > 1`` runs scenario grids on one persistent worker
pool, while sweeps always run in-process), owns that pool, and returns
:class:`repro.api.RunResult` objects that carry their full
reproduction recipe (spec + profile + backend + timings) and
round-trip to JSON.
"""

from repro import core
from repro.analysis import format_seconds, format_table
from repro.api import RunSpec, Session

OMEGA = 32  # beacon duration in microseconds (a BLE-sized packet)
ETA = 0.01  # 1% duty-cycle budget per device


def main() -> None:
    # ------------------------------------------------------------------
    # 1. What does theory allow at a 1% duty-cycle?
    # ------------------------------------------------------------------
    rows = [
        ["Symmetric two-way (Thm 5.5)", format_seconds(core.symmetric_bound(OMEGA, ETA))],
        ["One-way, either direction (Thm C.1)", format_seconds(core.one_way_bound(OMEGA, ETA))],
        ["Asymmetric 4x/0.25x budgets (Thm 5.7)",
         format_seconds(core.asymmetric_bound(OMEGA, 4 * ETA, ETA / 4))],
    ]
    print(format_table(["scenario", "lowest guaranteeable latency"], rows,
                       title=f"Fundamental bounds at eta={ETA:.0%}, omega={OMEGA} us"))

    # ------------------------------------------------------------------
    # 2. Build a schedule that attains the bound, verified by coverage map.
    # ------------------------------------------------------------------
    protocol, design = core.synthesize_symmetric(OMEGA, ETA)
    print(f"\nSynthesized: beacon every {design.beacons.period} us, "
          f"scan {design.reception.windows[0].duration} us per {design.reception.period} us")
    print(f"verified deterministic={design.deterministic}, disjoint={design.disjoint}")
    print(f"guaranteed worst-case latency: {format_seconds(design.worst_case_latency)} "
          f"(bound at achieved eta: "
          f"{format_seconds(core.symmetric_bound(OMEGA, protocol.eta))})")

    # ------------------------------------------------------------------
    # 3. One session, declarative specs: exhaustive validation + DES run.
    # ------------------------------------------------------------------
    with Session() as session:  # default RuntimeProfile (env-aware)
        # Exhaustive sweep over every *critical* phase offset of the
        # advertiser/scanner split -- the exact worst case, no sampling.
        sweep = session.sweep(RunSpec(
            pair={"kind": "symmetric-split", "eta": ETA, "omega": OMEGA},
            sampling="critical",
            omega=OMEGA,
            horizon_multiple=2,
        ))
        report = sweep.raw
        print(f"\nOffset sweep over {report.offsets_evaluated} critical offsets "
              f"(backend={sweep.backend}, {sweep.timings['run']:.2f}s): "
              f"{report.failures} failures, worst packet-to-packet latency "
              f"{format_seconds(report.worst_one_way)}")

        # The same pair in the event-driven simulator, as a scenario.
        simulated = session.simulate(RunSpec(
            scenario={"factory": "symmetric_pair",
                      "params": {"eta": ETA, "omega": OMEGA, "seed": 1}},
            seed=1,
        ))
        payload = simulated.payload
        print(f"\nSimulated pair: {payload['pairs_discovered']}/"
              f"{payload['pairs_expected']} directed discoveries within "
              f"{format_seconds(payload['horizon'])} "
              f"(median latency {format_seconds(payload['median_latency'])})")

    # Every result carries its full recipe -- dump one to JSON and it
    # reproduces: spec, profile, resolved backend, timings, numbers.
    print(f"\nProvenance: verb={sweep.verb!r}, backend={sweep.backend!r}, "
          f"profile jobs={sweep.profile['jobs']}")


if __name__ == "__main__":
    main()
