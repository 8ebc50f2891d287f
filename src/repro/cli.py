"""Command-line interface: quick access to bounds, synthesis and simulation.

Installed as ``repro-nd``.  Subcommands::

    repro-nd bound --eta 0.01 --omega 32            # all bounds at a budget
    repro-nd synthesize --eta 0.01 --omega 32       # build + verify a schedule
    repro-nd simulate --eta 0.01 --devices 5        # a dense-network run
    repro-nd sweep --eta 0.01 --jobs 4              # exact offset sweep
    repro-nd validate --eta 0.01 --jobs 4           # analytic + DES cross-check
    repro-nd grid --devices 3,5,10 --jobs 4         # scenario-grid batch run
    repro-nd protocols --duty-cycle 0.05            # protocol-zoo comparison
    repro-nd campaign run campaigns/golden.json     # resumable campaign
    repro-nd campaign status campaigns/golden.json  # store-membership view
    repro-nd campaign gc --ttl 604800               # store eviction
    repro-nd serve --port 7643 --workers 2          # sweep-service daemon
    repro-nd submit --port 7643 --campaign campaigns/golden.json
    repro-nd store stats                            # store introspection

Every runtime-using subcommand (``simulate``, ``sweep``, ``validate``,
``grid``) runs on one :class:`repro.api.Session` built from a single
shared :class:`repro.api.RuntimeProfile`, declared once via the common
runtime flags instead of per-subcommand plumbing:

* ``--profile PATH`` loads a profile from TOML or JSON (the deployment
  story: describe the runtime once, reuse it across every command and
  machine);
* ``--jobs N``, ``--backend {auto,python,numpy}`` and
  ``--mp-context`` override individual profile fields for one
  invocation.  ``--jobs`` above 1 runs scenario grids (``grid``, and
  the daemon's grid jobs) on one persistent worker pool; sweeps and
  DES spot checks always run in-process.

Results are bit-identical for every profile: ``--jobs``/``--backend``
only change how fast the answer arrives.  The session-owned persistent
worker pool is shut down deterministically when the command's session
exits.
"""

from __future__ import annotations

import argparse
import sys

from . import core
from .analysis import format_seconds, format_table
from .protocols import Diffcodes, Disco, Role, Searchlight, UConnect
from .simulation import ReceptionModel


def _cmd_bound(args: argparse.Namespace) -> int:
    omega, eta, alpha = args.omega, args.eta, args.alpha
    rows = [
        ["Unidirectional (Thm 5.4, optimal split)",
         core.unidirectional_bound(
             omega,
             core.optimal_split(eta, alpha).beta,
             core.optimal_split(eta, alpha).gamma,
         )],
        ["Symmetric two-way (Thm 5.5)", core.symmetric_bound(omega, eta, alpha)],
        ["One-way mutual-exclusive (Thm C.1)", core.one_way_bound(omega, eta, alpha)],
    ]
    if args.beta_max is not None:
        rows.append(
            [f"Channel-constrained (Thm 5.6, beta_max={args.beta_max:g})",
             core.constrained_bound(omega, eta, args.beta_max, alpha)]
        )
    print(
        format_table(
            ["bound", "latency"],
            [[name, format_seconds(value)] for name, value in rows],
            title=f"Fundamental bounds at eta={eta:g}, omega={omega} us, alpha={alpha:g}",
        )
    )
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    protocol, design = core.synthesize_symmetric(args.omega, args.eta, args.alpha)
    print(f"protocol      : {protocol.name}")
    print(f"beacon gap    : {design.beacons.period} us (beta={design.beta:.6f})")
    print(
        f"scan window   : {design.reception.windows[0].duration} us every "
        f"{design.reception.period} us (gamma={design.gamma:.6f})"
    )
    print(f"achieved eta  : {protocol.eta:.6f} (requested {args.eta:g})")
    print(f"deterministic : {design.deterministic}   disjoint: {design.disjoint}")
    print(f"worst-case L  : {format_seconds(design.worst_case_latency)}")
    print(
        f"bound at eta  : "
        f"{format_seconds(core.symmetric_bound(args.omega, protocol.eta, args.alpha))}"
    )
    return 0


def _profile_from_args(args: argparse.Namespace):
    """The one RuntimeProfile every runtime subcommand runs under:
    ``--profile`` file (or the environment default), with explicit
    runtime flags overriding individual fields."""
    from .api import RuntimeProfile

    profile = (
        RuntimeProfile.load(args.profile)
        if getattr(args, "profile", None)
        else RuntimeProfile.default()
    )
    overrides = {}
    for name in ("jobs", "backend", "mp_context"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return profile.replace(**overrides) if overrides else profile


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .api import RunSpec, Session

    spec = RunSpec(
        scenario={
            "factory": "dense_network",
            "params": {
                "n_devices": args.devices,
                "eta": args.eta,
                "omega": args.omega,
                "seed": args.seed,
            },
        },
        seed=args.seed,
    )
    with Session(_profile_from_args(args)) as session:
        result = session.simulate(spec)
    payload = result.payload
    print(payload["description"])
    print(
        f"pairs discovered : {payload['pairs_discovered']}"
        f"/{payload['pairs_expected']} "
        f"({payload['discovery_rate']:.1%})"
    )
    print(f"transmissions    : {payload['total_transmissions']}")
    print(f"collision events : {payload['total_collisions']}")
    print(f"median latency   : {format_seconds(payload['median_latency'])}")
    return 0


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .api import RunSpec, Session

    spec = RunSpec(
        pair={
            "kind": "symmetric",
            "eta": args.eta,
            "omega": args.omega,
            "alpha": args.alpha,
        },
        samples=args.samples,
        horizon_multiple=args.horizon_multiple,
        model=args.model,
        turnaround=args.turnaround,
    )
    with Session(_profile_from_args(args)) as session:
        result = session.sweep(spec)
    report = result.raw
    print(
        f"protocol         : {result.payload['protocols'][0]} "
        f"(eta={result.payload['eta'][0]:.6f})"
    )
    print(
        f"offsets evaluated: {report.offsets_evaluated} "
        f"(jobs={result.profile['jobs']}, backend={result.backend})"
    )
    print(f"failures         : {report.failures}")
    print(
        f"worst one-way    : {format_seconds(report.worst_one_way)} "
        f"@ offset {report.worst_offset_one_way}"
    )
    print(
        f"worst two-way    : {format_seconds(report.worst_two_way)} "
        f"@ offset {report.worst_offset_two_way}"
    )
    if report.mean_one_way is not None:
        print(f"mean one-way     : {format_seconds(report.mean_one_way)}")
    if report.mean_two_way is not None:
        print(f"mean two-way     : {format_seconds(report.mean_two_way)}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .api import RunSpec, Session

    spec = RunSpec(
        pair={
            "kind": "symmetric",
            "eta": args.eta,
            "omega": args.omega,
            "alpha": args.alpha,
        },
        horizon_multiple=args.horizon_multiple,
        omega=args.omega,
        turnaround=args.turnaround,
        fidelity=args.fidelity,
        budget_ms=args.budget_ms,
    )
    with Session(_profile_from_args(args)) as session:
        result = session.worst_case(spec)
    outcome = result.raw
    name, eta = result.payload["protocols"][0], result.payload["eta"][0]
    bound = core.symmetric_bound(args.omega, eta, args.alpha)
    print(f"protocol         : {name} (eta={eta:.6f})")
    print(
        f"offsets checked  : {outcome.offsets_checked} "
        f"(jobs={result.profile['jobs']}, backend={result.backend})"
    )
    print(f"worst one-way    : {format_seconds(outcome.analytic.worst_one_way)}")
    print(f"bound (Thm 5.5)  : {format_seconds(bound)}")
    fidelity_line = outcome.fidelity
    if outcome.budget_ms is not None:
        fidelity_line += f" (budget {outcome.budget_ms:g} ms)"
    if outcome.fallback_used:
        fidelity_line += " [sampled fallback]"
    print(f"fidelity         : {fidelity_line}")
    if outcome.fidelity != "exact" and outcome.bound_interval is not None:
        lo, hi = outcome.bound_interval
        print(
            f"bound interval   : "
            f"[{format_seconds(lo) if lo is not None else '-'}, "
            f"{format_seconds(hi) if hi is not None else '-'}]"
        )
    ran = [t["tier"] for t in outcome.tiers if t.get("ran")]
    if ran:
        print(f"tiers ran        : {', '.join(ran)}")
    print(f"DES agrees       : {outcome.des_agrees}")
    if not outcome.des_agrees:
        print("FAIL: event-driven simulation disagrees with analytic sweep")
        return 1
    return 0


def _int_list(value: str) -> list[int]:
    try:
        items = [int(item) for item in value.split(",") if item]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-list of ints: {value!r}") from exc
    if not items:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return items


def _float_list(value: str) -> list[float]:
    try:
        items = [float(item) for item in value.split(",") if item]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-list of floats: {value!r}") from exc
    if not items:
        raise argparse.ArgumentTypeError("expected at least one number")
    return items


def _cmd_grid(args: argparse.Namespace) -> int:
    from .api import RunSpec, Session

    spec = RunSpec(
        grid={
            "factory": "dense_network",
            "axes": {
                "n_devices": args.devices,
                "eta": args.etas,
                "omega": [args.omega],
                "seed": [args.seed],
            },
        },
        seed=args.seed,
    )
    with Session(_profile_from_args(args)) as session:
        result = session.grid(spec)
    rows = []
    for name, network in zip(result.payload["scenarios"], result.raw):
        median = network.quantile(0.5)
        rows.append([
            name,
            f"{network.pairs_discovered}/{network.pairs_expected}",
            f"{network.discovery_rate:.1%}",
            format_seconds(median) if median is not None else "-",
            network.total_collisions,
        ])
    print(
        format_table(
            ["scenario", "pairs", "rate", "median latency", "collisions"],
            rows,
            title=(
                f"{len(rows)} scenarios (jobs={result.profile['jobs']})"
            ),
        )
    )
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from .campaign import Campaign, CampaignRunner
    from .store import ResultStore

    campaign = Campaign.from_file(args.file)
    runner = CampaignRunner(
        campaign,
        ResultStore(args.store),
        profile=_profile_from_args(args),
        manifest_path=args.manifest,
    )
    manifest = runner.run(max_runs=args.max_runs)
    print(
        f"campaign {manifest['campaign']!r}: {manifest['total']} entries -- "
        f"{manifest['executed']} executed, {manifest['hits']} store hits, "
        f"{manifest['failed']} failed"
    )
    print(f"manifest: {runner.manifest_path}")
    if manifest["failed"]:
        for record in manifest["entries"]:
            if record["status"] == "failed":
                print(f"  FAILED {record['label']}: {record.get('error')}")
        return 1
    if not manifest["complete"]:
        # --max-runs left work behind: re-run the same command to resume.
        remaining = sum(
            1 for r in manifest["entries"] if r["status"] != "done"
        )
        print(f"incomplete: {remaining} entries remaining (re-run to resume)")
        return 3
    print("complete")
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from .campaign import Campaign, CampaignRunner
    from .store import ResultStore

    campaign = Campaign.from_file(args.file)
    runner = CampaignRunner(
        campaign, ResultStore(args.store), manifest_path=args.manifest
    )
    status = runner.status()
    if args.json:
        import json

        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        print(
            f"campaign {status['campaign']!r}: {status['stored']}"
            f"/{status['total']} stored in {status['store']}"
        )
        for item in status["missing"]:
            print(f"  missing {item['label']}")
    return 0 if status["complete"] else 3


def _cmd_campaign_gc(args: argparse.Namespace) -> int:
    from .store import ResultStore

    report = ResultStore(args.store).gc(
        max_entries=args.max_entries,
        ttl_seconds=args.ttl,
        dry_run=args.dry_run,
    )
    verb = "would remove" if report["dry_run"] else "removed"
    print(
        f"store {args.store}: scanned {report['scanned']}, {verb} "
        f"{len(report['removed'])}, kept {report['kept']}"
    )
    return 0


def _cmd_store_stats(args: argparse.Namespace) -> int:
    from .store import ResultStore

    payload = ResultStore(args.store).stats_payload()
    if args.json:
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    counters = payload["counters"]
    print(f"store {payload['root']}:")
    print(f"  objects     : {payload['objects']} "
          f"({payload['total_bytes']} bytes)")
    print(f"  quarantined : {payload['quarantined']}")
    print(f"  memory LRU  : {payload['memory']['entries']}"
          f"/{payload['memory']['limit']} entries")
    print(f"  counters    : hits={counters['hits']} "
          f"misses={counters['misses']} writes={counters['writes']} "
          f"corrupt={counters['corrupt']}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .service import SweepServer, SweepService

    profile = _profile_from_args(args)

    async def run() -> int:
        service = SweepService(
            profile,
            store=args.store,
            workers=args.workers,
            queue_limit=args.queue_limit,
            job_timeout=args.job_timeout,
            max_retries=args.max_retries,
        )
        await service.start()
        server = SweepServer(service, args.host, args.port)
        await server.start()
        print(
            f"repro-nd service listening on {server.host}:{server.port} "
            f"(store={args.store}, workers={args.workers}, "
            f"backend={profile.backend}, jobs={profile.jobs})",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()

        def request_stop(signum: int) -> None:
            print(
                f"repro-nd service stopping ({signal.Signals(signum).name})",
                flush=True,
            )
            stop.set()

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, request_stop, signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix event loops: Ctrl-C still raises
        try:
            await stop.wait()
        finally:
            await server.stop()
            await service.stop()
        print("repro-nd service stopped", flush=True)
        return 0

    return asyncio.run(run())


def _cmd_submit(args: argparse.Namespace) -> int:
    import asyncio
    import json
    from pathlib import Path

    from .api import SpecError
    from .service import RemoteClient, RemoteError

    if bool(args.campaign) == bool(args.spec_json or args.spec_file):
        raise SpecError(
            "submit needs exactly one of --campaign FILE or a spec "
            "(--spec-json / --spec-file with --verb)"
        )
    if args.stream and args.campaign:
        raise SpecError("--stream follows one job; not usable with --campaign")

    def show(label: str, response: dict) -> bool:
        job = response.get("job", {})
        if not response.get("ok", False):
            error = response.get("error", {})
            print(f"FAILED {label}: {error.get('type')}: "
                  f"{error.get('message')}")
            return False
        meta = response.get("store_meta") or {}
        state = job.get("state", "submitted")
        source = job.get("source") or ("hit" if meta.get("hit") else None)
        line = f"{job.get('id', '?')} {label}: {state}"
        if source:
            line += f" ({source})"
        if meta.get("fingerprint"):
            line += f" fingerprint={meta['fingerprint'][:12]}"
        print(line)
        return True

    async def run() -> int:
        async with await RemoteClient.connect(args.host, args.port) as client:
            failures = 0
            if args.campaign:
                from .campaign import Campaign

                campaign = Campaign.from_file(args.campaign)
                responses = []
                for entry in campaign.expand():
                    try:
                        response = await client.submit(
                            entry.verb,
                            entry.spec,
                            priority=args.priority,
                            wait=not args.no_wait,
                        )
                    except RemoteError as exc:
                        response = {"ok": False, "error": exc.payload}
                    responses.append((entry.label, response))
                for label, response in responses:
                    if not show(label, response):
                        failures += 1
                print(f"{len(responses) - failures}/{len(responses)} "
                      f"entries ok")
                return 1 if failures else 0
            spec = (
                json.loads(args.spec_json)
                if args.spec_json
                else json.loads(Path(args.spec_file).read_text())
            )
            if args.stream:
                # Admit without waiting, then follow the job's event
                # stream to the terminal summary frame.
                try:
                    response = await client.submit(
                        args.verb, spec, priority=args.priority, wait=False
                    )
                except RemoteError as exc:
                    show(args.verb, {"ok": False, "error": exc.payload})
                    return 1
                job_id = response.get("job", {}).get("id")
                summary = None
                async for frame in client.stream(job_id):
                    if frame.get("done"):
                        summary = frame.get("job", {})
                        break
                    event = frame.get("event", {})
                    line = f"{event.get('job', job_id)} {event.get('kind', '?')}"
                    if event.get("data"):
                        line += " " + json.dumps(
                            event["data"], sort_keys=True, default=str
                        )
                    print(line, flush=True)
                summary = summary or {}
                ok = summary.get("state") == "done"
                line = f"{job_id} {args.verb}: {summary.get('state', '?')}"
                if summary.get("source"):
                    line += f" ({summary['source']})"
                if summary.get("error"):
                    line += f" error={summary['error']}"
                print(line)
                if ok and args.json:
                    result = await client.result(job_id)
                    print(json.dumps(result.get("result"), indent=2,
                                     sort_keys=True))
                return 0 if ok else 1
            try:
                response = await client.submit(
                    args.verb, spec,
                    priority=args.priority,
                    wait=not args.no_wait,
                )
            except RemoteError as exc:
                response = {"ok": False, "error": exc.payload}
            ok = show(args.verb, response)
            if ok and response.get("result") and args.json:
                print(json.dumps(response["result"], indent=2,
                                 sort_keys=True))
            return 0 if ok else 1

    return asyncio.run(run())


def _cmd_protocols(args: argparse.Namespace) -> int:
    slot = args.slot_length
    zoo = [
        Disco(37, 43, slot_length=slot),
        UConnect(31, slot_length=slot),
        Searchlight(40, slot_length=slot),
        Diffcodes(7, slot_length=slot),
    ]
    rows = []
    for proto in zoo:
        device = proto.device(Role.E)
        rows.append(
            [
                proto.info().name,
                f"{device.eta:.4f}",
                f"{device.beta:.5f}",
                format_seconds(proto.predicted_worst_case_latency()),
            ]
        )
    print(
        format_table(
            ["protocol", "eta", "beta", "worst-case L"],
            rows,
            title=f"Protocol zoo at slot length {slot} us",
        )
    )
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    """Regenerate the closed-form paper artifacts (FIG6, FIG7, TAB1,
    EQ18-19, APPB) as CSVs without the pytest harness."""
    from pathlib import Path

    from .analysis import write_csv
    from .core.bounds import symmetric_bound
    from .core.collisions import constrained_latency_curve, optimize_redundancy
    from .core.slotted_bounds import (
        slotted_bound_one_beacon,
        slotted_bound_two_beacons,
        TABLE1_PROTOCOLS,
    )
    from .core.bounds import asymmetric_bound, constrained_bound

    out = Path(args.output_dir)
    omega = args.omega * 1e-6  # seconds

    # FIG6: latency-energy product vs asymmetry.
    sums = [0.005, 0.01, 0.02, 0.05, 0.1, 0.2]
    ratios = [1, 2, 5, 10]
    rows = []
    for total in sums:
        row = [total]
        for ratio in ratios:
            eta_e = total * ratio / (1 + ratio)
            eta_f = total / (1 + ratio)
            row.append(asymmetric_bound(omega, eta_e, eta_f) * total)
        rows.append(row)
    write_csv(out / "fig6-ratio.csv",
              ["eta_E+eta_F"] + [f"L*sum @ {r}:1" for r in ratios], rows)

    # FIG7: collision-constrained bounds.
    etas = [round(10 ** (-3 + i * 0.125), 10) for i in range(25) if 10 ** (-3 + i * 0.125) <= 1]
    senders = [2, 10, 100, 1000]
    rows = []
    for eta in etas:
        row = [eta, symmetric_bound(omega, eta)]
        for s in senders:
            row.append(constrained_latency_curve([eta], 0.01, s, omega)[0][1])
        rows.append(row)
    write_csv(out / "fig7.csv",
              ["eta", "unconstrained"] + [f"S={s}" for s in senders], rows)

    # TAB1: slotted-protocol latencies.
    grid = [(0.01, 0.001), (0.02, 0.002), (0.05, 0.005), (0.05, 0.02), (0.1, 0.01)]
    rows = []
    for eta, beta in grid:
        row = [eta, beta, constrained_bound(omega, eta, beta)]
        row += [f(omega, eta, beta) for f in TABLE1_PROTOCOLS.values()]
        rows.append(row)
    write_csv(out / "tab1.csv",
              ["eta", "beta", "bound"] + list(TABLE1_PROTOCOLS), rows)

    # EQ18/19: alpha sweep.
    alphas = [0.25, 0.4, 0.5, 0.7071, 0.8, 1.0, 1.5, 2.0, 3.0]
    rows = [
        [a, symmetric_bound(omega, 0.01, a),
         slotted_bound_one_beacon(omega, 0.01, a),
         slotted_bound_two_beacons(omega, 0.01, a)]
        for a in alphas
    ]
    write_csv(out / "eq18-19.csv",
              ["alpha", "fundamental", "eq18", "eq19"], rows)

    # APPB: the worked example.
    plan = optimize_redundancy(0.05, 0.0005, 3, omega)
    write_csv(out / "appb-example.csv",
              ["Q", "beta", "gamma", "L'(Pf)", "L_pair", "Pc"],
              [[plan.redundancy, plan.beta, plan.gamma, plan.latency,
                plan.pair_latency, plan.per_beacon_collision_prob]])

    print(f"wrote fig6-ratio, fig7, tab1, eq18-19, appb-example under {out}/")
    return 0


def _runtime_flags() -> argparse.ArgumentParser:
    """The shared runtime-flag parent parser.

    Declared once and attached to every runtime-using subcommand, so no
    subcommand re-declares ``--jobs``/``--backend``/... -- the flags
    exist purely as per-invocation overrides of the one
    :class:`repro.api.RuntimeProfile` (``--profile`` / environment
    default) the command's session runs under.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("runtime (RuntimeProfile overrides)")
    group.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help=(
            "load a repro.api.RuntimeProfile from a TOML or JSON file; "
            "explicit runtime flags override its fields"
        ),
    )
    group.add_argument(
        "--jobs", type=_positive_int, default=None,
        help=(
            "processes for scenario grids (profile default: 1 = "
            "in-process); above 1, grids run on one persistent pool owned "
            "by the command's session; sweeps and DES spot checks always "
            "run in-process"
        ),
    )
    group.add_argument(
        "--backend",
        choices=["auto", "python", "numpy"],
        default=None,
        help=(
            "sweep + critical-offset-enumeration kernel: auto = "
            "NumPy-vectorized when NumPy is importable (python "
            "fallback); results are bit-identical"
        ),
    )
    group.add_argument(
        "--mp-context", choices=["fork", "spawn", "forkserver"], default=None,
        help="multiprocessing start method (default: platform choice)",
    )
    return parent


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro-nd`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro-nd",
        description="Optimal neighbor discovery: bounds, schedules, simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runtime = _runtime_flags()

    p_bound = sub.add_parser("bound", help="evaluate the fundamental bounds")
    p_bound.add_argument("--eta", type=float, required=True)
    p_bound.add_argument("--omega", type=int, default=32)
    p_bound.add_argument("--alpha", type=float, default=1.0)
    p_bound.add_argument("--beta-max", type=float, default=None)
    p_bound.set_defaults(func=_cmd_bound)

    p_syn = sub.add_parser("synthesize", help="build a bound-attaining schedule")
    p_syn.add_argument("--eta", type=float, required=True)
    p_syn.add_argument("--omega", type=int, default=32)
    p_syn.add_argument("--alpha", type=float, default=1.0)
    p_syn.set_defaults(func=_cmd_synthesize)

    p_sim = sub.add_parser(
        "simulate", parents=[runtime],
        help="run a dense-network simulation",
    )
    p_sim.add_argument("--devices", type=int, default=5)
    p_sim.add_argument("--eta", type=float, default=0.02)
    p_sim.add_argument("--omega", type=int, default=32)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser(
        "sweep", parents=[runtime],
        help="exact phase-offset sweep of a synthesized pair",
    )
    p_sweep.add_argument("--eta", type=float, required=True)
    p_sweep.add_argument("--omega", type=int, default=32)
    p_sweep.add_argument("--alpha", type=float, default=1.0)
    p_sweep.add_argument("--samples", type=_positive_int, default=2048)
    p_sweep.add_argument("--horizon-multiple", type=_positive_int, default=3)
    p_sweep.add_argument("--turnaround", type=int, default=0)
    p_sweep.add_argument(
        "--model",
        choices=[m.value for m in ReceptionModel],
        default=ReceptionModel.POINT.value,
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser(
        "validate", parents=[runtime],
        help="verified worst case: analytic sweep + DES cross-check",
    )
    p_val.add_argument("--eta", type=float, required=True)
    p_val.add_argument("--omega", type=int, default=32)
    p_val.add_argument("--alpha", type=float, default=1.0)
    p_val.add_argument("--horizon-multiple", type=_positive_int, default=3)
    p_val.add_argument("--turnaround", type=int, default=0)
    p_val.add_argument(
        "--budget-ms", type=float, default=None,
        help=(
            "per-query compute budget in milliseconds: run the adaptive "
            "fidelity ladder (bounded verdict allowed) instead of the "
            "always-exact engine"
        ),
    )
    p_val.add_argument(
        "--fidelity", choices=["exact", "bounded", "auto"], default="auto",
        help=(
            "worst-case fidelity policy; 'auto' (default) is exact "
            "without --budget-ms and budgeted with it"
        ),
    )
    p_val.set_defaults(func=_cmd_validate)

    p_grid = sub.add_parser(
        "grid", parents=[runtime],
        help="batch-run a dense-network scenario grid",
    )
    p_grid.add_argument(
        "--devices", type=_int_list, default=[3, 5],
        help="comma-separated device counts, one grid axis (e.g. 3,5,10)",
    )
    p_grid.add_argument(
        "--etas", type=_float_list, default=[0.02],
        help="comma-separated duty-cycles, the other grid axis",
    )
    p_grid.add_argument("--omega", type=int, default=32)
    p_grid.add_argument("--seed", type=int, default=0)
    p_grid.set_defaults(func=_cmd_grid)

    p_camp = sub.add_parser(
        "campaign",
        help="run/inspect resumable experiment campaigns over a result store",
    )
    camp_sub = p_camp.add_subparsers(dest="campaign_command", required=True)

    c_run = camp_sub.add_parser(
        "run", parents=[runtime],
        help=(
            "execute a campaign file; entries already in the store are "
            "skipped, so re-running resumes an interrupted campaign"
        ),
    )
    c_run.add_argument("file", help="campaign definition (TOML or JSON)")
    c_run.add_argument(
        "--store", default="results/store",
        help="result-store directory (default: results/store)",
    )
    c_run.add_argument(
        "--manifest", default=None,
        help="manifest path (default: results/campaigns/<name>.json)",
    )
    c_run.add_argument(
        "--max-runs", type=_positive_int, default=None,
        help="cap on *executed* (non-hit) entries this invocation",
    )
    c_run.set_defaults(func=_cmd_campaign_run)

    c_status = camp_sub.add_parser(
        "status", help="store-membership status of a campaign (no execution)"
    )
    c_status.add_argument("file", help="campaign definition (TOML or JSON)")
    c_status.add_argument("--store", default="results/store")
    c_status.add_argument("--manifest", default=None)
    c_status.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    c_status.set_defaults(func=_cmd_campaign_status)

    c_gc = camp_sub.add_parser(
        "gc", help="evict stale result-store entries (TTL and/or LRU cap)"
    )
    c_gc.add_argument("--store", default="results/store")
    c_gc.add_argument(
        "--max-entries", type=_positive_int, default=None,
        help="keep at most N newest entries",
    )
    c_gc.add_argument(
        "--ttl", type=float, default=None, metavar="SECONDS",
        help="evict entries older than SECONDS",
    )
    c_gc.add_argument("--dry-run", action="store_true")
    c_gc.set_defaults(func=_cmd_campaign_gc)

    p_store = sub.add_parser(
        "store", help="inspect the content-addressed result store"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    s_stats = store_sub.add_parser(
        "stats",
        help=(
            "object count, total bytes, quarantine count and memory-LRU "
            "hit/miss counters (the service 'stats' verb serves the same "
            "payload)"
        ),
    )
    s_stats.add_argument("--store", default="results/store")
    s_stats.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    s_stats.set_defaults(func=_cmd_store_stats)

    p_serve = sub.add_parser(
        "serve", parents=[runtime],
        help=(
            "run the sweep-service daemon: JSON-lines-over-TCP job API "
            "with store-hit fast path and single-flight dedup"
        ),
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7643,
        help="TCP port (0 = ephemeral, printed on startup)",
    )
    p_serve.add_argument(
        "--store", default="results/store",
        help="result-store directory shared by every worker session",
    )
    p_serve.add_argument(
        "--workers", type=_positive_int, default=2,
        help="concurrent compute slots (one worker session each)",
    )
    p_serve.add_argument(
        "--queue-limit", type=_positive_int, default=64,
        help="bounded admission queue depth (full = ServiceOverload)",
    )
    p_serve.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock deadline (default: none)",
    )
    p_serve.add_argument(
        "--max-retries", type=int, default=2,
        help="crash-class retries per job beyond the first attempt",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help=(
            "submit work to a running sweep-service daemon (single spec "
            "or a whole campaign as a job batch)"
        ),
    )
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=7643)
    p_submit.add_argument(
        "--verb", choices=["sweep", "worst_case", "grid", "simulate"],
        default="sweep",
    )
    p_submit.add_argument(
        "--spec-json", default=None, metavar="JSON",
        help="inline RunSpec mapping, e.g. "
             '\'{"pair": {"kind": "symmetric", "eta": 0.01}}\'',
    )
    p_submit.add_argument(
        "--spec-file", default=None, metavar="PATH",
        help="path to a JSON RunSpec mapping",
    )
    p_submit.add_argument(
        "--campaign", default=None, metavar="FILE",
        help="submit every expanded entry of a campaign file as one job",
    )
    p_submit.add_argument("--priority", type=int, default=0)
    p_submit.add_argument(
        "--no-wait", action="store_true",
        help="return job ids immediately instead of waiting for results",
    )
    p_submit.add_argument(
        "--json", action="store_true",
        help="print the full result payload (single-spec submits)",
    )
    p_submit.add_argument(
        "--stream", action="store_true",
        help=(
            "follow the job's event stream live (submitted / running / "
            "progress / retry / done) instead of waiting silently; "
            "single-spec submits only"
        ),
    )
    p_submit.set_defaults(func=_cmd_submit)

    p_zoo = sub.add_parser("protocols", help="compare the protocol zoo")
    p_zoo.add_argument("--slot-length", type=int, default=10_000)
    p_zoo.set_defaults(func=_cmd_protocols)

    p_fig = sub.add_parser(
        "figures", help="regenerate the closed-form paper figures as CSV"
    )
    p_fig.add_argument("--output-dir", default="results")
    p_fig.add_argument("--omega", type=int, default=32)
    p_fig.set_defaults(func=_cmd_figures)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        from .api import SpecError
        from .backends import BackendUnavailable

        if isinstance(exc, (BackendUnavailable, SpecError)):
            # e.g. --backend numpy on a base install, or a malformed
            # --profile file: a clean one-line error like any other bad
            # flag, not a traceback.
            parser.exit(2, f"{parser.prog}: error: {exc}\n")
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
