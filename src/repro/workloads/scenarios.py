"""Scenario generators: the deployment patterns the paper motivates.

Each scenario bundles protocols, phases and simulation knobs into a
ready-to-run description consumed by the examples and benchmarks:

* :func:`symmetric_pair` -- two peers with equal budgets (Section 5.2).
* :func:`gateway_and_peripherals` -- one mains-powered master with a
  generous duty-cycle, several battery peripherals (Section 5.3's
  asymmetric case; the "devices join gradually" network of Section 6).
* :func:`dense_network` -- ``S`` devices discovering simultaneously, the
  collision-bound regime of Section 5.2.2 / Appendix B.
* :func:`drifting_pair` -- a pair with ppm clock errors for robustness
  studies (the decorrelation discussion of Section 8).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core.optimal import synthesize_asymmetric, synthesize_symmetric
from ..core.sequences import NDProtocol

__all__ = [
    "Scenario",
    "SCENARIO_FACTORIES",
    "register_scenario_factory",
    "scenario_grid",
    "symmetric_pair",
    "gateway_and_peripherals",
    "dense_network",
    "drifting_pair",
]


@dataclass
class Scenario:
    """A ready-to-simulate deployment."""

    name: str
    protocols: list[NDProtocol]
    phases: list[int]
    horizon: int
    drift_ppm: list[int] = field(default_factory=list)
    start_times: list[int] = field(default_factory=list)
    """Per-device boot times for gradual-join scenarios (empty: all at 0)."""
    description: str = ""

    def __post_init__(self) -> None:
        if len(self.protocols) != len(self.phases):
            raise ValueError("protocols and phases must align")
        if self.drift_ppm and len(self.drift_ppm) != len(self.protocols):
            raise ValueError("drift_ppm must align with protocols")
        if self.start_times and len(self.start_times) != len(self.protocols):
            raise ValueError("start_times must align with protocols")

    def cost_hint(self) -> float:
        """Deterministic relative simulation cost for grid scheduling.

        Consumed by :func:`repro.parallel.estimate_scenario_cost` to
        order work-stealing submissions longest-first; subclasses with
        extra knobs can override it.  Delegates to the one event-rate
        cost model in :mod:`repro.parallel.schedule` with its unit
        weights: an event count, which ranks scenarios the same on any
        machine.  Staggered
        boots shorten each device's active span, which the estimate
        ignores -- an upper bound is exactly what longest-first
        scheduling wants.
        """
        from ..parallel.schedule import default_simulation_cost

        return default_simulation_cost(self.protocols, self.horizon)


def _random_phases(
    protocols: list[NDProtocol], seed: int
) -> list[int]:
    rng = random.Random(seed)
    phases = []
    for proto in protocols:
        period = 1
        if proto.beacons is not None:
            period = max(period, int(proto.beacons.period))
        if proto.reception is not None:
            period = max(period, int(proto.reception.period))
        phases.append(rng.randrange(period))
    return phases


def scenario_grid(
    factory: Callable[..., Scenario], **axes: Sequence
) -> list[Scenario]:
    """Expand a parameter grid into concrete scenarios.

    Each keyword names a ``factory`` parameter and supplies the values
    of one grid axis; the cross product is expanded in row-major order
    (last axis fastest, axes in keyword order), so the flattened list --
    and therefore the per-index seeds the grid drivers derive -- is
    deterministic.  Example::

        grid = scenario_grid(dense_network, n_devices=[5, 10], eta=[0.01, 0.02])
        results = ParallelSweep(jobs=4).map_scenarios(grid)

    expands to ``(5, 0.01), (5, 0.02), (10, 0.01), (10, 0.02)``.
    """
    if not axes:
        raise ValueError("scenario_grid needs at least one axis")
    names = list(axes)
    for name, values in axes.items():
        if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
            raise TypeError(
                f"axis {name!r} must be a sequence of values, got {values!r}"
            )
        if not values:
            raise ValueError(f"axis {name!r} is empty")
    return [
        factory(**dict(zip(names, point)))
        for point in itertools.product(*(axes[name] for name in names))
    ]


def symmetric_pair(
    eta: float = 0.01, omega: int = 32, alpha: float = 1.0, seed: int = 0
) -> Scenario:
    """Two peers running the bound-attaining symmetric protocol."""
    protocol, design = synthesize_symmetric(omega, eta, alpha)
    protocols = [protocol, protocol]
    return Scenario(
        name=f"symmetric-pair(eta={eta:g})",
        protocols=protocols,
        phases=_random_phases(protocols, seed),
        horizon=design.worst_case_latency * 4,
        description=(
            f"Two peers at eta={eta:g}; guaranteed one-way discovery within "
            f"{design.worst_case_latency} us"
        ),
    )


def gateway_and_peripherals(
    n_peripherals: int = 4,
    eta_gateway: float = 0.10,
    eta_peripheral: float = 0.005,
    omega: int = 32,
    alpha: float = 1.0,
    seed: int = 0,
) -> Scenario:
    """A mains-powered gateway plus battery peripherals (Theorem 5.7).

    The gateway spends a rich duty-cycle so the peripherals can stay
    frugal -- Figure 6's point is that only the *sum* matters.
    """
    gateway, peripheral, design_gp, design_pg = synthesize_asymmetric(
        omega, eta_gateway, eta_peripheral, alpha
    )
    protocols = [gateway] + [peripheral] * n_peripherals
    horizon = 4 * max(design_gp.worst_case_latency, design_pg.worst_case_latency)
    return Scenario(
        name=f"gateway+{n_peripherals}p",
        protocols=protocols,
        phases=_random_phases(protocols, seed),
        horizon=horizon,
        description=(
            f"Gateway at eta={eta_gateway:g}, {n_peripherals} peripherals at "
            f"eta={eta_peripheral:g}"
        ),
    )


def dense_network(
    n_devices: int = 10,
    eta: float = 0.02,
    omega: int = 32,
    alpha: float = 1.0,
    seed: int = 0,
    horizon_multiple: int = 8,
) -> Scenario:
    """``S`` identical devices discovering simultaneously -- the regime
    where channel utilization must be constrained (Section 5.2.2)."""
    protocol, design = synthesize_symmetric(omega, eta, alpha)
    protocols = [protocol] * n_devices
    return Scenario(
        name=f"dense-{n_devices}(eta={eta:g})",
        protocols=protocols,
        phases=_random_phases(protocols, seed),
        horizon=design.worst_case_latency * horizon_multiple,
        description=(
            f"{n_devices} devices at eta={eta:g} on one collision-prone "
            f"channel"
        ),
    )


def gradual_join(
    n_devices: int = 6,
    eta: float = 0.02,
    join_spacing_multiple: float = 0.5,
    omega: int = 32,
    alpha: float = 1.0,
    seed: int = 0,
) -> Scenario:
    """Devices booting one after another -- the "new devices join
    gradually" network of Section 6, where at any moment essentially one
    master and one joiner run ND and the *unconstrained* bound is the
    relevant one (the regime slotted protocols cannot win).

    Each device joins ``join_spacing_multiple`` worst-case latencies
    after the previous one.
    """
    protocol, design = synthesize_symmetric(omega, eta, alpha)
    protocols = [protocol] * n_devices
    spacing = max(1, int(design.worst_case_latency * join_spacing_multiple))
    start_times = [i * spacing for i in range(n_devices)]
    return Scenario(
        name=f"gradual-join-{n_devices}(eta={eta:g})",
        protocols=protocols,
        phases=_random_phases(protocols, seed),
        horizon=start_times[-1] + design.worst_case_latency * 4,
        start_times=start_times,
        description=(
            f"{n_devices} devices at eta={eta:g}, one joining every "
            f"{spacing} us"
        ),
    )


def drifting_pair(
    eta: float = 0.01,
    drift_ppm: int = 40,
    omega: int = 32,
    alpha: float = 1.0,
    seed: int = 0,
) -> Scenario:
    """A symmetric pair whose crystals disagree by ``2 x drift_ppm``."""
    base = symmetric_pair(eta, omega, alpha, seed)
    return Scenario(
        name=f"drifting-pair(eta={eta:g}, {drift_ppm}ppm)",
        protocols=base.protocols,
        phases=base.phases,
        horizon=base.horizon,
        drift_ppm=[drift_ppm, -drift_ppm],
        description=base.description + f"; +-{drift_ppm} ppm clock drift",
    )


#: Named scenario factories resolvable from declarative
#: :class:`repro.api.RunSpec` descriptions (``{"factory": "...",
#: "params"/"axes": {...}}``) -- the registry that lets a scenario or a
#: whole grid live in a JSON spec file instead of python code.
SCENARIO_FACTORIES: dict[str, Callable[..., Scenario]] = {
    "symmetric_pair": symmetric_pair,
    "gateway_and_peripherals": gateway_and_peripherals,
    "dense_network": dense_network,
    "gradual_join": gradual_join,
    "drifting_pair": drifting_pair,
}


def register_scenario_factory(
    name: str, factory: Callable[..., Scenario]
) -> None:
    """Register a custom scenario factory for declarative specs
    (replacing any previous entry under ``name``)."""
    SCENARIO_FACTORIES[name] = factory
