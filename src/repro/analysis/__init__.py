"""Analysis layer: optimality gaps, Pareto fronts, statistics and table
rendering for the benchmark harness."""

from .energy import energy_per_discovery_curve, EnergyPoint, protocol_energy_table, ProtocolEnergy
from .measurement import measure_pair_worst_case, ProtocolMeasurement
from .optimality import gap_for_protocol, gap_table_rows, OptimalityGap
from .pareto import front_distance, pareto_front, ParetoPoint
from .stats import LatencySummary, summarize_latencies, wilson_interval
from .tables import format_seconds, format_table, format_value, write_csv
from .visualize import render_campaign_status, render_coverage_map, render_schedule

__all__ = [
    "LatencySummary",
    "OptimalityGap",
    "ParetoPoint",
    "format_seconds",
    "format_table",
    "format_value",
    "front_distance",
    "gap_for_protocol",
    "gap_table_rows",
    "measure_pair_worst_case",
    "EnergyPoint",
    "ProtocolEnergy",
    "energy_per_discovery_curve",
    "protocol_energy_table",
    "ProtocolMeasurement",
    "pareto_front",
    "render_campaign_status",
    "render_coverage_map",
    "render_schedule",
    "summarize_latencies",
    "wilson_interval",
    "write_csv",
]
