"""Declarative campaign definitions: a parameter lattice of RunSpecs.

A campaign file (TOML or JSON) names a list of **runs**; each run gives
a verb (``sweep`` / ``worst_case`` / ``grid`` / ``simulate``), a base
:class:`~repro.api.RunSpec` payload, and optionally **axes** -- a
mapping from dotted spec paths to value lists, expanded as a cross
product::

    name = "slot-ablation"

    [[runs]]
    verb = "sweep"
    label = "searchlight"
    spec = {pair = {kind = "zoo", protocol = "Searchlight",
                    params = {period_slots = 8, omega = 32}},
            sampling = "critical", omega = 32}
    [runs.axes]
    "pair.params.slot_length" = [96, 160, 320, 1280]

Expansion is deterministic: runs in file order, axes in file key order,
row-major with the last axis fastest (the same convention as
:func:`repro.workloads.scenario_grid`), so entry indices -- and the
resume bookkeeping built on them -- are stable across loads.
"""

from __future__ import annotations

import itertools
import json
from copy import deepcopy
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from ..api.spec import RunSpec, SpecError

__all__ = ["Campaign", "CampaignEntry", "VERBS"]

#: The Session verbs a campaign run may name.
VERBS = ("sweep", "worst_case", "grid", "simulate")


@dataclass(frozen=True)
class CampaignEntry:
    """One expanded lattice point: a concrete spec for one verb."""

    index: int
    """Position in the campaign's deterministic expansion order."""
    run_index: int
    """Which ``runs`` block this entry came from."""
    verb: str
    label: str
    spec: RunSpec


def _set_path(payload: dict, path: str, value) -> None:
    """Set ``payload[a][b][c] = value`` for dotted path ``a.b.c``,
    creating intermediate mappings as needed."""
    keys = path.split(".")
    node = payload
    for key in keys[:-1]:
        nxt = node.get(key)
        if not isinstance(nxt, dict):
            nxt = {}
            node[key] = nxt
        node = nxt
    node[keys[-1]] = value


class Campaign:
    """A validated campaign definition (see module docstring)."""

    def __init__(self, name: str, runs: Sequence[Mapping], description: str = ""):
        self.name = str(name)
        self.description = str(description)
        self.runs = [dict(run) for run in runs]
        self._validate()

    def _validate(self) -> None:
        if not self.name:
            raise SpecError("campaign needs a non-empty name")
        if not self.runs:
            raise SpecError("campaign needs at least one run")
        for i, run in enumerate(self.runs):
            unknown = set(run) - {"verb", "spec", "axes", "label"}
            if unknown:
                raise SpecError(
                    f"unknown campaign run key(s) in runs[{i}]: "
                    f"{sorted(unknown)}; known: ['axes', 'label', 'spec', 'verb']"
                )
            verb = run.get("verb")
            if verb not in VERBS:
                raise SpecError(
                    f"runs[{i}].verb must be one of {list(VERBS)}, got {verb!r}"
                )
            spec = run.get("spec", {})
            if not isinstance(spec, Mapping):
                raise SpecError(f"runs[{i}].spec must be a mapping, got {spec!r}")
            axes = run.get("axes", {})
            if not isinstance(axes, Mapping):
                raise SpecError(f"runs[{i}].axes must be a mapping, got {axes!r}")
            for axis, values in axes.items():
                if not isinstance(axis, str) or not axis:
                    raise SpecError(f"runs[{i}] axis names must be strings")
                if (
                    not isinstance(values, Sequence)
                    or isinstance(values, (str, bytes))
                    or not values
                ):
                    raise SpecError(
                        f"runs[{i}].axes[{axis!r}] must be a non-empty list, "
                        f"got {values!r}"
                    )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        payload = {"name": self.name, "runs": deepcopy(self.runs)}
        if self.description:
            payload["description"] = self.description
        return payload

    @classmethod
    def from_dict(cls, data: Mapping) -> "Campaign":
        if not isinstance(data, Mapping):
            raise SpecError(f"campaign payload must be a mapping, got {data!r}")
        unknown = set(data) - {"name", "description", "runs"}
        if unknown:
            raise SpecError(
                f"unknown campaign key(s): {sorted(unknown)}; "
                f"known: ['description', 'name', 'runs']"
            )
        return cls(
            name=data.get("name", ""),
            runs=data.get("runs", []),
            description=data.get("description", ""),
        )

    @classmethod
    def from_file(cls, path) -> "Campaign":
        """Load a campaign from ``.toml`` / ``.json`` (extension picks
        the parser; anything else tries JSON first, then TOML)."""
        import tomllib

        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise SpecError(f"cannot read campaign {path}: {exc}") from exc
        suffix = path.suffix.lower()
        try:
            if suffix == ".toml":
                return cls.from_dict(tomllib.loads(text))
            if suffix == ".json":
                return cls.from_dict(json.loads(text))
            try:
                return cls.from_dict(json.loads(text))
            except json.JSONDecodeError:
                return cls.from_dict(tomllib.loads(text))
        except (json.JSONDecodeError, tomllib.TOMLDecodeError) as exc:
            raise SpecError(f"malformed campaign {path}: {exc}") from exc

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def expand(self) -> list[CampaignEntry]:
        """The concrete lattice: every run's axes cross product, in the
        deterministic order described in the module docstring.  Spec
        validation happens here (each point becomes a
        :class:`~repro.api.RunSpec`), so a bad lattice fails before
        anything executes."""
        entries: list[CampaignEntry] = []
        index = 0
        for run_index, run in enumerate(self.runs):
            verb = run["verb"]
            axes = run.get("axes") or {}
            names = list(axes)
            points = (
                itertools.product(*(axes[name] for name in names))
                if names
                else [()]
            )
            for point in points:
                payload = deepcopy(dict(run.get("spec") or {}))
                for name, value in zip(names, point):
                    _set_path(payload, name, value)
                try:
                    spec = RunSpec.from_dict(payload)
                except SpecError as exc:
                    raise SpecError(
                        f"campaign {self.name!r} runs[{run_index}] expands "
                        f"to an invalid spec at "
                        f"{dict(zip(names, point))}: {exc}"
                    ) from exc
                label = str(run.get("label") or verb)
                if names:
                    label += (
                        "["
                        + ",".join(
                            f"{name}={value}"
                            for name, value in zip(names, point)
                        )
                        + "]"
                    )
                entries.append(
                    CampaignEntry(
                        index=index,
                        run_index=run_index,
                        verb=verb,
                        label=label,
                        spec=spec,
                    )
                )
                index += 1
        return entries
