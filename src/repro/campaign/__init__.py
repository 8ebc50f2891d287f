"""Resumable experiment campaigns over the content-addressed store.

A **campaign** is a declarative TOML/JSON file expanding a parameter
lattice into :class:`~repro.api.RunSpec` descriptions
(:class:`Campaign`); a :class:`CampaignRunner` drives the lattice
through a store-backed :class:`~repro.api.Session`, skipping every
entry whose fingerprint is already stored and atomically checkpointing
a JSON manifest after each entry.  Interrupt it anywhere and re-run
the same command: only missing fingerprints execute.

Quickstart::

    from repro.campaign import Campaign, CampaignRunner
    from repro.store import ResultStore

    campaign = Campaign.from_file("campaigns/golden.json")
    runner = CampaignRunner(campaign, ResultStore("results/store"))
    manifest = runner.run()          # resumable: hits skip computation
    assert manifest["complete"]

or from the command line::

    repro campaign run campaigns/golden.json
    repro campaign status campaigns/golden.json
    repro campaign gc --max-entries 1000 --ttl 604800

The checked-in golden campaign (:mod:`repro.campaign.golden`)
regenerates the pinned validation CSVs byte-identically from store
payloads.
"""

from .campaign import Campaign, CampaignEntry, VERBS
from .golden import (
    build_golden_campaign,
    GOLDEN_CAMPAIGN_PATH,
    golden_rows,
    regenerate_golden_csvs,
)
from .runner import CampaignRunner, MANIFEST_FORMAT

__all__ = [
    "Campaign",
    "CampaignEntry",
    "CampaignRunner",
    "MANIFEST_FORMAT",
    "VERBS",
    "build_golden_campaign",
    "GOLDEN_CAMPAIGN_PATH",
    "golden_rows",
    "regenerate_golden_csvs",
]
