"""The golden campaign: the pinned CSVs regenerate byte-identically
through the content-addressed store, and a warm store re-executes
nothing."""

import json
from pathlib import Path

import pytest

from repro.api import RuntimeProfile
from repro.campaign import (
    build_golden_campaign,
    CampaignRunner,
    GOLDEN_CAMPAIGN_PATH,
    golden_rows,
    regenerate_golden_csvs,
)
from repro.store import ResultStore

RESULTS = Path(__file__).resolve().parents[1] / "results"
PINNED = ["val-uni.csv", "val-prot.csv", "abl-slot-analytic.csv",
          "abl-slot-empirical.csv"]


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A store populated by one cold golden-campaign run."""
    tmp = tmp_path_factory.mktemp("golden")
    store = ResultStore(tmp / "store")
    manifest = CampaignRunner(
        build_golden_campaign(), store, manifest_path=tmp / "manifest.json"
    ).run()
    assert manifest["complete"], manifest
    assert manifest["executed"] == manifest["total"]
    return store


def test_checked_in_definition_matches_builder():
    # campaigns/golden.json IS build_golden_campaign(): the campaign
    # file is the reviewable source of truth for what the pinned CSVs
    # mean, so drift between the two is an error.
    checked_in = json.loads(GOLDEN_CAMPAIGN_PATH.read_text())
    assert checked_in == build_golden_campaign().to_dict()


def test_regenerates_pinned_csvs_bit_identically(warm_store, tmp_path):
    written = regenerate_golden_csvs(warm_store, tmp_path)
    assert sorted(p.name for p in written) == sorted(PINNED)
    for path in written:
        pinned = (RESULTS / path.name).read_bytes()
        assert path.read_bytes() == pinned, (
            f"{path.name} diverged from the pinned golden CSV"
        )


def test_warm_rerun_hits_everything(warm_store, tmp_path):
    manifest = CampaignRunner(
        build_golden_campaign(), warm_store,
        manifest_path=tmp_path / "manifest.json",
    ).run()
    assert manifest["complete"]
    assert manifest["executed"] == 0  # zero sweep re-execution
    assert manifest["hits"] == manifest["total"]


def test_rows_come_from_store_payloads(warm_store):
    tables = golden_rows(warm_store)
    headers, rows = tables["val-uni"]
    assert headers[0] == "design" and len(rows) == 6
    assert all(row[5] == 0 for row in rows)  # zero failures, from store


def test_missing_fingerprint_is_loud(tmp_path):
    with pytest.raises(KeyError, match="missing campaign entry"):
        golden_rows(ResultStore(tmp_path / "empty"))


def test_jobs2_run_content_equivalent_to_serial(warm_store, tmp_path):
    # The process runtime's hard gate: a cold golden run under jobs=2
    # (the persistent pool) produces the same fingerprints with
    # byte-identical payloads as the serial reference, the same
    # done/executed partition, and regenerates the pinned CSVs
    # byte-identically.
    store = ResultStore(tmp_path / "store")
    manifest = CampaignRunner(
        build_golden_campaign(), store, profile=RuntimeProfile(jobs=2),
        manifest_path=tmp_path / "m.json",
    ).run()
    assert manifest["complete"], manifest
    assert manifest["executed"] == manifest["total"]
    assert all(
        (r["status"], r["source"]) == ("done", "executed")
        for r in manifest["entries"]
    )

    serial_fps = warm_store.known_fingerprints()
    assert store.known_fingerprints() == serial_fps
    for fp in serial_fps:
        assert store.get(fp).payload == warm_store.get(fp).payload

    written = regenerate_golden_csvs(store, tmp_path / "csv")
    for path in written:
        assert path.read_bytes() == (RESULTS / path.name).read_bytes(), (
            f"{path.name} diverged under the jobs=2 process runtime"
        )
