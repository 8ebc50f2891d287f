"""Campaign definitions, lattice expansion and resumable execution."""

import json
from types import SimpleNamespace

import pytest

from repro.api import SpecError
from repro.campaign import Campaign, CampaignRunner
from repro.store import ResultStore

BASE_SPEC = {
    "pair": {"kind": "symmetric", "eta": 0.01},
    "sampling": "uniform",
    "samples": 8,
    "horizon_multiple": 1,
}


def tiny_campaign(n_etas=3) -> Campaign:
    return Campaign(
        name="tiny",
        runs=[{
            "verb": "sweep",
            "label": "sym",
            "spec": BASE_SPEC,
            "axes": {"pair.eta": [0.01 + 0.01 * i for i in range(n_etas)]},
        }],
    )


# ----------------------------------------------------------------------
# Definition + expansion
# ----------------------------------------------------------------------


class TestCampaignDefinition:
    def test_json_and_toml_load_identically(self, tmp_path):
        payload = tiny_campaign().to_dict()
        json_path = tmp_path / "c.json"
        json_path.write_text(json.dumps(payload))
        toml_path = tmp_path / "c.toml"
        toml_path.write_text(
            'name = "tiny"\n'
            "[[runs]]\n"
            'verb = "sweep"\n'
            'label = "sym"\n'
            "[runs.spec]\n"
            'sampling = "uniform"\n'
            "samples = 8\n"
            "horizon_multiple = 1\n"
            "[runs.spec.pair]\n"
            'kind = "symmetric"\n'
            "eta = 0.01\n"
            "[runs.axes]\n"
            '"pair.eta" = [0.01, 0.02, 0.03]\n'
        )
        from_json = Campaign.from_file(json_path)
        from_toml = Campaign.from_file(toml_path)
        assert from_json.to_dict() == from_toml.to_dict() == payload

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown campaign key"):
            Campaign.from_dict({"name": "x", "runs": [], "exta": 1})
        with pytest.raises(SpecError, match="unknown campaign run key"):
            Campaign(name="x", runs=[{"verb": "sweep", "sepc": {}}])

    def test_bad_verb_and_axes_rejected(self):
        with pytest.raises(SpecError, match="verb"):
            Campaign(name="x", runs=[{"verb": "explode"}])
        with pytest.raises(SpecError, match="non-empty list"):
            Campaign(name="x", runs=[{"verb": "sweep",
                                      "axes": {"pair.eta": []}}])

    def test_malformed_file_is_spec_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        with pytest.raises(SpecError, match="malformed campaign"):
            Campaign.from_file(bad)

    def test_expansion_row_major_last_axis_fastest(self):
        campaign = Campaign(
            name="grid",
            runs=[{
                "verb": "sweep",
                "spec": BASE_SPEC,
                "axes": {"samples": [8, 16], "pair.eta": [0.01, 0.02]},
            }],
        )
        entries = campaign.expand()
        assert [e.index for e in entries] == [0, 1, 2, 3]
        assert [(e.spec.samples, e.spec.pair["eta"]) for e in entries] == [
            (8, 0.01), (8, 0.02), (16, 0.01), (16, 0.02),
        ]
        assert entries[0].label == "sweep[samples=8,pair.eta=0.01]"

    def test_dotted_paths_create_intermediates(self):
        campaign = Campaign(
            name="deep",
            runs=[{
                "verb": "simulate",
                "spec": {"scenario": {"factory": "symmetric_pair"}},
                "axes": {"scenario.params.eta": [0.02]},
            }],
        )
        entry = campaign.expand()[0]
        assert entry.spec.scenario["params"]["eta"] == 0.02

    def test_invalid_lattice_point_fails_before_execution(self):
        campaign = Campaign(
            name="broken",
            runs=[{"verb": "sweep", "spec": BASE_SPEC,
                   "axes": {"samples": [8, 0]}}],
        )
        with pytest.raises(SpecError, match=r"runs\[0\]"):
            campaign.expand()


# ----------------------------------------------------------------------
# Execution, resume, interrupt
# ----------------------------------------------------------------------


class TestCampaignRunner:
    def test_cold_then_warm(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = CampaignRunner(
            tiny_campaign(), store, manifest_path=tmp_path / "m.json"
        )
        manifest = runner.run()
        assert manifest["complete"]
        assert manifest["executed"] == 3 and manifest["hits"] == 0
        assert all(r["status"] == "done" for r in manifest["entries"])
        assert all(r["seconds"] >= 0 for r in manifest["entries"])

        # Manifest on disk matches the returned one.
        on_disk = json.loads((tmp_path / "m.json").read_text())
        assert on_disk == manifest

        again = runner.run()
        assert again["complete"]
        assert again["executed"] == 0 and again["hits"] == 3

    def test_max_runs_caps_executions_then_resumes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = CampaignRunner(
            tiny_campaign(), store, manifest_path=tmp_path / "m.json"
        )
        partial = runner.run(max_runs=1)
        assert not partial["complete"]
        assert partial["executed"] == 1
        statuses = [r["status"] for r in partial["entries"]]
        assert statuses == ["done", "skipped", "skipped"]

        # Resume: the stored entry hits, ONLY the missing ones execute.
        resumed = runner.run()
        assert resumed["complete"]
        assert resumed["hits"] == 1 and resumed["executed"] == 2

    def test_interrupted_campaign_resumes_missing_only(self, tmp_path):
        # Simulate a mid-lattice crash: a session whose second sweep
        # dies.  The manifest checkpoint and the store survive, so the
        # rerun executes exactly the entries the crash lost.
        store = ResultStore(tmp_path / "store")
        campaign = tiny_campaign()
        runner = CampaignRunner(
            campaign, store, manifest_path=tmp_path / "m.json"
        )

        from repro.api import Session

        real = Session(store=store)
        calls = {"n": 0}

        def dying_sweep(spec):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise KeyboardInterrupt
            return real.sweep(spec)

        try:
            with pytest.raises(KeyboardInterrupt):
                runner.run(session=SimpleNamespace(sweep=dying_sweep))
        finally:
            real.close()

        checkpoint = json.loads((tmp_path / "m.json").read_text())
        assert not checkpoint["complete"]
        assert [r["status"] for r in checkpoint["entries"]] == [
            "done", "pending", "pending",
        ]

        resumed = runner.run()
        assert resumed["complete"]
        assert resumed["hits"] == 1 and resumed["executed"] == 2

    def test_per_entry_failure_recorded_and_continues(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = CampaignRunner(
            tiny_campaign(), store, manifest_path=tmp_path / "m.json"
        )

        from repro.api import Session

        real = Session(store=store)
        calls = {"n": 0}

        def flaky_sweep(spec):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("worker lost")
            return real.sweep(spec)

        try:
            manifest = runner.run(session=SimpleNamespace(sweep=flaky_sweep))
        finally:
            real.close()
        assert manifest["failed"] == 1 and not manifest["complete"]
        failed = manifest["entries"][1]
        assert failed["status"] == "failed"
        assert "RuntimeError: worker lost" in failed["error"]
        # The other two completed despite the failure in the middle.
        assert manifest["executed"] == 2

    def test_status_reports_store_membership(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = CampaignRunner(
            tiny_campaign(), store, manifest_path=tmp_path / "m.json"
        )
        before = runner.status()
        assert before["total"] == 3 and before["stored"] == 0
        assert len(before["missing"]) == 3 and not before["complete"]

        runner.run(max_runs=2)
        middle = runner.status()
        assert middle["stored"] == 2 and len(middle["missing"]) == 1

        runner.run()
        after = runner.status()
        assert after["complete"] and after["missing"] == []

    def test_manifest_merges_prior_records_on_resume(self, tmp_path):
        # Satellite: the skeleton used to be rewritten from scratch on
        # every invocation, discarding prior statuses, seconds and
        # error strings.  It now merges with the existing manifest.
        store = ResultStore(tmp_path / "store")
        runner = CampaignRunner(
            tiny_campaign(), store, manifest_path=tmp_path / "m.json"
        )
        partial = runner.run(max_runs=1)
        done = partial["entries"][0]
        assert done["status"] == "done" and done["source"] == "executed"

        entries = runner.campaign.expand()
        skeleton = runner._manifest_skeleton(
            entries, runner._fingerprints(entries)
        )
        carried = skeleton["entries"][0]
        assert carried["status"] == "done"
        assert carried["source"] == "executed"
        assert carried["seconds"] == done["seconds"]

    def test_capped_rerun_preserves_failed_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = CampaignRunner(
            tiny_campaign(), store, manifest_path=tmp_path / "m.json"
        )

        from repro.api import Session

        real = Session(store=store)

        def flaky_sweep(spec):
            if spec.pair["eta"] == 0.02:  # the middle lattice point
                raise RuntimeError("worker lost")
            return real.sweep(spec)

        try:
            first = runner.run(session=SimpleNamespace(sweep=flaky_sweep))
        finally:
            real.close()
        assert first["entries"][1]["status"] == "failed"

        # A rerun that cannot execute anything (max_runs=0) must not
        # flatten the failed record into a bare "skipped": the error
        # string is the evidence a later reader needs.
        capped = runner.run(max_runs=0)
        record = capped["entries"][1]
        assert record["status"] == "failed"
        assert "RuntimeError: worker lost" in record["error"]
        # The two stored entries still hit and stay done.
        assert [r["status"] for r in capped["entries"]] == [
            "done", "failed", "done",
        ]

    def test_fingerprints_shared_across_campaign_loads(self, tmp_path):
        # A campaign reloaded from disk addresses the same store slots.
        store = ResultStore(tmp_path / "store")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_campaign().to_dict()))
        CampaignRunner(
            tiny_campaign(), store, manifest_path=tmp_path / "m1.json"
        ).run()
        reloaded = CampaignRunner(
            Campaign.from_file(path), store, manifest_path=tmp_path / "m2.json"
        ).run()
        assert reloaded["hits"] == 3 and reloaded["executed"] == 0


# ----------------------------------------------------------------------
# Campaigns under the parallel runtime (jobs > 1: the persistent pool)
# ----------------------------------------------------------------------


class TestParallelRunner:
    """A campaign whose session runs ``jobs=2`` (grids on the persistent
    pool, sweeps in-process); entries still execute one at a time in
    lattice order, so capping, failure isolation and checkpointing
    behave exactly as on the in-process runtime."""

    @pytest.fixture(autouse=True)
    def _no_pool_outlives_the_test(self):
        from repro.backends import shutdown_pooled_backends

        yield
        assert shutdown_pooled_backends() == 0  # sessions released it

    def test_parallel_matches_serial(self, tmp_path):
        from repro.api import RuntimeProfile

        campaign = tiny_campaign()
        serial_store = ResultStore(tmp_path / "serial")
        serial = CampaignRunner(
            campaign, serial_store, manifest_path=tmp_path / "ms.json"
        ).run()
        parallel_store = ResultStore(tmp_path / "parallel")
        parallel = CampaignRunner(
            campaign, parallel_store, profile=RuntimeProfile(jobs=2),
            manifest_path=tmp_path / "mp.json",
        ).run()

        assert parallel["complete"] and parallel["executed"] == 3
        assert (
            serial_store.known_fingerprints()
            == parallel_store.known_fingerprints()
        )
        for fp in serial_store.known_fingerprints():
            assert serial_store.get(fp).payload == parallel_store.get(fp).payload
        assert [
            (r["status"], r["source"]) for r in serial["entries"]
        ] == [(r["status"], r["source"]) for r in parallel["entries"]]

    def test_parallel_max_runs_caps_in_lattice_order(self, tmp_path):
        from repro.api import RuntimeProfile

        store = ResultStore(tmp_path / "store")
        runner = CampaignRunner(
            tiny_campaign(), store, profile=RuntimeProfile(jobs=2),
            manifest_path=tmp_path / "m.json",
        )
        partial = runner.run(max_runs=1)
        assert not partial["complete"]
        assert partial["executed"] == 1
        # First miss in lattice order executes, later misses are capped.
        assert [r["status"] for r in partial["entries"]] == [
            "done", "skipped", "skipped",
        ]
        resumed = runner.run()
        assert resumed["complete"]
        assert resumed["hits"] == 1 and resumed["executed"] == 2

    def test_parallel_per_entry_failure_isolated(self, tmp_path):
        from repro.api import RunSpec, RuntimeProfile, Session

        store = ResultStore(tmp_path / "store")
        runner = CampaignRunner(
            tiny_campaign(), store, manifest_path=tmp_path / "m.json"
        )
        real = Session(RuntimeProfile(jobs=2), store=store)

        def flaky_sweep(spec):
            if spec.pair["eta"] == 0.02:
                raise RuntimeError("worker lost")
            return real.sweep(spec)

        try:
            # Boot the session's pool: only a grid does.
            real.grid(RunSpec(grid={
                "factory": "dense_network",
                "axes": {"n_devices": [3, 4], "eta": [0.05]},
            }))
            manifest = runner.run(session=SimpleNamespace(sweep=flaky_sweep))
            # The failure did not take the session's pool down with it.
            assert real._engine().pool().started
        finally:
            real.close()
        assert manifest["failed"] == 1 and manifest["executed"] == 2
        failed = manifest["entries"][1]
        assert failed["status"] == "failed"
        assert "RuntimeError: worker lost" in failed["error"]

    def test_parallel_interrupt_checkpoints_then_resumes(self, tmp_path):
        from repro.api import RuntimeProfile, Session

        profile = RuntimeProfile(jobs=2)
        store = ResultStore(tmp_path / "store")
        runner = CampaignRunner(
            tiny_campaign(), store, profile=profile,
            manifest_path=tmp_path / "m.json",
        )
        real = Session(profile, store=store)

        def dying_sweep(spec):
            if spec.pair["eta"] == 0.03:
                raise KeyboardInterrupt
            return real.sweep(spec)

        try:
            with pytest.raises(KeyboardInterrupt):
                runner.run(session=SimpleNamespace(sweep=dying_sweep))
        finally:
            real.close()

        # The checkpoint on disk is a valid manifest with every record
        # accounted for: the two entries before the interrupt are done.
        checkpoint = json.loads((tmp_path / "m.json").read_text())
        assert checkpoint["campaign"] == "tiny"
        assert [r["status"] for r in checkpoint["entries"]] == [
            "done", "done", "pending",
        ]
        assert not checkpoint["complete"]

        resumed = runner.run()
        assert resumed["complete"]
        assert resumed["hits"] == 2 and resumed["executed"] == 1
