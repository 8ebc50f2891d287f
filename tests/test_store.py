"""The content-addressed result store: fingerprint contract and
ResultStore edge cases (atomicity, eviction, corruption tolerance)."""

import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import RunResult, RunSpec, RuntimeProfile, Session, SpecError
from repro.store import (
    canonical_run_payload,
    FINGERPRINT_FORMAT,
    ResultStore,
    run_fingerprint,
)

SPEC = RunSpec(
    pair={"kind": "symmetric", "eta": 0.01},
    sampling="uniform",
    samples=16,
    horizon_multiple=1,
)


def _result(payload=None) -> RunResult:
    return RunResult(
        verb="sweep",
        spec=SPEC.describe(),
        profile=RuntimeProfile().describe(),
        backend="python",
        timings={"total": 0.0},
        payload=payload or {"worst_one_way": 123, "failures": 0},
        raw=None,
    )


# ----------------------------------------------------------------------
# Fingerprint contract
# ----------------------------------------------------------------------


class TestFingerprint:
    def test_json_round_trip_invariance(self):
        direct = run_fingerprint("sweep", SPEC)
        rehydrated = RunSpec.from_dict(json.loads(SPEC.to_json()))
        assert run_fingerprint("sweep", rehydrated) == direct

    def test_verb_distinguishes(self):
        assert run_fingerprint("sweep", SPEC) != run_fingerprint(
            "worst_case", SPEC
        )

    def test_schema_defaults_canonicalized(self):
        # Omitting registered defaults must not change identity.
        sparse = SPEC
        explicit = dataclasses.replace(SPEC, 
            pair={"kind": "symmetric", "eta": 0.01, "omega": 32, "alpha": 1.0}
        )
        assert run_fingerprint("sweep", sparse) == run_fingerprint(
            "sweep", explicit
        )

    def test_result_affecting_knob_changes_fingerprint(self):
        assert run_fingerprint("sweep", SPEC) != run_fingerprint(
            "sweep", dataclasses.replace(SPEC, samples=17)
        )

    def test_live_objects_have_no_identity(self):
        from repro.core.optimal import synthesize_symmetric

        protocol, _ = synthesize_symmetric(32, 0.01, 1.0)
        with pytest.raises(SpecError):
            run_fingerprint("sweep", RunSpec(pair=(protocol, protocol)))

    def test_payload_shape(self):
        payload = canonical_run_payload("sweep", SPEC)
        assert payload["format"] == FINGERPRINT_FORMAT
        assert payload["verb"] == "sweep"
        assert payload["spec"]["pair"]["omega"] == 32  # default filled in

    def test_stable_across_process_restart(self):
        # Guards against accidental dependence on dict iteration order /
        # hash randomization: a fresh interpreter with a different
        # PYTHONHASHSEED must derive the identical digest.
        code = (
            "from repro.api import RunSpec\n"
            "from repro.store import run_fingerprint\n"
            "spec = RunSpec(pair={'kind': 'symmetric', 'eta': 0.01},"
            " sampling='uniform', samples=16, horizon_multiple=1)\n"
            "print(run_fingerprint('sweep', spec))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = str(src)
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == run_fingerprint("sweep", SPEC)


# ----------------------------------------------------------------------
# ResultStore
# ----------------------------------------------------------------------


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        fp = store.fingerprint("sweep", SPEC)
        assert store.get(fp) is None
        assert fp not in store
        store.put(fp, _result())
        assert fp in store
        loaded = store.get(fp)
        assert loaded == _result()
        assert store.known_fingerprints() == {fp}

    def test_disk_round_trip_bypassing_memory(self, tmp_path):
        store = ResultStore(tmp_path / "store", memory_entries=0)
        fp = store.fingerprint("sweep", SPEC)
        store.put(fp, _result())
        loaded = store.get(fp)
        assert loaded == _result()
        assert store.stats == {
            "hits": 1, "misses": 0, "writes": 1, "corrupt": 0,
        }

    def test_corrupt_entry_quarantined_not_raised(self, tmp_path):
        store = ResultStore(tmp_path / "store", memory_entries=0)
        fp = store.fingerprint("sweep", SPEC)
        path = store.put(fp, _result())
        path.write_text("{ not json", encoding="utf-8")
        assert store.get(fp) is None  # miss, no exception
        assert not path.exists()
        assert (tmp_path / "store" / "quarantine" / path.name).exists()
        assert store.stats["corrupt"] == 1
        # The slot is reusable after quarantine.
        store.put(fp, _result())
        assert store.get(fp) == _result()

    def test_mismatched_fingerprint_is_corruption(self, tmp_path):
        store = ResultStore(tmp_path / "store", memory_entries=0)
        fp = store.fingerprint("sweep", SPEC)
        other = store.fingerprint("worst_case", SPEC)
        path = store.put(fp, _result())
        # Copy the valid entry under the wrong address.
        wrong = store._object_path(other)
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_bytes(path.read_bytes())
        assert store.get(other) is None
        assert store.stats["corrupt"] == 1

    def test_concurrent_writers_atomic(self, tmp_path):
        store = ResultStore(tmp_path / "store", memory_entries=0)
        fp = store.fingerprint("sweep", SPEC)
        errors = []

        def writer():
            try:
                for _ in range(20):
                    store.put(fp, _result())
                    assert store.get(fp) == _result()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.get(fp) == _result()
        # No stray temp files survive the race.
        leftovers = [
            p for p in (tmp_path / "store" / "objects").rglob("*")
            if p.is_file() and p.suffix != ".json"
        ]
        assert leftovers == []

    def test_memory_lru_bounded(self, tmp_path):
        store = ResultStore(tmp_path / "store", memory_entries=2)
        fps = [
            store.fingerprint("sweep", dataclasses.replace(SPEC, samples=16 + i))
            for i in range(3)
        ]
        for fp in fps:
            store.put(fp, _result())
        assert len(store._memory) == 2
        assert fps[0] not in store._memory  # oldest evicted from memory...
        assert store.get(fps[0]) == _result()  # ...but still on disk

    def test_gc_ttl_then_lru(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        fps = [
            store.fingerprint("sweep", dataclasses.replace(SPEC, samples=16 + i))
            for i in range(4)
        ]
        now = 1_700_000_000
        for i, fp in enumerate(fps):
            path = store.put(fp, _result())
            os.utime(path, (now + i, now + i))  # explicit recency order

        # Dry run reports without removing.
        report = store.gc(max_entries=1, dry_run=True)
        assert len(report["removed"]) == 3 and report["dry_run"]
        assert store.known_fingerprints() == set(fps)

        # LRU keeps the newest N; oldest go first.
        report = store.gc(max_entries=2)
        assert report["removed"] == [fps[0], fps[1]]
        assert store.known_fingerprints() == {fps[2], fps[3]}

        # TTL: everything is far older than now -> all evicted.
        report = store.gc(ttl_seconds=60.0)
        assert set(report["removed"]) == {fps[2], fps[3]}
        assert store.known_fingerprints() == set()

    def test_gc_defaults_from_constructor(self, tmp_path):
        store = ResultStore(tmp_path / "store", max_entries=1)
        fps = [
            store.fingerprint("sweep", dataclasses.replace(SPEC, samples=16 + i))
            for i in range(3)
        ]
        now = 1_700_000_000
        for i, fp in enumerate(fps):
            os.utime(store.put(fp, _result()), (now + i, now + i))
        report = store.gc()
        assert report["kept"] == 1
        assert store.known_fingerprints() == {fps[2]}

    def test_gc_accounts_for_unremovable_entries(self, tmp_path, monkeypatch):
        # An entry whose unlink fails must show up as *failed* -- not
        # silently vanish from both removed and kept -- and must still
        # leave the in-process LRU (a doomed entry may not keep being
        # served from memory).  unlink is monkeypatched rather than
        # permission-blocked because tests may run as root, where
        # directory write bits do not stop unlink.
        store = ResultStore(tmp_path / "store")
        fps = [
            store.fingerprint("sweep", dataclasses.replace(SPEC, samples=16 + i))
            for i in range(4)
        ]
        now = 1_700_000_000
        for i, fp in enumerate(fps):
            os.utime(store.put(fp, _result()), (now + i, now + i))

        stubborn = fps[0]
        real_unlink = Path.unlink

        def unlink(self, *args, **kwargs):
            if self.stem == stubborn:
                raise OSError("simulated unremovable entry")
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", unlink)
        report = store.gc(max_entries=2)
        assert report["scanned"] == 4
        assert report["failed"] == [stubborn]
        assert report["removed"] == [fps[1]]
        assert report["kept"] == 2
        assert report["scanned"] == (
            len(report["removed"]) + len(report["failed"]) + report["kept"]
        )
        # The stubborn file is still on disk, but out of the memory LRU.
        assert stubborn in store.known_fingerprints()
        assert stubborn not in store._memory


# ----------------------------------------------------------------------
# Copy semantics and thread safety
# ----------------------------------------------------------------------


class TestStoreCopySemantics:
    def test_memory_hits_are_defensive_copies(self, tmp_path):
        # The PR-motivating aliasing bug: two memory-LRU hits used to
        # share one live RunResult, so mutating the first (payload edits,
        # the session's per-call store_meta) bled into the second and --
        # via a later rewrite -- could reach disk.
        store = ResultStore(tmp_path / "store")
        fp = store.fingerprint("sweep", SPEC)
        path = store.put(fp, _result())
        on_disk = path.read_bytes()

        first = store.get(fp)
        second = store.get(fp)
        assert first is not second
        assert first.payload is not second.payload

        first.payload["worst_one_way"] = -777
        first.timings["total"] = 999.0
        first.store_meta = {"hit": True, "fingerprint": "contaminated"}

        assert second.payload["worst_one_way"] == 123
        assert second.timings["total"] == 0.0
        assert second.store_meta is None
        assert store.get(fp).payload["worst_one_way"] == 123
        assert path.read_bytes() == on_disk

    def test_put_remembers_detached_snapshot(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        fp = store.fingerprint("sweep", SPEC)
        live = _result()
        store.put(fp, live)
        live.payload["worst_one_way"] = -1  # caller keeps ownership
        live.store_meta = {"hit": False}
        assert store.get(fp).payload["worst_one_way"] == 123
        assert store.get(fp).store_meta is None

    def test_memory_hit_rehydrates_raw_per_call(self, tmp_path):
        from repro.simulation import SweepReport

        store = ResultStore(tmp_path / "store")
        fp = store.fingerprint("sweep", SPEC)
        with Session(store=store) as session:
            session.sweep(SPEC)
        a = store.get(fp)
        b = store.get(fp)
        assert isinstance(a.raw, SweepReport)
        assert isinstance(b.raw, SweepReport)
        assert a.raw is not b.raw

    def test_concurrent_mixed_get_put_stays_consistent(self, tmp_path):
        # Two threads hammer overlapping fingerprints with mixed
        # get/put: stats must not tear, returned results must never
        # show another spec's payload, and the LRU stays bounded.
        store = ResultStore(tmp_path / "store", memory_entries=4)
        specs = [dataclasses.replace(SPEC, samples=16 + i) for i in range(8)]
        fps = [store.fingerprint("sweep", spec) for spec in specs]
        payloads = {
            fp: {"worst_one_way": 1000 + i, "failures": 0}
            for i, fp in enumerate(fps)
        }
        rounds = 25
        errors = []
        barrier = threading.Barrier(2)

        def hammer(order):
            try:
                barrier.wait()
                for _ in range(rounds):
                    for fp in order:
                        store.put(fp, _result(dict(payloads[fp])))
                        got = store.get(fp)
                        assert got is not None
                        assert got.payload == payloads[fp]
                        got.payload["worst_one_way"] = -1  # must not leak
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(fps,)),
            threading.Thread(target=hammer, args=(fps[::-1],)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(store._memory) <= 4
        for fp in fps:
            assert store.get(fp).payload == payloads[fp]
        stats = store.stats
        # Every put and every successful get was counted exactly once:
        # 2 threads x rounds x 8 fps writes, and one extra write+hit
        # per fp from the verification loop above... the loop gets are
        # hits too, so hits == writes' paired gets + the final sweep.
        assert stats["writes"] == 2 * rounds * len(fps)
        assert stats["hits"] == 2 * rounds * len(fps) + len(fps)
        assert stats["corrupt"] == 0


# ----------------------------------------------------------------------
# get/gc interleavings: eviction mid-read is a clean miss, never
# quarantine or a torn payload
# ----------------------------------------------------------------------


#: Upper bound on each racing reader's passes over the fingerprints.
READER_PASSES = 500


class TestConcurrentGetGc:
    def test_evicted_entry_is_clean_miss_not_quarantine(self, tmp_path):
        # The deterministic core of the race: gc lands between a
        # reader's memory-LRU miss and its disk read.  The reader must
        # see a plain miss (recompute path), not corruption.
        store = ResultStore(tmp_path / "store", memory_entries=0)
        fp = store.fingerprint("sweep", SPEC)
        store.put(fp, _result())
        report = store.gc(max_entries=0)
        assert report["removed"] == [fp]
        assert store.get(fp) is None
        assert store.stats["corrupt"] == 0
        assert store.stats["misses"] == 1
        assert not (tmp_path / "store" / "quarantine").exists()
        # The miss is recoverable exactly like a cold key: re-put, hit.
        store.put(fp, _result())
        assert store.get(fp) is not None

    def test_gc_purges_memory_so_no_stale_hit(self, tmp_path):
        # An entry evicted from disk must not keep being served from
        # the in-process LRU -- a reader after gc sees the miss.
        store = ResultStore(tmp_path / "store", memory_entries=8)
        fp = store.fingerprint("sweep", SPEC)
        store.put(fp, _result())
        assert store.get(fp) is not None  # warm in memory
        store.gc(max_entries=0)
        assert store.get(fp) is None
        assert store.stats["corrupt"] == 0

    def test_readers_race_gc_and_rewrite(self, tmp_path):
        # Threads hammer ``get`` while another evicts and re-puts the
        # same fingerprints: every read is either a clean miss or a
        # complete, correct payload -- never quarantine, never a torn
        # or cross-contaminated result.
        store = ResultStore(tmp_path / "store", memory_entries=2)
        specs = [dataclasses.replace(SPEC, samples=16 + i) for i in range(4)]
        fps = [store.fingerprint("sweep", spec) for spec in specs]
        payloads = {
            fp: {"worst_one_way": 1000 + i, "failures": 0}
            for i, fp in enumerate(fps)
        }
        for fp in fps:
            store.put(fp, _result(dict(payloads[fp])))
        stop = threading.Event()
        errors = []
        observed = {"misses": 0, "hits": 0}

        def reader():
            # Bounded passes that yield the GIL each time round: busy
            # readers would otherwise starve the churner, and the test's
            # runtime would depend on the scheduler.
            try:
                for _ in range(READER_PASSES):
                    if stop.is_set():
                        break
                    for fp in fps:
                        got = store.get(fp)
                        if got is None:
                            observed["misses"] += 1  # clean miss: fine
                        else:
                            assert got.payload == payloads[fp]
                            observed["hits"] += 1
                    time.sleep(0)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
                stop.set()

        def churner():
            try:
                for _ in range(40):
                    store.gc(max_entries=0)  # evict everything
                    for fp in fps:
                        store.put(fp, _result(dict(payloads[fp])))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                stop.set()

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=churner))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert observed["hits"] > 0  # the race was actually exercised
        assert store.stats["corrupt"] == 0
        assert not (tmp_path / "store" / "quarantine").exists()
        # The store converges: after the churn, every entry reads back.
        for fp in fps:
            assert store.get(fp).payload == payloads[fp]


# ----------------------------------------------------------------------
# stats_payload: the `store stats` / service `stats` snapshot
# ----------------------------------------------------------------------


class TestStatsPayload:
    def test_counts_bytes_and_counters(self, tmp_path):
        store = ResultStore(tmp_path / "store", memory_entries=8)
        specs = [dataclasses.replace(SPEC, samples=16 + i) for i in range(3)]
        for spec in specs:
            store.put(store.fingerprint("sweep", spec), _result())
        store.get(store.fingerprint("sweep", specs[0]))
        store.get("0" * 64)  # miss
        payload = store.stats_payload()
        assert payload["root"] == str(tmp_path / "store")
        assert payload["objects"] == 3
        assert payload["total_bytes"] > 0
        assert payload["quarantined"] == 0
        assert payload["memory"] == {"entries": 3, "limit": 8}
        assert payload["counters"] == {
            "hits": 1, "misses": 1, "writes": 3, "corrupt": 0,
        }
        json.dumps(payload)  # wire-serializable as-is

    def test_quarantine_and_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.stats_payload()["objects"] == 0
        fp = store.fingerprint("sweep", SPEC)
        store.put(fp, _result())
        store._object_path(fp).write_text("{torn", encoding="utf-8")
        store._memory.clear()
        assert store.get(fp) is None
        payload = store.stats_payload()
        assert payload["objects"] == 0
        assert payload["quarantined"] == 1
        assert payload["counters"]["corrupt"] == 1


# ----------------------------------------------------------------------
# Session integration: read-through / write-back, runtime invariance
# ----------------------------------------------------------------------


class TestSessionStore:
    def test_write_back_then_hit(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with Session(store=store) as session:
            first = session.sweep(SPEC)
        assert first.store_meta == {
            "hit": False,
            "fingerprint": store.fingerprint("sweep", SPEC),
            "lookup_seconds": first.store_meta["lookup_seconds"],
        }
        with Session(store=store) as session:
            second = session.sweep(SPEC)
        assert second.store_meta["hit"] is True
        assert second.payload == first.payload
        assert second.timings == first.timings  # the stored recipe

    def test_hits_invariant_across_runtime_profiles(self, tmp_path):
        # The acceptance property: RuntimeProfile knobs (backend/jobs/
        # mp_context) never change identity, so a store warmed under one
        # profile serves every other profile.
        store = ResultStore(tmp_path / "store")
        with Session(RuntimeProfile(backend="python"), store=store) as s:
            cold = s.sweep(SPEC)
        assert cold.store_meta["hit"] is False
        for profile in (
            RuntimeProfile(backend="auto"),
            RuntimeProfile(jobs=2, mp_context="spawn"),
        ):
            with Session(profile, store=store) as s:
                warm = s.sweep(SPEC)
            assert warm.store_meta["hit"] is True
            assert warm.payload == cold.payload

    def test_raw_rehydrated_on_disk_hit(self, tmp_path):
        from repro.simulation import SweepReport

        store = ResultStore(tmp_path / "store", memory_entries=0)
        with Session(store=store) as session:
            session.sweep(SPEC)
        with Session(store=store) as session:
            hit = session.sweep(SPEC)
        assert hit.store_meta["hit"] is True
        assert isinstance(hit.raw, SweepReport)
        assert hit.raw.worst_one_way == hit.payload["worst_one_way"]

    def test_profile_store_field_resolves(self, tmp_path):
        profile = RuntimeProfile(store=str(tmp_path / "store"))
        with Session(profile) as session:
            assert isinstance(session.store, ResultStore)
            session.sweep(SPEC)
        assert ResultStore(tmp_path / "store").known_fingerprints()

    def test_live_object_specs_always_compute(self, tmp_path):
        from repro.core.optimal import synthesize_symmetric

        protocol, _ = synthesize_symmetric(32, 0.01, 1.0)
        spec = RunSpec(
            pair=(protocol, protocol), sampling="uniform", samples=8,
            horizon_multiple=1,
        )
        store = ResultStore(tmp_path / "store")
        with Session(store=store) as session:
            result = session.sweep(spec)
        assert result.store_meta is None  # no identity, no store traffic
        assert store.known_fingerprints() == set()
