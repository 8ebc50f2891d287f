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
# Pinned fingerprints: the digests are the store's on-disk addresses, so
# any change to canonicalization or to the fingerprint's speed-ups must
# leave every one of them byte-identical (FINGERPRINT_FORMAT 1).
# ----------------------------------------------------------------------

#: One description per registered pair kind, with its digest as a sweep.
PINNED_KINDS = {
    "symmetric": (
        {"kind": "symmetric", "eta": 0.05},
        "7f3662f23c21a0d2179f36d71abad2641452fd8cfbcfaa96ffa0829e83a0c88c",
    ),
    "symmetric-split": (
        {"kind": "symmetric-split", "eta": 0.02, "omega": 16},
        "0b18c893eb04fd26bcdb8cc79795c9c885e48ee06eae6762322c3913baa5c65f",
    ),
    "asymmetric": (
        {"kind": "asymmetric", "eta_e": 0.2, "eta_f": 0.1},
        "cc3824a97f3021c3e29b20c3a87e7a175a4edd23b55c210f43db302d6b081df0",
    ),
    "unidirectional": (
        {"kind": "unidirectional", "window": 100, "k": 4},
        "805030ef4527b94b1cc027e1a98eb068ac58bd6ba6256c4e7c29e3dec7dc01b5",
    ),
    "zoo": (
        {"kind": "zoo", "protocol": "Disco",
         "params": {"prime1": 3, "prime2": 5}},
        "2d660c9300f3d74c436bde0a549ee5bb7bdf984aeedca938a0053e1934da8ee0",
    ),
}

#: Each zoo family: (required params, every default spelled out, digest).
PINNED_ZOO = {
    "Disco": (
        {"prime1": 3, "prime2": 5},
        {"slot_length": 10000, "omega": 32, "alpha": 1.0},
        "2d660c9300f3d74c436bde0a549ee5bb7bdf984aeedca938a0053e1934da8ee0",
    ),
    "UConnect": (
        {"prime": 5},
        {"slot_length": 10000, "omega": 32, "alpha": 1.0},
        "05bff7f419fcd7088552b58ee58cbaa81ec113f01843664c49ee29369a369070",
    ),
    "Searchlight": (
        {"period_slots": 4},
        {"slot_length": 10000, "omega": 32, "alpha": 1.0, "striped": True},
        "454c5ec595f1fba473f2d1b73100e375a4150436e5d8aae489c1d3de920f2656",
    ),
    "Diffcodes": (
        {"q": 2},
        {"slot_length": 10000, "omega": 32, "alpha": 1.0,
         "two_beacons": False},
        "a1becc5086f796e5810c41ff11039c601f55b42c780fe3ecf9fac41213f88c30",
    ),
    "GridQuorum": (
        {"grid": 3},
        {"row": 0, "column": 0, "slot_length": 10000, "omega": 32,
         "alpha": 1.0},
        "c404b67133e287b0b197d9fae698fbc3ccfe42d369dd4f5db93824a7851aa43a",
    ),
    "Nihao": (
        {"n": 3},
        {"slot_length": 10000, "omega": 32, "alpha": 1.0},
        "b6048cff27dedfe3054e4ba378f86ca2f8996e43490e6837829c87df5d7ebdb6",
    ),
    "Birthday": (
        {},
        {"p_tx": 0.05, "p_rx": 0.05, "slot_length": 10000, "omega": 32,
         "alpha": 1.0, "horizon_slots": 4096, "seed": 0},
        "344b2614ef44938ffb5696be012606fd219072d9396d27c445ab351cdf8d9f80",
    ),
    "PeriodicInterval": (
        {"adv_interval": 160, "scan_interval": 600, "scan_window": 100},
        {"omega": 32, "bidirectional": False, "advertising_jitter": 0,
         "alpha": 1.0},
        "d76a503efac4f8ab5a91fd9c0dab91f7830a711d58b8bc63fba745d8cf041f15",
    ),
    "OptimalSlotless": (
        {"eta": 0.1},
        {"omega": 32, "alpha": 1.0, "window": None},
        "5b34c9e57798428c9ad0c7841fca4dabdff0e5523182834221371ab6129a54f5",
    ),
    "OptimalAsymmetric": (
        {"eta_e": 0.2, "eta_f": 0.1},
        {"omega": 32, "alpha": 1.0},
        "65470becfa007cf85e63ca98381f5d3e643dad7218aa1d7feede4c6941ebb3bd",
    ),
    "CorrelatedOneWay": (
        {"k": 4, "window": 64},
        {"omega": 32, "alpha": 1.0},
        "15ae2a293b7bbe5e9950c2bf59cd74ac24dd935b6fa5afec5e0bf9dc69abea9d",
    ),
}


class TestFingerprintPins:
    def test_every_pair_kind_is_registered_and_pinned(self):
        from repro.protocols import pair_kinds

        assert sorted(PINNED_KINDS) == pair_kinds()

    @pytest.mark.parametrize("kind", sorted(PINNED_KINDS))
    def test_pair_kind_digest(self, kind):
        pair, digest = PINNED_KINDS[kind]
        assert run_fingerprint("sweep", RunSpec(pair=pair)) == digest

    @pytest.mark.parametrize("name", sorted(PINNED_ZOO))
    def test_zoo_family_digest_with_and_without_defaults(self, name):
        required, defaults, digest = PINNED_ZOO[name]
        for params in (required, {**required, **defaults}):
            spec = RunSpec(
                pair={"kind": "zoo", "protocol": name, "params": params}
            )
            assert run_fingerprint("sweep", spec) == digest

    def test_budgeted_worst_case_digest(self):
        spec = RunSpec.from_dict({
            "pair": {"kind": "zoo", "protocol": "Disco",
                     "params": {"prime1": 7, "prime2": 13}},
            "fidelity": "auto",
            "budget_ms": 100,
        })
        assert run_fingerprint("worst_case", spec) == (
            "d6d6a4a62f76642556d598489d9abe2eb683cbf5955590d02be1813427b5e1cc"
        )

    def test_grid_digest(self):
        spec = RunSpec.from_dict({
            "grid": {
                "factory": "dense_network",
                "axes": {"n_devices": [3, 4], "eta": [0.02, 0.03]},
            },
            "seed": 7,
        })
        assert run_fingerprint("grid", spec) == (
            "8950b47134c8ddc812fb59fefc937f999ec1972bf726446cd117fbab1897a3aa"
        )

    def test_replaced_factory_brings_its_own_defaults(self, monkeypatch):
        # The signature cache is keyed by the factory object, not its
        # name: a factory swapped in under the same name is read afresh.
        import repro.protocols as protocol_zoo
        from repro.protocols import canonical_pair

        pair = {"kind": "zoo", "protocol": "Disco",
                "params": {"prime1": 3, "prime2": 5}}
        before = canonical_pair(pair)
        assert before["params"]["slot_length"] == 10000

        def Disco(prime1, prime2, slot_length=5000, guard=2):
            raise AssertionError("canonicalization must not build")

        monkeypatch.setattr(protocol_zoo, "Disco", Disco)
        assert canonical_pair(pair)["params"] == {
            "prime1": 3, "prime2": 5, "slot_length": 5000, "guard": 2,
        }
        monkeypatch.undo()
        assert canonical_pair(pair) == before


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
# Sharing semantics (immutable results) and thread safety
# ----------------------------------------------------------------------


def _mutation_attempts(result):
    """Every way a caller could try to edit a stored result."""
    return [
        lambda: result.payload.__setitem__("worst_one_way", -777),
        lambda: result.payload.update(failures=5),
        lambda: result.payload.pop("failures"),
        lambda: result.timings.__setitem__("total", 999.0),
        lambda: result.spec["pair"].__setitem__("eta", 0.5),
        lambda: result.spec.__delitem__("pair"),
        lambda: setattr(
            result, "store_meta", {"hit": True, "fingerprint": "contaminated"}
        ),
        lambda: setattr(result, "payload", {"worst_one_way": -777}),
        lambda: delattr(result, "timings"),
    ]


class TestStoreImmutability:
    def test_memory_hits_are_immutable(self, tmp_path):
        # The PR-motivating aliasing bug: two memory-LRU hits used to
        # share one live RunResult, so mutating the first (payload edits,
        # the session's per-call store_meta) bled into the second and --
        # via a later rewrite -- could reach disk.  Hits now share one
        # immutable snapshot: every edit raises instead of leaking.
        store = ResultStore(tmp_path / "store")
        fp = store.fingerprint("sweep", SPEC)
        path = store.put(fp, _result())
        on_disk = path.read_bytes()

        first = store.get(fp)
        second = store.get(fp)
        for attempt in _mutation_attempts(first):
            with pytest.raises(TypeError):
                attempt()

        assert second.payload["worst_one_way"] == 123
        assert second.payload["failures"] == 0
        assert second.timings["total"] == 0.0
        assert second.spec["pair"] == {"kind": "symmetric", "eta": 0.01}
        assert second.store_meta is None
        assert store.get(fp).payload["worst_one_way"] == 123
        assert path.read_bytes() == on_disk

    def test_disk_hits_are_immutable(self, tmp_path):
        store = ResultStore(tmp_path / "store", memory_entries=0)
        fp = store.fingerprint("sweep", SPEC)
        path = store.put(fp, _result({
            "worst_one_way": 123, "failures": 0, "tiers": [{"ran": True}],
        }))
        on_disk = path.read_bytes()

        first = store.get(fp)
        for attempt in _mutation_attempts(first) + [
            lambda: first.payload["tiers"].append({"ran": False}),
            lambda: first.payload["tiers"][0].__setitem__("ran", False),
        ]:
            with pytest.raises(TypeError):
                attempt()

        second = store.get(fp)
        assert second.payload == {
            "worst_one_way": 123, "failures": 0, "tiers": [{"ran": True}],
        }
        assert second.store_meta is None
        assert path.read_bytes() == on_disk

    def test_put_result_is_immutable(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        fp = store.fingerprint("sweep", SPEC)
        live = dataclasses.replace(_result(), store_meta={"hit": False})
        store.put(fp, live)
        for attempt in _mutation_attempts(live):
            with pytest.raises(TypeError):
                attempt()
        assert store.get(fp).payload["worst_one_way"] == 123
        # The caller's per-call provenance never enters the store.
        assert store.get(fp).store_meta is None

    def test_store_meta_rides_on_a_view(self, tmp_path):
        # Per-call provenance is a dataclasses.replace view: it shares
        # the snapshot's frozen data and leaves the snapshot untouched.
        store = ResultStore(tmp_path / "store")
        fp = store.fingerprint("sweep", SPEC)
        store.put(fp, _result())
        snapshot = store.get(fp)
        view = dataclasses.replace(snapshot, store_meta={"hit": True})
        assert view.payload is snapshot.payload
        assert view == snapshot
        assert snapshot.store_meta is None
        with pytest.raises(TypeError):
            view.store_meta["hit"] = False
        assert store.get(fp).store_meta is None

    def test_memory_hit_raw_is_rebuilt_once_and_frozen(self, tmp_path):
        from repro.simulation import SweepReport

        store = ResultStore(tmp_path / "store")
        fp = store.fingerprint("sweep", SPEC)
        with Session(store=store) as session:
            computed = session.sweep(SPEC)
        a = store.get(fp)
        b = store.get(fp)
        assert isinstance(a.raw, SweepReport)
        assert a.raw == computed.raw
        # One shared snapshot, so one shared raw -- itself frozen.
        assert b.raw is a.raw
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.raw.worst_one_way = -1
        assert store.get(fp).raw.worst_one_way == computed.raw.worst_one_way

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
                        try:
                            got.payload["worst_one_way"] = -1
                        except TypeError:
                            pass  # immutable: nothing can leak
                        else:
                            raise AssertionError("a payload took an edit")
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
