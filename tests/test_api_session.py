"""Tests of the :class:`repro.api.Session` facade lifecycle: everything
here uses the Session verbs and the spec/profile layer exclusively.
"""

import os
import time

import pytest

from repro.api import RunSpec, RuntimeProfile, Session
from repro.backends import get_pooled_backend, PooledBackend
from repro.backends.pooled import shutdown_pooled_backends


def _sweep_spec(samples=24):
    return RunSpec(
        pair={"kind": "symmetric", "eta": 0.05}, samples=samples,
        horizon_multiple=2,
    )


def _grid_spec():
    return RunSpec(
        grid={
            "factory": "dense_network",
            "axes": {"n_devices": [3, 4], "eta": [0.05]},
        },
        seed=5,
    )


def _assert_processes_exit(pids, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    remaining = set(pids)
    while remaining and time.monotonic() < deadline:
        for pid in list(remaining):
            try:
                os.kill(pid, 0)
            except (ProcessLookupError, PermissionError):
                remaining.discard(pid)
        if remaining:
            time.sleep(0.05)
    assert not remaining, f"worker processes leaked: {remaining}"


def _pool(session):
    """The persistent pool a ``jobs > 1`` session resolved (and retains)."""
    return session._engine().pool()


def _worker_pids(backend, count=8):
    futures = [backend.submit(os.getpid) for _ in range(count)]
    return {future.result() for future in futures}


class TestSessionBasics:
    def test_context_manager_and_closed_state(self):
        session = Session(RuntimeProfile(jobs=1))
        with session as entered:
            assert entered is session
            assert not session.closed
        assert session.closed
        with pytest.raises(RuntimeError, match="closed"):
            session.sweep(_sweep_spec())
        with pytest.raises(RuntimeError, match="closed"):
            with session:
                pass
        session.close()  # idempotent

    def test_overrides_build_profile(self):
        with Session(jobs=2, backend="python") as session:
            assert session.profile.jobs == 2
            assert session.profile.backend == "python"

    def test_backend_resolved_once_and_lazily(self):
        with Session(RuntimeProfile(backend="python")) as session:
            assert session._backend is None  # nothing resolved yet
            first = session.backend
            assert session.backend is first
            assert session.backend_name == "python"

    def test_mapping_specs_accepted(self):
        with Session(jobs=1) as session:
            result = session.sweep(
                {"pair": {"kind": "symmetric", "eta": 0.05}, "samples": 8}
            )
        assert result.payload["offsets"] == 8

    def test_result_provenance(self):
        with Session(RuntimeProfile(backend="python", jobs=1)) as session:
            result = session.sweep(_sweep_spec())
        assert result.verb == "sweep"
        assert result.backend == "python"
        assert result.profile["jobs"] == 1
        assert result.spec["pair"]["kind"] == "symmetric"
        assert result.timings["total"] >= result.timings["run"] >= 0
        # Full provenance round-trips through JSON.
        from repro.api import RunResult

        assert RunResult.from_json(result.to_json()) == result


class TestSessionPoolLifecycle:
    def setup_method(self):
        shutdown_pooled_backends()

    def teardown_method(self):
        shutdown_pooled_backends()

    def test_exit_shuts_down_session_pool(self):
        profile = RuntimeProfile(jobs=2)
        with Session(profile) as session:
            session.sweep(_sweep_spec())
            backend = _pool(session)
            assert isinstance(backend, PooledBackend)
            assert backend.started
            pids = _worker_pids(backend)
        assert not backend.started
        _assert_processes_exit(pids)

    def test_nested_sessions_share_pool_without_double_shutdown(self):
        """Two nested sessions on one profile share one pool; the inner
        exit must neither kill the outer's workers nor the outer exit
        double-shutdown -- the satellite regression."""
        profile = RuntimeProfile(jobs=2)
        with Session(profile) as outer:
            outer.sweep(_sweep_spec())
            backend = _pool(outer)
            pids = _worker_pids(backend)
            assert backend.session_refs == 1
            with Session(profile) as inner:
                assert _pool(inner) is backend  # shared shape -> shared pool
                assert backend.session_refs == 2
                inner.sweep(_sweep_spec())
            # Inner exit released its reference but left the pool alive.
            assert backend.session_refs == 1
            assert backend.started
            for pid in pids:
                os.kill(pid, 0)  # raises if a worker died
            outer.sweep(_sweep_spec())  # outer still fully functional
        assert backend.session_refs == 0
        assert not backend.started
        _assert_processes_exit(pids)

    def test_force_shutdown_clears_refs_on_unstarted_retained_pools(self):
        """A retained backend whose pool never booted must also have its
        retain state cleared by a force shutdown -- otherwise its stale
        reference keeps a later session's pool alive."""
        profile = RuntimeProfile(jobs=2)
        stale = Session(profile)
        backend = _pool(stale)  # retained, but no pool booted yet
        assert not backend.started and backend.session_refs == 1
        assert shutdown_pooled_backends() == 0  # nothing was running
        assert backend.session_refs == 0
        fresh = Session(profile)
        fresh.sweep(_sweep_spec())
        assert _pool(fresh) is backend and backend.started
        fresh.close()
        assert not backend.started  # stale's reference did not pin it
        stale.close()  # voided token: no-op

    def test_stale_release_cannot_steal_newer_sessions_pool(self):
        """A session that retained before a force shutdown must not, on
        its own (later) close, decrement a reference taken by a session
        created *after* the shutdown -- retain tokens are voided by
        generation."""
        profile = RuntimeProfile(jobs=2)
        stale = Session(profile)
        stale.sweep(_sweep_spec())
        backend = _pool(stale)
        shutdown_pooled_backends()  # voids stale's retain token
        fresh = Session(profile)
        fresh.sweep(_sweep_spec())
        assert _pool(fresh) is backend  # same shared shape
        assert backend.session_refs == 1
        stale.close()  # stale token: must be a no-op on the refcount
        assert backend.session_refs == 1
        assert backend.started, "stale close stole the fresh session's pool"
        fresh.sweep(_sweep_spec())  # still fully functional
        fresh.close()
        assert backend.session_refs == 0
        assert not backend.started

    def test_force_shutdown_then_session_exit_is_safe(self):
        """shutdown_pooled_backends() is idempotent and clears retain
        counts, so a session exiting afterwards is a clean no-op."""
        profile = RuntimeProfile(jobs=2)
        session = Session(profile)
        session.sweep(_sweep_spec())
        backend = _pool(session)
        assert backend.started
        assert shutdown_pooled_backends() == 1
        assert shutdown_pooled_backends() == 0  # idempotent
        assert backend.session_refs == 0
        session.close()  # releasing an already-reaped pool: no error
        assert not backend.started
        assert shutdown_pooled_backends() == 0

    def test_stateless_backend_sessions_own_nothing(self):
        with Session(RuntimeProfile(backend="python", jobs=1)) as session:
            session.sweep(_sweep_spec())
            assert session._retained_pool is None
        # No persistent pool was ever booted, so nothing to shut down.
        assert shutdown_pooled_backends() == 0


class TestSessionLeaksNothing:
    def test_zero_leaked_processes_and_shm_segments(self):
        """The acceptance-criteria lifecycle test: after ``__exit__``,
        every worker process the session booted is gone and /dev/shm
        holds no new segments."""
        import multiprocessing

        shm_dir = "/dev/shm"
        can_watch_shm = os.path.isdir(shm_dir)
        before_shm = set(os.listdir(shm_dir)) if can_watch_shm else set()
        profile = RuntimeProfile(jobs=2)
        with Session(profile) as session:
            session.sweep(_sweep_spec())
            session.grid(_grid_spec())
            session.worst_case(
                RunSpec(pair={"kind": "symmetric", "eta": 0.05},
                        omega=32, des_spot_checks=4)
            )
            pids = _worker_pids(_pool(session))
        _assert_processes_exit(pids)
        assert not multiprocessing.active_children()
        if can_watch_shm:
            leaked = set(os.listdir(shm_dir)) - before_shm
            assert not leaked, f"shared-memory segments leaked: {leaked}"


class TestPoolRestart:
    """A force ``shutdown_pooled_backends()`` mid-session leaves the
    session usable, and a spawn-start pool answers like the serial
    path."""

    def setup_method(self):
        shutdown_pooled_backends()

    def teardown_method(self):
        shutdown_pooled_backends()

    def test_force_shutdown_mid_session_reboots_pool(self):
        profile = RuntimeProfile(jobs=2)
        with Session(profile) as session:
            expected = session.sweep(_sweep_spec()).raw
            backend = _pool(session)
            assert backend.started
            assert shutdown_pooled_backends() == 1
            assert not backend.started
            # The next sweep lazily boots a fresh pool, results identical.
            again = session.sweep(_sweep_spec())
            assert again.raw == expected
            assert backend.started
        # The force shutdown voided the session's retain token, so (by
        # the PR-4 stale-token contract) the re-booted pool now belongs
        # to the force-shutdown path, not the session exit.
        assert shutdown_pooled_backends() == 1
        assert not backend.started

    def test_spawn_results_equal_serial(self):
        """Spawn-start workers inherit no registry: they build every
        pattern themselves and must match the serial path bit-for-bit."""
        spec = _sweep_spec()
        with Session(RuntimeProfile(backend="python", jobs=1)) as session:
            expected = session.sweep(spec).raw
        profile = RuntimeProfile(jobs=2, mp_context="spawn")
        with Session(profile) as session:
            got = session.sweep(spec)
            assert _pool(session).started
        assert got.raw == expected


class TestVerbValidation:
    def test_missing_slots_raise(self):
        with Session(jobs=1) as session:
            with pytest.raises(ValueError, match="pair"):
                session.sweep(RunSpec())
            with pytest.raises(ValueError, match="pair"):
                session.worst_case(RunSpec())
            with pytest.raises(ValueError, match="grid"):
                session.grid(RunSpec())
            with pytest.raises(ValueError, match="scenario"):
                session.simulate(RunSpec())

    def test_worst_case_verb(self):
        spec = RunSpec(
            pair={"kind": "symmetric", "eta": 0.05}, omega=32,
            des_spot_checks=4,
        )
        with Session(RuntimeProfile(backend="python")) as session:
            result = session.worst_case(spec)
        assert result.verb == "worst_case"
        assert result.raw.des_agrees
        assert result.payload["des_agrees"] is True
        assert result.payload["offsets_checked"] == result.raw.offsets_checked

    def test_simulate_verb(self):
        spec = RunSpec(
            scenario={"factory": "dense_network",
                      "params": {"n_devices": 3, "eta": 0.05}},
            seed=2,
        )
        with Session(jobs=1) as session:
            result = session.simulate(spec)
        assert result.verb == "simulate"
        assert result.payload["pairs_expected"] == 6
        assert result.raw.n_nodes == 3

    def test_critical_sampling_sweep(self):
        spec = RunSpec(
            pair={"kind": "symmetric-split", "eta": 0.05},
            sampling="critical",
            omega=32,
            horizon_multiple=2,
        )
        with Session(RuntimeProfile(backend="python")) as session:
            result = session.sweep(spec)
        assert result.payload["failures"] == 0
        assert result.payload["offsets"] > 0
        assert result.payload["sampling"] == "critical"

    def test_critical_fallback_is_recorded_not_silent(self):
        """When the critical set exceeds max_critical, the sweep falls
        back to uniform sampling and the payload says so -- a sampled
        sweep must never masquerade as exact."""
        spec = RunSpec(
            pair={"kind": "symmetric", "eta": 0.05},
            sampling="critical",
            omega=32,
            max_critical=16,  # force the fallback
            samples=32,
        )
        with Session(RuntimeProfile(backend="python")) as session:
            result = session.sweep(spec)
        assert result.payload["sampling"] == "uniform-fallback"
        assert result.payload["offsets"] <= 33
