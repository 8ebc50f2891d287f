"""Unit tests of the declarative config layer (:mod:`repro.api.spec`)
and the result provenance layer (:mod:`repro.api.result`).

Every call goes through :class:`repro.api.Session` or the
spec/profile/result classes directly.
"""

import dataclasses
import json

import pytest

from repro.api import (
    build_grid,
    build_pair,
    build_scenario,
    RunResult,
    RunSpec,
    RuntimeProfile,
    SpecError,
)
from repro.backends import _np, BackendUnavailable, have_numpy
from repro.core.sequences import NDProtocol
from repro.workloads import dense_network, Scenario


class TestRunSpecSerialization:
    def test_roundtrip_through_dict_and_json(self):
        spec = RunSpec(
            pair={"kind": "symmetric", "eta": 0.02, "omega": 16},
            sampling="critical",
            samples=128,
            horizon_multiple=2,
            model="containment",
            turnaround=5,
            seed=7,
            omega=16,
            des_spot_checks=4,
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_grid_spec_roundtrips(self):
        spec = RunSpec(
            grid={
                "factory": "dense_network",
                "axes": {"n_devices": [3, 5], "eta": [0.02, 0.05]},
            },
            seed=3,
        )
        clone = RunSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.grid["axes"]["n_devices"] == [3, 5]

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"pair": None, "warp_factor": 9}, "unknown RunSpec field"),
            ({"pair": None, "schedule": "chunk"}, "'schedule' was removed"),
        ],
    )
    def test_unknown_field_rejected(self, payload, message):
        with pytest.raises(SpecError, match=message):
            RunSpec.from_dict(payload)

    def test_unknown_field_error_names_known_fields(self):
        with pytest.raises(SpecError, match="samples"):
            RunSpec.from_dict({"sampels": 12})

    def test_invalid_model_and_sampling_rejected(self):
        with pytest.raises(SpecError, match="model"):
            RunSpec(model="psychic")
        with pytest.raises(SpecError, match="sampling"):
            RunSpec(sampling="vibes")
        with pytest.raises(SpecError, match="samples"):
            RunSpec(samples=0)

    def test_live_objects_refuse_to_serialize_but_describe(self):
        from repro.core.sequences import ReceptionSchedule

        proto = NDProtocol(
            beacons=None,
            reception=ReceptionSchedule.single_window(25, 100),
            name="stub",
        )
        spec = RunSpec(pair=(proto, proto))
        with pytest.raises(SpecError, match="live object"):
            spec.to_dict()
        snapshot = spec.describe()
        assert "NDProtocol" in snapshot["pair"] or "stub" in snapshot["pair"]
        assert snapshot["model"] == "point"


class TestRuntimeProfileSerialization:
    def test_roundtrip(self):
        profile = RuntimeProfile(
            backend="python",
            jobs=3,
            mp_context="spawn",
            store="results/store",
        )
        clone = RuntimeProfile.from_json(profile.to_json())
        assert clone == profile

    def test_exactly_four_fields(self):
        assert [f.name for f in dataclasses.fields(RuntimeProfile)] == [
            "backend", "jobs", "mp_context", "store",
        ]

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"backend": "auto", "gpu": True}, "unknown RuntimeProfile field"),
            ({"schedule": "steal"}, "'schedule' was removed"),
            ({"shared_memory": True}, "'shared_memory' was removed"),
            ({"chunks_per_job": 4}, "'chunks_per_job' was removed"),
            ({"backend": "pooled", "jobs": 2}, "jobs > 1 now selects"),
            ({"cost_weights": [3e-6, 7e-6]}, r"unknown .*'cost_weights'"),
            ({"auto_calibrate": True}, r"unknown .*'auto_calibrate'"),
            ({"cache_limit": 8}, r"unknown .*'cache_limit'"),
            ({"cache_policy": "release"}, r"unknown .*'cache_policy'"),
        ],
    )
    def test_unknown_field_rejected(self, payload, message):
        with pytest.raises(SpecError, match=message):
            RuntimeProfile.from_dict(payload)

    def test_validation(self):
        with pytest.raises(SpecError):
            RuntimeProfile(backend="pooled")
        with pytest.raises(SpecError):
            RuntimeProfile(jobs=-1)

    def test_load_toml_and_json(self, tmp_path):
        toml_path = tmp_path / "profile.toml"
        toml_path.write_text('backend = "python"\njobs = 2\n')
        profile = RuntimeProfile.load(toml_path)
        assert profile.backend == "python" and profile.jobs == 2

        json_path = tmp_path / "profile.json"
        json_path.write_text(json.dumps({"backend": "auto", "jobs": 4}))
        profile = RuntimeProfile.load(json_path)
        assert profile.backend == "auto" and profile.jobs == 4

    def test_wrong_typed_field_values_raise_spec_error(self):
        with pytest.raises(SpecError, match="field value"):
            RuntimeProfile(jobs="four")
        with pytest.raises(SpecError, match="field value"):
            RunSpec(samples="many")

    @pytest.mark.parametrize("name", ["bogus", "native"])
    def test_unknown_backend_name_is_a_config_error(self, name):
        from repro.api import Session

        with Session(RuntimeProfile(backend=name)) as session:
            with pytest.raises(SpecError, match=name) as excinfo:
                session.sweep(RunSpec(pair={"kind": "symmetric", "eta": 0.05},
                                      samples=8))
        assert "registered: ['numpy', 'python']" in str(excinfo.value)

    def test_session_accepts_profile_path(self, tmp_path):
        from repro.api import Session

        path = tmp_path / "profile.toml"
        path.write_text('backend = "python"\njobs = 2\n')
        with Session(path) as session:
            assert session.profile.jobs == 2
        with pytest.raises(TypeError, match="profile"):
            Session(42)

    def test_load_unknown_field_fails_loudly(self, tmp_path):
        path = tmp_path / "profile.toml"
        path.write_text('bakcend = "python"\n')
        with pytest.raises(SpecError, match="bakcend"):
            RuntimeProfile.load(path)

    def test_default_honours_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        monkeypatch.setenv("REPRO_JOBS", "2")
        profile = RuntimeProfile.default()
        assert profile.backend == "python"
        assert profile.jobs == 2

    def test_default_loads_profile_file_from_env(self, monkeypatch, tmp_path):
        path = tmp_path / "profile.toml"
        path.write_text('jobs = 3\nstore = "results/store"\n')
        monkeypatch.setenv("REPRO_PROFILE", str(path))
        monkeypatch.setenv("REPRO_BACKEND", "python")
        profile = RuntimeProfile.default()
        assert profile.jobs == 3
        assert profile.store == "results/store"
        assert profile.backend == "python"  # env override on top

    def test_backend_instance_is_runtime_only(self):
        from repro.backends import PythonBackend

        profile = RuntimeProfile(backend=PythonBackend())
        with pytest.raises(SpecError, match="live object"):
            profile.to_dict()
        assert "PythonBackend" in profile.describe()["backend"]


class TestDeclarativeBuilders:
    def test_symmetric_pair_builds(self):
        protocol_e, protocol_f, base = build_pair(
            {"kind": "symmetric", "eta": 0.05, "omega": 32}
        )
        assert protocol_e is protocol_f
        assert base is not None and base > 0

    def test_split_pair_is_one_way(self):
        advertiser, scanner, _base = build_pair(
            {"kind": "symmetric-split", "eta": 0.05, "omega": 32}
        )
        assert advertiser.beacons is not None and advertiser.reception is None
        assert scanner.beacons is None and scanner.reception is not None

    def test_zoo_pair_builds(self):
        protocol_e, protocol_f, base = build_pair(
            {"kind": "zoo", "protocol": "Disco",
             "params": {"prime1": 3, "prime2": 5, "slot_length": 200}}
        )
        assert protocol_e.beacons is not None
        assert base is not None and base > 0

    def test_unknown_pair_kind_and_protocol_rejected(self):
        with pytest.raises(SpecError, match="kind"):
            build_pair({"kind": "wormhole"})
        with pytest.raises(SpecError, match="zoo protocol"):
            build_pair({"kind": "zoo", "protocol": "Nonexistent"})
        with pytest.raises(SpecError, match="unknown pair parameter"):
            build_pair({"kind": "symmetric", "eta": 0.05, "typo": 1})

    def test_scenario_and_grid_builders(self):
        scenario = build_scenario(
            {"factory": "dense_network", "params": {"n_devices": 3, "eta": 0.05}}
        )
        assert isinstance(scenario, Scenario)
        assert len(scenario.protocols) == 3
        grid = build_grid(
            {"factory": "dense_network",
             "axes": {"n_devices": [3, 4], "eta": [0.05]}}
        )
        assert [len(s.protocols) for s in grid] == [3, 4]
        # Instances pass through unchanged.
        ready = dense_network(n_devices=3, eta=0.05)
        assert build_scenario(ready) is ready
        assert build_grid([ready]) == [ready]

    def test_unknown_factory_rejected(self):
        with pytest.raises(SpecError, match="factory"):
            build_scenario({"factory": "mars_rover", "params": {}})
        with pytest.raises(SpecError, match="factory"):
            build_grid({"factory": "mars_rover", "axes": {"n_devices": [2]}})


class TestRunResultSerialization:
    def _result(self):
        return RunResult(
            verb="sweep",
            spec={"pair": {"kind": "symmetric", "eta": 0.05}},
            profile={"backend": "auto", "jobs": 1},
            backend="python",
            timings={"build": 0.1, "run": 0.5, "total": 0.6},
            payload={"worst_one_way": 123, "failures": 0},
            raw=object(),  # live payload must not leak into serialization
        )

    def test_json_roundtrip_drops_raw_only(self):
        result = self._result()
        clone = RunResult.from_json(result.to_json())
        assert clone == result  # raw excluded from equality
        assert clone.raw is None
        assert clone.payload["worst_one_way"] == 123
        assert clone.backend == "python"

    def test_save_into_results_dir(self, tmp_path):
        result = self._result()
        path = result.save(tmp_path / "results")
        assert path.exists()
        clone = RunResult.from_json(path)
        assert clone == result

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown RunResult field"):
            RunResult.from_dict({"verb": "sweep", "mystery": 1})


class TestNoNumpyEnvironment:
    """The profile/backend contract in a NumPy-less environment."""

    def _spec(self):
        return RunSpec(
            pair={"kind": "symmetric", "eta": 0.05}, samples=16,
            horizon_multiple=1,
        )

    def test_numpy_profile_raises_clear_error(self, monkeypatch):
        from repro.api import Session

        monkeypatch.setattr(_np, "np", None)
        with Session(RuntimeProfile(backend="numpy")) as session:
            with pytest.raises(BackendUnavailable, match="fast"):
                session.sweep(self._spec())

    def test_auto_profile_falls_back_to_python(self, monkeypatch):
        from repro.api import Session

        monkeypatch.setattr(_np, "np", None)
        with Session(RuntimeProfile(backend="auto")) as session:
            result = session.sweep(self._spec())
        assert result.backend == "python"
        assert result.payload["offsets"] == 16

    def test_auto_resolves_to_numpy_when_present(self):
        from repro.api import Session

        if not have_numpy():
            pytest.skip("NumPy extra not installed")
        with Session(RuntimeProfile(backend="auto")) as session:
            result = session.sweep(self._spec())
        assert result.backend == "numpy"
