"""RuntimeProfile.save round-trips, and the CLI calibration write-back
(``grid --calibrate --save-profile``)."""

import json

import pytest

from repro.api import RuntimeProfile, SpecError
from repro.cli import main


class TestSaveRoundTrip:
    @pytest.mark.parametrize("suffix", ["toml", "json"])
    def test_round_trip(self, tmp_path, suffix):
        profile = RuntimeProfile(
            backend="numpy",
            jobs=4,
            mp_context="spawn",
            cache_policy="release",
            cost_weights=(1.5e-6, 3.25e-5),
            store="results/store",
        )
        path = profile.save(tmp_path / f"profile.{suffix}")
        loaded = RuntimeProfile.load(path)
        assert loaded.describe() == profile.describe()

    def test_round_trip_defaults(self, tmp_path):
        profile = RuntimeProfile()
        loaded = RuntimeProfile.load(profile.save(tmp_path / "p.toml"))
        assert loaded == profile

    def test_json_preserves_jobs_none(self, tmp_path):
        profile = RuntimeProfile(jobs=None)  # = all cores
        loaded = RuntimeProfile.load(profile.save(tmp_path / "p.json"))
        assert loaded.jobs is None

    def test_save_creates_parent_dirs(self, tmp_path):
        path = RuntimeProfile().save(tmp_path / "a" / "b" / "p.toml")
        assert path.exists()

    @pytest.mark.parametrize(
        "line,message",
        [
            ('schedule = "steal"', "'schedule' was removed"),
            ("shared_memory = true", "'shared_memory' was removed"),
            ("chunks_per_job = 4", "'chunks_per_job' was removed"),
            ('backend = "pooled"', "jobs > 1 now selects"),
        ],
    )
    def test_load_rejects_removed_fields(self, tmp_path, line, message):
        path = tmp_path / "profile.toml"
        path.write_text(f"jobs = 2\n{line}\n")
        with pytest.raises(SpecError, match=message):
            RuntimeProfile.load(path)


class TestCliSaveProfile:
    def test_requires_profile_path(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["grid", "--devices", "3", "--etas", "0.02",
                  "--save-profile"])
        assert err.value.code == 2
        assert "--save-profile needs --profile" in capsys.readouterr().err

    def test_calibrated_weights_written_back(self, tmp_path, capsys):
        path = tmp_path / "profile.toml"
        RuntimeProfile(jobs=1, cache_policy="release").save(path)
        code = main([
            "grid", "--devices", "3,4", "--etas", "0.02",
            "--profile", str(path), "--save-profile",
        ])
        assert code == 0
        assert "saved to" in capsys.readouterr().out
        saved = RuntimeProfile.load(path)
        # The fitted weights landed in the file...
        assert saved.cost_weights is not None
        w_beacon, w_window = saved.cost_weights
        assert w_beacon > 0 and w_window >= 0
        # ...and the rest of the file profile survived untouched.
        assert saved.jobs == 1 and saved.cache_policy == "release"
        assert saved.auto_calibrate is False

    def test_one_shot_flag_overrides_not_persisted(self, tmp_path):
        path = tmp_path / "profile.json"
        RuntimeProfile(jobs=1).save(path)
        code = main([
            "grid", "--devices", "3,4", "--etas", "0.02",
            "--profile", str(path), "--save-profile", "--jobs", "2",
        ])
        assert code == 0
        saved = json.loads(path.read_text())
        assert saved["jobs"] == 1  # the --jobs 2 override stayed one-shot
        assert saved["cost_weights"] is not None
