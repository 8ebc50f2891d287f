"""RuntimeProfile.load over hand-written TOML/JSON files: format choice
by extension (and sniffing without one), strict field checks, and the
malformed/missing-file errors."""

import pytest

from repro.api import RuntimeProfile, SpecError

_TOML = """\
backend = "numpy"
jobs = 4
mp_context = "spawn"
store = "results/store"
"""

_JSON = """\
{"backend": "numpy", "jobs": 4, "mp_context": "spawn",
 "store": "results/store"}
"""

_EXPECTED = RuntimeProfile(
    backend="numpy", jobs=4, mp_context="spawn", store="results/store"
)


class TestLoad:
    @pytest.mark.parametrize(
        "name,text",
        [("profile.toml", _TOML), ("profile.json", _JSON)],
    )
    def test_load_by_extension(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        assert RuntimeProfile.load(path) == _EXPECTED

    @pytest.mark.parametrize("text", [_TOML, _JSON], ids=["toml", "json"])
    def test_unknown_extension_sniffs_json_then_toml(self, tmp_path, text):
        path = tmp_path / "profile.conf"
        path.write_text(text)
        assert RuntimeProfile.load(path) == _EXPECTED

    def test_empty_files_load_defaults(self, tmp_path):
        toml_path = tmp_path / "p.toml"
        toml_path.write_text("")
        json_path = tmp_path / "p.json"
        json_path.write_text("{}")
        assert RuntimeProfile.load(toml_path) == RuntimeProfile()
        assert RuntimeProfile.load(json_path) == RuntimeProfile()

    def test_json_preserves_jobs_none(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"jobs": null}')  # = all cores
        assert RuntimeProfile.load(path).jobs is None

    @pytest.mark.parametrize(
        "name,text",
        [("p.toml", "jobs = \n"), ("p.json", '{"jobs": '), ("p", "{jobs")],
        ids=["toml", "json", "sniffed"],
    )
    def test_malformed_file_is_spec_error(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(SpecError, match="malformed profile"):
            RuntimeProfile.load(path)

    def test_missing_file_is_spec_error(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read profile"):
            RuntimeProfile.load(tmp_path / "absent.toml")

    @pytest.mark.parametrize(
        "line,message",
        [
            ('schedule = "steal"', "'schedule' was removed"),
            ("shared_memory = true", "'shared_memory' was removed"),
            ("chunks_per_job = 4", "'chunks_per_job' was removed"),
            ('backend = "pooled"', "jobs > 1 now selects"),
            ("cost_weights = [3.3e-06, 4.8e-06]",
             r"unknown .*'cost_weights'"),
            ("auto_calibrate = true", r"unknown .*'auto_calibrate'"),
            ("cache_limit = 16", r"unknown .*'cache_limit'"),
            ('cache_policy = "release"', r"unknown .*'cache_policy'"),
        ],
    )
    def test_load_rejects_removed_fields(self, tmp_path, line, message):
        path = tmp_path / "profile.toml"
        path.write_text(f"jobs = 2\n{line}\n")
        with pytest.raises(SpecError, match=message):
            RuntimeProfile.load(path)
