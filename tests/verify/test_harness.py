"""Conformance harness: oracle selection, report shape and repro-file round-trips."""

import json

import pytest

from repro.core.config import MachineConfig
from repro.errors import ReproError
from repro.runtime.spec import RunSpec
from repro.verify import (
    load_repro_spec,
    oracle_kind,
    run_conformance,
    write_repro_spec,
)


def make_spec(app="sssp", barrier=False, **config_overrides):
    config = MachineConfig(width=2, height=2, barrier=barrier, **config_overrides)
    return RunSpec(app=app, dataset="rmat16", config=config, scale=0.02, seed=3,
                   pagerank_iterations=2)


class TestOracleSelection:
    def test_order_independent_kernels_get_equality(self):
        assert oracle_kind("pagerank") == "equality"
        assert oracle_kind("spmv", barrier_effective=True) == "equality"

    def test_relaxation_kernels_get_bounds(self):
        for app in ("bfs", "sssp", "wcc"):
            assert oracle_kind(app) == "bounds"
            assert oracle_kind(app, barrier_effective=True) == "bounds"


class TestRunConformance:
    @pytest.mark.parametrize("app,expected_oracle", [
        ("pagerank", "equality"), ("spmv", "equality"),
        ("bfs", "bounds"), ("sssp", "bounds"), ("wcc", "bounds"),
    ])
    def test_all_apps_conform(self, app, expected_oracle):
        report = run_conformance(make_spec(app=app))
        assert report.ok, report.describe()
        assert report.oracle == expected_oracle
        assert set(report.counters) == {"cycle", "analytic"}
        assert set(report.trace) == {"cycle", "analytic"}
        assert report.trace["cycle"]["verified"] is True
        assert report.bounds["edges_lower"] <= report.bounds["edges_upper"]

    def test_report_serializes_to_json(self):
        report = run_conformance(make_spec(app="spmv"))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert payload["oracle"] == "equality"
        assert payload["spec_key"] == report.spec_key

    def test_detailed_trace_opt_in(self):
        report = run_conformance(make_spec(app="pagerank", barrier=True),
                                 detailed_trace=True)
        assert report.ok, report.describe()
        assert report.trace["cycle"]["detailed"] is True


class TestReproFiles:
    def test_round_trip_preserves_key(self, tmp_path):
        spec = make_spec(app="wcc", barrier=True, noc="mesh")
        path = write_repro_spec(spec, tmp_path)
        loaded = load_repro_spec(path)
        assert loaded == spec
        assert loaded.key() == spec.key()

    def test_bare_canonical_dict_accepted(self, tmp_path):
        spec = make_spec()
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(spec.canonical()))
        assert load_repro_spec(path) == spec

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "dalorex-repro/99", "spec": {}}))
        with pytest.raises(ReproError, match="format"):
            load_repro_spec(path)

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ReproError, match="cannot read"):
            load_repro_spec(path)
        with pytest.raises(ReproError):
            load_repro_spec(tmp_path / "missing.json")

    def test_malformed_spec_rejected(self, tmp_path):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({"app": "bfs"}))  # no dataset/config
        with pytest.raises(ReproError, match="malformed"):
            load_repro_spec(path)

    def test_unsupported_spec_version_becomes_repro_error(self, tmp_path):
        data = make_spec().canonical()
        data["version"] = 999  # e.g. written by a newer build
        path = tmp_path / "future.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ReproError, match="malformed"):
            load_repro_spec(path)

    def test_partition_count_from_an_older_build_is_refused(self, tmp_path):
        # A repro file written when runs could be partitioned may carry the
        # partition count; replaying it serially would run under a key its
        # writer never saw, so it fails and names the removed field.
        path = write_repro_spec(make_spec(), tmp_path)
        data = json.loads(path.read_text())
        data["spec"]["shards"] = 2
        path.write_text(json.dumps(data))
        with pytest.raises(ReproError, match=r"malformed.*\['shards'\]"):
            load_repro_spec(path)


class TestSpecCanonicalRoundTrip:
    def test_from_canonical_inverts_canonical(self):
        spec = make_spec(app="pagerank", barrier=True)
        rebuilt = RunSpec.from_canonical(spec.canonical())
        assert rebuilt == spec
        assert rebuilt.key() == spec.key()
        assert rebuilt.pagerank_iterations == 2

    def test_unsupported_version_rejected(self):
        data = make_spec().canonical()
        data["version"] = 999
        with pytest.raises(ValueError, match="version"):
            RunSpec.from_canonical(data)
