"""Tests for versioned JSON documents and the measurement encoding."""

import json

import pytest

from repro.core.types import Measurement, MetricError
from repro.experiments.persistence import (
    measurement_from_dict,
    measurement_to_dict,
)


class TestMeasurementRoundTrip:
    def test_full_fields(self):
        m = Measurement(
            work=1e9, time=2.0, marked_speed=5e8, problem_size=100,
            label="x", extra={"phase": 1.5},
        )
        back = measurement_from_dict(measurement_to_dict(m))
        assert back == m

    def test_optional_fields_default(self):
        back = measurement_from_dict(
            {"work": 1.0, "time": 1.0, "marked_speed": 1.0}
        )
        assert back.problem_size is None
        assert back.label == ""


class TestDocumentEnvelope:
    """The generic write_json_document / read_json_document contract."""

    def test_metadata_auto_stamped(self, tmp_path):
        from repro import __version__
        from repro.experiments.persistence import write_json_document

        path = tmp_path / "doc.json"
        write_json_document(path, kind="x", payload={"a": 1})
        metadata = json.loads(path.read_text())["metadata"]
        assert metadata["repro_version"] == __version__
        # ISO-8601 UTC, seconds precision.
        assert metadata["created_utc"].endswith("+00:00")
        assert "T" in metadata["created_utc"]

    def test_caller_metadata_wins_over_stamp(self, tmp_path):
        from repro.experiments.persistence import write_json_document

        path = tmp_path / "doc.json"
        write_json_document(
            path, kind="x", payload={},
            metadata={"created_utc": "then", "note": "kept"},
        )
        metadata = json.loads(path.read_text())["metadata"]
        assert metadata["created_utc"] == "then"
        assert metadata["note"] == "kept"
        assert "repro_version" in metadata

    def test_missing_file_message(self, tmp_path):
        from repro.experiments.persistence import read_json_document

        with pytest.raises(MetricError, match="no document at"):
            read_json_document(tmp_path / "absent.json", kind="x")

    def test_corrupt_json_message(self, tmp_path):
        from repro.experiments.persistence import read_json_document

        path = tmp_path / "bad.json"
        path.write_text("{truncated")
        with pytest.raises(MetricError, match="corrupt document"):
            read_json_document(path, kind="x")

    def test_version_mismatch_reports_expected_and_found(self, tmp_path):
        from repro.experiments.persistence import read_json_document

        path = tmp_path / "future.json"
        path.write_text(json.dumps({"format_version": 99, "kind": "x"}))
        with pytest.raises(
            MetricError, match="expected format version 1, found version 99"
        ):
            read_json_document(path, kind="x")

    def test_missing_version_reported_distinctly(self, tmp_path):
        from repro.experiments.persistence import read_json_document

        path = tmp_path / "unversioned.json"
        path.write_text(json.dumps({"kind": "x"}))
        with pytest.raises(MetricError, match="found no format version"):
            read_json_document(path, kind="x")

    def test_wrong_kind_reports_both_kinds(self, tmp_path):
        from repro.experiments.persistence import read_json_document

        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format_version": 1, "kind": "actual"}))
        with pytest.raises(MetricError, match="'actual'.*expected 'wanted'"):
            read_json_document(path, kind="wanted")
