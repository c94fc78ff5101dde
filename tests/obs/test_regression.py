"""Tests for cross-run regression checking and named baselines."""

import pytest

from repro.core import MetricError
from repro.obs.regression import (
    DEFAULT_SPECS,
    MetricSpec,
    baseline_path,
    check_against_baseline,
    compare_records,
    judge,
    load_baseline,
    save_baseline,
    spec_map,
)


def record_with(metrics, run_id="r"):
    return {"run_id": run_id, "metrics": metrics}


class TestMetricSpec:
    def test_invalid_direction(self):
        with pytest.raises(ValueError, match="direction"):
            MetricSpec("x", direction="sideways")

    def test_fail_below_warn(self):
        with pytest.raises(ValueError, match="below warn"):
            MetricSpec("x", warn=0.10, fail=0.05)

    def test_default_specs_cover_core_metrics(self):
        names = set(spec_map().keys())
        assert {"makespan", "speed_efficiency", "imbalance_index"} <= names
        # Wall-clock metrics must never FAIL (machine-dependent noise).
        assert spec_map()["events_per_second"].fail is None
        assert spec_map()["wall_seconds"].fail is None

    def test_spec_map_accepts_mapping(self):
        spec = MetricSpec("m")
        assert spec_map({"m": spec}) == {"m": spec}


class TestJudge:
    SPEC = MetricSpec("makespan", direction="lower", warn=0.02, fail=0.10)

    def test_improvement_passes(self):
        delta = judge(self.SPEC, 10.0, 9.0)
        assert delta.verdict == "PASS"
        assert delta.rel_delta == pytest.approx(-0.10)
        assert delta.regression == pytest.approx(-0.10)

    def test_small_regression_passes(self):
        assert judge(self.SPEC, 10.0, 10.1).verdict == "PASS"

    def test_warn_band(self):
        delta = judge(self.SPEC, 10.0, 10.5)
        assert delta.verdict == "WARN"
        assert "warn threshold" in delta.note

    def test_fail_band(self):
        delta = judge(self.SPEC, 10.0, 11.5)
        assert delta.verdict == "FAIL"
        assert delta.regression == pytest.approx(0.15)

    def test_higher_is_better_direction(self):
        spec = MetricSpec("eff", direction="higher", warn=0.02, fail=0.10)
        assert judge(spec, 0.30, 0.25).verdict == "FAIL"  # dropped 17%
        assert judge(spec, 0.30, 0.35).verdict == "PASS"  # improved

    def test_warn_only_spec_never_fails(self):
        spec = MetricSpec("wall", direction="lower", warn=0.15, fail=None)
        delta = judge(spec, 1.0, 10.0)  # 900% regression
        assert delta.verdict == "WARN"

    def test_abs_tol_noise_floor(self):
        spec = MetricSpec("imb", direction="lower", warn=0.05, fail=0.25,
                          abs_tol=1e-3)
        delta = judge(spec, 1e-4, 9e-4)  # 800% relative but tiny absolute
        assert delta.verdict == "PASS"
        assert "abs_tol" in delta.note

    def test_zero_baseline(self):
        spec = MetricSpec("x", direction="lower")
        assert judge(spec, 0.0, 0.0).verdict == "PASS"
        assert judge(spec, 0.0, 1.0).verdict == "FAIL"


class TestCompareRecords:
    def test_verdict_is_worst_judged(self):
        base = record_with({"makespan": 10.0, "speed_efficiency": 0.30})
        cand = record_with({"makespan": 10.5, "speed_efficiency": 0.30})
        report = compare_records(base, cand)
        assert report.verdict == "WARN"
        cand = record_with({"makespan": 12.0, "speed_efficiency": 0.30})
        report = compare_records(base, cand)
        assert report.verdict == "FAIL"
        assert [d.name for d in report.failed] == ["makespan"]

    def test_unspecced_metrics_are_informational(self):
        base = record_with({"mystery": 1.0})
        cand = record_with({"mystery": 100.0})
        report = compare_records(base, cand)
        assert report.verdict == "PASS"
        (delta,) = report.deltas
        assert delta.verdict == ""

    def test_missing_metrics_listed(self):
        base = record_with({"makespan": 1.0, "only_base": 2.0})
        cand = record_with({"makespan": 1.0, "only_cand": 3.0})
        report = compare_records(base, cand)
        assert report.missing == ["only_base", "only_cand"]

    def test_custom_specs(self):
        base = record_with({"makespan": 10.0})
        cand = record_with({"makespan": 10.5})
        strict = (MetricSpec("makespan", warn=0.01, fail=0.03),)
        assert compare_records(base, cand, specs=strict).verdict == "FAIL"

    def test_format_contains_table_and_verdict(self):
        base = record_with({"makespan": 10.0}, run_id="base-1")
        cand = record_with({"makespan": 12.0}, run_id="cand-2")
        text = compare_records(base, cand).format()
        assert "base-1" in text and "cand-2" in text
        assert "makespan" in text
        assert "+20.00%" in text
        assert "overall verdict: FAIL" in text

    def test_non_numeric_metrics_ignored(self):
        base = record_with({"makespan": 1.0, "note": "hello", "flag": True})
        cand = record_with({"makespan": 1.0, "note": "bye", "flag": False})
        report = compare_records(base, cand)
        assert [d.name for d in report.deltas] == ["makespan"]


class TestNamedBaselines:
    RECORD = {"run_id": "frozen", "metrics": {"makespan": 10.0,
                                              "speed_efficiency": 0.30}}

    def test_save_and_load(self, tmp_path):
        path = save_baseline(self.RECORD, name="main", root=tmp_path)
        assert path == baseline_path("main", tmp_path)
        assert path.exists()
        loaded = load_baseline("main", tmp_path)
        assert loaded["run_id"] == "frozen"
        assert loaded["metrics"]["makespan"] == 10.0

    def test_load_missing_returns_none(self, tmp_path):
        assert load_baseline("absent", tmp_path) is None

    def test_check_against_baseline(self, tmp_path):
        save_baseline(self.RECORD, root=tmp_path)
        ok = record_with({"makespan": 10.1, "speed_efficiency": 0.30})
        assert check_against_baseline(ok, root=tmp_path).verdict == "PASS"
        bad = record_with({"makespan": 15.0, "speed_efficiency": 0.30})
        assert check_against_baseline(bad, root=tmp_path).verdict == "FAIL"

    def test_check_without_baseline_is_none(self, tmp_path):
        assert check_against_baseline(record_with({}), root=tmp_path) is None

    def test_wrong_kind_document_rejected(self, tmp_path):
        from repro.experiments.persistence import write_json_document

        write_json_document(tmp_path / "odd.json", kind="something-else",
                            payload={"record": {}})
        with pytest.raises(MetricError, match="expected 'run-baseline'"):
            load_baseline("odd", tmp_path)

    def test_malformed_record_rejected(self, tmp_path):
        from repro.experiments.persistence import write_json_document

        for record in ([1, 2], {"metrics": [1, 2]}, {"run_id": 5}):
            write_json_document(baseline_path("bad", tmp_path),
                                kind="run-baseline",
                                payload={"record": record})
            with pytest.raises(MetricError, match="baseline"):
                load_baseline("bad", tmp_path)


class TestDefaultSpecsRealistic:
    """The spec table as CI will use it: identical deterministic runs PASS,
    injected virtual-time regressions FAIL, wall-clock jitter never FAILs."""

    def test_identical_records_pass(self):
        from repro.experiments import run_ge
        from repro.machine import ge_configuration
        from repro.obs.ledger import _run_metrics

        cluster = ge_configuration(2)
        a = run_ge(cluster, 40)
        b = run_ge(cluster, 40)

        ra = record_with(_run_metrics(a, 1.0), "a")
        rb = record_with(_run_metrics(b, 1.0), "b")
        report = compare_records(ra, rb)
        # Deterministic virtual-time metrics are bit-identical; only
        # wall-clock metrics may move, and those never FAIL.
        assert report.verdict in ("PASS", "WARN")
        assert report.failed == []

    def test_injected_makespan_regression_fails(self):
        base = record_with({name: 1.0 for name in
                            ("makespan", "speed_efficiency")})
        cand = record_with({"makespan": 1.5, "speed_efficiency": 1.0})
        report = compare_records(base, cand, specs=DEFAULT_SPECS)
        assert report.verdict == "FAIL"
