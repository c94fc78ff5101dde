"""CLI tests: `repro flight list|show` post-mortem browsing."""

import json

import pytest

from repro.cli import main
from repro.sim.flight import FlightRecorder


@pytest.fixture
def dump_dir(tmp_path):
    """Two dumps written seconds apart (name order = recency order)."""
    root = tmp_path / "dumps"
    flight = FlightRecorder(capacity=8, out_dir=root, watchdog=None)
    flight.append((0, "compute", 0.0, 1.0, 250.0))
    flight.append((0, "send", 1.0, 1.5, 1, 7, 64.0))
    flight.append((1, "recv", 0.5, 1.5, 0, 7, 64.0))
    older = flight.dump_error(RuntimeError("first failure"))
    newer = flight.dump_error(RuntimeError("second failure"))
    return root, older, newer


class TestFlightList:
    def test_empty_dir_prints_hint(self, capsys, tmp_path):
        code = main(["flight", "list", "--dir", str(tmp_path / "nothing")])
        assert code == 0
        out = capsys.readouterr().out
        assert "no flight dumps" in out
        assert "--flight" in out  # points at how to produce one

    def test_lists_newest_first(self, capsys, dump_dir):
        root, older, newer = dump_dir
        assert main(["flight", "list", "--dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert out.index(newer.name) < out.index(older.name)
        assert "retained 3/8" in out
        assert "error: RuntimeError: first failure" in out

    def test_default_dir_is_env_flight_dir(self, capsys, tmp_path):
        # conftest points REPRO_FLIGHT_DIR at tmp_path / "flight".
        flight = FlightRecorder(capacity=2, watchdog=None)
        path = flight.dump_error(RuntimeError("boom"))
        assert path.parent == tmp_path / "flight"
        assert main(["flight", "list"]) == 0
        assert path.name in capsys.readouterr().out

    def test_malformed_envelope_listed_as_unreadable(self, capsys, dump_dir):
        root, older, newer = dump_dir
        bad = {"kind": "flight-dump", "reason": "boom", "engine": {},
               "records": []}
        (root / "flight-malformed.json").write_text(json.dumps(bad))
        assert main(["flight", "list", "--dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "flight-malformed.json  (unreadable:" in out
        assert older.name in out and newer.name in out

    def test_unreadable_file_reported_not_fatal(self, capsys, tmp_path):
        root = tmp_path / "dumps"
        root.mkdir()
        (root / "flight-garbage.json").write_text("{not json")
        assert main(["flight", "list", "--dir", str(root)]) == 0
        assert "unreadable" in capsys.readouterr().out


class TestFlightShow:
    def test_show_defaults_to_newest(self, capsys, dump_dir):
        root, _, newer = dump_dir
        assert main(["flight", "show", "--dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "second failure" in out
        assert "retained 3 of capacity 8" in out
        assert "flops=250" in out
        assert str(newer) in out  # source line for chrome://tracing

    def test_show_bare_name_resolves_against_dir(self, capsys, dump_dir):
        root, older, _ = dump_dir
        assert main(["flight", "show", older.name, "--dir", str(root)]) == 0
        assert "first failure" in capsys.readouterr().out

    def test_dir_accepted_after_subcommand_too(self, capsys, dump_dir):
        root, _, newer = dump_dir
        assert main(["flight", "--dir", str(root), "show"]) == 0
        assert newer.name in capsys.readouterr().out

    def test_tail_elides_earlier_records(self, capsys, dump_dir):
        root, _, _ = dump_dir
        assert main(["flight", "show", "--dir", str(root), "--tail", "1"]) == 0
        out = capsys.readouterr().out
        assert "... 2 earlier records elided ..." in out
        assert "recv" in out and "flops=250" not in out

    def test_tail_zero_shows_no_records(self, capsys, dump_dir):
        root, _, _ = dump_dir
        assert main(["flight", "show", "--dir", str(root), "--tail", "0"]) == 0
        out = capsys.readouterr().out
        assert "... 3 earlier records elided ..." in out
        assert not [ln for ln in out.splitlines() if ln.startswith("  [")]

    def test_tail_longer_than_ring_elides_nothing(self, capsys, dump_dir):
        root, _, _ = dump_dir
        assert main(["flight", "show", "--dir", str(root), "--tail", "9"]) == 0
        out = capsys.readouterr().out
        assert "elided" not in out
        assert "flops=250" in out and "recv" in out

    def test_negative_tail_is_a_usage_error(self, capsys, dump_dir):
        root, _, _ = dump_dir
        with pytest.raises(SystemExit) as exc:
            main(["flight", "show", "--dir", str(root), "--tail", "-1"])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_missing_dump_exits_with_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no flight dumps"):
            main(["flight", "show", "--dir", str(tmp_path / "nothing")])

    def test_non_dump_json_rejected(self, tmp_path):
        path = tmp_path / "flight-fake.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(SystemExit, match="not a flight dump"):
            main(["flight", "show", str(path)])

    @pytest.mark.parametrize("field,value", [
        ("reason", "boom"),
        ("engine", [1, 2]),
        ("records", "x"),
        ("records", [{"rank": 0, "kind": "compute", "start": 0.0}]),
        ("records", [{"rank": 0, "kind": "compute", "start": "0",
                      "end": 1.0, "detail": ""}]),
    ])
    def test_malformed_envelope_rejected(self, tmp_path, field, value):
        doc = {"kind": "flight-dump", "reason": {"trigger": "error"},
               "engine": {}, "records": []}
        doc[field] = value
        path = tmp_path / "flight-malformed.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit, match=f"flight dump '{field}'"):
            main(["flight", "show", str(path)])
