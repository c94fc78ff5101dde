"""Fault schedules: validation, queries, serialization, generators."""

import math

import pytest

from repro.faults.errors import FaultScheduleError
from repro.faults.schedule import (
    FAULT_SCHEDULE_KIND,
    FaultSchedule,
    LinkDegradation,
    MessageLoss,
    NodeCrash,
    NodeSlowdown,
    random_schedule,
    resolve_rng,
    uniform_slowdown,
)


class TestEventValidation:
    def test_slowdown_severity_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(FaultScheduleError):
                NodeSlowdown(rank=0, onset=0.0, duration=1.0, severity=bad)

    def test_slowdown_negative_onset(self):
        with pytest.raises(FaultScheduleError):
            NodeSlowdown(rank=0, onset=-1.0, duration=1.0, severity=0.5)

    def test_slowdown_open_ended_window(self):
        ev = NodeSlowdown(rank=0, onset=2.0, duration=None, severity=0.5)
        assert ev.until == math.inf
        assert ev.factor == 0.5

    def test_crash_failstop_vs_restart(self):
        failstop = NodeCrash(rank=1, at=3.0)
        assert failstop.is_failstop and failstop.downtime == 0.0
        restart = NodeCrash(rank=1, at=3.0, restart_delay=2.0,
                            recompute_seconds=1.0)
        assert not restart.is_failstop and restart.downtime == 3.0

    def test_crash_recompute_requires_restart(self):
        with pytest.raises(FaultScheduleError):
            NodeCrash(rank=0, at=1.0, recompute_seconds=0.5)

    def test_link_must_degrade_something(self):
        with pytest.raises(FaultScheduleError):
            LinkDegradation(onset=0.0, duration=1.0)

    def test_link_factor_bounds(self):
        with pytest.raises(FaultScheduleError):
            LinkDegradation(onset=0.0, duration=1.0, bandwidth_factor=1.5)
        with pytest.raises(FaultScheduleError):
            LinkDegradation(onset=0.0, duration=1.0, latency_factor=0.5)

    def test_loss_modular_predicate_bounds(self):
        with pytest.raises(FaultScheduleError):
            MessageLoss(every=0)
        with pytest.raises(FaultScheduleError):
            MessageLoss(every=3, offset=3)

    def test_loss_window(self):
        rule = MessageLoss(src=0, onset=1.0, until=2.0)
        assert rule.matches(0, 1, 1.5)
        assert not rule.matches(0, 1, 2.0)
        assert not rule.matches(1, 0, 1.5)


class TestScheduleQueries:
    def make(self):
        return FaultSchedule((
            NodeSlowdown(rank=1, onset=5.0, duration=1.0, severity=0.3),
            NodeSlowdown(rank=1, onset=0.0, duration=2.0, severity=0.5),
            NodeCrash(rank=0, at=4.0, restart_delay=1.0),
            NodeCrash(rank=0, at=1.0),
            LinkDegradation(onset=0.0, duration=1.0, bandwidth_factor=0.5),
        ))

    def test_slowdowns_sorted_by_onset(self):
        sched = self.make()
        onsets = [e.onset for e in sched.slowdowns(1)]
        assert onsets == [0.0, 5.0]
        assert sched.slowdowns(0) == ()

    def test_crashes_sorted_by_time(self):
        assert [c.at for c in self.make().crashes(0)] == [1.0, 4.0]

    def test_affected_ranks_excludes_network_faults(self):
        assert self.make().affected_ranks() == frozenset({0, 1})

    def test_has_network_faults(self):
        assert self.make().has_network_faults
        assert not FaultSchedule((
            NodeSlowdown(rank=0, onset=0.0, duration=1.0, severity=0.5),
        )).has_network_faults

    def test_validate_for_rejects_out_of_range_rank(self):
        with pytest.raises(FaultScheduleError):
            self.make().validate_for(1)
        assert self.make().validate_for(2) is not None

    def test_empty(self):
        assert FaultSchedule().is_empty
        assert FaultSchedule().max_rank() == -1


class TestSerialization:
    def round_trip(self):
        return FaultSchedule((
            NodeSlowdown(rank=0, onset=0.5, duration=None, severity=0.25),
            NodeCrash(rank=1, at=2.0, restart_delay=0.5,
                      recompute_seconds=0.25),
            LinkDegradation(onset=0.0, duration=3.0, bandwidth_factor=0.5,
                            latency_factor=2.0, src=0, dst=1),
            MessageLoss(src=1, dst=0, every=3, offset=1, max_drops=2),
        ))

    def test_payload_round_trip(self):
        sched = self.round_trip()
        assert FaultSchedule.from_payload(sched.to_payload()) == sched

    def test_save_load_document(self, tmp_path):
        sched = self.round_trip()
        path = tmp_path / "sched.json"
        sched.save(path)
        assert FaultSchedule.load(path) == sched

    def test_document_kind_enforced(self, tmp_path):
        from repro.core.types import MetricError
        from repro.experiments.persistence import write_json_document

        path = tmp_path / "other.json"
        write_json_document(path, "something-else", {"events": []})
        with pytest.raises(MetricError):
            FaultSchedule.load(path)

    def test_unknown_event_type_rejected(self):
        # Unknown names, non-object events and non-string types.
        for event in ({"type": "meteor"}, 1, "slowdown", None,
                      {"type": ["slowdown"]}, {"type": {"a": 1}}, {}):
            with pytest.raises(FaultScheduleError):
                FaultSchedule.from_payload({"events": [event]})

    def test_profile_hash_stable_and_content_sensitive(self):
        a = self.round_trip()
        b = self.round_trip()
        assert a.profile_hash() == b.profile_hash()
        assert len(a.profile_hash()) == 16
        c = a.extended([NodeCrash(rank=0, at=9.0)])
        assert c.profile_hash() != a.profile_hash()

    def test_empty_schedule_round_trip(self, tmp_path):
        empty = FaultSchedule()
        assert FaultSchedule.from_payload(empty.to_payload()) == empty
        path = tmp_path / "empty.json"
        empty.save(path)
        loaded = FaultSchedule.load(path)
        assert loaded == empty
        assert loaded.is_empty
        assert loaded.profile_hash() == empty.profile_hash()

    def test_zero_duration_rejected_even_via_payload(self):
        # Zero-duration windows are no-op events; construction rejects
        # them, and a hand-edited JSON payload must not sneak one past.
        with pytest.raises(FaultScheduleError):
            NodeSlowdown(rank=0, onset=1.0, duration=0.0, severity=0.5)
        payload = {"events": [{
            "type": "slowdown", "rank": 0, "onset": 1.0,
            "duration": 0.0, "severity": 0.5,
        }]}
        with pytest.raises(FaultScheduleError):
            FaultSchedule.from_payload(payload)

    def test_open_ended_duration_round_trip(self):
        sched = FaultSchedule((
            NodeSlowdown(rank=0, onset=1.0, duration=None, severity=0.5),
        ))
        back = FaultSchedule.from_payload(sched.to_payload())
        assert back == sched
        assert back.slowdowns(0)[0].duration is None
        assert back.slowdowns(0)[0].until == math.inf

    def test_overlapping_events_round_trip(self):
        # Two slowdowns on the same rank with overlapping windows, plus a
        # crash inside one of them: legal, and order must survive.
        sched = FaultSchedule((
            NodeSlowdown(rank=0, onset=0.0, duration=5.0, severity=0.3),
            NodeSlowdown(rank=0, onset=2.0, duration=5.0, severity=0.6),
            NodeCrash(rank=0, at=3.0, restart_delay=1.0),
        ))
        back = FaultSchedule.from_payload(sched.to_payload())
        assert back == sched
        assert back.events == sched.events

    def test_float_fidelity_through_json(self, tmp_path):
        # Awkward floats (repr round-trip is the persistence contract).
        onset = 0.1 + 0.2          # 0.30000000000000004
        severity = 1.0 / 3.0
        sched = FaultSchedule((
            NodeSlowdown(rank=0, onset=onset, duration=math.pi,
                         severity=severity),
        ))
        path = tmp_path / "floats.json"
        sched.save(path)
        (event,) = FaultSchedule.load(path).slowdowns(0)
        assert event.onset == onset
        assert event.duration == math.pi
        assert event.severity == severity

    @pytest.mark.parametrize("make", [
        lambda: FaultSchedule(),
        lambda: FaultSchedule((
            NodeSlowdown(rank=1, onset=0.0, duration=None, severity=0.2),
        )),
        lambda: FaultSchedule((
            NodeSlowdown(rank=0, onset=0.0, duration=4.0, severity=0.3),
            NodeSlowdown(rank=0, onset=1.0, duration=4.0, severity=0.5),
            MessageLoss(src=0, dst=1, every=2),
        )),
    ])
    def test_profile_hash_stable_across_round_trips(self, make, tmp_path):
        sched = make()
        original = sched.profile_hash()
        via_payload = FaultSchedule.from_payload(sched.to_payload())
        path = tmp_path / "rt.json"
        sched.save(path)
        via_document = FaultSchedule.load(path)
        assert via_payload.profile_hash() == original
        assert via_document.profile_hash() == original
        # ... and a second generation of round-trips stays fixed too.
        assert FaultSchedule.from_payload(
            via_document.to_payload()
        ).profile_hash() == original

    def test_saved_document_carries_hash(self, tmp_path):
        from repro.experiments.persistence import read_json_document

        sched = self.round_trip()
        path = tmp_path / "sched.json"
        sched.save(path)
        doc = read_json_document(path, FAULT_SCHEDULE_KIND)
        assert doc  # payload only; re-read raw for metadata
        import json

        raw = json.loads(path.read_text())
        assert raw["metadata"]["profile_hash"] == sched.profile_hash()


class TestGenerators:
    def test_uniform_slowdown_covers_all_ranks(self):
        sched = uniform_slowdown(4, 0.5)
        assert len(sched) == 4
        assert sched.affected_ranks() == frozenset(range(4))
        assert all(e.severity == 0.5 for e in sched)

    def test_uniform_slowdown_zero_severity_is_empty(self):
        assert uniform_slowdown(4, 0.0).is_empty

    def test_uniform_slowdown_rank_subset(self):
        sched = uniform_slowdown(4, 0.5, ranks=[1, 3])
        assert sched.affected_ranks() == frozenset({1, 3})

    def test_random_schedule_is_seed_deterministic(self):
        kwargs = dict(n_slowdowns=3, n_crashes=2, n_link_faults=1)
        a = random_schedule(4, seed=7, horizon=10.0, **kwargs)
        b = random_schedule(4, seed=7, horizon=10.0, **kwargs)
        assert a == b
        assert a.profile_hash() == b.profile_hash()
        c = random_schedule(4, seed=8, horizon=10.0, **kwargs)
        assert a != c

    def test_random_schedule_respects_counts_and_ranks(self):
        sched = random_schedule(4, seed=1, horizon=10.0,
                                n_slowdowns=2, n_crashes=1, n_link_faults=2)
        assert len(sched) == 5
        sched.validate_for(4)

    def test_random_schedule_failstop_mode(self):
        sched = random_schedule(2, seed=3, horizon=5.0, n_crashes=1,
                                n_slowdowns=0,
                                restart_delay_fraction=None)
        (crash,) = sched.all_crashes()
        assert crash.is_failstop

    def test_random_schedule_rejects_bad_inputs(self):
        with pytest.raises(FaultScheduleError):
            random_schedule(0, seed=0, horizon=1.0)
        with pytest.raises(FaultScheduleError):
            random_schedule(2, seed=0, horizon=0.0)

    def test_random_schedule_accepts_random_instance(self):
        import random

        # A live random.Random equals the int-seed path for the same
        # underlying stream ...
        direct = random_schedule(4, seed=7, horizon=10.0, n_slowdowns=3)
        via_rng = random_schedule(4, seed=random.Random(7), horizon=10.0,
                                  n_slowdowns=3)
        assert direct == via_rng
        # ... and one shared stream yields two *different* schedules
        # (the generator consumes draws rather than reseeding).
        shared = random.Random(7)
        first = random_schedule(4, seed=shared, horizon=10.0, n_slowdowns=3)
        second = random_schedule(4, seed=shared, horizon=10.0, n_slowdowns=3)
        assert first != second

    def test_random_schedule_accepts_numpy_generator(self):
        numpy = pytest.importorskip("numpy")

        a = random_schedule(4, seed=numpy.random.default_rng(11),
                            horizon=10.0, n_slowdowns=2, n_crashes=1,
                            n_link_faults=1)
        b = random_schedule(4, seed=numpy.random.default_rng(11),
                            horizon=10.0, n_slowdowns=2, n_crashes=1,
                            n_link_faults=1)
        assert a == b
        assert a.profile_hash() == b.profile_hash()
        a.validate_for(4)

    def test_resolve_rng_rejects_bool_and_junk(self):
        with pytest.raises(FaultScheduleError):
            resolve_rng(True)
        with pytest.raises(FaultScheduleError):
            resolve_rng("7")


class TestScaled:
    def base(self):
        return FaultSchedule((
            NodeSlowdown(rank=0, onset=1.0, duration=2.0, severity=0.8),
            NodeCrash(rank=1, at=2.0, restart_delay=1.0,
                      recompute_seconds=0.5),
            LinkDegradation(onset=0.0, duration=4.0, bandwidth_factor=0.5,
                            latency_factor=3.0),
        ))

    def test_identity_and_annihilation(self):
        sched = self.base()
        assert sched.scaled(1.0) is sched
        assert sched.scaled(0.0).is_empty

    def test_half_interpolates_toward_harmless(self):
        half = self.base().scaled(0.5)
        (slow,) = half.slowdowns(0)
        assert slow.severity == pytest.approx(0.4)
        assert slow.onset == 1.0 and slow.duration == 2.0
        (crash,) = half.all_crashes()
        assert crash.restart_delay == pytest.approx(0.5)
        assert crash.recompute_seconds == pytest.approx(0.25)
        (link,) = half.link_faults()
        assert link.bandwidth_factor == pytest.approx(0.75)
        assert link.latency_factor == pytest.approx(2.0)

    def test_failstop_dropped_below_unity(self):
        sched = FaultSchedule((NodeCrash(rank=0, at=1.0),))
        assert sched.scaled(0.5).is_empty
        assert sched.scaled(1.0) == sched

    def test_factor_bounds_enforced(self):
        with pytest.raises(FaultScheduleError):
            self.base().scaled(1.5)
        with pytest.raises(FaultScheduleError):
            self.base().scaled(-0.1)
