"""Unit tests for the flat-array rank state and the tracer record limit."""

import pickle
from array import array
from dataclasses import asdict, fields

import pytest

from repro.network.model import ZeroCostNetwork
from repro.sim.engine import Engine
from repro.sim.events import Compute, Recv, Send
from repro.sim.trace import RankStats, RankStatsArray, Tracer


def filled(nranks=4) -> RankStatsArray:
    stats = RankStatsArray(nranks)
    for rank in range(nranks):
        stats.compute_time[rank] = 0.5 * rank
        stats.flops[rank] = 1e6 * rank
        stats.messages_sent[rank] = rank
        stats.finish_time[rank] = float(rank)
    return stats


class TestSequenceProtocol:
    def test_len_iter_and_index(self):
        stats = filled(4)
        assert len(stats) == 4
        views = list(stats)
        assert [v.rank for v in views] == [0, 1, 2, 3]
        assert stats[2].compute_time == pytest.approx(1.0)
        assert stats[-1].rank == 3

    def test_slice_materializes_views(self):
        stats = filled(5)
        tail = stats[3:]
        assert [v.rank for v in tail] == [3, 4]
        assert all(isinstance(v, RankStats) for v in tail)

    def test_out_of_range_raises_index_error(self):
        stats = RankStatsArray(2)
        with pytest.raises(IndexError):
            stats[2]
        with pytest.raises(IndexError):
            stats[-3]

    def test_views_are_plain_dataclasses(self):
        stats = filled(2)
        as_dict = asdict(stats[1])
        assert as_dict["rank"] == 1
        assert as_dict["messages_sent"] == 1


class TestEquality:
    def test_equal_to_materialized_list(self):
        stats = filled(3)
        assert stats == stats.materialize()
        assert stats == list(stats)

    def test_equal_to_same_columns(self):
        assert filled(3) == filled(3)
        other = filled(3)
        other.flops[0] = 42.0
        assert filled(3) != other

    def test_length_mismatch_differs(self):
        assert filled(2) != filled(3)

    def test_column_totals(self):
        stats = filled(4)
        stats.bytes_sent[1] = 10.0
        stats.bytes_sent[3] = 5.0
        stats.messages_lost[2] = 2
        assert stats.total_bytes_sent == pytest.approx(15.0)
        assert stats.total_messages_lost == 2


class TestPickle:
    def test_round_trips_through_pickle(self):
        stats = filled(3)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone == stats
        assert clone[1].compute_time == stats[1].compute_time


class TestEngineIntegration:
    def test_engine_stats_are_array_backed(self):
        engine = Engine(3, ZeroCostNetwork(), [1e6] * 3)

        def program(rank):
            yield Compute(seconds=0.1 * (rank + 1))

        run = engine.run(program)
        assert isinstance(run.stats, RankStatsArray)
        assert run.stats[2].compute_time == pytest.approx(0.3)
        assert run.makespan == pytest.approx(0.3)


class TestRunColumns:
    """Handlers write per-run columns; the result holds packed arrays."""

    def test_result_columns_are_packed_arrays(self):
        def program(rank):
            yield Compute(flops=1e3 * (rank + 1))
            yield Send((rank + 1) % 3, 64.0)
            yield Recv(src=(rank - 1) % 3)

        run = Engine(3, ZeroCostNetwork(), [1e6] * 3).run(program)
        for f in fields(RankStats):
            if f.name == "rank":
                continue  # the column index, not a column
            column = getattr(run.stats, f.name)
            assert isinstance(column, array), f.name
            assert column.typecode == ("q" if f.type == "int" else "d")
            assert len(column) == 3, f.name
        assert list(run.stats.messages_received) == [1, 1, 1]
        assert run.stats[2].flops == 3e3


class TestTracerLimit:
    def test_overflow_is_counted_in_dropped(self):
        tracer = Tracer(limit=2)
        engine = Engine(1, ZeroCostNetwork(), [1e6], tracer=tracer)

        def program(rank):
            for _ in range(10):
                yield Compute(seconds=0.25)

        engine.run(program)
        assert len(tracer.records) == 2
        assert tracer.dropped == 8

    def test_no_overflow_drops_nothing(self):
        tracer = Tracer()
        tracer.append((0, "compute", 0.0, 1.0, None))
        assert len(tracer.records) == 1
        assert tracer.dropped == 0
