"""Execution tracing and per-rank accounting for simulation runs.

The engine always keeps cheap aggregate counters (:class:`RankStats`); full
event records are collected only when a record store is attached, because
large experiments generate millions of events.

There are two record stores, and they are the engine's only observers
(``Engine(tracer=..., flight=...)``).  A :class:`Tracer` keeps the
*first* ``limit`` records and counts the rest in :attr:`Tracer.dropped`,
so a truncated trace stays detectable.  A
:class:`~repro.sim.flight.FlightRecorder` is a tracer that keeps the
*last* K records in a ring, cheap enough to stay attached everywhere and
dumped as a post-mortem when a run dies.  Everything else a run reports
(per-op metrics, Chrome traces, the critical path) is derived from the
stored records after the run.

Both stores receive the engine's one observation format, the raw record
tuple ``(rank, kind, start, end, *extras)``, through ``append(rec)``, and
keep it raw; :class:`TraceRecord` views are built when read.  The extras
per kind are:

==================  ==========================
``compute``         ``flops`` (``None`` for ``Compute(seconds=)``)
``send``            ``dst, tag, nbytes``
``multicast``       ``ndsts, tag, nbytes``
``recv``            ``src, tag, nbytes``
``recv-timeout``    ``src, tag, timeout``
``log``             ``message``
==================  ==========================

:func:`record_detail` renders a record's human-readable detail string and
:func:`record_volume` decodes the ``(nbytes, flops)`` it accounts.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Iterator


@dataclass
class RankStats:
    """Aggregate virtual-time accounting for one simulated process."""

    rank: int
    compute_time: float = 0.0
    send_time: float = 0.0
    recv_wait_time: float = 0.0
    bytes_sent: float = 0.0
    bytes_received: float = 0.0
    messages_sent: int = 0
    messages_received: int = 0
    messages_lost: int = 0
    flops: float = 0.0
    finish_time: float = 0.0

    @property
    def comm_time(self) -> float:
        """Total time attributed to communication (send busy + recv wait)."""
        return self.send_time + self.recv_wait_time

    @property
    def busy_time(self) -> float:
        """Compute plus communication time (excludes pure idling)."""
        return self.compute_time + self.comm_time

    def idle_time(self, makespan: float) -> float:
        """Time this rank spent idle against a run of length ``makespan``.

        The engine advances a rank's clock only through compute, send and
        receive-wait, so idle time is the tail between this rank's finish
        and the makespan.  By construction ``compute_time + comm_time +
        idle_time(makespan) == makespan`` (up to float rounding).
        """
        return max(0.0, makespan - self.busy_time)

    def utilization(self, makespan: float) -> float:
        """Fraction of the makespan this rank was busy (compute + comm).

        Returns 0 for a zero-length run.
        """
        if makespan <= 0:
            return 0.0
        return min(1.0, self.busy_time / makespan)


#: Column layout of :class:`RankStatsArray`: every ``float`` field of
#: :class:`RankStats` except ``rank`` (which is the array index).
_FLOAT_COLUMNS = (
    "compute_time",
    "send_time",
    "recv_wait_time",
    "bytes_sent",
    "bytes_received",
    "flops",
    "finish_time",
)
#: Integer columns (message counters).
_INT_COLUMNS = ("messages_sent", "messages_received", "messages_lost")


class RankStatsArray:
    """Flat, preallocated column store for per-rank aggregates.

    One column per :class:`RankStats` field instead of one Python object
    (with an instance ``__dict__``) per rank.  A new store's columns are
    plain lists, which the engine's handlers write during a run
    (``compute_time[rank] += dt`` on a list is several times cheaper than
    on an ``array``, which boxes a new float per read); :meth:`pack` then
    turns them into C ``double``/``int64`` arrays, ~80 bytes/rank total
    versus ~400 for objects.  Every *read* access goes through the sequence protocol, which lazily
    materializes ordinary :class:`RankStats` dataclass views, so
    downstream consumers (``asdict``, field access, equality) see exactly
    the objects they always did.  Values are bit-identical to the
    per-object representation: all three store IEEE doubles and the
    accumulation arithmetic is unchanged.
    """

    __slots__ = ("nranks",) + _FLOAT_COLUMNS + _INT_COLUMNS

    def __init__(self, nranks: int):
        if nranks < 0:
            raise ValueError(f"nranks must be >= 0, got {nranks}")
        self.nranks = nranks
        for name in _FLOAT_COLUMNS:
            setattr(self, name, [0.0] * nranks)
        for name in _INT_COLUMNS:
            setattr(self, name, [0] * nranks)

    def pack(self) -> None:
        """Convert the columns, in place, to ``array('d')``/``array('q')``."""
        for name in _FLOAT_COLUMNS:
            setattr(self, name, array("d", getattr(self, name)))
        for name in _INT_COLUMNS:
            setattr(self, name, array("q", getattr(self, name)))

    def __len__(self) -> int:
        return self.nranks

    def __getitem__(self, index: int | slice) -> "RankStats | list[RankStats]":
        if isinstance(index, slice):
            return [
                self._materialize(i)
                for i in range(*index.indices(self.nranks))
            ]
        i = index
        if i < 0:
            i += self.nranks
        if not 0 <= i < self.nranks:
            raise IndexError(index)
        return self._materialize(i)

    def __iter__(self) -> Iterator["RankStats"]:
        for i in range(self.nranks):
            yield self._materialize(i)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, RankStatsArray):
            return self.nranks == other.nranks and all(
                getattr(self, name) == getattr(other, name)
                for name in _FLOAT_COLUMNS + _INT_COLUMNS
            )
        if isinstance(other, (list, tuple)):
            return self.materialize() == list(other)
        return NotImplemented

    def _materialize(self, rank: int) -> "RankStats":
        return RankStats(
            rank=rank,
            compute_time=self.compute_time[rank],
            send_time=self.send_time[rank],
            recv_wait_time=self.recv_wait_time[rank],
            bytes_sent=self.bytes_sent[rank],
            bytes_received=self.bytes_received[rank],
            messages_sent=self.messages_sent[rank],
            messages_received=self.messages_received[rank],
            messages_lost=self.messages_lost[rank],
            flops=self.flops[rank],
            finish_time=self.finish_time[rank],
        )

    def materialize(self) -> list["RankStats"]:
        """All ranks as plain dataclass objects (small-run convenience)."""
        return [self._materialize(i) for i in range(self.nranks)]

    @property
    def total_bytes_sent(self) -> float:
        """Column sum without materializing views."""
        return sum(self.bytes_sent)

    @property
    def total_messages_lost(self) -> int:
        """Column sum without materializing views."""
        return sum(self.messages_lost)


@dataclass(frozen=True)
class TraceRecord:
    """One engine event, recorded only when tracing is enabled."""

    rank: int
    kind: str
    start: float
    end: float
    detail: str = ""


_DETAIL_FORMATS = {
    "compute": lambda flops: f"flops={flops:g}" if flops is not None else "",
    "send": lambda dst, tag, nbytes: f"dst={dst} tag={tag} nbytes={nbytes:g}",
    "multicast": (
        lambda ndsts, tag, nbytes: f"dsts={ndsts} tag={tag} nbytes={nbytes:g}"
    ),
    "recv": lambda src, tag, nbytes: f"src={src} tag={tag} nbytes={nbytes:g}",
    "recv-timeout": (
        lambda src, tag, timeout: f"src={src} tag={tag} timeout={timeout:g}"
    ),
    "log": str,
}


def record_detail(rec: tuple) -> str:
    """The detail string of a raw record (``"dst=1 tag=7 nbytes=64"``).

    Kinds without a known layout (e.g. the fault injector's ``fault``
    records) and malformed extras fall back to the extras joined by spaces.
    """
    fmt = _DETAIL_FORMATS.get(rec[1])
    if fmt is not None:
        try:
            return fmt(*rec[4:])
        except (TypeError, ValueError):
            pass
    return " ".join(str(x) for x in rec[4:])


def record_volume(rec: tuple) -> tuple[float, float]:
    """The ``(nbytes, flops)`` a raw record accounts (per-op metrics)."""
    kind = rec[1]
    if kind == "compute":
        flops = rec[4]
        return 0.0, (flops if flops is not None else 0.0)
    if kind in ("send", "recv", "multicast"):
        return rec[6], 0.0
    return 0.0, 0.0


def record_view(rec: tuple) -> TraceRecord:
    """The :class:`TraceRecord` view of a raw record.  ``compute`` views
    carry no detail string (Chrome traces show their duration alone)."""
    kind = rec[1]
    return TraceRecord(
        rec[0], kind, rec[2], rec[3],
        "" if kind == "compute" else record_detail(rec),
    )


class Tracer:
    """Record store: keeps the first ``limit`` raw records of a run.

    Records are stored as the engine hands them over, raw tuples, and
    :attr:`records` builds the :class:`TraceRecord` views when it is
    read.  Once ``limit`` records are stored, further records are
    counted in ``dropped`` instead, so a truncated trace stays
    detectable.  A negative limit raises :class:`ValueError`.
    """

    def __init__(self, limit: int = 1_000_000):
        if limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        self.limit = int(limit)
        self.dropped = 0
        self._raw: Any = []
        self._views: list[TraceRecord] = []

    def append(self, rec: tuple) -> None:
        """Store one raw record, or count it as dropped past the limit."""
        if len(self._raw) >= self.limit:
            self.dropped += 1
            return
        self._raw.append(rec)

    def __len__(self) -> int:
        return len(self._raw)

    def raw_records(self) -> list[tuple]:
        """The stored raw tuples, oldest first."""
        return list(self._raw)

    @property
    def records(self) -> list[TraceRecord]:
        """The stored records as :class:`TraceRecord` views, oldest first
        (built once per record: the store only grows)."""
        views = self._views
        if len(views) < len(self._raw):
            views.extend(map(record_view, self._raw[len(views):]))
        return views

    def by_kind(self, kind: str) -> list[TraceRecord]:
        """All records of one kind ('compute', 'send', 'recv', 'multicast',
        'log')."""
        return [r for r in self.records if r.kind == kind]

    def kinds(self) -> list[str]:
        """Sorted distinct kinds present among the stored records."""
        return sorted({r.kind for r in self.records})

    def for_rank(self, rank: int) -> list[TraceRecord]:
        """All records emitted by one rank, in engine order."""
        return [r for r in self.records if r.rank == rank]
