"""Conservative discrete-event engine for simulated message-passing programs.

Processes are Python generators yielding the primitives in
:mod:`repro.sim.events`.  The engine always advances the runnable process
with the *smallest local virtual clock*, which keeps shared-resource network
models (e.g. the shared-bus Ethernet) causal: when a transfer is requested at
local time ``t``, every other live process has already progressed to a clock
``>= t`` or is blocked waiting on a message, so no transfer with an earlier
start time can be requested afterwards.

The engine is composed of three layers (see docs/API.md, "Engine
architecture"):

* :class:`~repro.sim.scheduler.Scheduler` — the time-ordered run queue:
  a ``(time, seq, rank)`` heap plus a seq counter.  The run loop itself
  re-queues or directly resumes the rank that just yielded;
  ``heap_pushes`` counts seq stamps, so direct resumes are included.
* :class:`~repro.sim.mailbox.MailboxSet` — per-``(src, tag)`` indexed
  message matching with an exact wildcard path (smallest ``(arrival,
  seq)`` wins) and timed-receive deadline filtering.
* The op table — a fixed module-level ``{op type: handler factory}``
  map over the six primitives.  ``Engine.run`` builds it into
  ``{op type: handler}`` once per run and the hot loop resolves
  ``type(op)`` through it; a handler only queues *other* ranks.

Observation is one stream: each handler passes the raw record tuple
``(rank, kind, start, end, *extras)`` (layout in :mod:`repro.sim.trace`)
to the run's prebound ``emit``, which appends it to the attached record
stores (``tracer=``, ``flight=``) and is ``None`` when neither is
attached.

Timing semantics:

* ``Compute(flops=f)`` advances the clock by ``f / flops_per_second[rank]``;
  ``Compute(flops=f, seconds=s)`` advances it by ``s`` while still crediting
  ``f`` flops to the rank's stats (an explicit duration override, used e.g.
  by fault injection to model degraded rates without losing work accounting).
* ``Send`` asks the network model for ``(sender_done, arrival)`` and advances
  the sender's clock to ``sender_done``; the message is deposited in the
  destination mailbox with the given arrival time.
* ``Recv`` completes at ``max(post_time, arrival)`` of the first matching
  message (smallest arrival, ties broken by deposit sequence); if no match
  exists, the process blocks until a matching send occurs.  A receive posted
  with ``timeout=`` resumes with ``None`` at ``post_time + timeout`` when no
  match arrived in time; a matching message whose arrival lies *past* the
  deadline does not complete the timed receive — it stays in the mailbox
  for a later receive (arrival exactly at the deadline is delivered).
* A network model may signal *in-transit loss* by returning
  ``arrival == math.inf`` from ``transfer``: the sender is charged normally
  (``sender_done``), but the message is never deposited at the destination
  and is counted in ``RankStats.messages_lost`` of the sender.

The run is fully deterministic for a fixed program and network model.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Sequence

from .errors import (
    DeadlockError,
    EventLimitExceeded,
    InvalidOperationError,
    ProtocolError,
)
from .events import (
    ANY_SOURCE,
    ANY_TAG,
    Compute,
    Log,
    Message,
    Multicast,
    Now,
    Recv,
    Send,
)
from .mailbox import MailboxSet
from .scheduler import Scheduler
from .trace import RankStats, RankStatsArray, Tracer

#: Sentinel arrival time a network model returns for a message lost in
#: transit (the engine then never delivers it).
_INF = math.inf

#: A simulated process: a generator yielding SimOp objects, receiving results.
Program = Generator[Any, Any, Any]
#: A factory building the per-rank process generator.
ProgramFactory = Callable[[int], Program]


@dataclass
class RunResult:
    """Outcome of one simulated execution.

    ``stats`` is a sequence with the :class:`RankStats` surface: a plain
    list for rehydrated runs, a column-backed
    :class:`~repro.sim.trace.RankStatsArray` (lazily materializing
    dataclass views) for engine-produced results.  Above the large-rank
    serialization threshold a cached run carries only ``rank_summary``
    (the exact :func:`~repro.obs.streaming.summarize_rank_stats`
    block) with empty ``finish_times``/``stats``; ``makespan`` then falls
    back to the summary's recorded value.
    """

    finish_times: list[float]
    stats: Sequence[RankStats]
    events: int
    tracer: Tracer | None = None
    return_values: list[Any] = field(default_factory=list)
    undelivered_messages: int = 0
    wall_seconds: float = 0.0
    heap_pushes: int = 0
    stale_pops: int = 0
    heap_pops: int = 0
    rank_summary: dict | None = None

    @property
    def makespan(self) -> float:
        """Virtual time at which the last process finished (the run time T)."""
        if self.finish_times:
            return max(self.finish_times)
        if self.rank_summary is not None:
            return float(self.rank_summary.get("makespan", 0.0))
        return 0.0

    @property
    def events_per_second(self) -> float:
        """Engine self-profile: simulated events per wall-clock second."""
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def stale_pop_ratio(self) -> float:
        """Fraction of heap pops that were stale entries (scheduler waste)."""
        total = self.heap_pops
        return self.stale_pops / total if total > 0 else 0.0

    @property
    def total_bytes(self) -> float:
        """Total bytes injected into the network across all ranks."""
        total = getattr(self.stats, "total_bytes_sent", None)
        if total is not None:
            return total  # column sum, no per-rank views materialized
        return sum(s.bytes_sent for s in self.stats)

    @property
    def messages_lost(self) -> int:
        """Messages dropped in transit by the network model (all ranks)."""
        total = getattr(self.stats, "total_messages_lost", None)
        if total is not None:
            return total
        return sum(s.messages_lost for s in self.stats)


class _Proc:
    """Book-keeping for one simulated process."""

    __slots__ = ("rank", "send", "time", "done", "waiting",
                 "block_start", "pending", "value", "resume_seq",
                 "deadline_seq")

    def __init__(self, rank: int, gen: Program):
        self.rank = rank
        self.send = gen.send  # bound once; resumed once per primitive event
        self.time = 0.0
        self.done = False
        self.waiting: Recv | None = None  # blocked receive, if any
        self.block_start = 0.0
        self.pending: Any = None  # value to feed the generator on next resume
        self.value: Any = None  # generator return value
        self.resume_seq = -1  # scheduler seq of this process's live resume entry
        self.deadline_seq: int | None = None  # scheduler seq of a pending timeout


class RunContext:
    """Per-run state handed to the primitive handler factories.

    One instance exists per ``Engine.run``; each factory binds whatever
    it needs from it into its handler closure, so the per-event call
    stays cheap.

    ``stats`` is the run's :class:`RankStatsArray`: plain list columns,
    packed into arrays when the run ends.  ``emit(rec)`` hands one raw
    record tuple to every attached record store, or is ``None`` when
    none is attached.
    ``deliver(msg)`` routes a just-arrived message to an eligible waiting
    receive (completing it and queueing that rank) or into the mailbox
    index, enforcing the timed-receive deadline rule in both cases.
    """

    __slots__ = ("nranks", "flops_per_second", "transfer",
                 "native_multicast", "procs", "stats", "scheduler",
                 "mailboxes", "emit", "deliver")

    def __init__(
        self,
        engine: "Engine",
        procs: list[_Proc],
        stats: RankStatsArray,
        scheduler: Scheduler,
        mailboxes: MailboxSet,
        emit: Callable[[tuple], None] | None,
    ):
        self.nranks = engine.nranks
        self.flops_per_second = engine.flops_per_second
        self.transfer = engine.network.transfer
        # A network model's multicast support is fixed per instance (e.g.
        # FaultyNetworkModel only advertises it when its inner model does),
        # so resolve it once per run instead of once per event.
        self.native_multicast = getattr(engine.network, "multicast", None)
        self.procs = procs
        self.stats = stats
        self.scheduler = scheduler
        self.mailboxes = mailboxes
        self.emit = emit

        push = scheduler.push_resume
        deposit = mailboxes.deposit
        # Stats columns, bound once per run: handler closures accumulate
        # into flat per-run lists instead of per-rank objects.
        recv_wait_time = stats.recv_wait_time
        bytes_received = stats.bytes_received
        messages_received = stats.messages_received

        def deliver(msg: Message) -> None:
            dst = msg.dst
            dst_proc = procs[dst]
            waiting = dst_proc.waiting
            arrival = msg.arrival
            if (
                waiting is not None
                and msg.matches(waiting.src, waiting.tag)
                and (
                    waiting.timeout is None
                    or arrival <= dst_proc.block_start + waiting.timeout
                )
            ):
                posted_at = dst_proc.block_start  # == its clock while blocked
                t = dst_proc.time
                if arrival > t:
                    t = arrival
                dst_proc.time = t
                recv_wait_time[dst] += t - posted_at
                bytes_received[dst] += msg.nbytes
                messages_received[dst] += 1
                if emit is not None:
                    emit((dst, "recv", posted_at, t, msg.src, msg.tag,
                          msg.nbytes))
                dst_proc.waiting = None
                dst_proc.deadline_seq = None  # cancel a receive timeout
                dst_proc.pending = msg
                push(dst_proc)
            else:
                # No eligible waiter (none posted, no match, or the
                # arrival is past a timed receive's deadline).
                deposit(msg)

        self.deliver = deliver


class Engine:
    """Runs a set of per-rank generator programs over a network model.

    Parameters
    ----------
    nranks:
        Number of simulated processes (ranks ``0 .. nranks-1``).
    network:
        Object with ``transfer(src, dst, nbytes, start) -> (sender_done,
        arrival)`` and optionally ``reset()``.
    flops_per_second:
        Effective compute speed of each rank for this program, in flops/s.
    tracer:
        Optional :class:`Tracer`: keeps the first ``limit`` raw records
        of the run.
    flight:
        Optional :class:`~repro.sim.flight.FlightRecorder`: a tracer that
        keeps the most recent K records in a bounded ring and auto-dumps
        them to ``.repro/flight/`` when an error escapes the run loop or
        the run-completion watchdog trips.

    These two record stores are the engine's only observers: each is
    read-only (attaching it never changes results; bit-identity is
    pinned by ``tests/sim/test_bit_identity.py``), and everything else a
    run reports -- per-op metrics, Chrome traces, the critical path --
    is derived from their records after the run.  With neither attached
    the hot loop pays a single ``None`` test per primitive.
    max_events:
        Safety limit on primitive operations processed.
    """

    def __init__(
        self,
        nranks: int,
        network: Any,
        flops_per_second: Sequence[float],
        tracer: Tracer | None = None,
        max_events: int = 50_000_000,
        flight: Any = None,
    ):
        if nranks <= 0:
            raise InvalidOperationError(f"nranks must be positive, got {nranks}")
        if len(flops_per_second) != nranks:
            raise InvalidOperationError(
                f"flops_per_second has {len(flops_per_second)} entries "
                f"for {nranks} ranks"
            )
        for rank, speed in enumerate(flops_per_second):
            if speed <= 0:
                raise InvalidOperationError(
                    f"flops_per_second[{rank}] must be positive, got {speed}"
                )
        # Bind-time topology validation: a network model built from an
        # empty or length-mismatched node-id sequence would otherwise
        # surface later as an opaque IndexError inside transfer().
        topology = getattr(network, "topology", None)
        if topology is not None:
            topo_ranks = getattr(topology, "nranks", None)
            if topo_ranks is not None and topo_ranks != nranks:
                raise InvalidOperationError(
                    f"network topology maps {topo_ranks} ranks but the "
                    f"engine is running {nranks}; build the topology from "
                    f"one node id per rank (Topology.from_sequence(ids, "
                    f"nranks=...) validates this at construction)"
                )
        self.nranks = nranks
        self.network = network
        self.flops_per_second = [float(s) for s in flops_per_second]
        self.tracer = tracer
        self.max_events = max_events
        self.flight = flight

    # ------------------------------------------------------------------
    def run(self, programs: ProgramFactory | Iterable[Program]) -> RunResult:
        """Execute the programs to completion and return timing results."""
        if callable(programs):
            gens = [programs(rank) for rank in range(self.nranks)]
        else:
            gens = list(programs)
            if len(gens) != self.nranks:
                raise InvalidOperationError(
                    f"expected {self.nranks} programs, got {len(gens)}"
                )
        if hasattr(self.network, "reset"):
            self.network.reset()

        procs = [_Proc(rank, gen) for rank, gen in enumerate(gens)]
        stats = RankStatsArray(self.nranks)
        scheduler = Scheduler()
        mailboxes = MailboxSet(self.nranks)
        flight = self.flight
        emit = _bind_emit([s for s in (flight, self.tracer) if s is not None])
        ctx = RunContext(self, procs, stats, scheduler, mailboxes, emit)
        handlers = {op: factory(ctx) for op, factory in _HANDLERS.items()}

        live = self.nranks
        events = 0
        max_events = self.max_events
        wall_start = time.perf_counter()

        for proc in procs:
            scheduler.push_resume(proc)

        # Hot-loop local bindings (this loop runs once per primitive event).
        # Pop/stale accounting lives in loop locals rather than Scheduler
        # attributes: this is the hottest line in the engine and a local
        # integer increment is measurably cheaper.
        heap = scheduler.heap
        push = scheduler.push_resume
        finish_time_col = stats.finish_time
        recv_wait_col = stats.recv_wait_time
        pops = 0
        stale = 0

        # The try block costs nothing per iteration; it exists so an
        # error escaping the loop (protocol violation, event-limit,
        # deadlock, a program raising e.g. RankFailedError) dumps the
        # flight ring before propagating.
        try:
            while live > 0:
                try:
                    entry_time, entry_seq, rank = heappop(heap)
                except IndexError:
                    raise DeadlockError(
                        {
                            p.rank: f"Recv(src={p.waiting.src}, tag={p.waiting.tag})"
                            for p in procs
                            if p.waiting is not None and not p.done
                        }
                    ) from None
                pops += 1
                proc = procs[rank]
                # A popped entry is live iff its seq matches the process's
                # current resume stamp (a process is only ever queued while
                # runnable, and each entry is consumed at most once) ...
                if entry_seq == proc.resume_seq:
                    send = proc.send
                    while True:
                        send_back = proc.pending
                        proc.pending = None
                        try:
                            op = send(send_back)
                        except StopIteration as stop:
                            proc.done = True
                            proc.value = stop.value
                            finish_time_col[rank] = proc.time
                            live -= 1
                            break

                        events += 1
                        if events > max_events:
                            raise EventLimitExceeded(
                                f"exceeded max_events={max_events}; "
                                "likely an unbounded program"
                            )
                        try:
                            handler = handlers[op.__class__]
                        except KeyError:
                            _reject_op(rank, op)
                        handler(proc, op)
                        if proc.waiting is not None:
                            break  # blocked on a receive
                        # Re-queue the yielding rank: stamp a seq, resume
                        # it at once if strictly earliest (the fresh seq
                        # loses ties) as one push + one pop, else queue it.
                        s = scheduler.seq
                        scheduler.seq = s + 1
                        t = proc.time
                        if heap and heap[0][0] <= t:
                            proc.resume_seq = s
                            heappush(heap, (t, s, rank))
                            break
                        pops += 1
                # ... or its pending receive-timeout stamp: resume the blocked
                # process with None at the deadline instant.
                elif proc.waiting is not None and entry_seq == proc.deadline_seq:
                    op = proc.waiting
                    posted_at = proc.block_start
                    proc.time = entry_time
                    recv_wait_col[rank] += entry_time - posted_at
                    if emit is not None:
                        emit((rank, "recv-timeout", posted_at, entry_time,
                              op.src, op.tag, op.timeout))
                    proc.waiting = None
                    proc.deadline_seq = None
                    proc.pending = None
                    push(proc)
                else:
                    # Stale entry (consumed resume or dead timeout).
                    stale += 1
        except Exception as exc:
            if flight is not None:
                flight.dump_error(
                    exc,
                    nranks=self.nranks,
                    events=events,
                    heap_pops=pops,
                    stale_pops=stale,
                )
            raise
        stats.pack()

        result = RunResult(
            finish_times=[p.time for p in procs],
            stats=stats,
            events=events,
            tracer=self.tracer,
            return_values=[p.value for p in procs],
            undelivered_messages=len(mailboxes),
            wall_seconds=time.perf_counter() - wall_start,
            heap_pushes=scheduler.pushes,
            stale_pops=stale,
            heap_pops=pops,
        )
        if flight is not None:
            # The run-completion watchdog: a pure side effect that never
            # alters the result.
            flight.run_complete(result)
        return result


def _reject_op(rank: int, op: Any) -> None:
    """Raise the ProtocolError for an op type with no handler."""
    if isinstance(op, tuple(_HANDLERS)):
        raise ProtocolError(
            f"rank {rank} yielded a subclass of a primitive ({op!r}); "
            "yield the primitive types directly"
        ) from None
    raise ProtocolError(
        f"rank {rank} yielded unsupported object {op!r}"
    ) from None


def _bind_emit(stores: list[Any]) -> Callable[[tuple], None] | None:
    """The run's one observation callback: ``None`` with no record store,
    the store's own bound ``append`` with one (a flight-only run binds
    the ring's C-level ``deque.append``), else an in-order fan-out."""
    if not stores:
        return None
    if len(stores) == 1:
        return stores[0].append
    appends = tuple(store.append for store in stores)

    def emit(rec: tuple) -> None:
        for append in appends:
            append(rec)

    return emit


# ----------------------------------------------------------------------
# Primitive handlers.  Each factory runs once per Engine.run and binds
# the hot state it needs into its handler closure.  Dispatch is by exact
# type: a subclass of a primitive has no handler.

def _send_factory(ctx: RunContext):
    nranks = ctx.nranks
    transfer = ctx.transfer
    stats = ctx.stats
    send_time = stats.send_time
    bytes_sent = stats.bytes_sent
    messages_sent = stats.messages_sent
    messages_lost = stats.messages_lost
    recv_wait_time = stats.recv_wait_time
    bytes_received = stats.bytes_received
    messages_received = stats.messages_received
    emit = ctx.emit
    procs = ctx.procs
    deposit = ctx.mailboxes.deposit
    new_seq = ctx.mailboxes.new_seq
    scheduler = ctx.scheduler
    heap = scheduler.heap

    def handle_send(proc: _Proc, op: Send) -> None:
        rank = proc.rank
        dst = op.dst
        if dst >= nranks:
            raise InvalidOperationError(
                f"rank {rank} sent to invalid rank {dst} "
                f"(nranks={nranks})"
            )
        start = proc.time
        nbytes = op.nbytes
        tag = op.tag
        sender_done, arrival = transfer(rank, dst, nbytes, start)
        if sender_done < start or arrival < start:
            raise ProtocolError(
                "network model returned a time before the send start "
                f"(start={start}, done={sender_done}, arrival={arrival})"
            )
        proc.time = sender_done
        send_time[rank] += sender_done - start
        bytes_sent[rank] += nbytes
        messages_sent[rank] += 1
        if emit is not None:
            emit((rank, "send", start, sender_done, dst, tag, nbytes))
        if arrival == _INF:
            # Lost in transit: sender paid, nothing is delivered.
            messages_lost[rank] += 1
        else:
            # ctx.deliver, complete_recv and push_resume inlined (sends
            # dominate traffic): hand the message to an eligible blocked
            # receive and queue that rank, else mailbox it.
            msg = Message(rank, dst, tag, nbytes, op.payload, arrival,
                          new_seq())
            dst_proc = procs[dst]
            waiting = dst_proc.waiting
            if (
                waiting is not None
                and (waiting.src == rank or waiting.src == ANY_SOURCE)
                and (waiting.tag == tag or waiting.tag == ANY_TAG)
                and (
                    waiting.timeout is None
                    or arrival <= dst_proc.block_start + waiting.timeout
                )
            ):
                posted_at = dst_proc.block_start  # == its clock while blocked
                t = arrival if arrival > posted_at else posted_at
                dst_proc.time = t
                recv_wait_time[dst] += t - posted_at
                bytes_received[dst] += nbytes
                messages_received[dst] += 1
                if emit is not None:
                    emit((dst, "recv", posted_at, t, rank, tag, nbytes))
                dst_proc.waiting = None
                dst_proc.deadline_seq = None  # cancel a receive timeout
                dst_proc.pending = msg
                s = scheduler.seq
                scheduler.seq = s + 1
                dst_proc.resume_seq = s
                heappush(heap, (t, s, dst))
            else:
                deposit(msg)

    return handle_send


def _recv_factory(ctx: RunContext):
    buckets = ctx.mailboxes.buckets
    pop_match = ctx.mailboxes.pop_match
    scheduler = ctx.scheduler
    stats = ctx.stats
    recv_wait_time = stats.recv_wait_time
    bytes_received = stats.bytes_received
    messages_received = stats.messages_received
    emit = ctx.emit

    def handle_recv(proc: _Proc, op: Recv) -> None:
        rank = proc.rank
        timeout = op.timeout
        posted_at = proc.time
        # An empty index (the common case for blocking programs) skips
        # the match; complete_recv is inlined for the running rank, whose
        # waiting/deadline_seq are already clear.
        if buckets[rank]:
            msg = pop_match(
                rank, op.src, op.tag,
                _INF if timeout is None else posted_at + timeout,
            )
            if msg is not None:
                arrival = msg.arrival
                t = arrival if arrival > posted_at else posted_at
                proc.time = t
                recv_wait_time[rank] += t - posted_at
                bytes_received[rank] += msg.nbytes
                messages_received[rank] += 1
                if emit is not None:
                    emit((rank, "recv", posted_at, t, msg.src, msg.tag,
                          msg.nbytes))
                proc.pending = msg
                return
        proc.waiting = op
        proc.block_start = posted_at
        if timeout is not None:
            proc.deadline_seq = scheduler.push_deadline(
                posted_at + timeout, rank
            )

    return handle_recv


def _compute_factory(ctx: RunContext):
    fps = ctx.flops_per_second
    stats = ctx.stats
    flops_col = stats.flops
    compute_time = stats.compute_time
    emit = ctx.emit

    def handle_compute(proc: _Proc, op: Compute) -> None:
        rank = proc.rank
        start = proc.time
        flops = op.flops
        seconds = op.seconds
        if seconds is not None:
            duration = seconds  # fixed cost or explicit override
        else:
            duration = flops / fps[rank]
        if flops is not None:
            flops_col[rank] += flops
        end = start + duration
        proc.time = end
        compute_time[rank] += duration
        if emit is not None:
            emit((rank, "compute", start, end, flops))

    return handle_compute


def _multicast_factory(ctx: RunContext):
    nranks = ctx.nranks
    transfer = ctx.transfer
    native = ctx.native_multicast
    stats = ctx.stats
    send_time = stats.send_time
    bytes_sent = stats.bytes_sent
    messages_sent = stats.messages_sent
    messages_lost = stats.messages_lost
    emit = ctx.emit
    deliver = ctx.deliver
    new_seq = ctx.mailboxes.new_seq

    def handle_multicast(proc: _Proc, op: Multicast) -> None:
        rank = proc.rank
        start = proc.time
        nbytes = op.nbytes
        remote = [d for d in op.dsts if d != rank]
        for dst in remote:
            if dst >= nranks:
                raise InvalidOperationError(
                    f"rank {rank} multicast to invalid rank {dst} "
                    f"(nranks={nranks})"
                )
        if not remote:
            return
        deliveries: list[tuple[int, float]] = []
        lost = 0
        if native is not None:
            sender_done, arrival = native(rank, tuple(remote), nbytes, start)
            if arrival == _INF:
                lost = len(remote)  # whole broadcast frame lost
            elif arrival < start:
                raise ProtocolError(
                    "network model delivered a multicast before "
                    f"the send start (start={start}, "
                    f"arrival={arrival})"
                )
            else:
                deliveries = [(dst, arrival) for dst in remote]
        else:
            # Fallback: serialized unicasts (switched network).
            sender_done = start
            for dst in remote:
                leg_start = sender_done
                sender_done, arrival = transfer(rank, dst, nbytes, leg_start)
                if arrival != _INF and arrival < leg_start:
                    raise ProtocolError(
                        "network model delivered a multicast "
                        "unicast leg before its start "
                        f"(start={leg_start}, arrival={arrival})"
                    )
                if arrival == _INF:
                    lost += 1
                else:
                    deliveries.append((dst, arrival))
        if sender_done < start:
            raise ProtocolError(
                "network model returned a time before the "
                f"multicast start (start={start}, done={sender_done})"
            )
        proc.time = sender_done
        send_time[rank] += sender_done - start
        bytes_sent[rank] += nbytes  # one physical transmission
        messages_sent[rank] += 1
        messages_lost[rank] += lost
        if emit is not None:
            emit((rank, "multicast", start, sender_done, len(remote),
                  op.tag, nbytes))
        for dst, arrival in deliveries:
            deliver(Message(rank, dst, op.tag, nbytes, op.payload, arrival,
                            new_seq()))

    return handle_multicast


def _now_factory(ctx: RunContext):
    def handle_now(proc: _Proc, op: Now) -> None:
        proc.pending = proc.time

    return handle_now


def _log_factory(ctx: RunContext):
    emit = ctx.emit

    def handle_log(proc: _Proc, op: Log) -> None:
        if emit is not None:
            emit((proc.rank, "log", proc.time, proc.time, op.message))

    return handle_log


#: The op table: each primitive's handler factory, by exact type.
_HANDLERS = {
    Send: _send_factory,
    Recv: _recv_factory,
    Compute: _compute_factory,
    Multicast: _multicast_factory,
    Now: _now_factory,
    Log: _log_factory,
}
