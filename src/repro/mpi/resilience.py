"""Resilience primitives: reliable transfers and checkpoint-restart runs.

Two layers:

* **In-run reliability** -- :func:`reliable_send` / :func:`reliable_recv`
  implement a positive-acknowledgement protocol on top of
  ``Comm.send``/``Comm.recv(timeout=)``: the sender retransmits after an
  ack timeout with bounded exponential backoff and raises
  :class:`~repro.faults.errors.MessageLostError` once retries are
  exhausted.  Delivery is at-least-once; as in the two-generals problem, a
  *lost ack* is indistinguishable from lost data, so use a dedicated tag
  per reliable channel and expect possible duplicates after retransmits.

* **Job-level checkpoint/restart** -- :func:`resilient_run` models the
  classic Daly-style accounting: the application checkpoints every
  ``checkpoint_interval`` of useful virtual time at a cost ``t_ckpt(W)``;
  a crash rolls the job back to the last durable checkpoint, adds the
  restart delay, and replays.  The underlying simulation runs once (under
  the schedule's non-crash faults); the crash/replay timeline is then
  reconstructed deterministically, so the result is exact and cheap even
  for many restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..sim.engine import RunResult
from ..sim.events import ANY_SOURCE, ANY_TAG, Compute, Message
from ..sim.trace import Tracer
from .communicator import CollectiveConfig, Comm, MPIProgram

#: Modelled size of an acknowledgement frame (bytes).
ACK_NBYTES = 64.0


def reliable_send(
    comm: Comm,
    dst: int,
    payload: Any = None,
    nbytes: float | None = None,
    tag: int = 0,
    ack_timeout: float = 1.0,
    max_retries: int = 3,
    backoff: float = 0.0,
):
    """Send with positive acknowledgement and bounded retry.

    Retransmits whenever no ack arrives within ``ack_timeout`` virtual
    seconds, sleeping ``backoff * 2**(attempt-1)`` between tries, and
    raises :class:`~repro.faults.errors.MessageLostError` after
    ``max_retries`` retransmissions.  Returns the number of
    retransmissions that were needed (0 = first try succeeded).  The ack
    frame's size is chosen by the receiving side (``reliable_recv``'s
    ``ack_nbytes``).
    """
    attempt = 0
    while True:
        yield from comm.send(dst, payload=payload, nbytes=nbytes, tag=tag)
        ack = yield from comm.recv(src=dst, tag=tag, timeout=ack_timeout)
        if ack is not None:
            return attempt
        attempt += 1
        if attempt > max_retries:
            from ..faults.errors import MessageLostError

            raise MessageLostError(dst, tag, attempt)
        if backoff > 0:
            yield Compute(seconds=backoff * 2 ** (attempt - 1))


def reliable_recv(
    comm: Comm,
    src: int = ANY_SOURCE,
    tag: int = ANY_TAG,
    ack_nbytes: float = ACK_NBYTES,
):
    """Receive and acknowledge; the counterpart of :func:`reliable_send`.

    Returns the received :class:`~repro.sim.events.Message`.
    """
    msg: Message = yield from comm.recv(src=src, tag=tag)
    yield from comm.send(msg.src, payload="ack", nbytes=ack_nbytes, tag=msg.tag)
    return msg


def default_checkpoint_cost(
    work: float,
    latency: float = 0.01,
    state_bytes_per_flop: float = 0.05,
    io_bandwidth: float = 50e6,
) -> float:
    """A simple ``t_ckpt(W)`` model: fixed latency plus state-dump time.

    The checkpoint state is assumed proportional to the problem's memory
    footprint, itself modelled as ``state_bytes_per_flop * W`` bytes pushed
    through an ``io_bandwidth`` B/s stable-storage path.
    """
    if work < 0:
        raise ValueError(f"work must be non-negative, got {work}")
    return latency + work * state_bytes_per_flop / io_bandwidth


@dataclass(frozen=True)
class ResilientRunResult:
    """Outcome of a checkpoint-restart execution."""

    result: RunResult  #: the underlying (non-crash-faults) simulation
    base_makespan: float  #: its makespan: useful virtual time to complete
    makespan: float  #: wall virtual time including checkpoints + restarts
    restarts: int
    checkpoints_written: int
    checkpoint_overhead: float  #: total time spent writing checkpoints
    lost_work: float  #: re-executed virtual time rolled back by crashes
    restart_downtime: float  #: total restart delay paid
    checkpoint_interval: float
    checkpoint_cost: float

    @property
    def resilience_overhead(self) -> float:
        """Extra wall time versus the crash-free, checkpoint-free run."""
        return self.makespan - self.base_makespan

    @property
    def efficiency(self) -> float:
        """Useful fraction of the wall time (base / resilient makespan)."""
        return self.base_makespan / self.makespan if self.makespan > 0 else 1.0


def _time_to_finish(
    progress: float, total: float, interval: float, ckpt: float
) -> tuple[float, int]:
    """Wall time (and checkpoint count) to run ``progress -> total``."""
    if progress >= total:
        return 0.0, 0
    k_lo = math.floor(progress / interval) + 1
    k_hi = math.ceil(total / interval) - 1
    n_ckpts = max(0, k_hi - k_lo + 1)
    return (total - progress) + n_ckpts * ckpt, n_ckpts


def _advance(
    progress: float, tau: float, total: float, interval: float, ckpt: float
) -> tuple[float, float, int]:
    """State after ``tau`` wall seconds from ``progress``: returns
    (progress_reached, durable_checkpoint, checkpoints_completed)."""
    durable = math.floor(progress / interval) * interval
    completed = 0
    while True:
        next_mark = (math.floor(progress / interval) + 1) * interval
        if next_mark >= total:
            step = total - progress
            if tau < step:
                return progress + tau, durable, completed
            return total, durable, completed
        step = next_mark - progress
        if tau < step:
            return progress + tau, durable, completed
        tau -= step
        progress = next_mark
        if tau < ckpt:
            return progress, durable, completed  # crashed during the write
        tau -= ckpt
        durable = progress
        completed += 1


def resilient_run(
    nranks: int,
    network: Any,
    flops_per_second: Sequence[float],
    program: MPIProgram,
    schedule: Any,
    checkpoint_interval: float,
    t_ckpt: float | Callable[[float], float] = default_checkpoint_cost,
    work: float | None = None,
    restart_delay: float = 0.0,
    max_restarts: int = 16,
    config: CollectiveConfig | None = None,
    tracer: Tracer | None = None,
    max_events: int = 50_000_000,
) -> ResilientRunResult:
    """Run with job-level restart-from-checkpoint under a fault schedule.

    The program is simulated once under the schedule's *non-crash* faults
    (slowdowns, link degradation, message loss), giving the useful virtual
    time ``T``.  Crash events are then applied on the wall-clock timeline:
    the job checkpoints every ``checkpoint_interval`` of useful progress at
    cost ``t_ckpt`` (a float, or a callable evaluated at ``work``); each
    crash that lands before completion rolls progress back to the last
    durable checkpoint and adds the crash's ``restart_delay`` (or the
    driver-level default for fail-stop events, whose node is replaced).
    A crash event's ``recompute_seconds`` is ignored here -- replaying from
    the checkpoint *is* the recomputation in this model.

    Raises :class:`~repro.faults.errors.FaultError` when ``max_restarts``
    is exceeded (a fault schedule denser than the checkpoint cadence can
    make completion unreachable).
    """
    from ..faults.errors import FaultError
    from ..faults.run import faulty_mpi_run
    from ..faults.schedule import FaultSchedule

    if checkpoint_interval <= 0:
        raise FaultError(
            f"checkpoint_interval must be positive, got {checkpoint_interval}"
        )
    if not isinstance(schedule, FaultSchedule):
        schedule = FaultSchedule(tuple(schedule))
    if callable(t_ckpt):
        if work is None:
            raise FaultError(
                "a callable t_ckpt needs work= (the W it is evaluated at)"
            )
        ckpt = float(t_ckpt(work))
    else:
        ckpt = float(t_ckpt)
    if ckpt < 0:
        raise FaultError(f"checkpoint cost must be non-negative, got {ckpt}")

    noncrash = schedule.without_crashes()
    base = faulty_mpi_run(
        nranks, network, flops_per_second, program, noncrash,
        config=config, tracer=tracer, max_events=max_events,
    )
    total = base.makespan

    wall = 0.0
    progress = 0.0
    restarts = 0
    lost = 0.0
    downtime = 0.0
    ckpts = 0
    for crash in schedule.all_crashes():
        to_finish, _ = _time_to_finish(progress, total, checkpoint_interval, ckpt)
        if crash.at >= wall + to_finish:
            break  # the job completes before this (and any later) crash
        if crash.at < wall:
            continue  # fell inside a previous restart's downtime
        progress_at_crash, durable, completed = _advance(
            progress, crash.at - wall, total, checkpoint_interval, ckpt
        )
        ckpts += completed
        lost += progress_at_crash - durable
        restarts += 1
        if restarts > max_restarts:
            raise FaultError(
                f"job did not complete within {max_restarts} restarts "
                f"(progress {progress_at_crash:g}/{total:g} at crash "
                f"t={crash.at:g})"
            )
        delay = (
            crash.restart_delay if crash.restart_delay is not None
            else restart_delay
        )
        downtime += delay
        wall = crash.at + delay
        progress = durable
    to_finish, final_ckpts = _time_to_finish(
        progress, total, checkpoint_interval, ckpt
    )
    ckpts += final_ckpts
    makespan = wall + to_finish
    return ResilientRunResult(
        result=base,
        base_makespan=total,
        makespan=makespan,
        restarts=restarts,
        checkpoints_written=ckpts,
        checkpoint_overhead=ckpts * ckpt,
        lost_work=lost,
        restart_downtime=downtime,
        checkpoint_interval=checkpoint_interval,
        checkpoint_cost=ckpt,
    )
