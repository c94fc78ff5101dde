"""The simulated MPI communicator and run helper.

Programs are written SPMD-style against :class:`Comm`, whose methods
return generators used with ``yield from`` -- mirroring mpi4py's lower-case
object API (``send``/``recv``/``bcast``/``gather``/...)::

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, payload=data)
        else:
            msg = yield from comm.recv(src=0)
        yield from comm.barrier()
        yield Compute(flops=2.0e6)

Collectives must be invoked by *all* ranks in the same order (as in MPI);
each collective call consumes a fixed block of reserved tags, keeping
back-to-back collectives and user point-to-point traffic disjoint.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Generator, Sequence

from ..sim.engine import Engine, RunResult
from ..sim.events import ANY_SOURCE, ANY_TAG, Message, Recv, Send
from ..sim.trace import Tracer
from . import collectives
from .collectives import COLLECTIVE_TAG_BASE
from .datatypes import nbytes_of
from .errors import CollectiveError, MPIError, RankError

#: Tags consumed per collective invocation (barrier uses two phases).
_TAGS_PER_COLLECTIVE = 4

#: Collective algorithm registries, built once at import instead of as a
#: dict literal on every call — ``bcast`` sits on the per-column hot path
#: of GE/MM.  Resolution stays per-call so a swapped ``comm.config``
#: takes effect immediately (the misconfiguration tests rely on it).
_BCAST_ALGOS = {
    "flat": collectives.flat_bcast,
    "binomial": collectives.binomial_bcast,
    "ethernet": collectives.ethernet_bcast,
}
_BARRIER_ALGOS = {
    "linear": collectives.linear_barrier,
    "tree": collectives.tree_barrier,
}


@dataclass(frozen=True)
class CollectiveConfig:
    """Algorithm selection for collectives (ablation knob).

    ``bcast``: 'flat' (root unicasts to each rank; the paper's measured
    ``T_bcast ~ p`` behaviour), 'binomial' (log-depth tree), or 'ethernet'
    (one native-broadcast transmission on shared media; falls back to
    unicasts on switches).
    """

    bcast: str = "flat"
    barrier: str = "linear"  # 'linear' | 'tree'

    def __post_init__(self) -> None:
        if self.bcast not in ("flat", "binomial", "ethernet"):
            raise CollectiveError(f"unknown bcast algorithm {self.bcast!r}")
        if self.barrier not in ("linear", "tree"):
            raise CollectiveError(f"unknown barrier algorithm {self.barrier!r}")


class Comm:
    """Per-rank communicator handle for one simulated SPMD execution."""

    def __init__(
        self,
        rank: int,
        size: int,
        config: CollectiveConfig | None = None,
    ):
        if size <= 0:
            raise RankError(f"communicator size must be positive, got {size}")
        if not 0 <= rank < size:
            raise RankError(f"rank {rank} out of range for size {size}")
        self.rank = rank
        self.size = size
        self.config = config or CollectiveConfig()
        self._coll_seq = 0

    # -- helpers ---------------------------------------------------------
    def _check_peer(self, peer: int, wildcard_ok: bool = False) -> None:
        if wildcard_ok and peer == ANY_SOURCE:
            return
        if not 0 <= peer < self.size:
            raise RankError(f"peer rank {peer} out of range for size {self.size}")

    @staticmethod
    def _check_user_tag(tag: int) -> None:
        if tag != ANY_TAG and not 0 <= tag < COLLECTIVE_TAG_BASE:
            raise MPIError(
                f"user tags must be in [0, {COLLECTIVE_TAG_BASE}), got {tag}"
            )

    def _next_coll_tag(self) -> int:
        tag = COLLECTIVE_TAG_BASE + self._coll_seq * _TAGS_PER_COLLECTIVE
        self._coll_seq += 1
        return tag

    # -- point to point ---------------------------------------------------
    def send(
        self,
        dst: int,
        payload: Any = None,
        nbytes: float | None = None,
        tag: int = 0,
    ) -> Generator[Any, Any, None]:
        """Blocking send; size defaults to the payload's byte size."""
        self._check_peer(dst)
        self._check_user_tag(tag)
        size = nbytes_of(payload) if nbytes is None else float(nbytes)
        yield Send(dst, size, tag, payload)

    def recv(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> Generator[Any, Any, Message | None]:
        """Blocking receive; returns the :class:`Message`.

        With ``timeout=`` (virtual seconds) the receive gives up after that
        long without a matching message and returns ``None`` instead, so a
        rank can outlive a crashed peer or a lost message.
        """
        self._check_peer(src, wildcard_ok=True)
        self._check_user_tag(tag)
        msg = yield Recv(src, tag, timeout)
        return msg

    # -- collectives -------------------------------------------------------
    # Each validates, takes its tag block and returns the algorithm's own
    # generator: ``yield from comm.bcast(...)`` enters one frame, not two.
    # ``bcast``/``barrier`` sit on GE/MM's per-column hot path, so their
    # peer check and tag allocation are inlined.

    def bcast(
        self,
        payload: Any = None,
        root: int = 0,
        nbytes: float | None = None,
    ) -> Generator[Any, Any, Any]:
        """Broadcast from root; every rank returns the payload."""
        if not 0 <= root < self.size:
            raise RankError(f"peer rank {root} out of range for size {self.size}")
        seq = self._coll_seq
        self._coll_seq = seq + 1
        return _BCAST_ALGOS[self.config.bcast](
            self.rank,
            self.size,
            root,
            nbytes_of(payload) if nbytes is None else float(nbytes),
            payload,
            COLLECTIVE_TAG_BASE + seq * _TAGS_PER_COLLECTIVE,
        )

    def barrier(self, root: int = 0) -> Generator[Any, Any, None]:
        """Synchronize all ranks."""
        if not 0 <= root < self.size:
            raise RankError(f"peer rank {root} out of range for size {self.size}")
        seq = self._coll_seq
        self._coll_seq = seq + 1
        return _BARRIER_ALGOS[self.config.barrier](
            self.rank, self.size, root,
            COLLECTIVE_TAG_BASE + seq * _TAGS_PER_COLLECTIVE,
        )

    def gather(
        self,
        payload: Any = None,
        root: int = 0,
        nbytes: float | None = None,
    ) -> Generator[Any, Any, list[Any] | None]:
        """Gather per-rank payloads at root (returns list at root only)."""
        self._check_peer(root)
        tag = self._next_coll_tag()
        size = nbytes_of(payload) if nbytes is None else float(nbytes)
        return collectives.gatherv(self.rank, self.size, root, payload, size, tag)

    def scatter(
        self,
        payloads: Sequence[Any] | None = None,
        root: int = 0,
        sizes: Sequence[float] | None = None,
    ) -> Generator[Any, Any, Any]:
        """Scatter one part per rank from root; returns this rank's part."""
        self._check_peer(root)
        tag = self._next_coll_tag()
        return collectives.scatterv(self.rank, self.size, root, payloads, sizes, tag)

    def reduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] = operator.add,
        root: int = 0,
        nbytes: float | None = None,
    ) -> Generator[Any, Any, Any]:
        """Reduce values to root (returns the reduction at root only)."""
        self._check_peer(root)
        tag = self._next_coll_tag()
        size = nbytes_of(value) if nbytes is None else float(nbytes)
        return collectives.reduce(self.rank, self.size, root, value, size, op, tag)

    def allreduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] = operator.add,
        nbytes: float | None = None,
    ) -> Generator[Any, Any, Any]:
        """Reduce to rank 0 then broadcast the result to everyone."""
        size = nbytes_of(value) if nbytes is None else float(nbytes)
        reduced = yield from self.reduce(value, op=op, root=0, nbytes=size)
        result = yield from self.bcast(reduced, root=0, nbytes=size)
        return result

    def allgather(
        self, payload: Any = None, nbytes: float | None = None
    ) -> Generator[Any, Any, list[Any]]:
        """Gather to rank 0 then broadcast the full list."""
        size = nbytes_of(payload) if nbytes is None else float(nbytes)
        parts = yield from self.gather(payload, root=0, nbytes=size)
        result = yield from self.bcast(parts, root=0, nbytes=size * self.size)
        return result

    def alltoall(
        self,
        payloads: Sequence[Any] | None = None,
        sizes: Sequence[float] | None = None,
    ) -> Generator[Any, Any, list[Any]]:
        """Personalized exchange: returns the per-source received list
        (own contribution passes through untouched)."""
        tag = self._next_coll_tag()
        return collectives.alltoallv(self.rank, self.size, payloads, sizes, tag)


#: An SPMD program: called once per rank with that rank's communicator.
MPIProgram = Callable[[Comm], Generator[Any, Any, Any]]


def mpi_run(
    nranks: int,
    network: Any,
    flops_per_second: Sequence[float],
    program: MPIProgram,
    config: CollectiveConfig | None = None,
    tracer: Tracer | None = None,
    max_events: int = 50_000_000,
    flight: Any = None,
) -> RunResult:
    """Run an SPMD program on the simulated machine and network.

    ``tracer`` and ``flight`` are the engine's record stores: a
    :class:`repro.sim.Tracer` (first-K records) and a
    :class:`repro.sim.FlightRecorder` (last-K ring with crash dumps).
    """

    def factory(rank: int):
        return program(Comm(rank, nranks, config=config))

    engine = Engine(
        nranks=nranks,
        network=network,
        flops_per_second=flops_per_second,
        tracer=tracer,
        max_events=max_events,
        flight=flight,
    )
    return engine.run(factory)
