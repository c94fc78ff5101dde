"""Collective-communication algorithms built from point-to-point messages.

All collectives are generators ``yield from``-ed inside an SPMD program.
They use a reserved tag space (see :data:`COLLECTIVE_TAG_BASE`) with a
per-communicator sequence number, so user point-to-point traffic can never
match collective messages, and back-to-back collectives cannot interfere.

Two broadcast algorithms are provided:

* ``flat`` -- the root sends to every other rank in turn.  On a shared bus
  this costs ``(p-1)`` serialized transmissions, matching the paper's
  measured ``T_broadcast ~ p * const`` on Sunwulf's Ethernet.
* ``binomial`` -- the classic log-depth tree.  On a switched network this
  is asymptotically faster; on a bus the wire time still serializes but
  software overheads overlap.  Used by the ablation bench.

The barrier is a linear gather-to-root followed by a flat release
broadcast, giving ``T_barrier ~ p * const`` as the paper measures.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Sequence

from ..sim.events import Multicast, Recv, Send
from .errors import CollectiveError

# Ops are built positionally: a keyword call makes ``type.__call__`` build
# a kwargs dict first, roughly doubling these per-event constructors' cost.

#: Start of the tag space reserved for collectives.
COLLECTIVE_TAG_BASE = 1 << 20


def flat_bcast(
    rank: int, size: int, root: int, nbytes: float, payload: Any, tag: int
) -> Generator[Any, Any, Any]:
    """Root sends the payload directly to every other rank."""
    if rank == root:
        for dst in range(size):
            if dst != root:
                yield Send(dst, nbytes, tag, payload)
        return payload
    msg = yield Recv(root, tag)
    return msg.payload


def ethernet_bcast(
    rank: int, size: int, root: int, nbytes: float, payload: Any, tag: int
) -> Generator[Any, Any, Any]:
    """Broadcast exploiting a shared medium's native broadcast: the root
    transmits once and every station receives the same frame stream.

    On a switched network (no native multicast) the engine transparently
    falls back to serialized unicasts, so this algorithm is always safe to
    request.
    """
    if rank == root:
        dsts = tuple(d for d in range(size) if d != root)
        if dsts:
            yield Multicast(dsts, nbytes, tag, payload)
        return payload
    msg = yield Recv(root, tag)
    return msg.payload


def _binomial_parent(rel: int) -> int:
    """Relative rank of the binomial-tree parent: clear the top set bit."""
    mask = 1
    while (mask << 1) <= rel:
        mask <<= 1
    return rel & ~mask


def binomial_bcast(
    rank: int, size: int, root: int, nbytes: float, payload: Any, tag: int
) -> Generator[Any, Any, Any]:
    """Binomial-tree broadcast (``ceil(log2 p)`` rounds).

    Ranks are renumbered relative to the root.  Relative rank ``rel``
    receives from ``rel`` with its top set bit cleared, then forwards to
    ``rel + m`` for each power of two ``m`` greater than ``rel`` while
    ``rel + m < size``.
    """
    rel = (rank - root) % size
    if rel != 0:
        parent = (_binomial_parent(rel) + root) % size
        msg = yield Recv(parent, tag)
        payload = msg.payload
    m = 1
    while m <= rel:
        m <<= 1
    while rel + m < size:
        dst = (rel + m + root) % size
        yield Send(dst, nbytes, tag, payload)
        m <<= 1
    return payload


def linear_barrier(
    rank: int, size: int, root: int, tag: int
) -> Generator[Any, Any, None]:
    """Gather zero-byte tokens at root, then flat-release everyone."""
    if size == 1:
        return
    if rank == root:
        for src in range(size):
            if src != root:
                yield Recv(src, tag)
        for dst in range(size):
            if dst != root:
                yield Send(dst, 0.0, tag + 1)
    else:
        yield Send(root, 0.0, tag)
        yield Recv(root, tag + 1)


def tree_barrier(
    rank: int, size: int, root: int, tag: int
) -> Generator[Any, Any, None]:
    """Binomial gather + binomial release (log-depth barrier, ablation)."""
    if size == 1:
        return
    rel = (rank - root) % size
    # Gather phase: children report in, then rank reports to its parent.
    m = 1
    while m <= rel:
        m <<= 1
    children = []
    mm = m
    while rel + mm < size:
        children.append((rel + mm + root) % size)
        mm <<= 1
    for child in reversed(children):
        yield Recv(child, tag)
    if rel != 0:
        parent = (_binomial_parent(rel) + root) % size
        yield Send(parent, 0.0, tag)
    # Release phase: a zero-byte binomial broadcast.
    yield from binomial_bcast(rank, size, root, 0.0, None, tag + 1)


def gatherv(
    rank: int,
    size: int,
    root: int,
    payload: Any,
    nbytes: float,
    tag: int,
) -> Generator[Any, Any, list[Any] | None]:
    """Gather variable-size contributions at the root (rank order)."""
    if rank == root:
        parts: list[Any] = [None] * size
        parts[root] = payload
        for src in range(size):
            if src != root:
                msg = yield Recv(src, tag)
                parts[src] = msg.payload
        return parts
    yield Send(root, nbytes, tag, payload)
    return None


def scatterv(
    rank: int,
    size: int,
    root: int,
    payloads: Sequence[Any] | None,
    sizes: Sequence[float] | None,
    tag: int,
) -> Generator[Any, Any, Any]:
    """Scatter per-rank payloads/sizes from the root; returns own part."""
    if rank == root:
        if payloads is None and sizes is None:
            raise CollectiveError("scatterv root needs payloads or sizes")
        count = len(payloads) if payloads is not None else len(sizes or ())
        if count != size:
            raise CollectiveError(f"scatterv got {count} parts for {size} ranks")
        for dst in range(size):
            if dst == root:
                continue
            part = payloads[dst] if payloads is not None else None
            part_bytes = sizes[dst] if sizes is not None else _payload_bytes(part)
            yield Send(dst, part_bytes, tag, part)
        return payloads[root] if payloads is not None else None
    msg = yield Recv(root, tag)
    return msg.payload


def alltoallv(
    rank: int,
    size: int,
    payloads: Sequence[Any] | None,
    sizes: Sequence[float] | None,
    tag: int,
) -> Generator[Any, Any, list[Any]]:
    """Personalized all-to-all: rank ``r`` sends ``payloads[d]`` to each
    rank ``d`` and returns the list of what every rank sent to it.

    To avoid a send-storm pile-up at one receiver, ranks send in a
    rotated order (``(rank + offset) % size``), the classic linear-shift
    schedule.  ``sizes`` gives per-destination byte counts (defaults to
    the payloads' own sizes).
    """
    if payloads is not None and len(payloads) != size:
        raise CollectiveError(f"alltoallv got {len(payloads)} parts for {size} ranks")
    if sizes is not None and len(sizes) != size:
        raise CollectiveError(f"alltoallv got {len(sizes)} sizes for {size} ranks")
    received: list[Any] = [None] * size
    received[rank] = payloads[rank] if payloads is not None else None
    for offset in range(1, size):
        dst = (rank + offset) % size
        part = payloads[dst] if payloads is not None else None
        part_bytes = sizes[dst] if sizes is not None else _payload_bytes(part)
        yield Send(dst, part_bytes, tag, part)
    for offset in range(1, size):
        src = (rank - offset) % size
        msg = yield Recv(src, tag)
        received[src] = msg.payload
    return received


def reduce(
    rank: int,
    size: int,
    root: int,
    value: Any,
    nbytes: float,
    op: Callable[[Any, Any], Any],
    tag: int,
) -> Generator[Any, Any, Any]:
    """Linear reduction to the root.

    The root combines contributions in rank order, so a non-commutative
    ``op`` still gives deterministic results.
    """
    if rank == root:
        pending: dict[int, Any] = {}
        for src in range(size):
            if src != root:
                msg = yield Recv(src, tag)
                pending[src] = msg.payload
        acc: Any = None
        first = True
        for src in range(size):
            contrib = value if src == root else pending[src]
            if first:
                acc, first = contrib, False
            else:
                acc = op(acc, contrib)
        return acc
    yield Send(root, nbytes, tag, value)
    return None


def _payload_bytes(payload: Any) -> float:
    from .datatypes import nbytes_of

    return nbytes_of(payload)
