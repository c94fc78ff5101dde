"""Mailbox layer: indexed message matching for the simulation engine.

The monolithic engine kept one flat list per destination rank and scanned
it end to end on every receive — O(backlog) per match, the dominant cost
for programs that let messages queue (wildcard servers, collectives with
a slow root).  :class:`MailboxSet` replaces the scan with per-``(src,
tag)`` buckets, each a small heap ordered by ``(arrival, seq)``:

* an exact-match receive is a dict lookup plus a heap pop;
* a wildcard receive (``ANY_SOURCE`` and/or ``ANY_TAG``) inspects only
  each *candidate bucket's head* — the bucket head is its earliest
  ``(arrival, seq)`` element, so comparing heads yields exactly the
  message the flat scan would have chosen;
* deadline filtering is a head comparison too: if a bucket's head arrives
  past the deadline, every element of that bucket does.

Matching semantics are bit-identical to the flat scan: the returned
message is the matching one with the smallest ``(arrival, seq)`` whose
arrival does not exceed ``deadline``; later-arriving messages stay
mailboxed for subsequent receives (the timed-receive contract).  ``seq``
is a global deposit stamp (:meth:`new_seq`) so ties on equal arrival
times — common on zero-latency test networks — resolve in send order
even across buckets.
"""

from __future__ import annotations

import heapq
import itertools
import math

from .events import ANY_SOURCE, ANY_TAG, Message

_INF = math.inf


class MailboxSet:
    """Per-rank mailboxes with ``(src, tag)``-indexed buckets."""

    __slots__ = ("buckets", "_count", "new_seq")

    def __init__(self, nranks: int):
        #: per rank: {(src, tag): heap of (arrival, seq, message)}; a
        #: rank's dict is empty exactly when nothing is queued for it
        self.buckets: list[dict[tuple[int, int], list]] = [
            {} for _ in range(nranks)
        ]
        self._count = 0
        #: Monotone creation stamp for messages (also used for messages
        #: delivered directly to a waiting receive, keeping deposit order
        #: comparable across the whole run).
        self.new_seq = itertools.count().__next__

    def __len__(self) -> int:
        """Messages currently deposited and not yet received."""
        return self._count

    def pending(self, rank: int) -> int:
        """Messages currently queued for one rank."""
        return sum(len(b) for b in self.buckets[rank].values())

    def deposit(self, msg: Message) -> None:
        """File a delivered message under its ``(src, tag)`` bucket."""
        buckets = self.buckets[msg.dst]
        key = (msg.src, msg.tag)
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [(msg.arrival, msg.seq, msg)]
        else:
            heapq.heappush(bucket, (msg.arrival, msg.seq, msg))
        self._count += 1

    def pop_match(
        self, rank: int, src: int, tag: int, deadline: float = _INF
    ) -> Message | None:
        """Remove and return the eligible match with smallest ``(arrival,
        seq)``, or ``None``.

        Messages arriving after ``deadline`` are left in place: a timed
        receive must not be completed by a message that only turns up past
        its deadline.
        """
        buckets = self.buckets[rank]
        if src != ANY_SOURCE and tag != ANY_TAG:
            key = (src, tag)
            bucket = buckets.get(key)
            if bucket is None or bucket[0][0] > deadline:
                return None
        else:
            best_head: tuple[float, int] | None = None
            key = None
            for (bsrc, btag), bucket in buckets.items():
                if (src != ANY_SOURCE and src != bsrc) or (
                    tag != ANY_TAG and tag != btag
                ):
                    continue
                head = bucket[0]
                arrival = head[0]
                if arrival > deadline:
                    continue  # whole bucket is past the deadline
                head_key = (arrival, head[1])
                if best_head is None or head_key < best_head:
                    best_head = head_key
                    key = (bsrc, btag)
            if key is None:
                return None
            bucket = buckets[key]
        msg = heapq.heappop(bucket)[2]
        if not bucket:
            del buckets[key]  # keep wildcard scans proportional to live buckets
        self._count -= 1
        return msg
