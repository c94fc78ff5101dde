"""Shared-medium 100 Mb Ethernet model (the Sunwulf testbed LAN).

A single half-duplex bus connects all nodes: only one inter-node frame
stream can be on the wire at a time, so concurrent transfers serialize.
This is the property that makes a flat-tree broadcast cost grow linearly
with the number of processes (the paper measured ``T_broadcast ~ p * a``)
even though each individual message has constant cost.

Intra-node messages (ranks sharing a physical node) bypass the bus and use
shared-memory link parameters.
"""

from __future__ import annotations

import math

from ..sim.errors import InvalidOperationError
from .model import ETHERNET_100M, SHARED_MEMORY, LinkParams, NetworkModel, ZeroCostNetwork
from .topology import Topology


class SharedBusEthernet(NetworkModel):
    """Half-duplex shared bus with FIFO acquisition.

    The bus is granted in request order, which is virtual-time order thanks
    to the engine's smallest-clock-first scheduling.  A transfer requested
    at ``start`` begins at ``max(start + software_overhead, bus_free)``,
    occupies the bus for ``nbytes / bandwidth`` seconds, and arrives one
    ``latency`` after the last byte leaves the wire.
    """

    def __init__(
        self,
        topology: Topology,
        link: LinkParams = ETHERNET_100M,
        intranode: LinkParams = SHARED_MEMORY,
    ):
        self.topology = topology
        self.link = link
        self.intranode = intranode
        self._bus_free = 0.0
        self._busy_time = 0.0
        self._transfers = 0
        # Hot-path caches (transfer() runs once per simulated message).
        self._node_ids = tuple(topology.node_ids)
        self._link_overhead = link.software_overhead
        self._link_inv_bw = 1.0 / link.bandwidth
        self._link_latency = link.latency
        self._intra_overhead = intranode.software_overhead
        self._intra_inv_bw = 1.0 / intranode.bandwidth
        self._intra_latency = intranode.latency

    def reset(self) -> None:
        self._bus_free = 0.0
        self._busy_time = 0.0
        self._transfers = 0

    @property
    def bus_busy_time(self) -> float:
        """Total virtual time the bus carried traffic this run."""
        return self._busy_time

    @property
    def transfers(self) -> int:
        """Number of inter-node transfers carried this run."""
        return self._transfers

    def transfer(self, src, dst, nbytes, start):
        # Engine-validated ranks and sizes; this path runs per message.
        if src == dst:
            return start, start
        ids = self._node_ids
        if ids[src] == ids[dst]:
            injected = start + self._intra_overhead + nbytes * self._intra_inv_bw
            return injected, injected + self._intra_latency
        ready = start + self._link_overhead
        bus_free = self._bus_free
        begin = ready if ready > bus_free else bus_free
        duration = nbytes * self._link_inv_bw
        sender_done = begin + duration
        self._bus_free = sender_done
        self._busy_time += duration
        self._transfers += 1
        return sender_done, sender_done + self._link_latency

    def multicast(self, src, dsts, nbytes, start):
        """Native Ethernet broadcast: one bus occupation reaches every
        station, so the cost is that of a single transmission regardless of
        the number of destinations.

        If every destination shares the sender's node the frame never hits
        the wire (shared-memory copy); one remote destination is enough to
        occupy the bus once.
        """
        ids = self._node_ids
        src_node = ids[src]
        if all(ids[dst] == src_node for dst in dsts):
            injected = start + self._intra_overhead + nbytes * self._intra_inv_bw
            return injected, injected + self._intra_latency
        ready = start + self._link_overhead
        bus_free = self._bus_free
        begin = ready if ready > bus_free else bus_free
        duration = nbytes * self._link_inv_bw
        sender_done = begin + duration
        self._bus_free = sender_done
        self._busy_time += duration
        self._transfers += 1
        return sender_done, sender_done + self._link_latency


#: Flat network kinds (no spec parameters allowed).
_FLAT_KINDS = ("bus", "switch", "zero")
#: Hierarchical kinds accepting colon-separated numeric parameters.
_HIERARCHICAL_KINDS = ("fat-tree", "torus", "tiered")
#: Position of the (fractional) oversubscription parameter per kind;
#: every other parameter is a count and must be a whole number.
_OVERSUBSCRIPTION_SLOT = {"fat-tree": 1, "torus": None, "tiered": 2}


def parse_network_spec(spec: str) -> tuple[str, tuple[float, ...]]:
    """Split a network spec string into ``(kind, numeric_params)``.

    Flat kinds are bare names (``bus``, ``switch``, ``zero``).
    Hierarchical kinds take colon-separated numbers, all optional::

        fat-tree[:nodes_per_edge[:oversubscription[:edges_per_pod]]]
        torus[:width[:height]]
        tiered[:nodes_per_rack[:racks_per_zone[:oversubscription]]]

    ``fat-tree:8:2`` therefore reads "8 nodes per edge switch, 2:1 core
    oversubscription".  Raises :class:`InvalidOperationError` on an
    unknown kind or a malformed parameter: non-numeric, non-positive or
    non-finite values anywhere, and fractional values in count slots
    (only oversubscription may be fractional).
    """
    parts = str(spec).split(":")
    kind = parts[0]
    raw = parts[1:]
    if kind in _FLAT_KINDS:
        if raw:
            raise InvalidOperationError(
                f"network kind {kind!r} takes no parameters, got {spec!r}"
            )
        return kind, ()
    if kind not in _HIERARCHICAL_KINDS:
        raise InvalidOperationError(
            f"unknown network kind {spec!r}; choose from "
            f"{_FLAT_KINDS + _HIERARCHICAL_KINDS}"
        )
    oversub_slot = _OVERSUBSCRIPTION_SLOT[kind]
    params = []
    for slot, piece in enumerate(raw):
        try:
            value = float(piece)
        except ValueError:
            raise InvalidOperationError(
                f"malformed network spec {spec!r}: {piece!r} is not a number"
            ) from None
        if not math.isfinite(value) or value <= 0:
            raise InvalidOperationError(
                f"network spec {spec!r} parameters must be positive and "
                "finite"
            )
        if slot != oversub_slot and not value.is_integer():
            raise InvalidOperationError(
                f"network spec {spec!r}: {piece!r} is a count and must be "
                "a whole number"
            )
        params.append(value)
    max_params = {"fat-tree": 3, "torus": 2, "tiered": 3}[kind]
    if len(params) > max_params:
        raise InvalidOperationError(
            f"network kind {kind!r} takes at most {max_params} "
            f"parameters, got {spec!r}"
        )
    return kind, tuple(params)


def known_network_spec(spec: str) -> bool:
    """True when ``spec`` parses as a valid network selection."""
    try:
        parse_network_spec(spec)
    except InvalidOperationError:
        return False
    return True


def make_network(
    kind: str,
    topology: Topology,
    link: LinkParams = ETHERNET_100M,
    intranode: LinkParams = SHARED_MEMORY,
) -> NetworkModel:
    """Factory used by cluster presets.

    ``kind`` is a network spec string: one of the flat kinds (``bus``,
    ``switch``, ``zero``) or a hierarchical selection such as
    ``fat-tree:8:2``, ``torus:16:8`` or ``tiered:8:4:2`` (see
    :func:`parse_network_spec`).  Hierarchical kinds derive missing
    rack/zone levels from the topology by grouping nodes in
    first-appearance order.
    """
    from .hierarchy import FatTreeNetwork, TieredNetwork, TorusNetwork
    from .model import SwitchedNetwork

    base, params = parse_network_spec(kind)
    if base == "bus":
        return SharedBusEthernet(topology, link, intranode)
    if base == "switch":
        return SwitchedNetwork(topology, link, intranode)
    if base == "zero":
        return ZeroCostNetwork()
    if base == "fat-tree":
        nodes_per_edge = int(params[0]) if len(params) > 0 else 8
        oversubscription = params[1] if len(params) > 1 else 1.0
        edges_per_pod = int(params[2]) if len(params) > 2 else 4
        topo = topology
        if not topo.rack_ids:
            topo = topo.with_rack_blocks(nodes_per_edge, edges_per_pod)
        return FatTreeNetwork(
            topo, link, intranode, oversubscription=oversubscription
        )
    if base == "torus":
        width = int(params[0]) if len(params) > 0 else None
        height = int(params[1]) if len(params) > 1 else None
        return TorusNetwork(
            topology, link, intranode, width=width, height=height
        )
    # tiered
    nodes_per_rack = int(params[0]) if len(params) > 0 else 8
    racks_per_zone = int(params[1]) if len(params) > 1 else 0
    oversubscription = params[2] if len(params) > 2 else 1.0
    topo = topology
    if not topo.rack_ids:
        topo = topo.with_rack_blocks(nodes_per_rack, racks_per_zone)
    return TieredNetwork(
        topo, link, intranode, oversubscription=oversubscription
    )
