"""Marked-speed measurement: run the benchmark suite on simulated nodes.

Mirrors section 4.3: each kernel is executed on each node type through the
simulation engine (a one-rank run whose compute speed is the node's
sustained speed for that kernel); the achieved speed is work/time; the
node's marked speed is the average over the suite.  Once measured, marked
speeds are constants -- the module caches per processor type.
"""

from __future__ import annotations

from ..core.marked_speed import NodeMarkedSpeed, SystemMarkedSpeed
from ..machine.cluster import ClusterSpec
from ..machine.node import ProcessorType
from ..network.model import ZeroCostNetwork
from ..sim.engine import Engine
from ..sim.events import Compute
from .kernels import SUITE, Kernel

_MFLOP = 1.0e6
_cache: dict[tuple[str, tuple[str, ...]], NodeMarkedSpeed] = {}


def _single_node_run(kernel: Kernel, sustained_flops: float) -> float:
    """Time one kernel on one simulated node; returns achieved flops/s."""
    flops = kernel.flop_count()

    def program(rank: int):
        yield Compute(flops=flops)

    engine = Engine(1, ZeroCostNetwork(), [sustained_flops])
    result = engine.run(program)
    return flops / result.makespan


def measure_node(
    ptype: ProcessorType,
    kernels: tuple[str, ...] | None = None,
    use_cache: bool = True,
) -> NodeMarkedSpeed:
    """Benchmark one processor type; returns its marked speed (Def. 1)."""
    names = tuple(sorted(kernels)) if kernels else tuple(sorted(SUITE))
    key = (ptype.name, names)
    if use_cache and key in _cache:
        return _cache[key]
    kernel_speeds: dict[str, float] = {}
    for name in names:
        kernel = SUITE[name]
        sustained = ptype.sustained_mflops(name) * _MFLOP
        kernel_speeds[name] = _single_node_run(kernel, sustained)
    marked = NodeMarkedSpeed.from_kernel_speeds(ptype.name, kernel_speeds)
    if use_cache:
        _cache[key] = marked
    return marked


def measure_cluster(
    cluster: ClusterSpec,
    kernels: tuple[str, ...] | None = None,
    use_cache: bool = True,
) -> SystemMarkedSpeed:
    """Benchmark every slot of a cluster; returns the system's marked speed
    decomposition (Definitions 1 + 2).

    Each distinct processor type is measured once and shared by its
    slots, so the per-slot cost is one dict lookup.
    """
    measured: dict[int, NodeMarkedSpeed] = {}
    per_rank = []
    for slot in cluster.slots:
        node = measured.get(id(slot.ptype))
        if node is None:
            node = measured[id(slot.ptype)] = measure_node(
                slot.ptype, kernels=kernels, use_cache=use_cache
            )
        per_rank.append(node)
    return SystemMarkedSpeed(tuple(per_rank))


def clear_cache() -> None:
    """Forget cached node measurements (tests that tweak kernel sets)."""
    _cache.clear()
