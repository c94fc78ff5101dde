"""Parallel Gaussian elimination (section 4.1.1).

The algorithm of the paper:

1. Process 0 distributes the rows of ``A`` and ``b`` proportionally to
   marked speeds using the row-based heterogeneous cyclic distribution.
2. For each elimination step the pivot row's owner broadcasts the pivot
   row (and the pivot bookkeeping) to all processes; every process
   eliminates the rows it owns below the pivot; all processes synchronize
   (the data dependence between steps).
3. Process 0 collects the reduced rows and performs the sequential back
   substitution.

Communication structure per run, matching the paper's overhead model
``To = T_bcast + 2(p-1)(T_send + T_recv) + N (2 T_bcast + T_barrier)``:
one metadata broadcast, ``p-1`` distribution sends plus ``p-1``
collection sends, and per elimination step two broadcasts plus one
barrier.

Two execution modes share one code path: *modelled* accounts flops and
bytes analytically (fast, any ``N``); *numeric* carries real NumPy rows,
actually eliminates, and returns the solution (used by correctness tests
against ``numpy.linalg.solve``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from ..mpi.communicator import Comm
from ..sim.errors import InvalidOperationError
from ..sim.events import Compute
from .distribution import RowLayout, heterogeneous_cyclic
from .workload import ge_back_substitution_workload

#: Fraction of marked speed that GE's row updates sustain.  Application
#: code runs below the benchmarked marked speed; this factor is the
#: asymptote of the speed-efficiency curves (Figure 1 flattens below it).
GE_COMPUTE_EFFICIENCY = 0.55

_DOUBLE = 8.0


@dataclass(frozen=True)
class GEOptions:
    """Configuration of one GE execution."""

    n: int
    speeds: tuple[float, ...]
    numeric: bool = False
    round_scale: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidOperationError(f"matrix rank must be >= 1, got {self.n}")
        if not self.speeds:
            raise InvalidOperationError("need at least one processor speed")
        object.__setattr__(self, "speeds", tuple(float(s) for s in self.speeds))

    @property
    def nranks(self) -> int:
        return len(self.speeds)

    def layout(self) -> RowLayout:
        return RowLayout(
            heterogeneous_cyclic(self.n, self.speeds, self.round_scale),
            self.nranks,
        )


@dataclass
class GEResult:
    """Root-rank outcome of a numeric GE run."""

    solution: np.ndarray | None = None
    matrix: np.ndarray | None = None
    rhs: np.ndarray | None = None

    def residual(self) -> float:
        """``||A x - b||_inf`` of the computed solution."""
        if self.solution is None or self.matrix is None or self.rhs is None:
            raise InvalidOperationError("residual needs a numeric run at root")
        return float(
            np.max(np.abs(self.matrix @ self.solution - self.rhs))
        )


def generate_system(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """A well-conditioned dense test system (diagonally dominant, so the
    paper's no-pivoting elimination is numerically safe)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a += np.diag(np.sign(np.diag(a)) * (np.abs(a).sum(axis=1) + 1.0))
    b = rng.standard_normal(n)
    return a, b


def make_ge_program(options: GEOptions):
    """Build the per-rank SPMD generator for one GE execution."""
    n = options.n
    layout = options.layout()
    nranks = options.nranks

    # Per-step lookups hoisted out of the elimination loop (which runs
    # once per rank per column): plain-int pivot owners and, per rank,
    # the trailing-row count for every step k.  Values are exactly what
    # ``int(layout.owner[k])`` / ``layout.count_after(rank, k)`` return.
    owners = [int(r) for r in layout.owner]
    steps = np.arange(max(n - 1, 0))
    counts_after = [
        (len(rows) - np.searchsorted(rows, steps, side="right")).tolist()
        for rows in (layout.rows_of(r) for r in range(nranks))
    ]

    if options.numeric:
        matrix, rhs = generate_system(n, options.seed)
    else:
        matrix = rhs = None

    def program(comm: Comm) -> Generator[Any, Any, GEResult | None]:
        rank = comm.rank
        if comm.size != nranks:
            raise InvalidOperationError(
                f"program built for {nranks} ranks, run with {comm.size}"
            )
        root = 0
        my_rows = layout.rows_of(rank)

        # (1) metadata broadcast -- the standalone T_bcast term.
        yield from comm.bcast(payload=n if rank == root else None,
                              root=root, nbytes=_DOUBLE)

        # (2) distribution: root ships each remote rank its augmented rows.
        local: dict[int, np.ndarray] = {}
        if rank == root:
            if options.numeric:
                assert matrix is not None and rhs is not None
                augmented = np.hstack([matrix, rhs[:, None]])
                for j in my_rows:
                    local[int(j)] = augmented[j].copy()
            for dst in range(nranks):
                if dst == root:
                    continue
                dst_rows = layout.rows_of(dst)
                nbytes = len(dst_rows) * (n + 1) * _DOUBLE
                payload = None
                if options.numeric:
                    payload = {int(j): augmented[j].copy() for j in dst_rows}
                yield from comm.send(dst, payload=payload, nbytes=nbytes, tag=1)
        else:
            msg = yield from comm.recv(src=root, tag=1)
            if options.numeric:
                local = dict(msg.payload)

        # (3) elimination loop: 2 broadcasts + 1 barrier per step.
        my_counts_after = counts_after[rank]
        for k in range(n - 1):
            owner = owners[k]
            pivot_bytes = (n - k + 1) * _DOUBLE
            pivot_payload = None
            if options.numeric and rank == owner:
                pivot_payload = local[k][k:].copy()
            pivot = yield from comm.bcast(
                payload=pivot_payload, root=owner, nbytes=pivot_bytes
            )
            # Pivot bookkeeping broadcast (the second per-step broadcast of
            # the paper's overhead model).
            yield from comm.bcast(
                payload=None, root=owner, nbytes=_DOUBLE
            )
            count = my_counts_after[k]
            if count:
                flops = count * (2.0 * (n - k) + 1.0)
                yield Compute(flops)
                if options.numeric:
                    assert pivot is not None
                    piv_val = pivot[0]
                    for j in my_rows[np.searchsorted(my_rows, k + 1):]:
                        row = local[int(j)]
                        factor = row[k] / piv_val
                        row[k + 1:] -= factor * pivot[1:]
                        row[k] = 0.0
            yield from comm.barrier()

        # (4) collection: remote ranks return their reduced rows.
        if rank == root:
            collected: dict[int, np.ndarray] = dict(local)
            for src in range(nranks):
                if src == root:
                    continue
                msg = yield from comm.recv(src=src, tag=2)
                if options.numeric:
                    collected.update(msg.payload)
        else:
            nbytes = len(my_rows) * (n + 1) * _DOUBLE
            payload = local if options.numeric else None
            yield from comm.send(root, payload=payload, nbytes=nbytes, tag=2)
            return None

        # (5) sequential back substitution at the root.
        yield Compute(flops=ge_back_substitution_workload(n))
        result = GEResult()
        if options.numeric:
            upper = np.vstack([collected[j] for j in range(n)])
            x = np.zeros(n)
            for i in range(n - 1, -1, -1):
                x[i] = (upper[i, n] - upper[i, i + 1: n] @ x[i + 1: n]) / upper[i, i]
            result.solution = x
            result.matrix = matrix
            result.rhs = rhs
        return result

    return program


def ge_message_count(n: int, nranks: int) -> int:
    """Point-to-point messages a run generates (flat collectives, linear
    barrier): distribution + collection + per-step collective traffic.

    Used by tests to pin the communication structure to the paper's
    overhead formula.
    """
    p = nranks
    per_bcast = p - 1
    per_barrier = 2 * (p - 1) if p > 1 else 0
    return (
        per_bcast  # metadata broadcast
        + 2 * (p - 1)  # distribution + collection
        + (n - 1) * (2 * per_bcast + per_barrier)
    )
