"""Dispatch layer: the handler table mapping op types to their semantics.

The engine's primitive semantics are not an if/elif chain any more; each
operation type is bound to a *handler factory* in a :class:`DispatchTable`.
At the start of every run the engine builds ``{op_type: handler}`` by
calling each factory with the run's :class:`~repro.sim.engine.RunContext`,
and the hot loop resolves ``type(op)`` through that dict — one hash lookup
per event regardless of how many op types exist.

Registration contract (the sanctioned extension point for ``repro.mpi``,
``repro.faults`` and experiments that need new primitives):

* An op type must subclass :class:`~repro.sim.events.SimOp` and is
  dispatched by **exact type** — subclassing a registered primitive does
  not inherit its handler (the engine raises
  :class:`~repro.sim.errors.ProtocolError`, preserving the long-standing
  "yield the primitive types directly" rule).
* A factory has signature ``factory(ctx) -> handler``; it runs once per
  ``Engine.run`` and should bind whatever run state it needs
  (``ctx.stats``, ``ctx.deliver``, ``ctx.scheduler.push_resume``, ...)
  into the closure so the per-event call stays cheap.  ``ctx.stats``
  columns are per-run lists (``ctx.stats.flops[rank] += f``), packed
  into compact arrays when the run ends.
* The handler has signature ``handler(proc, op) -> None``.  It advances
  ``proc.time`` (and may set ``proc.pending``, the generator's resume
  value).  The engine re-queues the yielding rank afterwards unless the
  handler blocked it on a receive (``proc.waiting`` set); a handler only
  queues *other* ranks (``ctx.deliver`` does so for a completed receive).
  The built-in primitives in :mod:`repro.sim.engine` are registered
  through this same interface and double as reference implementations.

The built-in primitives live on the shared default table
(:func:`default_dispatch`); custom experiments can instead pass
``Engine(dispatch=...)`` a private :meth:`DispatchTable.copy` so the
extension never leaks into unrelated runs.
"""

from __future__ import annotations

from typing import Any, Callable

from .errors import InvalidOperationError
from .events import SimOp

#: Per-event handler: ``handler(proc, op)``.
Handler = Callable[[Any, Any], None]
#: Once-per-run builder: ``factory(ctx) -> handler``.
HandlerFactory = Callable[[Any], Handler]


class DispatchTable:
    """Registry of ``{op type: handler factory}`` for one engine family."""

    def __init__(
        self, factories: dict[type[SimOp], HandlerFactory] | None = None
    ):
        self._factories: dict[type[SimOp], HandlerFactory] = dict(
            factories or {}
        )

    def register(
        self, op_type: type[SimOp], factory: HandlerFactory | None = None
    ):
        """Bind ``op_type`` to a handler factory.

        Usable directly (``table.register(MyOp, my_factory)``) or as a
        decorator (``@table.register(MyOp)``).  Re-registering an op type
        replaces its factory (latest wins), which lets tests shadow a
        primitive on a :meth:`copy` of the default table.
        """
        if not (isinstance(op_type, type) and issubclass(op_type, SimOp)):
            raise InvalidOperationError(
                f"dispatch op type must be a SimOp subclass, got {op_type!r}"
            )

        def _bind(f: HandlerFactory) -> HandlerFactory:
            self._factories[op_type] = f
            return f

        if factory is None:
            return _bind
        _bind(factory)
        return factory

    def unregister(self, op_type: type[SimOp]) -> None:
        """Remove a binding (mainly for test cleanup on the shared table)."""
        self._factories.pop(op_type, None)

    def registered(self) -> tuple[type[SimOp], ...]:
        """The op types this table can dispatch."""
        return tuple(self._factories)

    def __contains__(self, op_type: type) -> bool:
        return op_type in self._factories

    def copy(self) -> "DispatchTable":
        """An independent table seeded with the current bindings."""
        return DispatchTable(self._factories)

    def build(self, ctx: Any) -> dict[type[SimOp], Handler]:
        """Instantiate every factory against one run's context."""
        return {op: factory(ctx) for op, factory in self._factories.items()}


#: The shared table the engine uses unless given a private one; the
#: built-in primitives register here on import of :mod:`repro.sim.engine`.
_DEFAULT = DispatchTable()


def default_dispatch() -> DispatchTable:
    """The process-wide dispatch table (built-ins plus registered extensions)."""
    return _DEFAULT


def register_handler(
    op_type: type[SimOp], factory: HandlerFactory | None = None
):
    """Register on the default table; same calling conventions as
    :meth:`DispatchTable.register`."""
    return _DEFAULT.register(op_type, factory)
