"""Dispatch-table contract: registration, isolation, and rejection.

The handler table is the sanctioned extension point for new primitives
(see the module docstring of :mod:`repro.sim.dispatch`); these tests pin
the contract extensions rely on — factories run once per run against the
RunContext, exact-type dispatch, latest-wins re-registration, and private
tables via :meth:`DispatchTable.copy` that never leak into the shared
default.
"""

import pytest

from repro.network.model import ZeroCostNetwork
from repro.sim.dispatch import DispatchTable, default_dispatch, register_handler
from repro.sim.engine import Engine
from repro.sim.errors import InvalidOperationError, ProtocolError
from repro.sim.events import Compute, Now, Send, SimOp


class Sleep(SimOp):
    """A custom primitive: advance the clock by a fixed duration."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float):
        self.seconds = seconds


def _sleep_factory(ctx):
    # The engine re-queues the yielding rank after the handler returns;
    # a handler only queues *other* ranks.
    def handle_sleep(proc, op):
        proc.time += op.seconds

    return handle_sleep


def _engine(dispatch=None, nranks=1):
    return Engine(nranks, ZeroCostNetwork(), [1e6] * nranks, dispatch=dispatch)


class TestCustomOps:
    def test_private_table_dispatches_custom_op(self):
        table = default_dispatch().copy()
        table.register(Sleep, _sleep_factory)

        def program(rank):
            yield Sleep(2.5)
            yield Sleep(0.5)

        result = _engine(dispatch=table).run(program)
        assert result.finish_times == [3.0]
        assert result.events == 2
        assert result.stale_pops == 0

    def test_copy_does_not_leak_into_default_table(self):
        table = default_dispatch().copy()
        table.register(Sleep, _sleep_factory)
        assert Sleep in table
        assert Sleep not in default_dispatch()

        def program(rank):
            yield Sleep(1.0)

        with pytest.raises(ProtocolError, match="unsupported object"):
            _engine().run(program)

    def test_register_handler_reaches_running_engines(self):
        register_handler(Sleep, _sleep_factory)
        try:

            def program(rank):
                yield Sleep(4.0)

            assert _engine().run(program).finish_times == [4.0]
        finally:
            default_dispatch().unregister(Sleep)
        assert Sleep not in default_dispatch()

    def test_decorator_registration(self):
        table = default_dispatch().copy()

        @table.register(Sleep)
        def sleep_factory(ctx):  # noqa: F811 - decorator form under test
            return _sleep_factory(ctx)

        def program(rank):
            yield Sleep(1.5)

        assert _engine(dispatch=table).run(program).finish_times == [1.5]

    def test_reregistration_latest_wins(self):
        table = default_dispatch().copy()
        table.register(Sleep, _sleep_factory)

        def doubled_factory(ctx):
            inner = _sleep_factory(ctx)

            def handle(proc, op):
                proc.time += op.seconds  # extra charge, then normal path
                inner(proc, op)

            return handle

        table.register(Sleep, doubled_factory)

        def program(rank):
            yield Sleep(1.0)

        assert _engine(dispatch=table).run(program).finish_times == [2.0]


class TestRejection:
    def test_subclass_of_primitive_is_rejected(self):
        class FancyCompute(Compute):
            pass

        def program(rank):
            yield FancyCompute(flops=1.0)

        with pytest.raises(ProtocolError, match="subclass of a primitive"):
            _engine().run(program)

    def test_unknown_object_is_rejected(self):
        def program(rank):
            yield object()

        with pytest.raises(ProtocolError, match="unsupported object"):
            _engine().run(program)

    def test_non_simop_registration_raises(self):
        table = DispatchTable()
        with pytest.raises(InvalidOperationError, match="SimOp subclass"):
            table.register(int, _sleep_factory)
        with pytest.raises(InvalidOperationError, match="SimOp subclass"):
            table.register(Now(), _sleep_factory)  # instance, not a type


class TestIntrospection:
    def test_registered_and_contains(self):
        table = DispatchTable()
        table.register(Sleep, _sleep_factory)
        assert table.registered() == (Sleep,)
        assert Sleep in table
        table.unregister(Sleep)
        assert Sleep not in table
        table.unregister(Sleep)  # idempotent

    def test_default_table_carries_builtin_primitives(self):
        assert Send in default_dispatch()
        assert Compute in default_dispatch()

    def test_build_invokes_factories_against_context(self):
        seen = []
        table = DispatchTable()

        def factory(ctx):
            seen.append(ctx)
            return lambda proc, op: None

        table.register(Sleep, factory)
        handlers = table.build(ctx="the-context")
        assert seen == ["the-context"]
        assert set(handlers) == {Sleep}
