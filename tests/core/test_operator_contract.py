"""The operator contract is what operators call, and every context keeps it.

``OperatorContext`` declares the services an operator may use. Four classes
implement it: the task's ``TaskContext``, a chain member's ``_LinkContext``,
the scalar fallback's ``_BatchCollector`` and the tests' ``StubContext``.
Each must serve every contract method (none may fall back to the base's
``NotImplementedError``), and none may grow a public method outside the
contract, so the contract cannot regrow beside its declaration. The short
allowlist names the few non-contract members that have a reader: the
transactional operators bind to ``task``, chain members trace through
``tracer`` / ``active_span_id``, the collector's owner calls ``flush``, the
tests drive the stub's clock with ``set_time``, and the key attribute
``current_key_value`` is the convention ``set_current_key`` writes.
"""

import pytest

from helpers import StubContext

from repro.core.operators.base import Operator, OperatorContext, _BatchCollector
from repro.core.operators.chain import ChainedOperator, _LinkContext
from repro.runtime.task import Task, TaskContext
from repro.sim.kernel import Kernel
from repro.state.memory import InMemoryStateBackend

CONTRACT = {
    "emit",
    "emit_to",
    "processing_time",
    "current_watermark",
    "register_event_timer",
    "register_processing_timer",
    "current_key",
    "set_current_key",
    "state",
    "state_keys",
    "add_cost",
    "profile",
}

ALLOWED = {"task", "tracer", "active_span_id", "flush", "set_time", "current_key_value"}


def _task_context():
    return Task(Kernel(), "t[0]", Operator(), InMemoryStateBackend()).ctx


def _link_context():
    return ChainedOperator([Operator(), Operator()])._links[0]


def _batch_collector():
    return _BatchCollector(StubContext())


IMPLEMENTATIONS = {
    TaskContext: _task_context,
    _LinkContext: _link_context,
    _BatchCollector: _batch_collector,
    StubContext: StubContext,
}


def _public_members(namespace):
    """The public methods and properties a class body defines."""
    return {
        name
        for name, value in namespace.items()
        if not name.startswith("_") and (callable(value) or isinstance(value, property))
    }


def _owner(instance, name):
    """Where ``instance.name`` resolves: the instance itself or a class."""
    if name in getattr(instance, "__dict__", {}):
        return instance
    for cls in type(instance).__mro__:
        if name in vars(cls):
            return cls
    raise AttributeError(name)


def _is_stub(member):
    function = member.fget if isinstance(member, property) else member
    return "NotImplementedError" in function.__code__.co_names


def test_the_contract_declares_exactly_what_operators_call():
    assert _public_members(vars(OperatorContext)) == CONTRACT


@pytest.mark.parametrize("make", list(IMPLEMENTATIONS.values()), ids=[cls.__name__ for cls in IMPLEMENTATIONS])
class TestImplementations:
    def test_every_contract_method_is_served(self, make):
        ctx = make()
        assert isinstance(ctx, OperatorContext)
        stubs = [
            name
            for name in sorted(CONTRACT)
            if _owner(ctx, name) is OperatorContext and _is_stub(vars(OperatorContext)[name])
        ]
        assert stubs == [], f"{type(ctx).__name__} leaves {stubs} to the base's NotImplementedError"

    def test_no_public_method_outside_the_contract(self, make):
        ctx = make()
        defined = set()
        for cls in type(ctx).__mro__:
            if cls is OperatorContext:
                break
            defined |= _public_members(vars(cls))
        extra = defined - CONTRACT - ALLOWED
        assert extra == set(), f"{type(ctx).__name__} grows the contract: {sorted(extra)}"
