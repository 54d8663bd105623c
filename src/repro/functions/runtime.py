"""Stateful Functions: actor-like programming on streaming infrastructure.

Survey §4.1 observes streams and actors converging: Stateful Functions
exposes addressable, stateful, message-driven functions executed by a
stream-processing runtime. This module implements that model on the DES
kernel: per-address serial execution (the actor guarantee), persistent
per-address state in a pluggable backend, message-passing with network
latency, request/response futures, and delayed self-messages — enough to
host the survey's Cloud-application workloads (E11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.errors import FunctionError
from repro.sim.kernel import Kernel
from repro.state.api import KeyedStateBackend, ValueStateDescriptor
from repro.state.memory import InMemoryStateBackend


class Address(NamedTuple):
    """Logical identity of one function instance: (type, id)."""

    type: str
    id: str

    def __str__(self) -> str:
        return f"{self.type}/{self.id}"


@dataclass(frozen=True)
class Message:
    target: Address
    payload: Any
    source: Address | None = None
    reply_to: int | None = None  # correlation id for request/response


class ReplyFuture:
    """Resolved when the callee replies (request/response over async loops)."""

    def __init__(self) -> None:
        self.resolved = False
        self.value: Any = None
        self._callbacks: list[Callable[[Any], None]] = []

    def on_resolve(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback`` with the reply (immediately if already resolved)."""
        if self.resolved:
            callback(self.value)
        else:
            self._callbacks.append(callback)

    def _resolve(self, value: Any) -> None:
        self.resolved = True
        self.value = value
        for callback in self._callbacks:
            callback(value)
        self._callbacks = []


class FunctionStorage:
    """Per-address persistent state view."""

    def __init__(self, backend: KeyedStateBackend, address: Address) -> None:
        self._backend = backend
        self._address = address
        self._descriptor = ValueStateDescriptor(f"fn-{address.type}")

    def get(self, default: Any = None) -> Any:
        """Read this address's persisted state (``default`` when unset)."""
        value = self._backend.handle(self._descriptor, self._address.id).value()
        return default if value is None else value

    def set(self, value: Any) -> None:
        """Persist this address's state."""
        self._backend.handle(self._descriptor, self._address.id).update(value)


class FunctionContext:
    """Capabilities handed to a handler for one message."""

    def __init__(self, runtime: "StatefulFunctionRuntime", address: Address, message: Message) -> None:
        self._runtime = runtime
        self.address = address
        self.message = message
        self.storage = FunctionStorage(runtime.backend_for(address.type), address)

    def now(self) -> float:
        """Current virtual time."""
        return self._runtime.kernel.now()

    def send(self, target: Address, payload: Any, delay: float = 0.0) -> None:
        """Fire-and-forget message to another function."""
        self._runtime.send(target, payload, source=self.address, delay=delay)

    def call(self, target: Address, payload: Any) -> ReplyFuture:
        """Request/response: returns a future resolved by the callee's reply."""
        return self._runtime.call(target, payload, source=self.address)

    def reply(self, payload: Any) -> None:
        """Answer the current message's caller (resolves its future)."""
        if self.message.reply_to is not None:
            self._runtime.resolve_reply(self.message.reply_to, payload)
        elif self.message.source is not None:
            self.send(self.message.source, payload)
        else:
            raise FunctionError("message has no source to reply to")

    def send_egress(self, egress: str, value: Any) -> None:
        """Append a value to a named egress."""
        self._runtime.send_egress(egress, value)

    def send_after(self, delay: float, target: Address, payload: Any) -> None:
        """Delayed message (timers, reminders)."""
        self.send(target, payload, delay=delay)


Handler = Callable[[FunctionContext, Any], None]


class StatefulFunctionRuntime:
    """Executes registered function types over the kernel.

    Guarantees: messages to one address are processed serially in delivery
    order (per-address mailbox); each invocation costs virtual time;
    deliveries pay a network latency. State lives in one backend per
    function type and survives between invocations (and, with a surviving
    backend, across failures).
    """

    def __init__(
        self,
        kernel: Kernel,
        backend_factory: Callable[[], KeyedStateBackend] = InMemoryStateBackend,
        delivery_latency: float = 2e-4,
        invocation_cost: float = 5e-5,
    ) -> None:
        self.kernel = kernel
        self._backend_factory = backend_factory
        self.delivery_latency = delivery_latency
        self.invocation_cost = invocation_cost
        self._handlers: dict[str, Handler] = {}
        self._backends: dict[str, KeyedStateBackend] = {}
        self._mailboxes: dict[Address, list[Message]] = {}
        self._busy: set[Address] = set()
        self.egresses: dict[str, list[Any]] = {}
        self._replies: dict[int, ReplyFuture] = {}
        self._next_correlation = 1
        self.messages_sent = 0
        self.invocations = 0
        self.failures: list[str] = []

    # ------------------------------------------------------------------
    def register(self, type_name: str, handler: Handler) -> None:
        """Bind a handler to a function type."""
        if type_name in self._handlers:
            raise FunctionError(f"function type {type_name!r} already registered")
        self._handlers[type_name] = handler

    def register_egress(self, name: str) -> list[Any]:
        """Create (or fetch) a named egress collector list."""
        return self.egresses.setdefault(name, [])

    def backend_for(self, type_name: str) -> KeyedStateBackend:
        """The state backend holding all instances of a function type."""
        backend = self._backends.get(type_name)
        if backend is None:
            backend = self._backend_factory()
            self._backends[type_name] = backend
        return backend

    # ------------------------------------------------------------------
    def send(
        self,
        target: Address,
        payload: Any,
        source: Address | None = None,
        delay: float = 0.0,
        reply_to: int | None = None,
    ) -> None:
        """Deliver ``payload`` to ``target`` after network latency (+``delay``)."""
        if target.type not in self._handlers:
            raise FunctionError(f"no function registered for type {target.type!r}")
        self.messages_sent += 1
        message = Message(target=target, payload=payload, source=source, reply_to=reply_to)
        self.kernel.call_after(self.delivery_latency + delay, lambda: self._enqueue(message))

    def call(self, target: Address, payload: Any, source: Address | None = None) -> ReplyFuture:
        """Request/response: send and return a :class:`ReplyFuture`."""
        future = ReplyFuture()
        correlation = self._next_correlation
        self._next_correlation += 1
        self._replies[correlation] = future
        self.send(target, payload, source=source, reply_to=correlation)
        return future

    def resolve_reply(self, correlation: int, payload: Any) -> None:
        """Complete a correlation's future with the callee's reply."""
        future = self._replies.pop(correlation, None)
        if future is None:
            raise FunctionError(f"unknown reply correlation {correlation}")
        future._resolve(payload)

    def send_egress(self, egress: str, value: Any) -> None:
        """Append a value to a named egress."""
        self.egresses.setdefault(egress, []).append(value)

    # ------------------------------------------------------------------
    def _enqueue(self, message: Message) -> None:
        mailbox = self._mailboxes.setdefault(message.target, [])
        mailbox.append(message)
        if message.target not in self._busy:
            self._process_next(message.target)

    def _process_next(self, address: Address) -> None:
        mailbox = self._mailboxes.get(address)
        if not mailbox:
            self._busy.discard(address)
            return
        self._busy.add(address)
        message = mailbox.pop(0)
        handler = self._handlers[address.type]
        context = FunctionContext(self, address, message)
        self.invocations += 1
        try:
            handler(context, message.payload)
        except Exception as exc:  # noqa: BLE001 - isolate failures per message
            self.failures.append(f"{address}: {exc}")
        self.kernel.call_after(self.invocation_cost, lambda: self._process_next(address))

    # ------------------------------------------------------------------
    def state_of(self, address: Address, default: Any = None) -> Any:
        """Read one address's persisted state (observability/tests)."""
        return FunctionStorage(self.backend_for(address.type), address).get(default)
