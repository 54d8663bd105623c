"""The input protocol on its own bench: :class:`TaskInputs` driven by a
hypothesis state machine, with no kernel, engine or task, and checked against
a brute-force model of channel closure and barrier coverage.

The machine plays the task's part the way ``Task`` does: a covered round is
released at once, a barrier of a different round first releases the round in
progress, and an element arriving on a blocked channel is held back.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.events import CheckpointBarrier
from repro.runtime.inputs import TaskInputs

MAX_CHANNELS = 5


class InputProtocol(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.inputs = TaskInputs()
        self.now = 0.0
        # the model
        self.feedback: set[int] = set()
        self.closed: dict[int, float] = {}
        self.retired: set[int] = set()
        self.seen: set[int] = set()
        self.held: list = []
        self.released: list = []

    # -- helpers ----------------------------------------------------------
    def _tick(self) -> None:
        self.now += 1.0

    def _data(self) -> list[int]:
        return [c for c in range(self.inputs.count) if c not in self.feedback]

    def _model_covered(self, barrier: CheckpointBarrier, seen: set[int]) -> bool:
        return all(
            c in seen or self.closed.get(c, float("inf")) <= barrier.timestamp
            for c in self._data()
        )

    def _release(self) -> None:
        round_ = self.inputs.round
        assert self.inputs.release() == self.held
        assert all(r is not round_ for r in self.released), "a round released twice"
        self.released.append(round_)
        self.seen, self.held = set(), []

    def _settle_round(self) -> None:
        round_ = self.inputs.round
        if round_ is not None and self.inputs.covered(round_):
            self._release()

    # -- rules ------------------------------------------------------------
    @precondition(lambda self: self.inputs.count < MAX_CHANNELS)
    @rule(feedback=st.booleans())
    def register(self, feedback):
        index = self.inputs.register(feedback)
        if feedback:
            self.feedback.add(index)

    @precondition(lambda self: self.inputs.count > 0)
    @rule(data=st.data(), checkpoint_id=st.integers(1, 3), age=st.integers(0, 4))
    def barrier(self, data, checkpoint_id, age):
        self._tick()
        channels = self._data()
        if not channels:
            return
        channel = data.draw(st.sampled_from(channels))
        pending = self.inputs.round
        if pending is not None and pending.checkpoint_id != checkpoint_id:
            self._release()  # a newer round supersedes the pending one
        barrier = CheckpointBarrier(checkpoint_id, max(0.0, self.now - age))
        if self.inputs.round is not None:
            barrier = self.inputs.round  # the same round: its injection time
        self.seen.add(channel)
        expected = self._model_covered(barrier, self.seen)
        assert self.inputs.barrier(channel, barrier) == expected
        if expected:
            self._release()

    @precondition(lambda self: self.inputs.blocked)
    @rule(data=st.data())
    def hold(self, data):
        channel = data.draw(st.sampled_from(sorted(self.inputs.blocked)))
        element = ("element", channel, self.now)
        self.inputs.buffer.append(element)
        self.held.append(element)

    @precondition(lambda self: self.inputs.count > 0)
    @rule(data=st.data())
    def end_of_stream(self, data):
        self._tick()
        channel = data.draw(st.integers(0, self.inputs.count - 1))
        self.inputs.close(channel, self.now)
        if channel not in self.feedback:
            self.closed.setdefault(channel, self.now)
        self._settle_round()

    @precondition(lambda self: self.inputs.count > 0)
    @rule(data=st.data())
    def retire(self, data):
        self._tick()
        channel = data.draw(st.integers(0, self.inputs.count - 1))
        self.inputs.close(channel, self.now, retire=True)
        if channel not in self.retired:
            self.retired.add(channel)
            self.feedback.discard(channel)
            self.closed.setdefault(channel, self.now)
        self._settle_round()

    @precondition(lambda self: self.inputs.round is not None)
    @rule()
    def cancel(self):
        self._release()

    @precondition(lambda self: self.inputs.round is None)
    @rule()
    def never_block(self):
        self.inputs.aligned = False

    @rule()
    def revive(self):
        self._tick()
        self.inputs.revive(self.now)
        self.closed = dict.fromkeys(self.retired, self.now)
        self.seen, self.held = set(), []

    # -- invariants -------------------------------------------------------
    @invariant()
    def blocked_channels_were_seen(self):
        assert self.inputs.blocked <= self.inputs.seen
        assert self.inputs.seen == self.seen

    @invariant()
    def at_least_once_blocks_nothing(self):
        if not self.inputs.aligned:
            assert not self.inputs.blocked

    @invariant()
    def buffer_is_empty_outside_a_round(self):
        if self.inputs.round is None:
            assert self.inputs.buffer == [] and not self.inputs.blocked

    @invariant()
    def a_pending_round_is_not_yet_covered(self):
        round_ = self.inputs.round
        if round_ is not None:
            assert not self.inputs.covered(round_)
            assert not self._model_covered(round_, self.seen)

    @invariant()
    def exhausted_exactly_when_every_data_channel_closed(self):
        data = self._data()
        assert self.inputs.exhausted == (bool(data) and all(c in self.closed for c in data))


TestInputProtocol = InputProtocol.TestCase
TestInputProtocol.settings = settings(
    max_examples=100, stateful_step_count=30, derandomize=True, deadline=None
)
