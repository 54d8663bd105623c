"""The live-rescale part on its own bench: :class:`RescaleState` driven by a
hypothesis state machine, with no kernel, engine or real task, and checked
against a brute-force model of the owner lookup and the finish gate.

The machine plays the rescaler around the part the way it plays it: a
source feeds node ``a``, ``a`` feeds ``b`` all-to-all, and ``b`` feeds one
receiver ``r``. ``a`` and ``b`` rescale (new subtasks get links both ways;
a scale-in pops the links into its retired subtasks and hands them to the
part) and split key groups; a standalone link retires too. Any task drains,
takes input again, finishes, reopens, dies or comes back, and any link
gains or clears a pending element.

The model knows only the spec: a task of a rescaled node forwards a key to
the subtask the node's routing picks today. A task may finish once, for
every rescaled node it belongs to or receives from, nothing is in flight
to it from the node or on a link retired into the node, and either it
belongs to the node and its siblings are drained, or every task of the
node is finished or dead.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.load.migration import RescaleState
from repro.load.routing import KeyRouter

MAXP = 8
KEYS = [f"k{i}" for i in range(12)]
SRC, A, B, R = 0, 1, 2, 3
NAMES = {SRC: "src", A: "a", B: "b", R: "r"}
#: rescalable node → (upstream node, downstream node)
EDGES = {A: (SRC, B), B: (A, R)}


class Link:
    def __init__(self, receiver: "FakeTask") -> None:
        self.receiver = receiver
        self.pending = 0


class Gate:
    def __init__(self, channels: list[Link]) -> None:
        self.channels = channels


class FakeTask:
    def __init__(self, node: int, index: int) -> None:
        self.name = f"{NAMES[node]}[{index}]"
        self.subtask_index = index
        self.output_gates: list[Gate] = []
        self.finished = False
        self.dead = False
        self.quiet = False
        self.rescale_state = None

    @property
    def drained(self) -> bool:
        return self.dead or self.finished or self.quiet

    def __repr__(self) -> str:
        return f"{self.name}@{id(self) % 10000}"


class RescaleProtocol(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.plan: dict[int, list[FakeTask]] = {
            SRC: [FakeTask(SRC, 0)],
            A: [FakeTask(A, i) for i in range(2)],
            B: [FakeTask(B, i) for i in range(2)],
            R: [FakeTask(R, 0)],
        }
        #: node → sender name → its gate on the node's outgoing edge, for
        #: the senders still in the plan (a retired sender's gate leaves)
        self.senders: dict[int, dict[str, Gate]] = {node: {} for node in NAMES}
        for node, downstream in ((SRC, A), (A, B), (B, R)):
            for task in self.plan[node]:
                self._connect(node, task, self.plan[downstream])
        self.state = RescaleState(self.plan, MAXP)
        # the model
        #: node → every task object it ever had, in creation order
        self.ever: dict[int, list[FakeTask]] = {node: list(tasks) for node, tasks in self.plan.items()}
        self.parallelism = {A: 2, B: 2}
        self.splits: dict[int, dict[int, int]] = {A: {}, B: {}}
        self.rescaled: set[int] = set()
        self.retired: dict[int, list[Link]] = {A: [], B: []}
        self.hooked: set[int] = set()

    def _connect(self, node: int, task: FakeTask, receivers: list[FakeTask]) -> None:
        gate = Gate([Link(receiver) for receiver in receivers])
        task.output_gates.append(gate)
        self.senders[node][task.name] = gate

    def _all_tasks(self) -> list[FakeTask]:
        return [task for tasks in self.ever.values() for task in tasks]

    def _all_links(self) -> list[Link]:
        return [c for t in self._all_tasks() for g in t.output_gates for c in g.channels]

    def _gate(self, node: int) -> None:
        self.state.gate(node)
        self.rescaled.add(node)
        for task in self._group(node):
            self.hooked.add(id(task))
            self.hooked.update(id(c.receiver) for g in task.output_gates for c in g.channels)

    # -- the model --------------------------------------------------------
    def _group(self, node: int) -> list[FakeTask]:
        """The node's tasks by name, the newest object per name."""
        return list({task.name: task for task in self.ever[node]}.values())

    def _model_owner(self, task: FakeTask, key) -> FakeTask | None:
        for node in self.rescaled:
            if any(task is t for t in self.ever[node]):
                router = KeyRouter(self.parallelism[node], MAXP)
                for group, fanout in self.splits[node].items():
                    router.split_group(group, fanout)
                return self.plan[node][router.owner_index(key)]
        return None

    def _model_ready(self, task: FakeTask) -> bool:
        for node in self.rescaled:
            group = self._group(node)
            inbound = [
                c for m in group for g in m.output_gates for c in g.channels if c.receiver is task
            ]
            if any(task is m for m in group):
                done = all(m.drained for m in group if m is not task)
            elif inbound:
                done = all(m.finished or m.dead for m in group)
            else:
                continue  # the node can send it nothing
            if not done or any(c.pending for c in inbound + self.retired[node]):
                return False
        return True

    # -- rules: the rescaler's side -----------------------------------------
    @rule(node=st.sampled_from([A, B]), parallelism=st.integers(1, 4))
    def rescale(self, node, parallelism):
        upstream, downstream = EDGES[node]
        tasks = self.plan[node]
        old = len(tasks)
        self.state.router(node).set_parallelism(parallelism)
        self.parallelism[node] = parallelism
        for group, fanout in list(self.splits[node].items()):
            if fanout > parallelism:
                if parallelism == 1:
                    del self.splits[node][group]
                else:
                    self.splits[node][group] = parallelism
        for index in range(old, parallelism):
            task = FakeTask(node, index)
            tasks.append(task)
            self.ever[node].append(task)
            for gate in self.senders[upstream].values():
                gate.channels.append(Link(task))
            self._connect(node, task, self.plan[downstream])
        self._gate(node)
        if parallelism < old:
            for gate in self.senders[upstream].values():
                popped = [gate.channels.pop() for _ in range(len(gate.channels) - parallelism)]
                self.state.retire(node, popped)
                self.retired[node].extend(popped)
            for task in tasks[parallelism:]:
                del self.senders[node][task.name]
                task.finished = True
            self.plan[node] = tasks[:parallelism]

    @rule(node=st.sampled_from([A, B]), group=st.integers(0, MAXP - 1), fanout=st.integers(2, 4))
    def split(self, node, group, fanout):
        if fanout > self.parallelism[node]:
            return
        self.state.router(node).split_group(group, fanout)
        self.splits[node][group] = fanout
        self._gate(node)

    @precondition(lambda self: self.rescaled)
    @rule(data=st.data())
    def retire_link(self, data):
        node = data.draw(st.sampled_from(sorted(self.rescaled)), label="node")
        upstream = EDGES[node][0]
        gates = [g for g in self.senders[upstream].values() if g.channels]
        if not gates:
            return
        gate = data.draw(st.sampled_from(gates), label="gate")
        link = gate.channels.pop(data.draw(st.integers(0, len(gate.channels) - 1), label="link"))
        self.state.retire(node, [link])
        self.retired[node].append(link)

    # -- rules: the tasks' and links' side ----------------------------------
    @rule(data=st.data(), change=st.sampled_from(["drain", "input", "finish", "reopen", "die", "revive"]))
    def lifecycle(self, data, change):
        task = data.draw(st.sampled_from(self._all_tasks()), label="task")
        if change == "drain":
            task.quiet = True
        elif change == "input":
            task.quiet = False
        elif change == "finish":
            task.finished = True
        elif change == "reopen":
            task.finished = task.quiet = False
        elif change == "die":
            task.dead = True
        else:
            task.dead = False

    @rule(data=st.data(), delta=st.sampled_from([1, -1]))
    def in_flight(self, data, delta):
        link = data.draw(st.sampled_from(self._all_links()), label="link")
        link.pending = max(0, link.pending + delta)

    # -- invariants ---------------------------------------------------------
    @invariant()
    def owner_lookup_matches(self):
        for task in self._all_tasks():
            expected_member = self._model_owner(task, KEYS[0]) is not None
            assert self.state.reroutes(task) == expected_member, task
            for key in KEYS:
                assert self.state.owner(task, key) is self._model_owner(task, key), (task, key)

    @invariant()
    def finish_gate_matches(self):
        for task in self._all_tasks():
            assert self.state.ready(task) == self._model_ready(task), task

    @invariant()
    def every_gated_task_holds_the_part(self):
        for task in self._all_tasks():
            if id(task) in self.hooked:
                assert task.rescale_state is self.state, task


TestRescaleProtocol = RescaleProtocol.TestCase
TestRescaleProtocol.settings = settings(max_examples=200, stateful_step_count=40, deadline=None)


def test_a_retired_subtask_forwards_to_the_owner_under_the_new_parallelism():
    machine = RescaleProtocol()
    machine.rescale(A, 4)
    machine.rescale(A, 1)
    retired = machine.ever[A][3]
    assert retired.finished and machine.state.reroutes(retired)
    assert all(machine.state.owner(retired, key) is machine.plan[A][0] for key in KEYS)


def test_a_pending_retired_link_holds_every_member():
    machine = RescaleProtocol()
    machine.rescale(A, 3)
    machine.rescale(A, 2)
    link = machine.state.retired[A][0]
    link.pending = 1
    for task in machine.ever[A]:
        task.quiet = True
    assert not any(machine.state.ready(task) for task in machine.plan[A])
    link.pending = 0
    assert all(machine.state.ready(task) for task in machine.plan[A])
