"""Single-threaded reference interpreter for bound component graphs.

This module deliberately shares no scheduling code with the concurrent
runtime: it replays the gating semantics sequentially and records every
published value per namespace. Its traces are the ground truth that the
concurrent runtime is tested against. Bodies run through the runtime's
``run(fetch, emit, record)`` protocol, bound to the slot values here.

Each component is a two-phase machine, mirroring the fact that a running
component consumes its inputs before it blocks on publishing: a read
transition fires when every input namespace holds an unconsumed
generation, consuming generation ``consumed + 1`` of each and evaluating
the body on those values into a pending write queue; publish transitions
then release the queued writes one at a time, in program order, each
gated on no consumer of that namespace being ``channels.CAPACITY``
generations behind, as a channel's ring of slots gates a publish. So a
graph is ``OracleStuck`` exactly when the runtime deadlocks on it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .channels import CAPACITY
from .errors import OracleStuck
from .runtime import Component, discard


@dataclass
class OracleResult:
    sequences: dict[str, list] = field(default_factory=dict)
    steps: dict[str, int] = field(default_factory=dict)


class _State:
    def __init__(self, components):
        self.sequences = {}  # generation g of ns is sequences[ns][g - 1]
        self.consumers = {}
        for comp in components:
            for internal in comp.reads:
                ns = comp.io_map[internal]
                self.consumers.setdefault(ns, []).append(comp.name)
            for internal in comp.writes:
                self.sequences.setdefault(comp.io_map[internal], [])
        self.consumed = {
            comp.name: {comp.io_map[r]: 0 for r in comp.reads} for comp in components
        }

    def publish(self, ns, value):
        self.sequences.setdefault(ns, []).append(value)

    def generation(self, ns):
        return len(self.sequences.get(ns, ()))

    def fits(self, ns):
        """Whether a publish to ``ns`` has room: no consumer is a full ring
        behind."""
        behind = self.generation(ns) - CAPACITY
        return all(self.consumed[consumer][ns] > behind
                   for consumer in self.consumers.get(ns, []))


def _evaluate_body(comp: Component, body, state: _State):
    """Run a body on the generations its component last consumed; returns
    queued writes as (namespace, value) pairs in program order."""
    io_map = comp.io_map
    targets = {w: io_map[w] for w in body.writes}  # a body emits only its own
    consumed = state.consumed[comp.name]
    pending = deque()

    def fetch(name):
        ns = io_map[name]
        return state.sequences[ns][consumed[ns] - 1]

    body.run(fetch, lambda name, value: pending.append((targets[name], value)),
             discard)
    return pending


class _Machine:
    def __init__(self, comp: Component, limit: int):
        self.comp = comp
        self.limit = limit
        self.steps = 0
        self.pending = deque()

    @property
    def finished(self):
        return not self.pending and (
            self.comp.step_body is None or self.steps >= self.limit
        )

    def advance(self, state: _State) -> bool:
        """Fire at most one transition; returns whether anything fired."""
        if self.pending:
            ns, value = self.pending[0]
            if not state.fits(ns):
                return False
            state.publish(ns, value)
            self.pending.popleft()
            if not self.pending:
                self.steps += 1
            return True
        if self.finished:
            return False
        body = self.comp.step_body
        reads = {self.comp.io_map[r] for r in body.reads}
        for ns in reads:
            if state.generation(ns) <= state.consumed[self.comp.name][ns]:
                return False
        for ns in reads:
            state.consumed[self.comp.name][ns] += 1
        self.pending = _evaluate_body(self.comp, body, state)
        if not self.pending:
            self.steps += 1
        return True


def oracle_run(components, max_steps: int | None, scan_order=None) -> OracleResult:
    """Fire components until quiescence, recording per-namespace sequences.
    A component with no ``max_steps`` of its own steps ``max_steps`` times,
    as in a run; None there, for one with a step body, is a ValueError.

    ``scan_order`` overrides the name-sorted scan used to pick the next
    enabled component; the recorded sequences are scan-order independent
    (confluence), which the test suite checks directly.
    """
    components = list(components)
    if max_steps is None and any(c.step_body is not None and c.max_steps is None
                                 for c in components):
        raise ValueError("a step bound is required: a step body has no max_steps")
    state = _State(components)
    order = list(scan_order) if scan_order is not None else sorted(
        c.name for c in components
    )
    machines = {
        c.name: _Machine(c, c.max_steps if c.max_steps is not None else max_steps)
        for c in components
    }

    for name in order:
        comp = machines[name].comp
        if comp.init_body is None:
            continue
        for ns, value in _evaluate_body(comp, comp.init_body, state):
            state.publish(ns, value)

    while True:
        fired_any = False
        for name in order:
            while machines[name].advance(state):
                fired_any = True
        if not fired_any:
            break

    unfinished = sorted(
        name for name, machine in machines.items() if not machine.finished
    )
    if unfinished:
        raise OracleStuck(unfinished)
    return OracleResult(
        sequences=state.sequences,
        steps={name: machine.steps for name, machine in machines.items()},
    )
