"""Namespaced, generation-gated broadcast channels.

A Subject is the single producer for a namespace; Observers are per-owner
consumer handles. Each subject holds exactly one value slot guarded by a
generation counter: a publish blocks until every observer has consumed the
current generation, and an observe blocks until a generation newer than the
observer's last consumed one is available. This rendezvous is what lets
independent components self-organise into a dataflow graph.

Each observer owns two binary locks, so a wait is one lock acquire and each
event wakes only the thread it unblocks: its gate, held while it has nothing
to read, and its ack, held from a publish until it has read it (see Subject).

Sealing wires the handles: each Subject gets its timeout and its observers'
locks, each Observer its Subject. No handle refers back to the registry.

An op that has to wait marks its own handle with its name (``_waiting``) and
takes its deadline only then. A wait that gets its value clears the mark; a
timeout or poison leaves it set. ``ChannelRegistry.blocked()`` reads the marks.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from .errors import (
    AlreadyInitialised,
    ChannelPoisoned,
    ChannelTimeout,
    DuplicateSubject,
    IncompleteGraph,
    RegistryNotSealed,
    RegistrySealed,
    ValueTypeError,
)

#: scalar payload types a channel may carry
SCALAR_TYPES = (bool, int, float, str)

DEFAULT_TIMEOUT = 5.0


def check_value(value):
    if not isinstance(value, SCALAR_TYPES):
        raise ValueTypeError(
            f"channel values must be bool/int/float/str, got {type(value).__name__}"
        )
    return value


@dataclass
class BindEntry:
    namespace: str
    producer: str | None
    consumers: list[str]


@dataclass
class BindReport:
    entries: list[BindEntry] = field(default_factory=list)

    def entry(self, namespace) -> BindEntry:
        for e in self.entries:
            if e.namespace == namespace:
                return e
        raise KeyError(namespace)


class ChannelRegistry:
    """Pseudo-singleton home for subjects and observers, one per collection.

    Construction-phase only mutation: once sealed the maps are read-only and
    all channel traffic (publish/observe) becomes legal.
    """

    def __init__(self, default_timeout: float = DEFAULT_TIMEOUT):
        self.default_timeout = default_timeout
        self.sealed = False
        self.poisoned = False
        self._subjects: dict[str, Subject] = {}
        self._observers: dict[tuple[str, str], Observer] = {}

    # -- construction phase -------------------------------------------------

    def create_subject(self, namespace: str, owner: str | None = None) -> "Subject":
        if self.sealed:
            raise RegistrySealed(f"cannot create subject {namespace!r} after seal")
        if namespace in self._subjects:
            raise DuplicateSubject(namespace)
        subject = Subject(namespace, owner)
        self._subjects[namespace] = subject
        return subject

    def acquire_observer(self, namespace: str, owner: str) -> "Observer":
        if self.sealed:
            raise RegistrySealed(f"cannot acquire observer {namespace!r} after seal")
        key = (namespace, owner)
        if key not in self._observers:
            self._observers[key] = Observer(namespace, owner)
        return self._observers[key]

    def seal_and_bind(self) -> BindReport:
        """Close registration, verify every observer has a producer, and wire
        the handles."""
        consumers: dict[str, list[str]] = {}
        for ns, owner in self._observers:
            consumers.setdefault(ns, []).append(owner)
        missing = set(consumers) - set(self._subjects)
        if missing:
            raise IncompleteGraph(missing)
        self.sealed = True
        for (ns, _owner), observer in self._observers.items():
            subject = self._subjects[ns]
            observer._subject = subject
            subject._gates.append(observer._gate)
            subject._acks.append(observer._ack)
        report = BindReport()
        for ns in sorted(self._subjects):
            subject = self._subjects[ns]
            owners = sorted(consumers.get(ns, []))
            if self.poisoned:  # a poison that came before this subject existed
                subject._poisoned = True
            subject._timeout = self.default_timeout  # sealed from here on
            report.entries.append(BindEntry(ns, subject.owner, owners))
        return report

    # -- execution phase ----------------------------------------------------

    def blocked(self) -> list[tuple[str, str, str]]:
        """Sorted (owner, namespace, op) of each handle that is waiting, or
        whose last wait ended in a timeout or poison."""
        handles = [*self._subjects.values(), *self._observers.values()]
        return sorted(((h.owner, h.namespace, h._waiting) for h in handles
                       if h._waiting), key=lambda e: (str(e[0]), *e[1:]))

    def poison(self):
        """Release every blocked context, now and forever. Idempotent."""
        self.poisoned = True
        for subject in list(self._subjects.values()):  # bind may be adding
            subject._poisoned = True
            _open(*subject._gates, *subject._acks)


def _open(*locks):
    """Release each lock; one that is already open stays open."""
    for lock in locks:
        try:
            lock.release()
        except RuntimeError:
            pass


class Subject:
    """Producer handle: one per namespace, single slot, generation counter.

    A publish takes every observer's ack, waiting on each one whose observer
    has not read the current generation, then stores the next generation and
    releases every observer's gate. A publish that times out hands back the
    acks it took. Poison opens every gate and ack, so each op checks
    ``_poisoned`` after its acquire: an opened lock never hands out a value.
    """

    def __init__(self, namespace: str, owner=None):
        self.namespace = namespace
        self.owner = owner
        self.generation = 0
        self.slot = None
        self._timeout = None  # default wait, copied from the registry at seal
        self._gates = []      # the observers' gates and acks, wired at seal
        self._acks = []
        self._poisoned = False
        self._waiting = None  # "publish" while publish waits; see the module doc

    def _require_sealed(self):
        if self._timeout is None:
            raise RegistryNotSealed(
                f"channel traffic on {self.namespace!r} before seal"
            )

    def publish(self, value):
        """Store the next generation, waiting for all consumers to catch up."""
        self._publish(check_value(value))

    def _publish(self, value):
        self._require_sealed()
        acks = self._acks
        deadline = None
        for ack in acks:
            if ack.acquire(False):
                continue
            if deadline is None:
                self._waiting = "publish"
                deadline = time.monotonic() + self._timeout
            if not (self._poisoned or ack.acquire(
                    True, max(deadline - time.monotonic(), 0))):
                _open(*acks[:acks.index(ack)])  # leave the channel as it was
                raise ChannelTimeout(self.namespace, "publish", self._timeout)
        if self._poisoned:
            self._waiting = "publish"
            raise ChannelPoisoned(self.namespace)
        if deadline is not None:
            self._waiting = None
        self.slot = value
        self.generation += 1
        for gate in self._gates:
            try:
                gate.release()
            except RuntimeError:  # poison opened it first
                pass

    def initialise_state(self, value):
        """Generation-0 publish used to bootstrap a cycle; never blocks."""
        check_value(value)
        if self.generation >= 1:
            raise AlreadyInitialised(
                f"subject {self.namespace!r} already holds generation "
                f"{self.generation}"
            )
        self._publish(value)  # every ack is free before generation 1


class Observer:
    """Consumer handle for one (namespace, owner) pair.

    Its gate is held while it has no unread generation, and its ack from the
    publish of a generation until it has read it."""

    def __init__(self, namespace: str, owner: str):
        self.namespace = namespace
        self.owner = owner
        self.last_consumed = 0
        self._subject: Subject | None = None  # set at seal
        self._waiting = None  # "observe" while observe waits; see the module doc
        self._gate = threading.Lock()
        self._gate.acquire()
        self._ack = threading.Lock()

    def observe(self):
        """Block until a generation newer than last_consumed exists, return it."""
        subject = self._subject
        if not self._gate.acquire(False):
            if subject is None:
                raise RegistryNotSealed(
                    f"channel traffic on {self.namespace!r} before seal"
                )
            self._waiting = "observe"
            if not (subject._poisoned
                    or self._gate.acquire(True, subject._timeout)):
                raise ChannelTimeout(self.namespace, "observe", subject._timeout)
            self._waiting = None
        if subject._poisoned:
            self._waiting = "observe"
            raise ChannelPoisoned(self.namespace)
        value = subject.slot
        self.last_consumed = subject.generation
        try:
            self._ack.release()
        except RuntimeError:  # poison opened it first
            pass
        return value
