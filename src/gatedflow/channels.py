"""Namespaced, generation-gated broadcast channels.

A Subject is the single producer for a namespace; Observers are per-owner
consumer handles. Each subject holds a ring of ``CAPACITY`` slots, and
generation ``g`` lives in slot ``g % CAPACITY``: a publish waits only while
some observer is ``CAPACITY`` generations behind, and an observe waits only
until a generation newer than the observer's last consumed one exists. So a
producer may run up to ``CAPACITY`` generations ahead of its slowest reader,
and each reader still sees every value exactly once, in order. The graph is
a Kahn process network: a channel's history does not depend on its capacity,
and a larger capacity never adds a deadlock. ``oracle_run`` models the same
capacity.

Only the producer writes ``Subject.generation`` and only an observer writes
its ``last_consumed``, so no counter is shared. Each observer owns two binary
locks that only mean "check again": its gate, released by a publish, and its
ack, released by a read. A waiter re-checks the counters after every acquire,
so a stale release costs one extra loop and never hands out a value.

Sealing wires the handles: each Subject gets its timeout and its observers,
each Observer its Subject. No handle refers back to the registry.

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

#: generations a channel holds: how far a producer may run ahead of its
#: slowest observer
CAPACITY = 4


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
            subject._observers.append(observer)
            subject._gates.append(observer._gate)
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
            _open(*subject._gates, *(o._ack for o in subject._observers))


def _open(*locks):
    """Release each held lock; one that is already open stays open. A lock
    only means "check again", and its waiter re-checks a counter that is
    already set, so a release that finds the lock open can be skipped.
    Poison opens its locks here; publish and observe release theirs the
    same way, inline."""
    for lock in locks:
        if lock.locked():
            try:
                lock.release()
            except RuntimeError:  # another thread opened it first
                pass


class Subject:
    """Producer handle: one per namespace, a ring of ``CAPACITY`` slots.

    A publish waits, on each lagging observer's ack, while that observer is
    ``CAPACITY`` generations behind; then it writes the next generation's
    slot, bumps ``generation`` and releases every observer's gate. A publish
    that times out has taken nothing, so it leaves the channel as it found it.
    ``_floor`` is a lower bound of the observers' ``last_consumed``: a publish
    scans them only once ``generation - CAPACITY`` reaches it, and each scan
    refreshes it to their least ``last_consumed``. Poison opens every gate
    and ack, so each op checks ``_poisoned`` after its acquire: an opened
    lock never hands out a value.
    """

    def __init__(self, namespace: str, owner=None):
        self.namespace = namespace
        self.owner = owner
        self.generation = 0
        self._ring = [None] * CAPACITY
        self._floor = 0  # at most every observer's last_consumed
        self._timeout = None  # default wait, copied from the registry at seal
        self._observers = []  # and their gates, wired at seal
        self._gates = []
        self._poisoned = False
        self._waiting = None  # "publish" while publish waits; see the module doc

    def publish(self, value):
        """Store the next generation, waiting while a consumer is a full ring
        behind."""
        kind = type(value)
        if (kind is not float and kind is not int and kind is not str
                and kind is not bool):
            check_value(value)  # a subclass passes, anything else raises
        if self._timeout is None:
            raise RegistryNotSealed(
                f"channel traffic on {self.namespace!r} before seal")
        generation = self.generation
        # an observer at or below this has not read the slot we overwrite
        behind = generation - CAPACITY
        deadline = None
        if behind >= self._floor:  # else no observer can be that far behind
            floor = generation
            for observer in self._observers:
                while observer.last_consumed <= behind and not self._poisoned:
                    if deadline is None:
                        self._waiting = "publish"
                        deadline = time.monotonic() + self._timeout
                    if not observer._ack.acquire(
                            True, max(deadline - time.monotonic(), 0)):
                        raise ChannelTimeout(
                            self.namespace, "publish", self._timeout)
                floor = min(floor, observer.last_consumed)
            self._floor = floor
        if self._poisoned:
            self._waiting = "publish"
            raise ChannelPoisoned(self.namespace)
        if deadline is not None:
            self._waiting = None
        generation += 1
        self._ring[generation % CAPACITY] = value
        self.generation = generation
        for gate in self._gates:
            if gate.locked():
                try:
                    gate.release()
                except RuntimeError:  # another thread opened it first
                    pass

    # initialise_state's path, which a wrapper of ``publish`` does not see
    _publish = publish

    def initialise_state(self, value):
        """Generation-0 publish used to bootstrap a cycle; never blocks."""
        check_value(value)
        if self.generation >= 1:
            raise AlreadyInitialised(
                f"subject {self.namespace!r} already holds generation "
                f"{self.generation}"
            )
        self._publish(value)  # an empty ring has room


class Observer:
    """Consumer handle for one (namespace, owner) pair.

    An observe reads generation ``last_consumed + 1`` from its subject's
    ring, waiting on its gate only while that generation is unpublished, and
    then releases its ack. Both locks start held."""

    def __init__(self, namespace: str, owner: str):
        self.namespace = namespace
        self.owner = owner
        self.last_consumed = 0
        self._subject: Subject | None = None  # set at seal
        self._waiting = None  # "observe" while observe waits; see the module doc
        self._gate = threading.Lock()
        self._gate.acquire()
        self._ack = threading.Lock()
        self._ack.acquire()

    def observe(self):
        """Block until a generation newer than last_consumed exists, return it."""
        subject = self._subject
        if subject is None:
            raise RegistryNotSealed(
                f"channel traffic on {self.namespace!r} before seal"
            )
        generation = self.last_consumed + 1
        if subject.generation < generation and not subject._poisoned:
            self._waiting = "observe"
            deadline = time.monotonic() + subject._timeout
            while subject.generation < generation and not subject._poisoned:
                if not self._gate.acquire(
                        True, max(deadline - time.monotonic(), 0)):
                    raise ChannelTimeout(
                        self.namespace, "observe", subject._timeout)
            self._waiting = None
        if subject._poisoned:
            self._waiting = "observe"
            raise ChannelPoisoned(self.namespace)
        value = subject._ring[generation % CAPACITY]
        self.last_consumed = generation
        ack = self._ack
        if ack.locked():
            try:
                ack.release()
            except RuntimeError:  # poison opened it first
                pass
        return value
