"""Namespaced, generation-gated broadcast channels.

A Subject is the single producer for a namespace; Observers are per-owner
consumer handles. Each subject holds exactly one value slot guarded by a
generation counter: a publish blocks until every observer has consumed the
current generation, and an observe blocks until a generation newer than the
observer's last consumed one is available. This rendezvous is what lets
independent components self-organise into a dataflow graph.

Each event wakes only the threads it unblocks: a subject's one lock carries
two wait sets, one for its observers and one for its producer (see Subject).

Sealing wires the handles: each Subject gets its observer count and timeout,
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
            observer._subject = self._subjects[ns]
        report = BindReport()
        for ns in sorted(self._subjects):
            subject = self._subjects[ns]
            owners = sorted(consumers.get(ns, []))
            subject._timeout = self.default_timeout
            subject._fanout = len(owners)
            if self.poisoned:  # a poison that came before this subject existed
                subject._poisoned = True
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
            with subject._lock:
                subject._poisoned = True
                subject._readable.notify_all()
                subject._writable.notify_all()


class Subject:
    """Producer handle: one per namespace, single slot, generation counter.

    ``_unacked`` counts the observers yet to read the current generation. A
    publish waits on ``_writable`` until it is zero, stores the next
    generation and wakes the observers waiting on ``_readable``. Only the
    observe that brings the count to zero wakes the producer; poison wakes
    both sets.
    """

    def __init__(self, namespace: str, owner=None):
        self.namespace = namespace
        self.owner = owner
        self.generation = 0
        self.slot = None
        self._fanout = None   # observer count; None until sealed
        self._timeout = None  # default wait, copied from the registry at seal
        self._poisoned = False
        self._waiting = None  # "publish" while publish waits; see the module doc
        self._lock = threading.RLock()
        self._readable = threading.Condition(self._lock)
        self._writable = threading.Condition(self._lock)
        self._unacked = 0

    def _require_sealed(self):
        if self._fanout is None:
            raise RegistryNotSealed(
                f"channel traffic on {self.namespace!r} before seal"
            )

    def _store(self, value):
        """Hold ``value`` as the next generation and wake the observers."""
        self.slot = value
        self.generation += 1
        self._unacked = self._fanout
        self._readable.notify_all()

    def publish(self, value):
        """Store the next generation, waiting for all consumers to catch up."""
        check_value(value)
        self._require_sealed()
        with self._lock:
            if self._unacked or self._poisoned:
                self._waiting = "publish"
                deadline = time.monotonic() + self._timeout
                while self._unacked and not self._poisoned:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ChannelTimeout(self.namespace, "publish", self._timeout)
                    self._writable.wait(remaining)
                if self._poisoned:
                    raise ChannelPoisoned(self.namespace)
                self._waiting = None
            self._store(value)

    def initialise_state(self, value):
        """Generation-0 publish used to bootstrap a cycle; never blocks."""
        check_value(value)
        self._require_sealed()
        with self._lock:
            if self.generation >= 1:
                raise AlreadyInitialised(
                    f"subject {self.namespace!r} already holds generation "
                    f"{self.generation}"
                )
            if self._poisoned:
                raise ChannelPoisoned(self.namespace)
            self._store(value)


class Observer:
    """Consumer handle for one (namespace, owner) pair."""

    def __init__(self, namespace: str, owner: str):
        self.namespace = namespace
        self.owner = owner
        self.last_consumed = 0
        self._subject: Subject | None = None  # set at seal
        self._waiting = None  # "observe" while observe waits; see the module doc

    def observe(self):
        """Block until a generation newer than last_consumed exists, return it."""
        subject = self._subject
        if subject is None:
            raise RegistryNotSealed(
                f"channel traffic on {self.namespace!r} before seal"
            )
        with subject._lock:
            if subject.generation == self.last_consumed or subject._poisoned:
                self._waiting = "observe"
                deadline = time.monotonic() + subject._timeout
                while subject.generation == self.last_consumed and not subject._poisoned:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ChannelTimeout(self.namespace, "observe", subject._timeout)
                    subject._readable.wait(remaining)
                if subject._poisoned:
                    raise ChannelPoisoned(self.namespace)
                self._waiting = None
            self.last_consumed = subject.generation
            subject._unacked -= 1
            if not subject._unacked:
                subject._writable.notify()
            return subject.slot
