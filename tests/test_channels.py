"""Channel-layer semantics: pseudo-singletons, gating, timeout, poison."""

import random
import sys
import threading
import time

import pytest

from gatedflow.channels import CAPACITY, ChannelRegistry
from gatedflow.errors import (
    AlreadyInitialised,
    ChannelPoisoned,
    ChannelTimeout,
    DuplicateSubject,
    IncompleteGraph,
    RegistryNotSealed,
    RegistrySealed,
    ValueTypeError,
)


def sealed_pair(namespace="x", owner="A", timeout=0.5):
    reg = ChannelRegistry(default_timeout=timeout)
    subject = reg.create_subject(namespace, owner="P")
    observer = reg.acquire_observer(namespace, owner)
    reg.seal_and_bind()
    return reg, subject, observer


def fill(subject, first=1):
    """Publish CAPACITY values from ``first`` on; with no reader this fills
    the ring, so the next publish has to wait."""
    for value in range(first, first + CAPACITY):
        subject.publish(value)


class TestRegistry:
    def test_create_subject_fresh(self):
        reg = ChannelRegistry()
        subject = reg.create_subject("z")
        assert subject.namespace == "z"
        assert subject.generation == 0

    def test_duplicate_subject_raises(self):
        reg = ChannelRegistry()
        reg.create_subject("z")
        with pytest.raises(DuplicateSubject):
            reg.create_subject("z")

    def test_create_after_seal_raises(self):
        reg = ChannelRegistry()
        reg.seal_and_bind()
        with pytest.raises(RegistrySealed):
            reg.create_subject("w")
        with pytest.raises(RegistrySealed):
            reg.acquire_observer("q", "A")

    def test_observer_is_pseudo_singleton(self):
        reg = ChannelRegistry()
        first = reg.acquire_observer("x", "A")
        assert reg.acquire_observer("x", "A") is first
        assert reg.acquire_observer("x", "B") is not first

    def test_repeated_acquire_is_stable(self):
        reg = ChannelRegistry()
        handles = {id(reg.acquire_observer("n", "own")) for _ in range(25)}
        assert len(handles) == 1

    def test_seal_reports_producers_and_consumers(self):
        reg = ChannelRegistry()
        reg.create_subject("x", owner="C")
        reg.create_subject("y", owner="C")
        reg.create_subject("z", owner="A")
        reg.create_subject("alpha", owner="B")
        reg.acquire_observer("x", "A")
        reg.acquire_observer("y", "A")
        reg.acquire_observer("x", "B")
        reg.acquire_observer("z", "B")
        reg.acquire_observer("alpha", "C")
        report = reg.seal_and_bind()
        assert report.entry("x").producer == "C"
        assert report.entry("x").consumers == ["A", "B"]
        assert report.entry("alpha").consumers == ["C"]

    def test_incomplete_graph_lists_missing_namespaces(self):
        reg = ChannelRegistry()
        reg.create_subject("z", owner="A")
        reg.create_subject("alpha", owner="B")
        reg.acquire_observer("x", "A")
        reg.acquire_observer("y", "A")
        reg.acquire_observer("x", "B")
        reg.acquire_observer("z", "B")
        reg.acquire_observer("alpha", "C")
        with pytest.raises(IncompleteGraph) as err:
            reg.seal_and_bind()
        assert err.value.namespaces == ["x", "y"]

    def test_empty_registry_seals_vacuously(self):
        report = ChannelRegistry().seal_and_bind()
        assert report.entries == []


class TestGating:
    def test_first_publish_needs_no_ack(self):
        _, subject, _ = sealed_pair()
        subject.publish(1)
        assert subject.generation == 1

    def test_observe_returns_published_value(self):
        _, subject, observer = sealed_pair()
        subject.publish(1)
        assert observer.observe() == 1
        assert observer.last_consumed == 1

    def test_observe_times_out_without_publish(self):
        _, _, observer = sealed_pair(timeout=0.1)
        with pytest.raises(ChannelTimeout):
            observer.observe()

    def test_publish_times_out_without_ack(self):
        _, subject, _ = sealed_pair(timeout=0.1)
        fill(subject)  # CAPACITY publishes with no reader succeed
        with pytest.raises(ChannelTimeout):
            subject.publish(CAPACITY + 1)
        assert subject.generation == CAPACITY

    def test_publish_blocks_until_consumed(self):
        _, subject, observer = sealed_pair(timeout=2.0)
        fill(subject)
        done = threading.Event()

        def late_consumer():
            time.sleep(0.1)
            observer.observe()
            done.set()

        t = threading.Thread(target=late_consumer)
        t.start()
        subject.publish(CAPACITY + 1)  # must wait for the observe above
        t.join()
        assert done.is_set()
        assert subject.generation == CAPACITY + 1
        assert [observer.observe() for _ in range(CAPACITY)] == \
            list(range(2, CAPACITY + 2))

    def test_initialise_state_bootstraps(self):
        _, subject, observer = sealed_pair()
        subject.initialise_state(1)
        assert subject.generation == 1
        assert observer.observe() == 1

    def test_initialise_twice_raises(self):
        _, subject, _ = sealed_pair()
        subject.initialise_state(1)
        with pytest.raises(AlreadyInitialised):
            subject.initialise_state(1)

    @pytest.mark.parametrize("op", [
        lambda subject, observer: subject.publish(1),
        lambda subject, observer: subject.initialise_state(1),
        lambda subject, observer: observer.observe(),
    ], ids=["publish", "initialise_state", "observe"])
    def test_traffic_before_seal_raises(self, op):
        reg = ChannelRegistry()
        subject = reg.create_subject("x", owner="P")
        observer = reg.acquire_observer("x", "A")
        with pytest.raises(RegistryNotSealed):
            op(subject, observer)

    def test_observe_waits_the_timeout_copied_at_seal(self):
        reg = ChannelRegistry(default_timeout=0.2)
        reg.create_subject("x", owner="P")
        observer = reg.acquire_observer("x", "A")
        reg.seal_and_bind()
        reg.default_timeout = 5.0  # too late: seal fixed the handles' timeout
        start = time.monotonic()
        with pytest.raises(ChannelTimeout):
            observer.observe()
        assert time.monotonic() - start < 1.0

    def test_publish_with_no_observers_is_free(self):
        reg = ChannelRegistry(default_timeout=0.2)
        subject = reg.create_subject("dangling")
        reg.seal_and_bind()
        for i in range(10):
            subject.publish(i)
        assert subject.generation == 10


def wait_until(predicate, limit=5.0):
    deadline = time.monotonic() + limit
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestWaitMark:
    """A handle marks its own wait; ``blocked()`` reads the marks."""

    def test_fast_ops_leave_no_mark(self):
        reg, subject, observer = sealed_pair()
        subject.initialise_state(0)
        for i in range(1, 4):
            assert observer.observe() == i - 1
            subject.publish(i)
        assert reg.blocked() == []

    def test_lists_a_waiting_observer_until_the_value_arrives(self):
        reg, subject, observer = sealed_pair(timeout=5.0)
        got = []
        t = threading.Thread(target=lambda: got.append(observer.observe()))
        t.start()
        wait_until(lambda: reg.blocked() == [("A", "x", "observe")])
        subject.publish(7)
        t.join(timeout=5.0)
        assert got == [7]
        assert reg.blocked() == []

    def test_lists_a_producer_blocked_on_an_unacked_generation(self):
        reg, subject, observer = sealed_pair(timeout=5.0)
        fill(subject)
        t = threading.Thread(target=subject.publish, args=(CAPACITY + 1,))
        t.start()
        wait_until(lambda: reg.blocked() == [("P", "x", "publish")])
        assert observer.observe() == 1
        t.join(timeout=5.0)
        assert subject.generation == CAPACITY + 1
        assert reg.blocked() == []

    def test_a_timed_out_op_stays_listed(self):
        reg, subject, observer = sealed_pair(timeout=0.1)
        with pytest.raises(ChannelTimeout):
            observer.observe()
        assert reg.blocked() == [("A", "x", "observe")]
        fill(subject)
        with pytest.raises(ChannelTimeout):
            subject.publish(CAPACITY + 1)
        assert reg.blocked() == [("A", "x", "observe"), ("P", "x", "publish")]

    def test_every_mark_clears_under_contention(self):
        reg = ChannelRegistry(default_timeout=5.0)
        subject = reg.create_subject("x", owner="P")
        observers = [reg.acquire_observer("x", f"C{i}") for i in range(8)]
        reg.seal_and_bind()
        everyone = [(o.owner, "x", "observe") for o in observers]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often to expose races
        try:
            for value in range(30):
                got = []
                threads = [threading.Thread(target=lambda o=o: got.append(o.observe()))
                           for o in observers]
                for t in threads:
                    t.start()
                wait_until(lambda: reg.blocked() == everyone)
                subject.publish(value)
                for t in threads:
                    t.join(timeout=5.0)
                assert not any(t.is_alive() for t in threads)
                assert got == [value] * 8
                assert reg.blocked() == []
        finally:
            sys.setswitchinterval(interval)

    def test_sorted_by_owner_then_namespace_with_unowned_subjects(self):
        reg = ChannelRegistry(default_timeout=0.05)
        unowned = reg.create_subject("u")
        owned = reg.create_subject("o", owner="B")
        for ns in ("u", "o"):
            reg.acquire_observer(ns, "A")
        reg.seal_and_bind()
        for subject in (unowned, owned):
            fill(subject)
            with pytest.raises(ChannelTimeout):
                subject.publish(CAPACITY + 1)
        assert reg.blocked() == [
            ("B", "o", "publish"), (None, "u", "publish")]


class TestSequenceTotality:
    """Every observer sees exactly the published sequence: no skips, no dups."""

    @pytest.mark.parametrize("n_observers", [1, 2, 4, 16])
    def test_total_order_over_thousand_publishes(self, n_observers):
        count = 1000
        reg = ChannelRegistry(default_timeout=10.0)
        subject = reg.create_subject("s", owner="P")
        observers = [reg.acquire_observer("s", f"O{i}") for i in range(n_observers)]
        reg.seal_and_bind()
        seen = {i: [] for i in range(n_observers)}

        def consume(idx):
            for _ in range(count):
                seen[idx].append(observers[idx].observe())

        threads = [threading.Thread(target=consume, args=(i,), daemon=True)
                   for i in range(n_observers)]
        for t in threads:
            t.start()
        published = []
        min_gens = []
        for value in range(count):
            started = time.monotonic()
            subject.publish(value)
            # only a lost wake-up leaves a publish asleep until its deadline
            assert time.monotonic() - started < reg.default_timeout / 2
            published.append(value)
            # ring safety: generation never runs ahead of the slowest
            # observer by more than the ring holds
            min_gens.append(
                subject.generation - min(o.last_consumed for o in observers)
            )
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive()
        for idx in range(n_observers):
            assert seen[idx] == published
        assert max(min_gens) <= CAPACITY


class TestRing:
    """A subject holds CAPACITY generations: its producer runs ahead of a
    slow reader, and the ring never hands out a value twice or overwrites
    one that is unread."""

    def test_wrap_around_through_a_slow_observer(self):
        count = 3 * CAPACITY + 1
        reg, subject, observer = sealed_pair(timeout=5.0)
        errors = []

        def produce():
            try:
                for value in range(1, count + 1):
                    subject.publish(value)
            except Exception as exc:  # reported below
                errors.append(exc)

        t = threading.Thread(target=produce)
        t.start()
        seen, lags = [], []
        for _ in range(count):
            time.sleep(0.002)  # the producer fills the ring meanwhile
            lags.append(subject.generation - observer.last_consumed)
            seen.append(observer.observe())
        t.join(timeout=5.0)
        assert not t.is_alive() and errors == []
        assert seen == list(range(1, count + 1))
        assert max(lags) == CAPACITY  # the ring filled, and no further
        assert reg.blocked() == []

    def test_a_stale_ack_does_not_let_a_publish_overwrite_an_unread_slot(self):
        reg, subject, observer = sealed_pair(timeout=0.1)
        subject.publish(1)
        assert observer.observe() == 1  # releases the ack; nobody waits on it
        fill(subject, first=2)  # generations 2..CAPACITY + 1, all unread
        with pytest.raises(ChannelTimeout):
            subject.publish(CAPACITY + 2)  # would overwrite unread generation 2
        assert subject.generation == CAPACITY + 1
        assert [observer.observe() for _ in range(CAPACITY)] == \
            list(range(2, CAPACITY + 2))
        assert observer.last_consumed == CAPACITY + 1

    def test_poison_reaches_a_publish_waiting_on_a_full_ring(self):
        reg = ChannelRegistry(default_timeout=30.0)
        subject = reg.create_subject("x", owner="P")
        reader = reg.acquire_observer("x", "A")
        idle = reg.acquire_observer("x", "B")  # never reads
        reg.seal_and_bind()
        fill(subject)
        assert [reader.observe() for _ in range(CAPACITY)] == \
            list(range(1, CAPACITY + 1))
        result = {}

        def blocked_publish():
            try:
                subject.publish(CAPACITY + 1)
            except ChannelPoisoned as exc:
                result["error"] = exc

        t = threading.Thread(target=blocked_publish)
        t.start()
        wait_until(lambda: reg.blocked() == [("P", "x", "publish")])
        reg.poison()
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert isinstance(result.get("error"), ChannelPoisoned)
        assert subject.generation == CAPACITY
        for observer in (reader, idle):
            with pytest.raises(ChannelPoisoned):
                observer.observe()  # unread values stay unread after poison
        assert (reader.last_consumed, idle.last_consumed) == (CAPACITY, 0)


class TestFloor:
    """A publish scans its observers only once ``generation - CAPACITY``
    reaches the subject's cached ``_floor``, a lower bound of their
    ``last_consumed`` that every scan refreshes."""

    def test_the_floor_follows_a_slow_observer_that_is_not_first(self):
        reg = ChannelRegistry(default_timeout=0.1)
        subject = reg.create_subject("x", owner="P")
        fast = reg.acquire_observer("x", "A")
        slow = reg.acquire_observer("x", "B")
        reg.seal_and_bind()
        assert subject._observers == [fast, slow]
        fill(subject)
        assert [fast.observe() for _ in range(CAPACITY)] == \
            list(range(1, CAPACITY + 1))
        with pytest.raises(ChannelTimeout):
            subject.publish(CAPACITY + 1)  # would overwrite slow's unread 1
        assert subject.generation == CAPACITY
        assert slow.observe() == 1
        subject.publish(CAPACITY + 1)
        assert subject._floor == 1  # slow's last_consumed, cached by the scan
        # slow stops reading; fast catches up, so only slow holds the ring
        assert fast.observe() == CAPACITY + 1
        with pytest.raises(ChannelTimeout):
            subject.publish(CAPACITY + 2)  # would overwrite slow's unread 2
        assert subject.generation == CAPACITY + 1
        assert slow.observe() == 2
        subject.publish(CAPACITY + 2)
        assert subject._floor == 2
        assert [slow.observe() for _ in range(CAPACITY)] == \
            list(range(3, CAPACITY + 3))
        assert fast.observe() == CAPACITY + 2


class TestValueType:
    @pytest.mark.parametrize("value", [[1], None], ids=["list", "none"])
    def test_non_scalar_publish_raises_and_stores_nothing(self, value):
        _, subject, observer = sealed_pair()
        subject.publish(1)
        assert observer.observe() == 1
        with pytest.raises(ValueTypeError):
            subject.publish(value)
        assert subject.generation == 1


class TestPoison:
    def test_observe_after_poison_raises_immediately(self):
        reg, _, observer = sealed_pair(timeout=30.0)
        reg.poison()
        start = time.monotonic()
        with pytest.raises(ChannelPoisoned):
            observer.observe()
        assert time.monotonic() - start < 1.0

    def test_poison_releases_blocked_publish(self):
        reg, subject, _ = sealed_pair(timeout=30.0)
        fill(subject)
        result = {}

        def blocked_publish():
            try:
                subject.publish(CAPACITY + 1)
            except ChannelPoisoned:
                result["released"] = time.monotonic()

        t = threading.Thread(target=blocked_publish)
        t.start()
        time.sleep(0.1)
        poisoned_at = time.monotonic()
        reg.poison()
        t.join(timeout=5.0)
        assert "released" in result
        assert result["released"] - poisoned_at < 1.0

    def test_poison_releases_wide_fanout(self):
        reg = ChannelRegistry(default_timeout=30.0)
        wide = reg.create_subject("wide", owner="P")
        stuck = reg.create_subject("stuck", owner="P")
        observers = [reg.acquire_observer("wide", f"O{i:02d}") for i in range(16)]
        reg.acquire_observer("stuck", "idle")  # never reads
        reg.seal_and_bind()
        released = {}

        def until_poisoned(name, body):
            try:
                body()
            except ChannelPoisoned:
                released[name] = time.monotonic()

        def produce():
            fill(wide)
            wide.publish(CAPACITY + 1)  # needs all 16 observers to read 1
            fill(stuck)
            stuck.publish(CAPACITY + 1)  # blocks: "idle" never reads 1

        def consume(observer):
            while True:
                observer.observe()

        threads = [threading.Thread(target=until_poisoned, args=("P", produce),
                                    daemon=True)]
        threads += [
            threading.Thread(target=until_poisoned,
                             args=(o.owner, lambda o=o: consume(o)), daemon=True)
            for o in observers
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 5.0
        while not (stuck.generation == CAPACITY
                   and all(o.last_consumed == CAPACITY + 1 for o in observers)):
            assert time.monotonic() < deadline, "threads never reached their blocks"
            time.sleep(0.01)
        time.sleep(0.1)  # let every thread park in its wait
        assert not released
        poisoned_at = time.monotonic()
        reg.poison()
        for t in threads:
            t.join(timeout=5.0)
            assert not t.is_alive()
        assert sorted(released) == sorted(["P"] + [o.owner for o in observers])
        assert all(at - poisoned_at < 1.0 for at in released.values())

    def test_poison_is_idempotent(self):
        reg, _, _ = sealed_pair()
        reg.poison()
        reg.poison()
        assert reg.poisoned


class TestGateContract:
    """Each observer's gate and ack: a timed-out publish hands back what it
    took, and a poison that opens a lock never hands out a value."""

    @pytest.mark.parametrize("reader", [0, 1], ids=["first-read", "second-read"])
    def test_timed_out_publish_leaves_the_channel_as_it_found_it(self, reader):
        reg = ChannelRegistry(default_timeout=0.1)
        subject = reg.create_subject("x", owner="P")
        observers = [reg.acquire_observer("x", owner) for owner in ("A", "B")]
        reg.seal_and_bind()
        fill(subject)
        ring = list(range(1, CAPACITY + 1))
        assert [observers[reader].observe() for _ in ring] == ring
        with pytest.raises(ChannelTimeout):
            subject.publish(CAPACITY + 1)  # the other has not read generation 1
        assert subject.generation == CAPACITY
        assert [o.last_consumed for o in observers] == \
            [CAPACITY if i == reader else 0 for i in range(2)]
        assert observers[1 - reader].observe() == 1
        subject.publish(CAPACITY + 1)
        assert [observers[1 - reader].observe() for _ in ring] == \
            list(range(2, CAPACITY + 2))
        assert observers[reader].observe() == CAPACITY + 1

    def test_poisoned_wait_raises_and_consumes_nothing(self):
        reg, subject, observer = sealed_pair(timeout=30.0)
        subject.publish(1)
        assert observer.observe() == 1
        result = {}

        def wait():
            try:
                result["value"] = observer.observe()
            except ChannelPoisoned as exc:
                result["error"] = exc

        t = threading.Thread(target=wait)
        t.start()
        wait_until(lambda: reg.blocked() == [("A", "x", "observe")])
        reg.poison()
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert isinstance(result.get("error"), ChannelPoisoned)
        assert observer.last_consumed == 1
        start = time.monotonic()  # the woken wait took the gate; still no wait
        with pytest.raises(ChannelPoisoned):
            observer.observe()
        with pytest.raises(ChannelPoisoned):
            subject.publish(2)
        assert time.monotonic() - start < 1.0
        assert observer.last_consumed == 1

    @pytest.mark.parametrize("round_", range(3))
    def test_poison_at_a_random_point_leaves_gap_free_prefixes(self, round_):
        count = 500
        reg = ChannelRegistry(default_timeout=10.0)
        subject = reg.create_subject("s", owner="P")
        observers = [reg.acquire_observer("s", f"O{i:02d}") for i in range(16)]
        reg.seal_and_bind()
        target = random.Random(round_).randint(1, count)
        seen = {o.owner: [] for o in observers}

        def until_poisoned(body):
            try:
                body()
            except ChannelPoisoned:
                pass

        def produce():
            for value in range(1, count + 1):
                subject.publish(value)

        def consume(observer):
            for _ in range(count):
                seen[observer.owner].append(observer.observe())

        def poison():
            while subject.generation < target:
                time.sleep(0)
            reg.poison()

        threads = [threading.Thread(target=until_poisoned, args=(produce,))]
        threads += [threading.Thread(target=until_poisoned,
                                     args=(lambda o=o: consume(o),))
                    for o in observers]
        threads.append(threading.Thread(target=poison))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often to expose races
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for values in seen.values():
            assert values == list(range(1, len(values) + 1))
            assert len(values) <= subject.generation
        slowest = min(len(values) for values in seen.values())
        assert subject.generation - slowest <= CAPACITY
