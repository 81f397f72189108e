"""Components, collections, and the concurrent gated execution loop.

A Component owns a step body (script or native), an io_map translating its
internal names to external channel namespaces, and, after bind, one Subject
per write name and one Observer per read name. A ComponentCollection
registers every component's handles in one ChannelRegistry, whose seal wires
them and fixes the step timeout; it runs one thread per component and joins
them. Every way a run ends early (a channel timeout, a body error, a stop
request) poisons the registry, which releases every blocked channel op.

Script and native bodies share one protocol, ``reads``/``writes`` sets and
``run(fetch, emit, record)``; the worker threads bind it to channel
operations, and the oracle to its sequential slot state.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from types import SimpleNamespace

from . import dsl
from .channels import DEFAULT_TIMEOUT, ChannelRegistry, BindReport
from .errors import BadOverride, ChannelPoisoned, ChannelTimeout


def discard(tag, value):
    """The ``record`` of a body run that logs nothing."""


@dataclass
class NativeBody:
    """Host-language body with explicitly declared read/write sets.

    ``fn(inputs, ctx)`` receives the observed values and a context exposing
    ``record(tag, value)``; it returns a mapping of write name to value.
    ``run`` fetches the reads in sorted order, calls ``fn`` once, and emits
    the returned writes in the mapping's order.
    """

    fn: object
    reads: set[str] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)

    def run(self, fetch, emit, record):
        inputs = {name: fetch(name) for name in sorted(self.reads)}
        outputs = self.fn(inputs, SimpleNamespace(record=record)) or {}
        for name, value in outputs.items():
            emit(name, value)


class ScriptBody:
    """Parsed step script, its inferred IO sets and its subcomponents.

    The script is compiled here, on the thread that builds the component,
    and only once per distinct source and IO sets: ``dsl.parse`` returns one
    shared AST for equal text, and the compiled function is kept on it.
    ``run`` evaluates the script once through ``dsl.evaluate``."""

    def __init__(self, source: str, io_map, subcomponents=None):
        self.source = source
        self.ast = dsl.parse(source)
        self.subcomponents = subcomponents or {}
        io_sets = dsl.validate(self.ast, io_map, self.subcomponents)
        # frozen, so compile_body's key is built from them without copying
        self.io_sets = dsl.IOSets(*map(frozenset, (
            io_sets.reads, io_sets.writes, io_sets.locals)))
        self.reads = self.io_sets.reads
        self.writes = self.io_sets.writes
        dsl.compile_body(self.ast, self.io_sets)

    def run(self, fetch, emit, record):
        env = dsl.EvalEnv(None, None, fetch, emit)  # positional: cheaper
        env.subcomponents = self.subcomponents  # this body's own: no copy
        dsl.evaluate(self.ast, env, io_sets=self.io_sets)


def _check_native(body: NativeBody, io_map):
    unknown = (set(body.reads) | set(body.writes)) - set(io_map)
    if unknown:
        raise dsl.UseBeforeAssign(
            "native body declares names absent from io_map: "
            + ", ".join(sorted(unknown))
        )


class Component:
    def __init__(self, name, io_map, init_body, step_body, max_steps=None):
        self.name = name
        self.io_map = dict(io_map)
        self.init_body = init_body
        self.step_body = step_body
        self.max_steps = max_steps
        self.reads = set()   # internal names read by either body
        self.writes = set()  # internal names written by either body
        for body in (init_body, step_body):
            if body is not None:
                self.reads.update(body.reads)
                self.writes.update(body.writes)
        self.observers = {}  # internal read name -> Observer
        self.subjects = {}   # internal write name -> Subject
        self.logger = None   # ProxyLogger, attached by the collection

    @property
    def step_source(self):
        return self.step_body.source if isinstance(self.step_body, ScriptBody) else None

    @property
    def init_source(self):
        return self.init_body.source if isinstance(self.init_body, ScriptBody) else None


def make_component(name, io_map, init_body=None, step_body=None,
                   io_map_override=None, subcomponents=None,
                   max_steps=None) -> Component:
    """Construct and validate a component against its effective io_map.

    ``init_body``/``step_body`` may be script source strings or NativeBody
    instances. The override replaces external namespaces for existing keys
    only; the script text itself is never touched, which is what makes
    graph rewiring transparent to component logic.
    """
    effective = dict(io_map)
    if io_map_override:
        bad = set(io_map_override) - set(io_map)
        if bad:
            raise BadOverride(
                f"override keys not in io_map: {', '.join(sorted(bad))}"
            )
        effective.update(io_map_override)
    subcomponents = dict(subcomponents or {})

    def prep(body):
        if body is None:
            return None
        if isinstance(body, str):
            return ScriptBody(body, effective, subcomponents)
        if isinstance(body, NativeBody):
            _check_native(body, effective)
            return body
        raise TypeError(f"body must be source text or NativeBody, got {body!r}")

    return Component(name, effective, prep(init_body), prep(step_body), max_steps)


@dataclass
class RunReport:
    outcome: str  # completed | stopped | timeout | error
    steps: dict[str, int] = field(default_factory=dict)
    blocked_on: list[tuple[str, str, str]] = field(default_factory=list)
    error: Exception | None = None


class ComponentCollection:
    """Binds components into one channel registry and runs them as threads.

    ``logger``, if given, is the only record of a run's values. Its
    ``proxy(name)`` is called once per component at bind and returns an
    object whose ``record(tag, value)`` is called, in order, for each value
    the component initialises or publishes (tagged with the internal write
    name) and for each ``ctx.record``. ``open_run`` returns one that logs
    to a store.

    ``step_timeout`` (``None`` means ``channels.DEFAULT_TIMEOUT``) bounds
    each channel wait; it is fixed here, and bind copies it into the channels.

    ``signal_stop()`` poisons the bound registry, so every worker leaves at
    its next step boundary or channel op; a step cut short is not counted.
    """

    def __init__(self, components, step_timeout: float | None = None,
                 logger=None):
        names = [c.name for c in components]
        if len(set(names)) != len(names):
            raise ValueError("component names must be unique")
        self.components = list(components)
        self.step_timeout = DEFAULT_TIMEOUT if step_timeout is None else step_timeout
        self.logger = logger
        self.registry: ChannelRegistry | None = None
        self.bind_report: BindReport | None = None
        self._stop = threading.Event()
        self._ran = False

    # -- graph construction -------------------------------------------------

    def bind(self) -> BindReport:
        registry = ChannelRegistry(default_timeout=self.step_timeout)
        for comp in self.components:
            for internal in sorted(comp.writes):
                comp.subjects[internal] = registry.create_subject(
                    comp.io_map[internal], owner=comp.name)
            for internal in sorted(comp.reads):
                comp.observers[internal] = registry.acquire_observer(
                    comp.io_map[internal], comp.name
                )
            if self.logger is not None:
                comp.logger = self.logger.proxy(comp.name)
        self.bind_report = registry.seal_and_bind()
        self.registry = registry
        return self.bind_report

    # -- execution ----------------------------------------------------------

    def signal_stop(self):
        self._stop.set()
        if self.registry is not None:
            self.registry.poison()

    def run(self, max_steps=None) -> RunReport:
        if self.registry is None:
            raise RuntimeError("bind() must succeed before run()")
        if self._ran:
            raise RuntimeError("a ComponentCollection is not reusable after run()")
        self._ran = True
        if self._stop.is_set():  # signal_stop() came before bind() made a registry
            self.registry.poison()

        steps = {c.name: 0 for c in self.components}
        # name -> (namespace, op) while blocked in a channel op, else None.
        # Each entry is written only by its component's own thread.
        pending: dict[str, tuple[str, str] | None] = dict.fromkeys(steps)
        fail = SimpleNamespace(timeout=False, error=None, blocked=[])
        fail_lock = threading.Lock()

        def snapshot_blocked():
            return sorted(
                (name, *entry) for name, entry in list(pending.items()) if entry
            )

        def worker(comp: Component):
            name = comp.name
            record = comp.logger.record if comp.logger is not None else discard

            # a channel op that raises leaves its entry for finally to clear
            def fetch(internal):
                observer = comp.observers[internal]
                pending[name] = (observer.namespace, "observe")
                value = observer.observe()
                pending[name] = None
                return value

            def publish(internal, value):
                subject = comp.subjects[internal]
                pending[name] = (subject.namespace, "publish")
                subject.publish(value)
                pending[name] = None
                record(internal, value)

            def initialise(internal, value):
                comp.subjects[internal].initialise_state(value)
                record(internal, value)

            try:
                if comp.init_body is not None:
                    comp.init_body.run(fetch, initialise, record)
                limit = comp.max_steps if comp.max_steps is not None else max_steps
                body = comp.step_body
                while not self._stop.is_set():
                    if limit is not None and steps[name] >= limit:
                        break
                    if body is not None:
                        body.run(fetch, publish, record)
                    steps[name] += 1
            except ChannelPoisoned:
                pass
            except ChannelTimeout as exc:
                # the snapshot holds this component's own entry, unless
                # another thread took it before this component blocked
                me = (name, exc.namespace, exc.op)
                with fail_lock:
                    if fail.error is None:
                        if not fail.timeout:
                            fail.timeout = True
                            fail.blocked = snapshot_blocked()
                        if me not in fail.blocked:
                            fail.blocked.append(me)
                            fail.blocked.sort()
                self.registry.poison()
            except Exception as exc:  # body errors fail the whole collection fast
                with fail_lock:
                    if fail.error is None and not fail.timeout:
                        fail.error = exc
                self.registry.poison()
            finally:
                pending[name] = None

        threads = [
            threading.Thread(target=worker, args=(c,), name=f"component-{c.name}",
                             daemon=True)
            for c in self.components
        ]
        for t in threads:
            t.start()

        for t in threads:
            t.join()

        if fail.error is not None:
            return RunReport("error", steps, error=fail.error)
        if fail.timeout:
            return RunReport("timeout", steps, blocked_on=fail.blocked)
        if self._stop.is_set():
            return RunReport("stopped", steps)
        return RunReport("completed", steps)
