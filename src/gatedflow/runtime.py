"""Components, collections, and the concurrent gated execution loop.

A Component is a spec (bodies, script or native, and an io_map from its
internal names to channel namespaces) with no run state, so the oracle and
several collections may share it. A ComponentCollection owns its run: its one
``bind()`` registers the handles in its ChannelRegistry, whose seal wires
them and fixes the step timeout, and ``run()`` runs one thread per component.
Poison is the one stop signal: every early end (a channel timeout, a body
error, a stop, even before bind) poisons the registry, releasing every
channel wait and stopping each component at its next step; one with no step
body ends after its init with 0 steps. The first failure decides the report;
a timeout's lists the waits the handles marked (``ChannelRegistry.blocked()``).

Script and native bodies share one protocol, ``reads``/``writes`` sets and
``run(fetch, emit, record)``; the worker threads bind it to channel
operations, with each observer's ``observe`` bound once per run, and the
oracle to its sequential slot state. A script body's compiled step takes
the same ``fetch`` and ``emit``: it calls ``fetch`` once per read name, at
its first use, and ``emit`` once per io write, in program order.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from types import SimpleNamespace

from . import dsl
from .channels import DEFAULT_TIMEOUT, ChannelRegistry, BindReport
from .errors import (BadOverride, ChannelPoisoned, ChannelTimeout, FlowError,
                     RegistrySealed)


def discard(tag, value):
    """The ``record`` of a body run that logs nothing."""


@dataclass
class NativeBody:
    """Host-language body with explicitly declared read/write sets.

    ``fn(inputs, ctx)`` receives the observed values and a context exposing
    ``record(tag, value)``; it returns a mapping of write name to value.
    ``run`` fetches the reads in sorted order, calls ``fn`` once, and emits
    the returned writes in the mapping's order; a returned name that its
    component does not write is a FlowError, in a run and in the oracle.
    The IO sets are frozen at construction, and the fetch order is computed
    then.
    """

    fn: object
    reads: frozenset[str] = frozenset()
    writes: frozenset[str] = frozenset()

    def __post_init__(self):
        self.reads = frozenset(self.reads)
        self.writes = frozenset(self.writes)
        self._fetch_order = tuple(sorted(self.reads))

    def run(self, fetch, emit, record):
        inputs = {name: fetch(name) for name in self._fetch_order}
        outputs = self.fn(inputs, SimpleNamespace(record=record)) or {}
        try:
            for name, value in outputs.items():
                emit(name, value)
        except KeyError:  # checked only when an emit fails
            if name in self.writes:
                raise
            raise FlowError(
                f"native body returned {name!r}, which is not among its declared "
                f"writes ({', '.join(sorted(self.writes)) or 'none'})") from None


class ScriptBody:
    """Parsed step script, its inferred IO sets and its subcomponents.

    The script is analysed and compiled here, on the thread that builds the
    component: ``dsl.parse`` returns one shared AST for equal text,
    ``dsl.validate`` walks it once per distinct io_map keys and
    ``dsl.compile_body`` compiles it once per distinct IO sets, each keeping
    its result on the AST.
    ``run`` passes ``fetch``, ``emit`` and the subcomponents straight to
    ``dsl.evaluate``, once per body run."""

    def __init__(self, source: str, io_map, subcomponents=None):
        self.source = source
        self.ast = dsl.parse(source)
        self.subcomponents = subcomponents or {}
        self.io_sets = dsl.validate(self.ast, io_map, self.subcomponents)
        self.reads = self.io_sets.reads
        self.writes = self.io_sets.writes
        dsl.compile_body(self.ast, self.io_sets)

    def run(self, fetch, emit, record):
        dsl.evaluate(self.ast, self.io_sets, fetch, emit, self.subcomponents)


def _check_native(body: NativeBody, io_map):
    unknown = (set(body.reads) | set(body.writes)) - set(io_map)
    if unknown:
        raise dsl.UseBeforeAssign(
            "native body declares names absent from io_map: "
            + ", ".join(sorted(unknown))
        )


class Component:
    """A component spec. Its init body only gives its writes their first
    values, before its steps: an init body that reads is a FlowError."""

    def __init__(self, name, io_map, init_body, step_body, max_steps=None):
        if init_body is not None and init_body.reads:
            raise FlowError("an init body may not read, but it reads "
                            + ", ".join(sorted(init_body.reads)))
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
    graph rewiring transparent to component logic. Two read names, or two
    write names, on one namespace are a FlowError: one observer would serve
    both reads, and two subjects would publish to one namespace. Every
    FlowError raised here names the component (``FlowError.component``).
    """
    try:
        return _component(name, io_map, init_body, step_body, io_map_override,
                          subcomponents, max_steps)
    except FlowError as exc:
        exc.component = name
        raise


def _component(name, io_map, init_body, step_body, io_map_override,
               subcomponents, max_steps) -> Component:
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

    component = Component(name, effective, prep(init_body), prep(step_body),
                          max_steps)
    if len(set(effective.values())) == len(effective):  # one name per namespace
        return component
    for kind, internals in (("read", component.reads), ("write", component.writes)):
        seen = {}
        for internal in sorted(internals):
            other = seen.setdefault(effective[internal], internal)
            if other != internal:
                raise FlowError(
                    f"{kind} names {other!r} and {internal!r} share namespace "
                    f"{effective[internal]!r}")
    return component


@dataclass
class RunReport:
    outcome: str  # completed | stopped | timeout | error
    steps: dict[str, int] = field(default_factory=dict)
    blocked_on: list[tuple[str, str, str]] = field(default_factory=list)
    error: Exception | None = None


class ComponentCollection:
    """Binds components into one channel registry and runs them as threads.

    ``logger``, if given, is the only record of a run's values. Its
    ``proxy(name)`` is called once per component when ``run()`` starts, so
    a caller may bind first and set ``logger`` after; it returns an
    object whose ``record(tag, value)`` is called, in order, for each value
    the component initialises or publishes (tagged with the internal write
    name) and for each ``ctx.record``. ``open_run`` returns one that logs
    to a store.

    ``step_timeout`` (``None`` means ``channels.DEFAULT_TIMEOUT``) bounds
    each channel wait; it is fixed here, and bind copies it into the channels.

    ``signal_stop()`` poisons the registry, the one stop signal, so every
    component leaves at its next step or channel op; a step cut short is not
    counted. A component with no step body ends after its init with 0 steps.
    ``bind()`` runs once; the components stay specs that others may share.
    """

    def __init__(self, components, step_timeout: float | None = None,
                 logger=None):
        names = [c.name for c in components]
        if len(set(names)) != len(names):
            raise ValueError("component names must be unique")
        self.components = list(components)
        self.step_timeout = DEFAULT_TIMEOUT if step_timeout is None else step_timeout
        self.logger = logger
        self.registry = ChannelRegistry(default_timeout=self.step_timeout)
        self.bind_report: BindReport | None = None
        self._bound = None  # per component: (component, observers, subjects)
        self._ran = False

    # -- graph construction -------------------------------------------------

    def bind(self) -> BindReport:
        registry = self.registry
        if self._bound is not None:  # also after a bind that raised
            raise RegistrySealed("a collection binds once")
        self._bound = []
        for comp in self.components:
            observers, subjects = {}, {}
            for internal in sorted(comp.writes):
                subjects[internal] = registry.create_subject(
                    comp.io_map[internal], owner=comp.name)
            for internal in sorted(comp.reads):
                observers[internal] = registry.acquire_observer(
                    comp.io_map[internal], comp.name)
            self._bound.append((comp, observers, subjects))
        self.bind_report = registry.seal_and_bind()
        return self.bind_report

    # -- execution ----------------------------------------------------------

    def signal_stop(self):
        self.registry.poison()

    def run(self, max_steps=None) -> RunReport:
        registry = self.registry
        if not registry.sealed:
            raise RuntimeError("bind() must succeed before run()")
        if self._ran:
            raise RuntimeError("a ComponentCollection is not reusable after run()")
        self._ran = True

        steps = {c.name: 0 for c in self.components}
        failure = {}  # "first": (outcome, blocked_on, error)

        def fail(outcome, error=None):
            # the marks are read before this poison; setdefault keeps the first
            blocked = registry.blocked() if error is None else []
            failure.setdefault("first", (outcome, blocked, error))
            registry.poison()

        def worker(comp: Component, observers, subjects, record):
            name = comp.name
            observes = {internal: observer.observe
                        for internal, observer in observers.items()}

            def fetch(internal):
                return observes[internal]()

            def publish(internal, value):
                subjects[internal].publish(value)
                record(internal, value)

            def initialise(internal, value):
                subjects[internal].initialise_state(value)
                record(internal, value)

            try:
                if comp.init_body is not None:
                    comp.init_body.run(fetch, initialise, record)
                body = comp.step_body
                if body is None:
                    return
                limit = comp.max_steps if comp.max_steps is not None else max_steps
                while not registry.poisoned:
                    if limit is not None and steps[name] >= limit:
                        break
                    body.run(fetch, publish, record)
                    steps[name] += 1
            except ChannelPoisoned:
                pass
            except ChannelTimeout:
                fail("timeout")
            except Exception as exc:  # body errors fail the whole collection fast
                fail("error", exc)

        logger = self.logger
        threads = []
        for comp, observers, subjects in self._bound:
            record = discard if logger is None else logger.proxy(comp.name).record
            threads.append(threading.Thread(
                target=worker, args=(comp, observers, subjects, record),
                name=f"component-{comp.name}", daemon=True))
        for t in threads:
            t.start()

        for t in threads:
            t.join()

        if failure:
            outcome, blocked, error = failure["first"]
            return RunReport(outcome, steps, blocked, error)
        if registry.poisoned:
            return RunReport("stopped", steps)
        return RunReport("completed", steps)
