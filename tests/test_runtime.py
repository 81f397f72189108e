"""Component construction, binding, and the concurrent gated run loop."""

import collections
import gc
import sys
import threading
import time
import tracemalloc
import weakref
from types import SimpleNamespace

import pytest

from gatedflow import (
    ComponentCollection,
    NativeBody,
    build_experiment,
    make_component,
    oracle_run,
    run_study,
    study_from_descriptors,
)
from gatedflow import dsl
from gatedflow.channels import CAPACITY
from gatedflow.errors import (
    BadOverride,
    DivisionByZero,
    DuplicateSubject,
    FlowError,
    IncompleteGraph,
    OracleStuck,
    RegistrySealed,
    ScriptSyntaxError,
    UnknownInternalName,
    ValueTypeError,
)
from gatedflow.store import open_run, query

from graphgen import build_twin
from tracelog import TraceLogger

C_IO = {"x": "x", "y": "y", "alpha": "alpha"}
C_INIT = "x = 1\ny = 1\n"
C_STEP = "temp = alpha * 2\nx = temp\ntemp = alpha / 2\ny = temp\n"


def run_before_deadline(collection, max_steps=None):
    """Run, asking the collection to stop once a whole step_timeout passes.

    A healthy run never waits out a deadline: only a lost wake-up leaves a
    thread asleep until its timeout. Such a run ends "stopped", not
    "completed", instead of crawling one deadline per step.
    """
    timer = threading.Timer(collection.step_timeout, collection.signal_stop)
    timer.start()
    try:
        return collection.run(max_steps=max_steps)
    finally:
        timer.cancel()


def dsl_star(n_consumers):
    """One DSL producer read by every DSL consumer; consumer 0 feeds it back."""
    producer = make_component("P", {"p": "p", "c": "c0"},
                              init_body="p = 1", step_body="p = c + 1")
    consumers = [
        make_component(f"C{i:02d}", {"p": "p", "c": f"c{i}"},
                       step_body=f"c = p * {i + 1} + {i}")
        for i in range(n_consumers)
    ]
    return [producer] + consumers


def native_feeds_scripts():
    """A native producer read by script consumers that feed it back. It
    returns its two writes in non-sorted order and records each input."""
    def produce(inputs, ctx):
        ctx.record("seen", inputs["fb"])
        return {"b": inputs["fb"] * 2, "a": inputs["fb"] + 1}

    io = {"a": "a", "b": "b", "fb": "fb"}
    return [
        make_component("P", io, step_body=NativeBody(
            produce, reads={"fb"}, writes={"b", "a"})),
        make_component("S", io, init_body="fb = 1", step_body="fb = b - a + 2"),
        make_component("T", {"a": "a", "out": "out"}, step_body="out = a * 3"),
    ]


def init_only_source():
    """A source with no step body, read once by a one-step script consumer."""
    return [
        make_component("S", {"s": "s"}, init_body="s = 3"),
        make_component("U", {"s": "s", "u": "u"}, step_body="u = s * 2",
                       max_steps=1),
    ]


LOCAL_GRAPHS = {"native_feeds_scripts": native_feeds_scripts,
                "init_only_source": init_only_source}


def bound_graph(name, registry, logger=None):
    """A registered experiment, or one of the LOCAL_GRAPHS above."""
    if name not in LOCAL_GRAPHS:
        return build_experiment(registry, name, logger=logger)
    collection = ComponentCollection(LOCAL_GRAPHS[name](), logger=logger)
    collection.bind()
    return collection


def toy_abc(step_timeout=5.0, with_init=True, a_body=None, logger=None):
    a = make_component(
        "A", {"x": "x", "y": "y", "z": "z"},
        step_body=a_body if a_body is not None else "temp = x * y\nz = temp\n",
    )
    b = make_component("B", {"x": "x", "z": "z", "alpha": "alpha"},
                       step_body="alpha = x + z\n")
    c = make_component("C", C_IO, init_body=C_INIT if with_init else None,
                       step_body=C_STEP)
    return ComponentCollection([a, b, c], step_timeout=step_timeout,
                               logger=logger)


class TestMakeComponent:
    def test_override_substitutes_external_namespace(self):
        comp = make_component("C", C_IO, init_body=C_INIT, step_body=C_STEP,
                              io_map_override={"alpha": "beta"})
        assert comp.io_map == {"x": "x", "y": "y", "alpha": "beta"}

    def test_unknown_override_key(self):
        with pytest.raises(BadOverride):
            make_component("C", C_IO, step_body=C_STEP,
                           io_map_override={"gamma": "beta"})

    def test_body_referencing_unknown_name(self):
        with pytest.raises(UnknownInternalName):
            make_component("A", {"z": "z"}, step_body="z = w + 1")

    def test_native_body_naming_what_its_io_map_lacks(self):
        with pytest.raises(UnknownInternalName,
                           match="absent from io_map: q, r$"):
            make_component("P", {"a": "a"}, step_body=NativeBody(
                lambda inputs, ctx: {}, reads={"q"}, writes={"a", "r"}))

    @pytest.mark.parametrize("io_map, init, step, kind", [
        # one observer would serve both reads, each read taking a generation
        ({"a": "x", "b": "x", "y": "y"}, None, "y = a * 10 + b", "read"),
        ({"a": "y", "b": "y"}, None, "a = 1\nb = 2", "write"),
        ({"b": "y", "a": "y"}, "b = 1", "a = 2", "write"),
        ({"a": "y", "b": "y"}, None,
         NativeBody(lambda inputs, ctx: {}, writes={"a", "b"}), "write"),
    ], ids=["reads", "writes", "writes-across-bodies", "native-writes"])
    def test_two_names_on_one_namespace_are_rejected(self, io_map, init, step,
                                                     kind):
        with pytest.raises(FlowError) as err:
            make_component("Q", io_map, init_body=init, step_body=step)
        assert str(err.value) == (f"component 'Q': {kind} names 'a' and 'b' "
                                  f"share namespace {io_map['a']!r}")

    @pytest.mark.parametrize("init", [
        "y = x",
        NativeBody(lambda inputs, ctx: {"y": inputs["x"]}, reads={"x"},
                   writes={"y"}),
    ], ids=["script", "native"])
    def test_an_init_body_that_reads_is_rejected(self, init):
        # a run of A and B with B's init reading completed, while
        # oracle_run called B stuck: refusing the init keeps them agreeing
        make_component("A", {"x": "x", "y": "y"}, init_body="x = 1",
                       step_body="x = y + 1")
        with pytest.raises(FlowError) as err:
            make_component("B", {"x": "x", "y": "y"}, init_body=init,
                           step_body="y = x * 2")
        assert str(err.value) == (
            "component 'B': an init body may not read, but it reads x")

    def test_a_read_and_a_write_may_share_a_namespace(self):
        make_component("A", {"a": "x"}, init_body="a = 0", step_body="a = a + 1")
        comp = make_component("B", {"a": "n", "b": "n"}, step_body="b = a + 1")
        assert comp.reads == {"a"} and comp.writes == {"b"}
        # unused io_map keys that alias a used one are not reads or writes
        make_component("C", {"a": "x", "b": "x", "y": "y"}, step_body="y = a")


class TestCompileOnce:
    """A script body is compiled when its component is built, on the
    building thread, once per distinct source and IO sets, and never while a
    collection runs."""

    @pytest.fixture
    def compiles(self, monkeypatch):
        """The threads that compiled a body, one entry per compilation."""
        dsl._parse_text.cache_clear()
        threads = []
        compile_one = dsl._compile

        def counting(*args):
            threads.append(threading.current_thread())
            return compile_one(*args)

        monkeypatch.setattr(dsl, "_compile", counting)
        return threads

    def test_equal_sources_share_one_compiled_function(self, compiles):
        first = make_component("C", C_IO, init_body=C_INIT, step_body=C_STEP)
        assert len(compiles) == 2  # the init body and the step body
        second = make_component("C", C_IO, init_body=C_INIT, step_body=C_STEP,
                                io_map_override={"alpha": "beta"})
        assert len(compiles) == 2
        assert second.step_body.ast is first.step_body.ast
        assert (dsl.compile_body(second.step_body.ast, second.step_body.io_sets)
                is dsl.compile_body(first.step_body.ast, first.step_body.io_sets))

    def test_other_io_sets_compile_their_own_function(self, compiles):
        reads_x = make_component("A", {"x": "x", "z": "z"}, step_body="z = x\n")
        x_is_local = make_component("A", {"z": "z"}, step_body="x = 1\nz = x\n")
        assert reads_x.reads == {"x"} and x_is_local.reads == set()
        assert len(compiles) == 2

    def test_compiled_at_construction_not_during_run(self, compiles):
        collection = toy_abc()
        assert len(compiles) == 4  # A, B and C's step bodies and C's init
        assert set(compiles) == {threading.current_thread()}
        collection.bind()
        assert collection.run(max_steps=5).outcome == "completed"
        oracle_run(toy_abc().components, 5)
        assert len(compiles) == 4

    def test_a_run_calls_evaluate_once_with_the_bodys_subcomponents(
            self, compiles, monkeypatch):
        scale = {"scale": lambda v: v * 2}
        comp = make_component("A", {"x": "x", "z": "z"},
                              step_body="z = scale(x)\n", subcomponents=scale)
        scale["scale"] = None  # the component keeps its own copy
        calls = []
        evaluate = dsl.evaluate

        def counting(ast, io_sets, lookup, emit, callees):
            calls.append((lookup, emit, callees))
            return evaluate(ast, io_sets, lookup, emit, callees)

        monkeypatch.setattr(dsl, "evaluate", counting)
        writes, runs = [], []
        for x in (1, 2):
            fetch, emit = {"x": x}.__getitem__, lambda *w: writes.append(w)
            runs.append((fetch, emit))
            comp.step_body.run(fetch, emit, None)
            assert len(calls) == len(runs)
        assert writes == [("z", 2), ("z", 4)]
        for (fetch, emit), (lookup, emitted, callees) in zip(runs, calls):
            assert lookup is fetch and emitted is emit
            assert callees is comp.step_body.subcomponents
        assert len(compiles) == 1

    def test_a_run_emits_each_write_once_in_order_up_to_a_raise(self):
        body = make_component("A", {"x": "x", "y": "y", "z": "z", "w": "w"},
                              step_body="z = x + 1\nt = x / y\nw = t\n").step_body
        writes = []
        with pytest.raises(DivisionByZero):
            body.run({"x": 3, "y": 0}.__getitem__,
                     lambda *w: writes.append(w), None)
        assert writes == [("z", 4)]
        writes.clear()
        body.run({"x": 3, "y": 2}.__getitem__, lambda *w: writes.append(w), None)
        assert writes == [("z", 4), ("w", 1.5)]

    def test_syntax_error_is_raised_at_every_construction(self, compiles):
        for _ in range(3):
            with pytest.raises(ScriptSyntaxError):
                make_component("A", {"z": "z"}, step_body="z = * 2\n")
        assert dsl._parse_text.cache_info().currsize == 0
        assert compiles == []


class TestAnalyseOnce:
    """A script body's tree is walked for its IO sets once per distinct
    source and io_map keys, however many components and trials build it."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """How often each (body, io keys) was walked."""
        dsl._parse_text.cache_clear()
        counts = collections.Counter()
        extract_io = dsl.extract_io

        def counting(ast, io_map):
            counts[ast, frozenset(io_map)] += 1
            return extract_io(ast, io_map)

        monkeypatch.setattr(dsl, "extract_io", counting)
        return counts

    def test_a_hundred_builds_walk_once(self, walks):
        for i in range(100):
            make_component("C", C_IO, init_body=C_INIT, step_body=C_STEP,
                           io_map_override={"alpha": f"alpha{i}"})
        assert walks == {(dsl.parse(C_INIT), frozenset(C_IO)): 1,
                         (dsl.parse(C_STEP), frozenset(C_IO)): 1}

    def test_other_io_keys_walk_again(self, walks):
        for _ in range(3):
            make_component("A", {"x": "x", "z": "z"}, step_body="z = x\n")
            make_component("A", {"x": "x", "z": "z", "w": "w"},
                           step_body="z = x\n")
        assert sorted(walks.values()) == [1, 1]

    def test_a_body_that_fails_is_walked_at_every_build(self, walks):
        for _ in range(3):
            with pytest.raises(FlowError):
                make_component("A", {"z": "z"}, step_body="z = w\n")
        assert list(walks.values()) == [3]

    def test_a_three_trial_study_walks_each_body_once(self, walks, registry,
                                                      store):
        study = study_from_descriptors(registry, "ToyStudy", seed=3)
        run_study(study, registry, store, n_trials=3)
        assert [t.state for t in study.trials] == ["complete"] * 3
        # the source's init and empty step, and ComponentF's step
        assert len(walks) == 3 and set(walks.values()) == {1}


class TestBind:
    def test_toy_graph_binding(self):
        collection = toy_abc()
        report = collection.bind()
        assert report.entry("z").producer == "A"
        assert report.entry("alpha").producer == "B"
        assert report.entry("x").producer == "C"
        assert report.entry("y").producer == "C"
        assert report.entry("x").consumers == ["A", "B"]
        assert report.entry("y").consumers == ["A"]
        assert report.entry("alpha").consumers == ["C"]

    def test_duplicate_external_write(self):
        a = make_component("A", {"x": "x"}, init_body="x = 1", step_body="x = x + 1")
        c = make_component("C", {"x": "x"}, init_body="x = 2", step_body="x = x * 2")
        collection = ComponentCollection([a, c])
        with pytest.raises(DuplicateSubject):
            collection.bind()

    def test_missing_producer(self):
        a = make_component("A", {"x": "x", "y": "y", "z": "z"},
                           step_body="temp = x * y\nz = temp")
        b = make_component("B", {"x": "x", "z": "z", "alpha": "alpha"},
                           step_body="alpha = x + z")
        collection = ComponentCollection([a, b])
        with pytest.raises(IncompleteGraph) as err:
            collection.bind()
        assert err.value.namespaces == ["x", "y"]
        with pytest.raises(RegistrySealed):  # bind runs once, even after it raised
            collection.bind()


class TestRun:
    def test_a_logger_set_after_bind_records_the_run(self):
        collection = toy_abc()
        collection.bind()
        logger = collection.logger = TraceLogger()
        assert collection.run(max_steps=3).outcome == "completed"
        assert logger.sequences(collection.components)["z"] == [1, 4, 64]

    def test_toy_trace_matches_hand_check(self):
        logger = TraceLogger()
        collection = toy_abc(logger=logger)
        collection.bind()
        report = collection.run(max_steps=3)
        assert report.outcome == "completed"
        assert report.steps == {"A": 3, "B": 3, "C": 3}
        trace = logger.sequences(collection.components)
        assert trace["alpha"] == [2, 8, 80]
        assert trace["x"] == [1, 4, 16, 160]
        assert trace["y"] == [1, 1.0, 4.0, 40.0]
        assert trace["z"] == [1, 4, 64]

    def test_remapped_toy_with_interceptor(self, registry):
        logger = TraceLogger()
        collection = build_experiment(registry, "ToyExperiment", logger=logger)
        report = collection.run(max_steps=2)
        assert report.outcome == "completed"
        trace = logger.sequences(collection.components)
        assert trace["alpha"] == [2, 24]
        assert trace["x"] == [1, 8, 96]

    def test_missing_init_times_out_with_blocked_report(self):
        collection = toy_abc(step_timeout=0.3, with_init=False)
        collection.bind()
        start = time.monotonic()
        report = collection.run(max_steps=3)
        elapsed = time.monotonic() - start
        assert report.outcome == "timeout"
        assert set(report.blocked_on) == {
            ("A", "x", "observe"), ("B", "x", "observe"), ("C", "alpha", "observe"),
        }
        assert elapsed < 0.3 + 1.0

    def test_a_component_busy_in_its_body_is_not_named(self):
        # Q publishes y twice, then sleeps in its third body past the
        # timeout; P (y -> x) and A (reads x) time out waiting for it
        calls = []

        def q_body(inputs, ctx):
            calls.append(None)
            if len(calls) == 3:
                time.sleep(1.0)
            return {"y": len(calls)}

        io = {"x": "x", "y": "y"}
        q = make_component("Q", io, step_body=NativeBody(q_body, writes={"y"}))
        p = make_component("P", io, step_body=NativeBody(
            lambda inputs, ctx: {"x": inputs["y"]}, reads={"y"}, writes={"x"}))
        a = make_component("A", io, step_body=NativeBody(
            lambda inputs, ctx: None, reads={"x"}))
        collection = ComponentCollection([q, p, a], step_timeout=0.3)
        collection.bind()
        report = collection.run()
        assert report.outcome == "timeout"
        assert report.steps == {"Q": 2, "P": 2, "A": 2}
        assert report.blocked_on == [("A", "x", "observe"), ("P", "y", "observe")]

    def test_body_error_poisons_collection(self):
        a = make_component("A", {"x": "x", "z": "z"}, step_body="z = 1 / x\n")
        c = make_component("C", {"x": "x", "z": "z"},
                           init_body="x = 0", step_body="x = z - z\n")
        collection = ComponentCollection([a, c], step_timeout=5.0)
        collection.bind()
        report = collection.run(max_steps=50)
        assert report.outcome == "error"
        assert "0" in str(report.error)

    def test_a_failure_stops_a_component_with_no_channel_op(self):
        def fault(inputs, ctx):
            raise ValueError("body fault")

        idle = make_component("I", {}, step_body=NativeBody(lambda inputs, ctx: None))
        faulty = make_component("F", {}, step_body=NativeBody(fault))
        collection = ComponentCollection([idle, faulty], step_timeout=0.5)
        collection.bind()
        reports = []
        runner = threading.Thread(
            target=lambda: reports.append(collection.run()), daemon=True)
        runner.start()
        runner.join(collection.step_timeout + 1)
        assert not runner.is_alive()
        assert reports[0].outcome == "error"
        assert "body fault" in str(reports[0].error)

    def test_a_non_scalar_write_ends_the_run_in_error(self):
        producer = make_component("P", {"x": "x"}, step_body=NativeBody(
            lambda inputs, ctx: {"x": [1, 2]}, writes={"x"}))
        consumer = make_component("C", {"x": "x", "y": "y"}, step_body="y = x")
        collection = ComponentCollection([producer, consumer], step_timeout=5.0)
        collection.bind()
        report = collection.run(max_steps=3)
        assert report.outcome == "error"
        assert isinstance(report.error, ValueTypeError)
        assert "got list" in str(report.error)

    def test_collection_not_reusable(self):
        collection = toy_abc()
        collection.bind()
        collection.run(max_steps=1)
        with pytest.raises(RuntimeError):
            collection.run(max_steps=1)


class TestSignalStop:
    def test_stop_before_run(self):
        collection = toy_abc()
        collection.bind()
        collection.signal_stop()
        report = collection.run()
        assert report.outcome == "stopped"
        assert all(steps == 0 for steps in report.steps.values())

    def test_stop_mid_run_bounded_by_one_step(self):
        logger = TraceLogger()
        collection = toy_abc(step_timeout=5.0, logger=logger)
        collection.bind()
        stopper = {}

        def stop_after_first_alpha():
            while ("B", "alpha") not in logger.records:
                time.sleep(0.001)
            collection.signal_stop()
            collection.signal_stop()  # idempotent
            stopper["seen"] = len(logger.records[("B", "alpha")])

        t = threading.Thread(target=stop_after_first_alpha)
        t.start()
        report = collection.run()
        t.join()
        assert report.outcome == "stopped"
        seen = stopper["seen"]
        # boundary race is bounded by one step per component
        for steps in report.steps.values():
            assert steps <= seen + 2

    def test_stop_before_bind_releases_an_init_wait(self):
        # an init body may not read, so the wait is a step's: A and P each
        # wait on the other's first value, which neither publishes
        p = make_component("P", {"x": "x", "y": "y"}, step_body="x = y")
        a = make_component("A", {"x": "x", "y": "y"}, step_body="y = x")
        collection = ComponentCollection([p, a], step_timeout=5.0)
        collection.signal_stop()
        collection.bind()
        start = time.monotonic()
        report = collection.run()
        assert report.outcome == "stopped"
        assert time.monotonic() - start < 1.5

    def test_stop_with_every_worker_parked(self):
        collection = toy_abc(step_timeout=5.0, with_init=False)
        collection.bind()
        timer = threading.Timer(0.2, collection.signal_stop)
        start = time.monotonic()
        timer.start()
        report = collection.run()
        elapsed = time.monotonic() - start
        timer.join()
        assert report.outcome == "stopped"
        assert report.blocked_on == []
        assert elapsed < 1.5  # well under step_timeout

    def test_a_second_collection_leaves_the_first_its_channels(self):
        first = toy_abc(step_timeout=2.0, with_init=False)
        second = ComponentCollection(first.components, step_timeout=2.0)
        first.bind()
        second.bind()
        timer = threading.Timer(0.2, first.signal_stop)
        start = time.monotonic()
        timer.start()
        report = first.run()
        elapsed = time.monotonic() - start
        timer.join()
        assert report.outcome == "stopped"
        assert elapsed < 1.5
        with pytest.raises(RegistrySealed):  # a collection binds once
            first.bind()

    def test_stopped_run_logs_a_prefix_of_the_oracle(self, registry, store):
        run = open_run(store, "ToyExperimentPlain")
        first_alpha = threading.Event()

        class Tap:  # the store logger, and an event set by the first alpha
            def proxy(self, name):
                proxy = run.proxy(name)

                def record(tag, value):
                    proxy.record(tag, value)
                    if tag == "alpha":
                        first_alpha.set()
                return SimpleNamespace(record=record)

        collection = build_experiment(registry, "ToyExperimentPlain",
                                      logger=Tap())

        def stop_after_first_alpha():
            first_alpha.wait(collection.step_timeout)
            collection.signal_stop()

        stopper = threading.Thread(target=stop_after_first_alpha)
        stopper.start()
        report = collection.run()
        stopper.join()
        run.close(outcome=report.outcome)
        assert report.outcome == "stopped"
        # a publish that lands just before the poison is logged, though its
        # step is not counted: two more oracle steps cover it
        oracle = oracle_run(build_experiment(registry, "ToyExperimentPlain")
                            .components, max(report.steps.values()) + 2)
        logged = query(store, run_ids=[run.run_id])
        assert logged
        for comp in collection.components:
            for internal in comp.writes:
                values = [r.value for r in logged
                          if (r.component, r.tag) == (comp.name, internal)]
                assert values == \
                    oracle.sequences[comp.io_map[internal]][:len(values)]


class TestOracleEquivalence:
    @pytest.mark.parametrize("graph", ["ToyExperimentPlain", "ToyExperimentF",
                                       "native_feeds_scripts",
                                       "init_only_source"])
    def test_named_graph(self, registry, store, graph):
        run = open_run(store, graph)
        collection = bound_graph(graph, registry, logger=run)
        report = run_before_deadline(collection, max_steps=10)
        run.close()
        assert report.outcome == "completed"
        oracle = oracle_run(bound_graph(graph, registry).components, 10)
        assert report.steps == oracle.steps
        logged = query(store, run_ids=[run.run_id])
        for comp in collection.components:  # every write is logged once
            for internal in comp.writes:
                assert [r.value for r in logged
                        if (r.component, r.tag) == (comp.name, internal)
                        ] == oracle.sequences[comp.io_map[internal]]
        if graph == "native_feeds_scripts":  # and so is each ctx.record
            assert [r.value for r in logged if r.tag == "seen"] == \
                oracle.sequences["fb"][:10]

    @pytest.mark.parametrize("returned", ["y", "x"],
                             ids=["outside-io_map", "a-read-name"])
    def test_an_undeclared_native_write_is_a_flow_error_on_both_paths(
            self, returned):
        def components():
            source = make_component("S", {"x": "x"}, init_body="x = 1",
                                    step_body="x = x + 1")
            sink = make_component("N", {"x": "x", "z": "z"}, step_body=NativeBody(
                lambda inputs, ctx: {"z": inputs["x"], returned: 0},
                reads={"x"}, writes={"z"}))
            return [source, sink]

        message = (f"native body returned {returned!r}, which is not among "
                   f"its declared writes (z)")
        collection = ComponentCollection(components())
        collection.bind()
        report = run_before_deadline(collection, max_steps=3)
        assert report.outcome == "error"
        assert type(report.error) is FlowError
        assert str(report.error) == message
        with pytest.raises(FlowError) as err:
            oracle_run(components(), 3)
        assert type(err.value) is FlowError
        assert str(err.value) == message

    @pytest.mark.parametrize("body", ["init", "step"])
    def test_a_body_emits_only_its_own_writes_on_both_paths(self, body):
        """A component writes x from its init and y from its step; neither
        body may emit the other's write."""
        outputs = {"init": {"x": 1}, "step": {"y": 2}}
        own, stray = ("x", "y") if body == "init" else ("y", "x")
        outputs[body][stray] = 99

        def components():
            init = NativeBody(lambda inputs, ctx: outputs["init"], writes={"x"})
            step = NativeBody(lambda inputs, ctx: outputs["step"], writes={"y"})
            return [make_component("A", {"x": "x", "y": "y"}, init_body=init,
                                   step_body=step)]

        message = (f"native body returned {stray!r}, which is not among its "
                   f"declared writes ({own})")
        collection = ComponentCollection(components())
        collection.bind()
        report = run_before_deadline(collection, max_steps=3)
        assert report.outcome == "error"
        assert type(report.error) is FlowError
        assert str(report.error) == message
        with pytest.raises(FlowError) as err:
            oracle_run(components(), 3)
        assert type(err.value) is FlowError
        assert str(err.value) == message

    @pytest.mark.parametrize("seed", range(20))
    def test_random_graphs(self, seed):
        collection, oracle_components, logger = build_twin(31400 + seed)
        oracle = oracle_run(oracle_components, 50)
        report = collection.run(max_steps=50)
        assert report.outcome == "completed"
        assert report.steps == oracle.steps
        assert logger.sequences(collection.components) == oracle.sequences


class TestWideAndLong:
    """Wide fan-out and long runs: every handoff is woken, none times out."""

    def test_dsl_star_matches_oracle(self):
        logger = TraceLogger()
        collection = ComponentCollection(dsl_star(12), step_timeout=10.0,
                                         logger=logger)
        collection.bind()
        assert len(collection.bind_report.entry("p").consumers) == 12
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often to expose races
        try:
            report = run_before_deadline(collection, max_steps=300)
        finally:
            sys.setswitchinterval(interval)
        assert report.outcome == "completed"
        assert logger.sequences(collection.components) == \
            oracle_run(dsl_star(12), 300).sequences

    def test_two_thousand_step_random_graph_matches_oracle(self):
        collection, oracle_components, logger = build_twin(31500, n_components=5)
        report = run_before_deadline(collection, max_steps=2000)
        assert report.outcome == "completed"
        assert logger.sequences(collection.components) == \
            oracle_run(oracle_components, 2000).sequences

    def test_fanout_sixteen_deadlock_names_every_blocked_component(self):
        rounds = []

        def produce(inputs, ctx):
            rounds.append(None)
            # after 20 rounds the gate stays shut: the consumers, which fetch
            # gate before s (native reads go in sorted order), wait on it
            # while the producer, CAPACITY values of s ahead of them, waits
            # for them to read the 21st
            if len(rounds) <= 20:
                return {"s": len(rounds), "gate": len(rounds)}
            return {"s": len(rounds)}

        io = {"s": "s", "gate": "gate"}
        components = [make_component(
            "P", io, step_body=NativeBody(produce, writes={"s", "gate"}))]
        components += [
            make_component(f"C{i:02d}", io, step_body=NativeBody(
                lambda inputs, ctx: None, reads={"gate", "s"}))
            for i in range(16)
        ]
        collection = ComponentCollection(components, step_timeout=0.5)
        collection.bind()
        start = time.monotonic()
        report = collection.run()
        elapsed = time.monotonic() - start
        assert report.outcome == "timeout"
        assert elapsed < 0.5 + 1.0
        # the deadlock comes where the gate shuts, not at a missed wake-up
        assert report.steps == {
            "P": 20 + CAPACITY, **{f"C{i:02d}": 20 for i in range(16)}}
        assert report.blocked_on == sorted(
            [("P", "s", "publish")]
            + [(f"C{i:02d}", "gate", "observe") for i in range(16)]
        )


def gated_pair(producer_steps, consumer_steps):
    """P writes s every step and gate every other step; C reads both, so P
    runs producer_steps - consumer_steps values of s ahead of C."""

    count = []

    def produce(inputs, ctx):
        count.append(None)
        n = len(count)
        return {"s": n, "gate": n} if n % 2 else {"s": n}

    io = {"s": "s", "gate": "gate"}
    return [
        make_component("P", io, step_body=NativeBody(
            produce, writes={"s", "gate"}), max_steps=producer_steps),
        make_component("C", io, step_body=NativeBody(
            lambda inputs, ctx: None, reads={"s", "gate"}),
            max_steps=consumer_steps),
    ]


class TestCapacityAgreement:
    """The runtime and oracle_run model the same channel capacity: a graph
    that needs the whole ring completes on both with the same sequences, and
    one that needs more gives OracleStuck and a runtime timeout."""

    def test_a_graph_that_needs_the_whole_ring_completes_like_the_oracle(self):
        logger = TraceLogger()
        collection = ComponentCollection(
            gated_pair(2 * CAPACITY, CAPACITY), step_timeout=5.0, logger=logger)
        collection.bind()
        report = run_before_deadline(collection)
        oracle = oracle_run(gated_pair(2 * CAPACITY, CAPACITY), 100)
        assert report.outcome == "completed"
        assert report.steps == oracle.steps == {"P": 2 * CAPACITY, "C": CAPACITY}
        assert logger.sequences(collection.components) == oracle.sequences
        assert oracle.sequences["s"] == list(range(1, 2 * CAPACITY + 1))

    def test_a_graph_that_needs_one_slot_more_deadlocks_on_both(self):
        with pytest.raises(OracleStuck) as err:
            oracle_run(gated_pair(2 * CAPACITY + 1, CAPACITY), 100)
        assert err.value.components == ["P"]
        collection = ComponentCollection(
            gated_pair(2 * CAPACITY + 1, CAPACITY), step_timeout=0.3)
        collection.bind()
        report = collection.run()
        assert report.outcome == "timeout"
        assert report.steps == {"P": 2 * CAPACITY, "C": CAPACITY}
        assert report.blocked_on == [("P", "s", "publish")]

    def test_a_graph_that_deadlocks_at_any_capacity_does_so_on_both(self):
        def cycle():
            io = {"x": "x", "y": "y"}
            return [make_component(name, io, step_body=f"{out} = {src} + 1")
                    for name, out, src in (("A", "x", "y"), ("B", "y", "x"))]

        with pytest.raises(OracleStuck) as err:
            oracle_run(cycle(), 10)
        assert err.value.components == ["A", "B"]
        collection = ComponentCollection(cycle(), step_timeout=0.3)
        collection.bind()
        report = collection.run(max_steps=10)
        assert report.outcome == "timeout"
        assert report.steps == {"A": 0, "B": 0}
        assert report.blocked_on == [("A", "y", "observe"), ("B", "x", "observe")]


class TestIsolation:
    def test_native_body_swap_preserves_sequences(self):
        scripted_log = TraceLogger()
        scripted = toy_abc(logger=scripted_log)
        scripted.bind()
        scripted.run(max_steps=5)

        native = NativeBody(
            fn=lambda inputs, ctx: {"z": inputs["x"] * inputs["y"]},
            reads={"x", "y"}, writes={"z"},
        )
        swapped_log = TraceLogger()
        swapped = toy_abc(a_body=native, logger=swapped_log)
        swapped.bind()
        swapped.run(max_steps=5)
        assert swapped_log.sequences(swapped.components) == \
            scripted_log.sequences(scripted.components)

    def test_native_body_freezes_its_io_and_fetches_in_sorted_order(self):
        reads = {"y", "x", "w"}
        native = NativeBody(fn=lambda inputs, ctx: {"z": list(inputs)},
                            reads=reads, writes=["z"])
        reads.add("late")  # the caller's set is not the body's
        assert native.reads == frozenset({"w", "x", "y"})
        assert native.writes == frozenset({"z"})
        fetched, emitted = [], []
        for _ in range(2):
            native.run(lambda name: fetched.append(name) or 0,
                       lambda name, value: emitted.append(value), None)
        assert fetched == ["w", "x", "y"] * 2
        assert emitted == [["w", "x", "y"]] * 2

    def test_remap_leaves_script_text_untouched(self, registry):
        plain = build_experiment(registry, "ToyExperimentPlain")
        remapped = build_experiment(registry, "ToyExperiment")
        c_plain = next(c for c in plain.components if c.name == "C")
        c_remap = next(c for c in remapped.components if c.name == "C")
        assert c_plain.step_source == c_remap.step_source
        assert c_plain.init_source == c_remap.init_source
        assert c_plain.io_map != c_remap.io_map


class TestBoundedTermination:
    def test_run_returns_within_budget(self):
        collection = toy_abc(step_timeout=0.5, with_init=False)
        collection.bind()
        start = time.monotonic()
        collection.run(max_steps=100)
        assert time.monotonic() - start < 0.5 + 5.0


class TestFinishedCollection:
    """A finished run keeps no copy of its values; its logger has them."""

    def test_freed_by_refcount_alone(self, registry):
        gc.disable()
        try:
            collection = build_experiment(registry, "ToyExperimentPlain")
            assert collection.run(max_steps=10).outcome == "completed"
            ref = weakref.ref(collection)
            registry_ref = weakref.ref(collection.registry)
            del collection
            assert ref() is None
            assert registry_ref() is None
        finally:
            gc.enable()

    def test_holds_no_memory_per_step(self, registry):
        tracemalloc.start()
        try:
            collection = build_experiment(registry, "ToyExperimentPlain")
            bound = tracemalloc.get_traced_memory()[0]
            report = collection.run(max_steps=2000)
            held = tracemalloc.get_traced_memory()[0] - bound
        finally:
            tracemalloc.stop()
        assert report.outcome == "completed"
        assert held < 32 * 1024
