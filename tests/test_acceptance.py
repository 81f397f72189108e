"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible with ``pytest -s``), with wall-clock budgets asserted directly.
"""

import contextlib
import random
import threading
import time

import pytest

import gatedflow.store
from gatedflow import (
    ComponentCollection,
    build_experiment,
    collect_hyperparameters,
    make_component,
    oracle_run,
)
from gatedflow.dsl import evaluate, extract_io, parse, to_source
from gatedflow.errors import DuplicateSubject, IncompleteGraph
from gatedflow.registry import HyperparameterDescriptor
from gatedflow.store import DirectoryStore, merge_spool, open_run
from gatedflow.study import (
    SearchSpace,
    Study,
    best_trial,
    build_search_space,
    run_study,
    sample,
    study_from_descriptors,
)
from gatedflow.viz import aggregate, export_csv, read_csv, render_svg

import graphgen
import test_dsl
from tracelog import TraceLogger


@contextlib.contextmanager
def criterion(name, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL: {name}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        f"{name}: {elapsed:.2f}s exceeded the {budget_seconds}s budget"
    )
    print(f"PASS: {name} ({elapsed:.2f}s)")


def test_toy_trace_equivalence(registry):
    with criterion("toy-trace equivalence", 1.0):
        logger = TraceLogger()
        collection = build_experiment(registry, "ToyExperimentPlain",
                                      logger=logger)
        oracle = oracle_run(
            build_experiment(registry, "ToyExperimentPlain").components, 10
        )
        report = collection.run(max_steps=10)
        assert report.outcome == "completed"
        trace = logger.sequences(collection.components)
        assert trace == oracle.sequences
        assert trace["alpha"][:3] == [2, 8, 80]


def test_remap_transparency(registry):
    with criterion("remap transparency", 1.0):
        logger = TraceLogger()
        plain = build_experiment(registry, "ToyExperimentPlain")
        remapped = build_experiment(registry, "ToyExperiment", logger=logger)
        c_plain = next(c for c in plain.components if c.name == "C")
        c_remap = next(c for c in remapped.components if c.name == "C")
        assert c_plain.step_source == c_remap.step_source
        assert c_plain.init_source == c_remap.init_source
        oracle = oracle_run(
            build_experiment(registry, "ToyExperiment").components, 10
        )
        report = remapped.run(max_steps=10)
        assert report.outcome == "completed"
        trace = logger.sequences(remapped.components)
        assert trace == oracle.sequences
        assert trace["alpha"][:2] == [2, 24]


def test_randomised_graph_equivalence():
    with criterion("randomised graph equivalence (20 graphs)", 30.0):
        for seed in range(20):
            collection, oracle_components, logger = graphgen.build_twin(
                52000 + seed)
            oracle = oracle_run(oracle_components, 50)
            report = collection.run(max_steps=50)
            assert report.outcome == "completed", f"graph seed {seed}"
            assert logger.sequences(collection.components) == \
                oracle.sequences, f"graph seed {seed}"


def test_failure_modes():
    with criterion("failure mode: duplicate subject", 10.0):
        a = make_component("A", {"x": "x"}, init_body="x = 1",
                           step_body="x = x + 1")
        b = make_component("B", {"x": "x"}, init_body="x = 2",
                           step_body="x = x * 2")
        with pytest.raises(DuplicateSubject):
            ComponentCollection([a, b]).bind()

    with criterion("failure mode: missing producer", 10.0):
        a = make_component("A", {"x": "x", "y": "y", "z": "z"},
                           step_body="temp = x * y\nz = temp")
        with pytest.raises(IncompleteGraph) as err:
            ComponentCollection([a]).bind()
        assert err.value.namespaces == ["x", "y"]

    with criterion("failure mode: deadlock timeout with blocked report", 10.0):
        step_timeout = 0.5
        a = make_component("A", {"x": "x", "y": "y", "z": "z"},
                           step_body="temp = x * y\nz = temp")
        b = make_component("B", {"x": "x", "z": "z", "alpha": "alpha"},
                           step_body="alpha = x + z")
        c = make_component("C", {"x": "x", "y": "y", "alpha": "alpha"},
                           step_body="temp = alpha * 2\nx = temp\n"
                                     "temp = alpha / 2\ny = temp")
        collection = ComponentCollection([a, b, c], step_timeout=step_timeout)
        collection.bind()
        start = time.monotonic()
        report = collection.run(max_steps=5)
        elapsed = time.monotonic() - start
        assert report.outcome == "timeout"
        assert elapsed < step_timeout + 1.0
        assert {name for name, _, _ in report.blocked_on} == {"A", "B", "C"}


def test_hyperparameter_collection(registry):
    with criterion("hyperparameter collection", 1.0):
        collected = collect_hyperparameters(registry, "ToyExperimentF")
        assert [name for name, _ in collected] == [
            "ComponentF.SubcomponentA.scaler",
            "ComponentF.SubcomponentB.scaler",
        ]
        by_name = dict(collected)
        assert by_name["ComponentF.SubcomponentA.scaler"].bounds == (0.1, 1.0)
        assert by_name["ComponentF.SubcomponentB.scaler"].bounds == (0.2, 0.5)
        # stripping bounds moves the descriptor out of the search space,
        # leaving its default fixed
        space = build_search_space([
            ("ComponentF.SubcomponentA.scaler",
             HyperparameterDescriptor("scaler", "real", default=0.1)),
        ])
        assert space.dimensions == []
        assert space.fixed == {"ComponentF.SubcomponentA.scaler": 0.1}


def test_study_correctness(registry, tmp_path):
    with criterion("study correctness (200 trials + seeded re-run)", 20.0):
        first = study_from_descriptors(registry, "ToyStudy", seed=7,
                                       study_id="accept-a")
        run_study(first, registry, DirectoryStore(tmp_path / "a"), n_trials=200)
        best = best_trial(first)
        assert best.state == "complete"
        assert best.objective <= 0.01  # analytic optimum is 0

        second = study_from_descriptors(registry, "ToyStudy", seed=7,
                                        study_id="accept-b")
        run_study(second, registry, DirectoryStore(tmp_path / "b"),
                  n_trials=200, parallelism=1)
        assert [t.assignment for t in first.trials] == \
               [t.assignment for t in second.trials]
        assert [t.objective for t in first.trials] == \
               [t.objective for t in second.trials]


def test_sampler_bounds():
    with criterion("sampler bounds containment (1000/dimension)", 1.0):
        space = SearchSpace(dimensions=[
            HyperparameterDescriptor("lr", "real", bounds=(1e-4, 1e-1),
                                     log_scale=True),
            HyperparameterDescriptor("ratio", "real", bounds=(0.1, 1.0)),
            HyperparameterDescriptor("width", "integer", bounds=(2, 9)),
            HyperparameterDescriptor("mode", "categorical", choices=["a", "b", "c"]),
        ])
        study = Study("X", space, seed=17)
        for _ in range(1000):
            assignment = sample(study, [])
            for dim in space.dimensions:
                assert dim.contains(assignment[dim.name]), dim.name


def test_store_no_loss_and_failover(registry, tmp_path, monkeypatch):
    with criterion("store no-loss (10000 records, chunk 256)", 30.0):
        store = DirectoryStore(tmp_path / "noloss")
        monkeypatch.setattr(gatedflow.store, "CHUNK", 256)
        run = open_run(store, "Accept")
        proxy = run.proxy("A")
        for i in range(10000):
            proxy.record("metric", float(i))
        run.close()
        records = store.read_records(run.run_id)
        assert len(records) == 10000
        assert len({r.key for r in records}) == 10000
        assert sorted(r.step for r in records) == list(range(10000))

    with criterion("store failover (mid-run outage, merged union)", 30.0):
        store = DirectoryStore(tmp_path / "primary")
        spool = DirectoryStore(tmp_path / "spool")
        failing = {"on": False}
        real = DirectoryStore.append_records

        def flaky(self_, run_id, recs):
            if failing["on"] and self_.root == store.root:
                raise OSError("primary offline")
            return real(self_, run_id, recs)

        monkeypatch.setattr(DirectoryStore, "append_records", flaky)
        with monkeypatch.context() as policy:
            policy.setattr(gatedflow.store, "INTERVAL", 0.02)
            run = open_run(store, "Accept", spool=spool)
            proxy = run.proxy("A")
            for i in range(10000):
                if i == 4000:
                    failing["on"] = True
                    time.sleep(0.1)  # let buffered chunks hit the dead primary
                proxy.record("metric", float(i))
            run.close()
        failing["on"] = False
        assert run.spooled_records > 0
        report = merge_spool(store, spool)
        assert report.skipped == 0
        merged = store.read_records(run.run_id)
        assert len(merged) == 10000
        assert len({r.key for r in merged}) == 10000

    with criterion("store non-interference (stalled writer)", 30.0):
        # the writer's first append blocks from before the run starts until
        # after the run has returned, so the run completes only if it never
        # waits on the writer
        entered, released = threading.Event(), threading.Event()

        def stalled(self_, run_id, lines):
            entered.set()
            if not released.wait(10.0):  # the run waited for this append
                raise OSError("the writer stalled the run")
            return real(self_, run_id, lines)

        def complete(run, stall):
            warmup = run.proxy("Warmup")
            for i in range(64):  # one full chunk wakes the writer
                warmup.record("x", float(i))
            assert not stall or entered.wait(10.0), "the writer took no chunk"
            collection = build_experiment(registry, "ToyExperimentPlain",
                                          logger=run)
            assert collection.run(max_steps=400).outcome == "completed"

        def logged(logger):
            return [(r.component, r.tag, r.step, r.value) for r in
                    logger.store.read_records(logger.run_id)]

        monkeypatch.setattr(DirectoryStore, "append_records", real)
        monkeypatch.setattr(gatedflow.store, "CHUNK", 64)
        plain = open_run(DirectoryStore(tmp_path / "unstalled"), "Accept")
        try:
            complete(plain, stall=False)
        finally:
            plain.close()
        monkeypatch.setattr(DirectoryStore, "append_records", stalled)
        run = open_run(DirectoryStore(tmp_path / "stalled"), "Accept")
        try:
            complete(run, stall=True)
            assert logged(run) == []  # the writer is still in its first append
        finally:  # release and join the writer on every path
            released.set()
            run.close()
        monkeypatch.setattr(DirectoryStore, "append_records", real)
        assert len(logged(plain)) > 64  # more than the blocked chunk
        assert sorted(logged(run)) == sorted(logged(plain))

def test_dsl_conformance():
    with criterion("DSL conformance", 10.0):
        rng = random.Random(424242)
        for _ in range(500):
            ast = test_dsl.random_program(rng)
            assert parse(to_source(ast)) == ast

        sets = extract_io(parse("temp = x * y\nz = temp"),
                          {"x": "x", "y": "y", "z": "z"})
        assert (sets.reads, sets.writes) == ({"x", "y"}, {"z"})
        sets = extract_io(parse("alpha = x + z"),
                          {"x": "x", "z": "z", "alpha": "alpha"})
        assert (sets.reads, sets.writes) == ({"x", "z"}, {"alpha"})
        sets = extract_io(
            parse("temp = alpha * 2\nx = temp\ntemp = alpha / 2\ny = temp"),
            {"x": "x", "y": "y", "alpha": "alpha"})
        assert (sets.reads, sets.writes) == ({"alpha"}, {"x", "y"})
        sets = extract_io(parse("beta = alpha * 2"),
                          {"alpha": "alpha", "beta": "beta"})
        assert (sets.reads, sets.writes) == ({"alpha"}, {"beta"})

        checked = 0
        while checked < 1000:
            expr = test_dsl.random_expr(rng, 5)
            values = {"a": rng.randint(1, 9),
                      "b": round(rng.uniform(0.5, 4.0), 4),
                      "c": rng.randint(1, 5)}
            try:
                expected = test_dsl.eval_tree(expr, values)
            except ZeroDivisionError:
                continue
            from gatedflow.dsl import to_source_expr
            ast = parse("r = " + to_source_expr(expr))
            writes = []
            evaluate(ast, extract_io(ast, {"a": "a", "b": "b", "c": "c", "r": "r"}),
                     values.__getitem__,
                     lambda name, value: writes.append((name, value)))
            assert writes[0][1] == expected
            checked += 1


def test_export_determinism(registry, tmp_path):
    with criterion("export determinism", 5.0):
        store = DirectoryStore(tmp_path / "export")
        for seed in range(3):
            run = open_run(store, "Toy", seed=seed)
            collection = build_experiment(registry, "ToyExperimentPlain",
                                          logger=run)
            report = collection.run(max_steps=5)
            assert report.outcome == "completed"
            run.close()
        from gatedflow.store import query
        records = query(store, tag="alpha")
        series, = aggregate(records)

        by_step = {}
        for rec in records:
            by_step.setdefault(rec.step, []).append(rec.value)
        for step, mean, std, n in zip(series.steps, series.mean, series.std,
                                      series.n):
            values = by_step[step]
            bf_mean = sum(values) / len(values)
            bf_var = sum((v - bf_mean) ** 2 for v in values) / len(values)
            assert n == len(values)
            assert mean == pytest.approx(bf_mean, rel=1e-12)
            assert std == pytest.approx(bf_var ** 0.5, rel=1e-9, abs=1e-15)

        csv_path = tmp_path / "series.csv"
        export_csv(series, csv_path)
        back = read_csv(csv_path)
        assert back.steps == series.steps
        assert back.mean == series.mean
        assert back.std == series.std
        assert back.n == series.n

        assert render_svg([series]) == render_svg([series])
