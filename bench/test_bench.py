"""Tests of the benchmark's own helpers: python3 -m pytest bench/test_bench.py"""

import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gatedflow as gf  # noqa: E402
import gatedflow.dsl  # noqa: E402
import pytest  # noqa: E402

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import (  # noqa: E402
    Span,
    Tracer,
    late_over_early,
    percentile,
    self_times,
    tail,
    tail_level,
)


def span(i, start, end, parent=None, thread=1, name="x"):
    return Span(i, name, start, end, thread, parent)


class TestSelfTime:
    def test_children_are_subtracted_once_where_they_overlap(self):
        spans = [span(1, 0.0, 10.0), span(2, 1.0, 3.0, parent=1),
                 span(3, 2.0, 5.0, parent=1), span(4, 1.5, 2.0, parent=2)]
        own = self_times(spans)
        assert own[1] == pytest.approx(6.0)  # 1..5 covered by 2 and 3
        assert own[2] == pytest.approx(1.5)  # grandchild 4 counts for 2 only
        assert own[3] == pytest.approx(3.0)
        assert own[4] == pytest.approx(0.5)

    def test_child_outside_its_parent_is_clipped(self):
        own = self_times([span(1, 0.0, 2.0), span(2, 1.0, 4.0, parent=1)])
        assert own[1] == pytest.approx(1.0)

    def test_tracer_parents_stay_on_their_own_thread(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda: None)
        outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
        threads = [threading.Thread(target=outer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        by_id = {s.id: s for s in tracer.spans}
        inners = [s for s in tracer.spans if s.name == "inner"]
        assert len(inners) == 12
        for s in inners:
            parent = by_id[s.parent]
            assert parent.name == "outer" and parent.thread == s.thread
            assert parent.start <= s.start <= s.end <= parent.end
        own = self_times(tracer.spans)
        for s in tracer.spans:
            assert 0.0 <= own[s.id] <= s.duration


class TestPercentile:
    def test_nearest_rank(self):
        samples = list(range(1, 1001))
        assert percentile(samples, 50) == 500
        assert percentile(samples, 99) == 990
        assert percentile([7.0], 99) == 7.0

    @pytest.mark.parametrize("n, cap, level", [
        (19, 100, None), (20, 100, 50.0), (99, 100, 50.0), (100, 100, 90.0),
        (999, 100, 90.0), (1000, 100, 99.0), (10000, 100, 99.9),
        (10000, 99, 99.0),
    ])
    def test_highest_level_with_ten_samples_beyond(self, n, cap, level):
        assert tail_level(n, cap) == level

    def test_tail_reports_level_and_value(self):
        assert tail(list(range(1, 1001)), cap=99.0) == (99.0, 990)
        assert tail([1.0] * 5) == (None, None)


class TestLateOverEarly:
    def test_growing_chunks(self):
        chunks = [((i + 1) * 0.01, 10) for i in range(20)]
        # first tenth: chunks 1-2, last tenth: chunks 19-20
        assert late_over_early(chunks) == pytest.approx(0.39 / 0.03)

    def test_per_record_not_per_chunk(self):
        # a short last chunk (the flush at close) costs as much per record
        assert late_over_early([(1.0, 100)] * 9 + [(0.1, 10)]) == pytest.approx(1.0)

    def test_flat(self):
        assert late_over_early([(0.5, 256)]) == pytest.approx(1.0)


class TestSeed:
    def test_same_seed_same_graph(self):
        assert wl.generate_graph(1) == wl.generate_graph(1)
        assert wl.initial_values(1, 0) == wl.initial_values(1, 0)
        assert wl.generate_graph(1) != wl.generate_graph(2)

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_graph_shape(self, seed):
        graph = wl.generate_graph(seed)
        assert len(graph) == wl.N_COMPONENTS
        assert sum(len(node.reads) for node in graph) == (
            wl.N_COMPONENTS + wl.HUBS * wl.HUB_EXTRA_READERS)
        for i, node in enumerate(graph):
            assert node.reads[0] == graph[i - 1].output
            assert node.output not in node.reads
            assert len(set(node.reads)) == len(node.reads)
            assert len(node.step.splitlines()) == wl.STATEMENTS
        fanouts = sorted(sum(node.output in other.reads for other in graph)
                         for node in graph)
        assert fanouts == [1] * (wl.N_COMPONENTS - wl.HUBS) + [
            1 + wl.HUB_EXTRA_READERS] * wl.HUBS
        def operators(g):
            return [sum(node.step.count(op) for node in g) for op in "+-*"]

        assert operators(graph) == operators(wl.generate_graph(1))
        comps = wl.LoggedPipeline(seed, "unused").components(0)
        for node, comp in zip(graph, comps):
            assert comp.reads == set(node.reads) and comp.writes == {node.output}

    def test_same_seed_same_study_assignments(self, tmp_path):
        def assignments(seed, where):
            sweep = wl.StudySweep(seed, str(where))
            registry = gf.register_builtin()
            study = sweep.new_study(registry, 0)
            gf.run_study(study, registry, gf.DirectoryStore(where), n_trials=5)
            return [t.assignment for t in sorted(study.trials,
                                                 key=lambda t: t.trial_id)]

        first = assignments(1, tmp_path / "a")
        assert first == assignments(1, tmp_path / "b")
        assert first != assignments(2, tmp_path / "c")


def test_measure_times_only_units_after_warmup():
    class Counting:
        def unit(self, index, out):
            out.attempted += 1
            out.timed(10 * (index + 1), 1.0)

    before = []
    out = wl.measure(Counting(), 0.0, warmup=1, before_unit=lambda: before.append(1))
    assert (out.attempted, out.timed_runs, len(before)) == (2, 1, 2)
    assert out.work_per_s == 20


def test_install_restores_every_entry_point():
    before = (gf.Subject.publish, gf.ProxyLogger.record, gatedflow.dsl.evaluate,
              gf.query, gf.oracle_run)
    tracer = Tracer()
    with tracer.installed(layers.install):
        assert gatedflow.dsl.evaluate is not before[2]
        assert gf.query is not before[3]
    after = (gf.Subject.publish, gf.ProxyLogger.record, gatedflow.dsl.evaluate,
             gf.query, gf.oracle_run)
    assert after == before


def test_implied_counts_match_a_traced_star():
    star = wl.FanoutStar(1, "unused")
    tracer = Tracer()
    with tracer.installed(layers.install):
        out = wl.measure(star, 0.0)
    names = [s.name for s in tracer.spans]
    collection, _, _ = star.build()
    implied = layers.implied_counts(collection.components, wl.STAR_STEPS,
                                    logged=False)
    assert out.failed == 0
    assert names.count(layers.PUBLISH) == implied[layers.PUBLISH] == wl.STAR_STEPS
    assert names.count(layers.OBSERVE) == implied[layers.OBSERVE] == (
        wl.STAR_STEPS * wl.STAR_CONSUMERS)
