"""Reference interpreter: hand-checked traces, confluence, stuck detection."""

import random

import pytest

from gatedflow import build_experiment, make_component, oracle_run
from gatedflow.errors import FlowError, OracleStuck

from graphgen import random_graph


def toy_components(registry, experiment):
    return build_experiment(registry, experiment).components


class TestHandCheckedTraces:
    def test_plain_toy_three_steps(self, registry):
        result = oracle_run(toy_components(registry, "ToyExperimentPlain"), 3)
        # firing trace: init x=1,y=1 -> z=1 -> a=2 -> x=4,y=1 -> z=4 -> a=8
        #   -> x=16,y=4 -> z=64 -> a=80 -> x=160,y=40
        assert result.sequences["alpha"] == [2, 8, 80]
        assert result.sequences["x"] == [1, 4, 16, 160]
        assert result.sequences["y"] == [1, 1.0, 4.0, 40.0]
        assert result.sequences["z"] == [1, 4, 64]
        assert result.steps == {"A": 3, "B": 3, "C": 3}

    def test_remapped_toy_two_steps(self, registry):
        result = oracle_run(toy_components(registry, "ToyExperiment"), 2)
        assert result.sequences["alpha"] == [2, 24]
        assert result.sequences["beta"] == [4, 48]
        assert result.sequences["x"] == [1, 8, 96]

    def test_graph_without_init_is_stuck(self, registry):
        components = toy_components(registry, "ToyExperimentPlain")
        for comp in components:
            comp.init_body = None
        with pytest.raises(OracleStuck) as err:
            oracle_run(components, 3)
        assert err.value.components == ["A", "B", "C"]

    def test_an_init_body_that_reads_is_stuck(self):
        """No graph holding it reaches the oracle: building the component
        fails, naming it and its init reads."""
        with pytest.raises(FlowError) as err:
            make_component("A", {"x": "x", "y": "y"}, init_body="y = x",
                           step_body="y = x")
        assert str(err.value) == (
            "component 'A': an init body may not read, but it reads x")


class TestConfluence:
    def test_scan_order_does_not_change_sequences(self, registry):
        rng = random.Random(7)
        reference = oracle_run(toy_components(registry, "ToyExperiment"), 5)
        names = ["A", "B", "C", "D"]
        for _ in range(10):
            order = names[:]
            rng.shuffle(order)
            permuted = oracle_run(
                toy_components(registry, "ToyExperiment"), 5, scan_order=order
            )
            assert permuted.sequences == reference.sequences

    def test_scan_order_on_random_graphs(self):
        for seed in range(5):
            rng = random.Random(1000 + seed)
            reference = oracle_run(random_graph(random.Random(1000 + seed)), 20)
            order = sorted(c.name for c in random_graph(random.Random(1000 + seed)))
            rng.shuffle(order)
            permuted = oracle_run(
                random_graph(random.Random(1000 + seed)), 20, scan_order=order
            )
            assert permuted.sequences == reference.sequences


class TestBounds:
    def test_respects_per_component_max_steps(self):
        producer = make_component(
            "P", {"a": "a"}, init_body="a = 1", step_body="a = a + 1",
            max_steps=2,
        )
        result = oracle_run([producer], 10)
        assert result.sequences["a"] == [1, 2, 3]
        assert result.steps == {"P": 2}

    def test_requires_finite_bound(self):
        """None as the bound is refused only where a step body has no
        ``max_steps`` of its own."""
        bounded = make_component("P", {"a": "a"}, init_body="a = 1",
                                 step_body="a = a + 1", max_steps=2)
        unbounded = make_component("Q", {"a": "a", "b": "b"}, step_body="b = a")
        with pytest.raises(ValueError, match="step bound is required"):
            oracle_run([bounded, unbounded], None)

    def test_components_bounded_on_their_own_need_no_bound(self):
        producer = make_component("P", {"a": "a"}, init_body="a = 1",
                                  step_body="a = a + 1", max_steps=2)
        source = make_component("S", {"s": "s"}, init_body="s = 5")
        result = oracle_run([producer, source], None)
        assert result.sequences == {"a": [1, 2, 3], "s": [5]}
        assert result.steps == {"P": 2, "S": 0}
        assert oracle_run([], None).steps == {}
