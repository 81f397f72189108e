"""Command-line interface: flag generation, subcommands, exit codes."""

import json
import os
import re
import subprocess
import sys
import time

import pytest
import yaml

import gatedflow
from gatedflow.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_STORE,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    _parse_experiment_args,
    main,
)
from gatedflow.registry import (
    ComponentSpec,
    ExperimentSpec,
    FactoryRecipe,
    HyperparameterDescriptor,
)
from gatedflow.builtin import register_builtin
from gatedflow.store import DirectoryStore


@pytest.fixture
def root(tmp_path):
    return str(tmp_path / "cli-store")


def run_cli(*argv):
    return main(list(argv))


COUNTER = {"name": "P", "io_map": {"x": "x"}, "init": "x = 1",
           "step": "x = x + 1"}


# A, B and C each wait on another's output: the first step deadlocks.
STUCK_COMPONENTS = (
    "components:\n"
    "  - {name: A, io_map: {x: x, y: y, z: z}, step: \"z = x * y\"}\n"
    "  - {name: B, io_map: {x: x, z: z, alpha: alpha}, step: \"alpha = x + z\"}\n"
    "  - name: C\n"
    "    io_map: {x: x, y: y, alpha: alpha}\n"
    "    step: \"x = alpha * 2\\ny = alpha / 2\"\n"
)


class TestFlagGeneration:
    SCALERS = {"--ComponentF.SubcomponentA.scaler": (0.1, 1.0),
               "--ComponentF.SubcomponentB.scaler": (0.2, 0.5)}

    def test_toy_f_schema(self, registry):
        # one real-valued flag per scaler, accepting exactly its bounds
        for flag, (low, high) in self.SCALERS.items():
            for value in (low, high):
                parsed = _parse_experiment_args(
                    registry, "ToyExperimentF", [flag, str(value)])
                assert parsed == {flag[2:]: value}
                assert type(parsed[flag[2:]]) is float
            for value in (low - 0.01, high + 0.01, "abc"):
                with pytest.raises(SystemExit) as exc:
                    _parse_experiment_args(registry, "ToyExperimentF",
                                           [flag, str(value)])
                assert exc.value.code == EXIT_USAGE
        # and no other flag
        assert _parse_experiment_args(registry, "ToyExperimentF", []) == {}
        with pytest.raises(SystemExit):
            _parse_experiment_args(registry, "ToyExperimentF",
                                   ["--ProductObjective.target", "0.5"])

    @pytest.mark.parametrize("choices, text, value", [
        ([16, 32, 64], "32", 32),
        ([0.5, 1.5], "1.5", 1.5),
        ([True, False], "False", False),
        (["a", "b"], "b", "b"),
    ], ids=["int", "float", "bool", "str"])
    def test_categorical_flag_selects_the_choice_it_prints_as(
            self, registry, choices, text, value):
        registry.register("component", ComponentSpec("W", {}, params=[
            HyperparameterDescriptor("width", "categorical", default=choices[0],
                                     choices=choices)]))
        registry.register("experiment", ExperimentSpec("Wide", [FactoryRecipe("W")]))
        parsed = _parse_experiment_args(registry, "Wide", ["--W.width", text])
        assert parsed == {"W.width": value}
        assert type(parsed["W.width"]) is type(value)
        for other in ("48", "32.0", "1.50", "false", "c"):
            with pytest.raises(SystemExit) as exc:
                _parse_experiment_args(registry, "Wide", ["--W.width", other])
            assert exc.value.code == EXIT_USAGE

    def test_integer_flag_parses_to_an_int_inside_its_bounds(self, registry):
        registry.register("component", ComponentSpec("W", {}, params=[
            HyperparameterDescriptor("width", "integer", default=4, bounds=(2, 9))]))
        registry.register("experiment", ExperimentSpec("Wide", [FactoryRecipe("W")]))
        for value in (2, 5, 9):
            parsed = _parse_experiment_args(registry, "Wide", ["--W.width", str(value)])
            assert parsed == {"W.width": value}
            assert type(parsed["W.width"]) is int
        for other in ("1", "10", "4.0", "x"):
            with pytest.raises(SystemExit) as exc:
                _parse_experiment_args(registry, "Wide", ["--W.width", other])
            assert exc.value.code == EXIT_USAGE

    def test_unbounded_parameter_gets_an_unvalidated_flag(self, registry):
        for text in ("-2.5", "0", "1e9"):
            parsed = _parse_experiment_args(
                registry, "ToyStudy", ["--ProductObjective.target", text])
            assert parsed == {"ProductObjective.target": float(text)}

    def test_negative_values_in_exponent_form(self, registry):
        for text in ("-1e6", "-2.5E-3", "-1.e+2", "-.5e1",
                     "-inf", "-nan", "-Infinity"):
            parsed = _parse_experiment_args(
                registry, "ToyStudy", ["--ProductObjective.target", text])
            # repr, since nan equals nothing
            assert repr(parsed) == repr({"ProductObjective.target": float(text)})

    def test_run_takes_a_negative_value_in_exponent_form(self, root, capsys):
        code = run_cli("run", "ToyStudy", "--ProductObjective.target", "-1e6",
                       "--store-root", root)
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        meta = DirectoryStore(root).read_meta(summary["run_id"])
        assert meta["args"] == {"ProductObjective.target": -1e6}
        for extra in (["--No.such.flag", "-1e6"],
                      ["--ProductObjective.target", "-1e6", "-2e6"]):
            assert run_cli("run", "ToyStudy", *extra,
                           "--store-root", root) == EXIT_USAGE

    def test_unset_flags_keep_the_descriptor_defaults(self, root, capsys):
        # scalers 0.1 and 0.2 turn alpha 1 into beta 0.02
        assert run_cli("run", "ToyStudy", "--store-root", root) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        store = DirectoryStore(root)
        beta = [r.value for r in store.read_records(summary["run_id"])
                if r.tag == "beta"]
        assert beta == [pytest.approx(0.02)]
        assert store.read_meta(summary["run_id"])["args"] == {}


class TestRun:
    def test_registered_experiment(self, root, capsys):
        code = run_cli("run", "ToyExperimentPlain", "--max-steps", "3",
                       "--store-root", root)
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["outcome"] == "completed"
        assert summary["steps"] == {"A": 3, "B": 3, "C": 3}
        store = DirectoryStore(root)
        records = store.read_records(summary["run_id"])
        alpha = [r.value for r in records if r.tag == "alpha"]
        assert alpha == [2, 8, 80]

    def test_dotted_flags_feed_the_factory(self, root, capsys):
        code = run_cli("run", "ToyStudy",
                       "--ComponentF.SubcomponentA.scaler", "0.5",
                       "--ComponentF.SubcomponentB.scaler", "0.25",
                       "--store-root", root)
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        store = DirectoryStore(root)
        beta = [r.value for r in store.read_records(summary["run_id"])
                if r.tag == "beta"]
        assert beta == [0.125]
        meta = store.read_meta(summary["run_id"])
        assert meta["args"]["ComponentF.SubcomponentA.scaler"] == 0.5

    def test_out_of_bounds_flag_is_usage_error(self, root):
        code = run_cli("run", "ToyStudy",
                       "--ComponentF.SubcomponentA.scaler", "1.5",
                       "--store-root", root)
        assert code == EXIT_USAGE

    def test_unknown_experiment(self, root):
        assert run_cli("run", "NoSuch", "--max-steps", "1",
                       "--store-root", root) == EXIT_USAGE

    def test_missing_step_bound(self, root):
        # ToyExperimentPlain declares no default bound
        assert run_cli("run", "ToyExperimentPlain",
                       "--store-root", root) == EXIT_USAGE

    @pytest.mark.parametrize("components, steps", [
        ([{**COUNTER, "max_steps": 3}], {"P": 3}),
        ([{**COUNTER, "max_steps": 2},
          {"name": "S", "io_map": {"y": "y"}, "init": "y = 1"}],
         {"P": 2, "S": 0}),
    ], ids=["bounded-step", "bounded-step-and-init-only"])
    def test_components_bounded_on_their_own_need_no_run_bound(
            self, root, tmp_path, components, steps):
        # in a child with a timeout: a run without a bound would never end
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({"components": components}))
        done = subprocess.run(
            [sys.executable, "-m", "gatedflow", "run", str(path),
             "--store-root", root],
            env=TestModuleEntry.child_env(), capture_output=True, text=True,
            timeout=30)
        assert done.returncode == EXIT_OK, done.stderr
        summary = json.loads(done.stdout)
        assert (summary["outcome"], summary["steps"]) == ("completed", steps)

    def test_an_unbounded_step_body_needs_a_run_bound(self, root, tmp_path,
                                                      capsys):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({"components": [
            {**COUNTER, "max_steps": 3},
            {"name": "Q", "io_map": {"x": "x", "y": "y"}, "step": "y = x"}]}))
        assert run_cli("run", str(path), "--store-root", root) == EXIT_USAGE
        assert "step bound is required" in capsys.readouterr().err
        assert DirectoryStore(root).list_runs() == []

    def test_deadlock_exits_three_with_blocked_report(self, root, tmp_path,
                                                      capsys):
        path = tmp_path / "stuck.yaml"
        path.write_text(STUCK_COMPONENTS + "max_steps: 3\nstep_timeout: 0.3\n")
        code = run_cli("run", str(path), "--store-root", root)
        assert code == EXIT_TIMEOUT
        captured = capsys.readouterr()
        assert json.loads(captured.out)["outcome"] == "timeout"
        assert captured.err.count("blocked:") == 3

    def test_max_steps_flag_overrides_definition(self, root, tmp_path,
                                                 capsys):
        path = tmp_path / "exp.yaml"
        path.write_text(json.dumps({"components": [COUNTER], "max_steps": 5}))
        code = run_cli("run", str(path), "--max-steps", "2",
                       "--store-root", root)
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["steps"] == {"P": 2}

    def test_step_timeout_flag_overrides_definition(self, root, tmp_path,
                                                    capsys):
        path = tmp_path / "stuck.yaml"
        path.write_text(STUCK_COMPONENTS + "max_steps: 3\nstep_timeout: 30\n")
        start = time.monotonic()
        code = run_cli("run", str(path), "--step-timeout", "0.3",
                       "--store-root", root)
        assert code == EXIT_TIMEOUT
        assert time.monotonic() - start < 10.0
        assert capsys.readouterr().err.count("blocked:") == 3

    def test_body_error_exits_four(self, root, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text(
            "components:\n"
            "  - {name: P, io_map: {x: x}, init: \"x = 1\", step: \"x = x / 0\"}\n"
            "max_steps: 3\n"
        )
        code = run_cli("run", str(path), "--store-root", root)
        assert code == EXIT_RUNTIME
        assert "error" in capsys.readouterr().err

    def test_unwritable_store_exits_five(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        code = run_cli("run", "ToyExperimentPlain", "--max-steps", "1",
                       "--store-root", str(blocker / "store"))
        assert code == EXIT_STORE

    def test_definition_file_with_registered_experiment(self, root, tmp_path,
                                                        capsys):
        path = tmp_path / "exp.yaml"
        path.write_text(
            "experiment: ToyStudy\n"
            "args: {ComponentF.SubcomponentA.scaler: 0.4}\n"
            "max_steps: 1\n"
        )
        code = run_cli("run", str(path), "--store-root", root,
                       "--ComponentF.SubcomponentB.scaler", "0.5")
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        beta = [r.value for r in DirectoryStore(root)
                .read_records(summary["run_id"]) if r.tag == "beta"]
        assert beta == [pytest.approx(0.4 * 0.5)]

    def test_same_seed_reproduces_metrics(self, tmp_path, capsys):
        values = []
        for name in ("one", "two"):
            root = str(tmp_path / name)
            code = run_cli("run", "ToyExperiment", "--max-steps", "4",
                           "--seed", "11", "--store-root", root)
            assert code == EXIT_OK
            summary = json.loads(capsys.readouterr().out)
            records = DirectoryStore(root).read_records(summary["run_id"])
            values.append([(r.component, r.tag, r.step, r.value)
                           for r in sorted(records, key=lambda r: r.key)])
        assert values[0] == values[1]


def study_definition(tmp_path, **overrides):
    doc = {
        "experiment": "ToyStudy",
        "direction": "minimize",
        "objective": {"tag": "objective", "reduce": "last"},
        "sampler": "uniform-random",
        "seed": 7,
        "n_trials": 200,
    }
    doc.update(overrides)
    path = tmp_path / "study.yaml"
    path.write_text(json.dumps(doc))  # JSON is valid YAML
    return str(path)


class TestStudy:
    def test_study_prints_best_trial(self, root, tmp_path, capsys):
        path = study_definition(tmp_path, n_trials=20)
        code = run_cli("study", path, "--store-root", root)
        assert code == EXIT_OK
        best = json.loads(capsys.readouterr().out)
        assert best["state"] == "complete"
        assert best["objective"] < 0.2
        store = DirectoryStore(root)
        assert len(store.list_studies()) == 1
        assert len(store.read_trials(store.list_studies()[0])) == 20

    def test_flag_overrides_definition(self, root, tmp_path, capsys):
        path = study_definition(tmp_path)
        code = run_cli("study", path, "--n-trials", "5", "--seed", "3",
                       "--store-root", root)
        assert code == EXIT_OK
        store = DirectoryStore(root)
        trials = store.read_trials(store.list_studies()[0])
        assert len(trials) == 5
        assert sorted(t["seed"] for t in trials) == [3, 4, 5, 6, 7]

    def test_parallelism_flag_overrides_definition(self, root, tmp_path,
                                                   monkeypatch):
        import gatedflow.cli
        seen = []
        real = gatedflow.cli.run_study

        def spy(*args, **kwargs):
            seen.append(kwargs["parallelism"])
            return real(*args, **kwargs)

        monkeypatch.setattr(gatedflow.cli, "run_study", spy)
        path = study_definition(tmp_path, n_trials=2, parallelism=1)
        assert run_cli("study", path, "--parallelism", "2",
                       "--store-root", root) == EXIT_OK
        assert seen == [2]

    def test_missing_definition_file(self, root, capsys):
        assert run_cli("study", "/nonexistent.yaml",
                       "--store-root", root) == EXIT_USAGE
        assert "usage error: /nonexistent.yaml" in capsys.readouterr().err
        assert DirectoryStore(root).list_studies() == []

    def test_a_study_with_no_step_bound_exits_two(self, root, tmp_path):
        # in a child with a timeout: a study without a bound never ends
        path = tmp_path / "study.yaml"
        path.write_text("experiment: ToyExperimentPlain\nn_trials: 1\n")
        done = subprocess.run(
            [sys.executable, "-m", "gatedflow", "study", str(path),
             "--store-root", root],
            env=TestModuleEntry.child_env(), capture_output=True, text=True,
            timeout=30)
        assert done.returncode == EXIT_USAGE, done.stderr
        assert "step bound is required" in done.stderr
        store = DirectoryStore(root)
        assert store.list_runs() == [] and store.list_studies() == []

    def test_unknown_flag_exits_two(self, root, tmp_path, capsys):
        path = study_definition(tmp_path, n_trials=2)
        assert run_cli("study", path, "--bogus", "--store-root", root) == EXIT_USAGE
        assert "unrecognised arguments: --bogus" in capsys.readouterr().err
        assert DirectoryStore(root).list_studies() == []


@pytest.mark.parametrize("command, fields", [
    ("run", {"step_timeout": "abc"}),
    ("run", {"step_timeout": -1}),
    ("run", {"step_timeout": 0}),
    ("run", {"step_timeout": True}),
    ("run", {"step_timeout": 1e300}),
    ("run", {"max_steps": "3"}),
    ("run", {"max_steps": -1}),
    ("run", {"max_steps": 2.5}),
    ("run", {"components": [{**COUNTER, "max_steps": "3"}]}),
    ("study", {"step_timeout": "abc"}),
    ("study", {"step_timeout": -1}),
    ("study", {"max_steps": "3"}),
    ("study", {"max_steps": False}),
    ("study", {"n_trials": "abc"}),
    ("study", {"n_trials": True}),
    ("study", {"n_trials": -1}),
    ("study", {"n_trials": 2.5}),
    ("study", {"seed": "7"}),
    ("study", {"seed": False}),
    ("study", {"parallelism": 0}),
    ("study", {"parallelism": "2"}),
])
def test_bad_step_bounds_in_definition_exit_two(root, tmp_path, capsys,
                                                command, fields):
    if command == "run":
        path = tmp_path / "exp.yaml"
        doc = {"components": [COUNTER], "max_steps": 3, **fields}
        path.write_text(json.dumps(doc))  # JSON is valid YAML
    else:
        path = study_definition(tmp_path, **{"n_trials": 2, **fields})
    assert run_cli(command, str(path), "--store-root", root) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_typed_inline_entry_with_io_map_override(root, tmp_path, capsys):
    path = tmp_path / "exp.yaml"
    path.write_text(
        "components:\n"
        "  - {type: AlphaSource, name: S, io_map: {alpha: beta}}\n"
        "  - {name: K, io_map: {beta: beta, gamma: gamma}, step: gamma = beta * 3}\n"
        "max_steps: 1\n")
    assert run_cli("run", str(path), "--store-root", root) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    records = DirectoryStore(root).read_records(summary["run_id"])
    assert [(r.component, r.tag, r.value) for r in records
            if r.tag == "gamma"] == [("K", "gamma", 3)]


@pytest.mark.parametrize("type_name", [
    "ProductObjective",  # bodies come from make_bodies
    "ComponentF",  # its step calls subcomponent slots
])
def test_typed_inline_entry_needing_a_factory_exits_two(root, tmp_path, capsys,
                                                         type_name):
    path = tmp_path / "exp.yaml"
    path.write_text(
        "components:\n"
        "  - {type: AlphaSource, name: S, io_map: {alpha: beta}}\n"
        f"  - {{type: {type_name}, name: X}}\n"
        "max_steps: 1\n")
    assert run_cli("run", str(path), "--store-root", root) == EXIT_USAGE
    err = capsys.readouterr().err
    assert type_name in err and "registered experiment" in err
    assert DirectoryStore(root).list_runs() == []


@pytest.mark.parametrize("command, flags", [
    ("run", ["--max-steps", "-5"]),
    ("run", ["--max-steps", "3", "--step-timeout", "-1"]),
    ("run", ["--max-steps", "3", "--step-timeout", "0"]),
    ("run", ["--max-steps", "3", "--step-timeout", "nan"]),
    ("study", ["--n-trials", "-3"]),
    ("study", ["--parallelism", "0"]),
])
def test_bad_flags_exit_two(root, tmp_path, capsys, command, flags):
    target = ("ToyExperimentPlain" if command == "run"
              else study_definition(tmp_path, n_trials=2))
    assert run_cli(command, target, *flags, "--store-root", root) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("command, fields, flags", [
    ("run", {"max_steps": -1}, ["--max-steps", "3"]),
    ("study", {"n_trials": -1}, ["--n-trials", "2"]),
    ("study", {"parallelism": 0}, ["--parallelism", "1"]),
    ("study", {"seed": "7"}, ["--seed", "3"]),
], ids=["max_steps", "n_trials", "parallelism", "seed"])
def test_a_bad_file_value_exits_two_though_a_flag_replaces_it(
        root, tmp_path, capsys, command, fields, flags):
    if command == "run":
        path = tmp_path / "exp.yaml"
        path.write_text(json.dumps({"components": [COUNTER], **fields}))
    else:
        path = study_definition(tmp_path, **{"n_trials": 2, **fields})
    assert run_cli(command, str(path), *flags, "--store-root", root) == EXIT_USAGE
    assert repr(next(iter(fields.values()))) in capsys.readouterr().err
    store = DirectoryStore(root)
    assert store.list_runs() == [] and store.list_studies() == []


@pytest.mark.parametrize("command", ["run", "study", "emit-batch-script"])
@pytest.mark.parametrize("content", [b"components: [\n  - name: A\n",
                                     b"\xff\xfeexperiment: ToyStudy\n"],
                         ids=["not-yaml", "not-utf-8"])
def test_a_file_that_is_not_utf8_yaml_exits_two(root, tmp_path, capsys,
                                                command, content):
    path = tmp_path / "bad.yaml"
    path.write_bytes(content)
    out = tmp_path / "submit.sh"
    extra = ["--out", str(out)] if command == "emit-batch-script" else []
    assert run_cli(command, str(path), *extra, "--store-root", root) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err and str(path) in err
    store = DirectoryStore(root)
    assert store.list_runs() == [] and store.list_studies() == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "study", "emit-batch-script"])
def test_a_definition_path_that_is_a_directory_exits_two(root, tmp_path,
                                                         capsys, command):
    path = tmp_path / "adir"
    path.mkdir()
    out = tmp_path / "submit.sh"
    extra = ["--out", str(out)] if command == "emit-batch-script" else []
    assert run_cli(command, str(path), *extra, "--store-root", root) == EXIT_USAGE
    assert f"usage error: {path}: cannot read" in capsys.readouterr().err
    store = DirectoryStore(root)
    assert store.list_runs() == [] and store.list_studies() == []
    assert not out.exists()


@pytest.mark.parametrize("fields, bad", [
    ({"direction": "sideways"}, "sideways"),
    ({"objective": {"reduce": "median"}}, "median"),
    ({"sampler": "annealing"}, "annealing"),
    ({"objective": "last"}, "last"),
    ({"experiment": [1]}, [1]),
    ({"objective": {"tag": [1]}}, [1]),
    ({"objective": {"reduce": [1]}}, [1]),
    ({"n_trial": 5}, "n_trial"),
    ({"objective": {"tag": "objective", "reducer": "mean"}}, "reducer"),
], ids=["direction", "reduce", "sampler", "objective", "experiment-not-text",
        "tag-not-text", "reduce-not-text", "unknown-key", "objective-unknown-key"])
def test_bad_study_settings_exit_two(root, tmp_path, capsys, fields, bad):
    path = study_definition(tmp_path, n_trials=2, **fields)
    assert run_cli("study", path, "--store-root", root) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err and repr(bad) in err
    assert DirectoryStore(root).list_studies() == []


@pytest.mark.parametrize("doc", [
    {"experiment": "ToyStudy", "args": 5},
    {"components": 5},
    {"components": [5]},
    {"components": [{**COUNTER, "io_map": ["x"]}]},
    {"components": [{"type": "AlphaSource", "name": "S", "io_map": ["alpha"]}]},
    {"components": [{"io_map": {"x": "x"}, "step": "x = 1"}]},
    {"components": [{"name": "P", "step": "x = 1"}]},
    {"components": [{**COUNTER, "init": 5}]},
    {"components": [{**COUNTER, "step": "x = 1 +"}]},
    {"components": [{**COUNTER, "init": None, "step": "x = w"}]},
    {"components": [{"type": "NoSuchType", "name": "S"}]},
    {"components": [{**COUNTER, "step": "x = \u00b2"}]},
    {"components": [{"name": "P", "io_map": {"x": "x", "y": "y"},
                     "step": "x = y"}]},
    {"components": [COUNTER, COUNTER]},
    {"components": [COUNTER, {**COUNTER, "name": "Q"}]},
    {"experiment": "ToyExperiment", "args": {"nosuch": 1}},
    {"experiment": "ToyExperimentF", "args": {"scaler": 0.5}},
    {"experiment": [1]},
    {"experiment": "ToyExperiment", "args": {1: 2}},
    {"components": [{**COUNTER, "name": [1]}]},
    {"components": [{**COUNTER, "name": 7}]},
    {"components": [{**COUNTER, "io_map": {"x": "x", 1: "y"}}]},
    {"components": [{**COUNTER, "io_map": {"x": [1]}}]},
    {"components": [{"type": "AlphaSource", "name": "S",
                     "io_map": {"alpha": [1]}}]},
    {"components": [{"type": [1], "name": "S"}]},
    {"experiment": "ToyStudy",
     "args": {"ComponentF.SubcomponentA.scaler": 5.0}},
    {"experiment": "ToyStudy",
     "args": {"ComponentF.SubcomponentA.scaler": "abc"}},
    {"experiment": "ToyStudy",
     "args": {"ComponentF.SubcomponentA.scaler": True}},
    {"components": [COUNTER], "args": {"nosuch.param": 3}},
    {"components": [COUNTER], "max_step": 5},
    {"experiment": "ToyStudy", "arg": {"ProductObjective.target": 1.0}},
    {"components": [{"name": "P", "io_map": {"x": "x"}, "init": "x = 1",
                     "setp": "x = x + 1"}]},
], ids=["args", "components", "entry", "inline-io_map", "typed-io_map",
        "no-name", "no-io_map", "init-not-text", "step-syntax",
        "step-unassigned-name", "unknown-type", "step-non-ascii-digit",
        "read-with-no-writer", "repeated-name", "repeated-writer",
        "unused-argument", "ambiguous-argument", "experiment-not-text",
        "args-name-not-text", "name-not-text", "name-a-number",
        "io_map-name-not-text", "io_map-namespace-not-text",
        "typed-io_map-namespace-not-text", "type-not-text",
        "arg-out-of-bounds", "arg-not-a-number", "arg-a-bool", "inline-args",
        "unknown-key", "registered-unknown-key", "entry-unknown-key"])
def test_malformed_experiment_definition_exits_two_before_its_run(
        root, tmp_path, capsys, doc):
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump({**doc, "max_steps": 3}))
    assert run_cli("run", str(path), "--store-root", root) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert DirectoryStore(root).list_runs() == []


def test_an_init_body_that_reads_exits_two_before_its_run(root, tmp_path,
                                                          capsys):
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump({"max_steps": 3, "components": [
        {"name": "A", "io_map": {"x": "x", "y": "y"}, "init": "x = 1",
         "step": "x = y + 1"},
        {"name": "B", "io_map": {"x": "x", "y": "y"}, "init": "y = x",
         "step": "y = x * 2"}]}))
    assert run_cli("run", str(path), "--store-root", root) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err
    assert "'B': an init body may not read, but it reads x" in err
    assert err.count("component 'B'") == 1
    assert DirectoryStore(root).list_runs() == []


@pytest.mark.parametrize("init, step, message", [
    ("y = x", "y = x * 2", "an init body may not read, but it reads x"),
    ("y = 1", "y = (x + 1  # note",
     "line 1, col 19: expected ')', found 'end of input'"),
], ids=["init-reads", "step-syntax"])
def test_a_registered_experiments_build_error_names_the_component_once(
        root, monkeypatch, capsys, init, step, message):
    import gatedflow.cli

    def with_a_bad_component(registry=None):
        registry = register_builtin(registry)
        io_map = {"x": "x", "y": "y"}
        registry.register("component", ComponentSpec("A", io_map, init="x = 1",
                                                     step="x = y + 1"))
        registry.register("component", ComponentSpec("B", io_map, init=init,
                                                     step=step))
        registry.register("experiment", ExperimentSpec(
            "Pair", [FactoryRecipe("A"), FactoryRecipe("B")]))
        return registry

    monkeypatch.setattr(gatedflow.cli, "register_builtin", with_a_bad_component)
    assert run_cli("run", "Pair", "--max-steps", "3",
                   "--store-root", root) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"usage error: experiment 'Pair': component 'B': {message}" in err
    assert err.count("component 'B'") == 1
    assert DirectoryStore(root).list_runs() == []


@pytest.mark.parametrize("experiment", ["ToyExperiment", "inline"])
def test_run_binds_the_one_collection_it_runs(root, tmp_path, monkeypatch,
                                             experiment):
    if experiment == "inline":
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({"components": [COUNTER]}))
        experiment = str(path)
    bound, ran = [], []
    bind, run = gatedflow.ComponentCollection.bind, gatedflow.ComponentCollection.run

    def counting_bind(self):
        bound.append(self)
        return bind(self)

    def counting_run(self, *args, **kwargs):
        ran.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(gatedflow.ComponentCollection, "bind", counting_bind)
    monkeypatch.setattr(gatedflow.ComponentCollection, "run", counting_run)
    assert run_cli("run", experiment, "--max-steps", "2", "--step-timeout", "3",
                   "--store-root", root) == EXIT_OK
    assert len(bound) == 1 and ran == bound
    assert ran[0].step_timeout == 3.0


@pytest.mark.parametrize("value, code", [
    (2, EXIT_OK), (True, EXIT_USAGE), (2.0, EXIT_USAGE)])
def test_a_categorical_argument_in_a_file_must_have_its_choices_type(
        root, tmp_path, monkeypatch, capsys, value, code):
    import gatedflow.cli

    def with_a_categorical(registry=None):
        registry = register_builtin(registry)
        registry.register("component", ComponentSpec("W", {}, params=[
            HyperparameterDescriptor("width", "categorical", default=1,
                                     choices=[1, 2])]))
        registry.register("experiment",
                          ExperimentSpec("Wide", [FactoryRecipe("W")]))
        return registry

    monkeypatch.setattr(gatedflow.cli, "register_builtin", with_a_categorical)
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump({"experiment": "Wide", "max_steps": 1,
                                    "args": {"W.width": value}}))
    assert run_cli("run", str(path), "--store-root", root) == code
    if code == EXIT_USAGE:
        assert "usage error" in capsys.readouterr().err
        assert DirectoryStore(root).list_runs() == []
    else:
        summary = json.loads(capsys.readouterr().out)
        meta = DirectoryStore(root).read_meta(summary["run_id"])
        assert meta["args"] == {"W.width": 2}


class TestListExportPlot:
    def seeded_runs(self, root, capsys, n=3):
        run_ids = []
        for seed in range(n):
            run_cli("run", "ToyExperimentPlain", "--max-steps", "3",
                    "--seed", str(seed), "--store-root", root)
            run_ids.append(json.loads(capsys.readouterr().out)["run_id"])
        return run_ids

    def test_list_reports_registered_tiers(self, capsys):
        assert run_cli("list") == EXIT_OK
        listing = json.loads(capsys.readouterr().out)
        assert "ToyExperiment" in listing["experiments"]
        assert "ComponentA" in listing["components"]
        assert "SubcomponentA" in listing["subcomponents"]

    def test_export_aggregated_csv(self, root, tmp_path, capsys):
        self.seeded_runs(root, capsys)
        out = tmp_path / "alpha.csv"
        code = run_cli("export", "--tag", "alpha", "--out", str(out),
                       "--store-root", root)
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "step,mean,std,n"
        # identical runs: mean equals the trace, sigma zero, n = runs
        assert lines[1] == "0,2.0,0.0,3"

    def test_export_multi_series_selection_is_usage_error(self, root, tmp_path,
                                                          capsys):
        self.seeded_runs(root, capsys, n=1)
        code = run_cli("export", "--out", str(tmp_path / "x.csv"),
                       "--store-root", root)
        assert code == EXIT_USAGE

    def test_export_raw_strip_walltime(self, root, tmp_path, capsys):
        run_ids = self.seeded_runs(root, capsys, n=1)
        out = tmp_path / "raw.ndjson"
        code = run_cli("export", "--raw", "--strip-walltime",
                       "--runs", run_ids[0], "--out", str(out),
                       "--store-root", root)
        assert code == EXIT_OK
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert all("w" not in row for row in rows)
        assert {row["t"] for row in rows} == {"alpha", "x", "y", "z"}

    def test_plot_of_an_empty_selection_is_usage_error(self, root, tmp_path,
                                                       capsys):
        self.seeded_runs(root, capsys, n=1)
        out = tmp_path / "none.svg"
        code = run_cli("plot", "--tag", "nosuch", "--out", str(out),
                       "--store-root", root)
        assert code == EXIT_USAGE
        assert "no series" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["export", "plot"])
    @pytest.mark.parametrize("group_by", ["nosuch", "", "component,nosuch"])
    def test_group_by_a_name_records_lack_is_usage_error(
            self, root, tmp_path, capsys, command, group_by):
        self.seeded_runs(root, capsys, n=1)
        out = tmp_path / "out"
        code = run_cli(command, "--tag", "alpha", "--group-by", group_by,
                       "--out", str(out), "--store-root", root)
        assert code == EXIT_USAGE
        assert "not a record field" in capsys.readouterr().err
        assert not out.exists()

    def test_group_by_record_fields(self, root, tmp_path, capsys):
        self.seeded_runs(root, capsys, n=2)
        out = tmp_path / "alpha.csv"
        assert run_cli("export", "--tag", "alpha", "--group-by", "tag",
                       "--out", str(out), "--store-root", root) == EXIT_OK
        assert out.read_text().splitlines()[1] == "0,2.0,0.0,2"
        assert run_cli("plot", "--group-by", "run_id,tag", "--out",
                       str(tmp_path / "all.svg"), "--store-root", root) == EXIT_OK

    def test_plot_writes_deterministic_svg(self, root, tmp_path, capsys):
        self.seeded_runs(root, capsys)
        first, second = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (first, second):
            assert run_cli("plot", "--tag", "alpha", "--out", str(out),
                           "--store-root", root) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text().startswith("<svg ")


class TestMergeSpoolCommand:
    def test_requires_spool_root(self, root):
        assert run_cli("merge-spool", "--store-root", root) == EXIT_USAGE

    def test_merges_and_reports_counts(self, root, tmp_path, capsys):
        from gatedflow.store import MetricRecord
        os.makedirs(root, exist_ok=True)
        spool_root = tmp_path / "spool"
        spool = DirectoryStore(spool_root)
        spool.append_records("r1", [
            MetricRecord("r1", "A", "loss", i, 0.0, float(i)).to_line()
            for i in range(8)
        ])
        code = run_cli("merge-spool", "--store-root", root,
                       "--spool-root", str(spool_root))
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"merged": 8, "skipped": 0}
        assert len(DirectoryStore(root).read_records("r1")) == 8


class TestEmitBatchScript:
    def test_four_partitions(self, root, tmp_path, capsys):
        path = study_definition(tmp_path, seed=7, n_trials=200)
        out = tmp_path / "submit.sh"
        code = run_cli("emit-batch-script", path, "--partitions", "4",
                       "--out", str(out), "--store-root", root,
                       "--header", "#QUEUE batch")
        assert code == EXIT_OK
        text = out.read_text()
        assert text.startswith("#!/bin/sh\n#QUEUE batch\n#ARRAY 0-3\n")
        for i, seed in enumerate((7, 57, 107, 157)):
            assert f"{i}) COUNT=50 SEED={seed} ;;" in text

    def test_uneven_split_front_loads_remainder(self, root, tmp_path, capsys):
        path = study_definition(tmp_path, seed=0, n_trials=10)
        out = tmp_path / "submit.sh"
        assert run_cli("emit-batch-script", path, "--partitions", "3",
                       "--out", str(out), "--store-root", root) == EXIT_OK
        text = out.read_text()
        assert "0) COUNT=4 SEED=0 ;;" in text
        assert "1) COUNT=3 SEED=4 ;;" in text
        assert "2) COUNT=3 SEED=7 ;;" in text

    def test_single_partition_is_a_plain_exec(self, root, tmp_path, capsys):
        path = study_definition(tmp_path, n_trials=6)
        out = tmp_path / "submit.sh"
        assert run_cli("emit-batch-script", path, "--out", str(out),
                       "--store-root", root) == EXIT_OK
        text = out.read_text()
        assert "#ARRAY" not in text
        assert "exec gatedflow study" in text
        assert "--n-trials 6" in text

    @pytest.mark.parametrize("partitions, index, count", [
        ("1", "0", "6"), ("2", "1", "3")])
    def test_paths_reach_the_program_as_one_argument_each(
            self, tmp_path, partitions, index, count):
        (tmp_path / "a dir").mkdir()
        path = study_definition(tmp_path / "a dir", seed=0, n_trials=6)
        store, spool = str(tmp_path / "sp ace/$HOME store"), "it's a spool"
        out = tmp_path / "submit.sh"
        assert run_cli("emit-batch-script", path, "--partitions", partitions,
                       "--out", str(out), "--store-root", store,
                       "--spool-root", spool,
                       "--program", 'printf "[%s]\\n"') == EXIT_OK
        done = subprocess.run(["sh", str(out)], capture_output=True, text=True,
                              env={**os.environ, "ARRAY_INDEX": index},
                              timeout=60)
        assert done.returncode == 0, done.stderr
        seed = "0" if index == "0" else "3"
        argv = ["study", path, "--n-trials", count, "--seed", seed,
                "--store-root", store, "--spool-root", spool]
        assert done.stdout == "".join(f"[{arg}]\n" for arg in argv)

    def test_partitions_draw_the_whole_studys_trials(self, root, tmp_path,
                                                     capsys):
        path = study_definition(tmp_path, seed=5, n_trials=6)
        out = tmp_path / "submit.sh"
        assert run_cli("emit-batch-script", path, "--partitions", "2",
                       "--out", str(out), "--store-root", root) == EXIT_OK
        parts = re.findall(r"\) COUNT=(\d+) SEED=(-?\d+) ;;", out.read_text())
        assert parts == [("3", "5"), ("3", "8")]
        for count, seed in parts:
            assert run_cli("study", path, "--n-trials", count, "--seed", seed,
                           "--store-root", root) == EXIT_OK
        whole = str(tmp_path / "whole")
        assert run_cli("study", path, "--store-root", whole) == EXIT_OK

        def drawn(store_root):
            store = DirectoryStore(store_root)
            return sorted((t["seed"], json.dumps(t["assignment"], sort_keys=True))
                          for study_id in store.list_studies()
                          for t in store.read_trials(study_id))

        assert [seed for seed, _ in drawn(whole)] == list(range(5, 11))
        assert drawn(root) == drawn(whole)

    def test_n_trials_flag_overrides_definition(self, root, tmp_path):
        path = study_definition(tmp_path, n_trials=6)
        out = tmp_path / "submit.sh"
        assert run_cli("emit-batch-script", path, "--n-trials", "4",
                       "--out", str(out), "--store-root", root) == EXIT_OK
        assert "--n-trials 4 " in out.read_text()

    def test_zero_trials_rejected(self, root, tmp_path):
        path = study_definition(tmp_path, n_trials=0)
        assert run_cli("emit-batch-script", path, "--out", "/dev/null",
                       "--store-root", root) == EXIT_USAGE

    def test_a_study_file_the_tasks_would_reject_gets_no_script(
            self, root, tmp_path, capsys):
        path = study_definition(tmp_path, n_trials=4, direction="sideways")
        out = tmp_path / "submit.sh"
        assert run_cli("emit-batch-script", path, "--partitions", "2",
                       "--out", str(out), "--store-root", root) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error" in err and "'sideways'" in err
        assert not out.exists()

    def test_a_study_with_no_step_bound_gets_no_script(self, root, tmp_path,
                                                       capsys):
        path = study_definition(tmp_path, experiment="ToyExperimentPlain",
                                n_trials=4)
        out = tmp_path / "submit.sh"
        assert run_cli("emit-batch-script", path, "--out", str(out),
                       "--store-root", root) == EXIT_USAGE
        assert "step bound is required" in capsys.readouterr().err
        assert not out.exists()


class TestModuleEntry:
    """``python -m gatedflow`` and ``python -m gatedflow.cli`` run the CLI."""

    @staticmethod
    def child_env():
        src = os.path.dirname(os.path.dirname(gatedflow.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return {**os.environ, "PYTHONPATH": path}

    @classmethod
    def run_module(cls, module, *argv):
        return subprocess.run([sys.executable, "-m", module, *argv],
                              env=cls.child_env(), capture_output=True,
                              text=True, timeout=120)

    @pytest.mark.parametrize("module", ["gatedflow", "gatedflow.cli"])
    def test_list_prints_the_listing(self, module):
        done = self.run_module(module, "list")
        assert done.returncode == EXIT_OK, done.stderr
        assert "ToyExperimentPlain" in json.loads(done.stdout)["experiments"]

    @pytest.mark.parametrize("module", ["gatedflow", "gatedflow.cli"])
    def test_bad_study_file_exits_two(self, module, tmp_path):
        path = study_definition(tmp_path, n_trials=2, direction="sideways")
        done = self.run_module(module, "study", path,
                               "--store-root", str(tmp_path / "store"))
        assert done.returncode == EXIT_USAGE
        assert "usage error" in done.stderr


class TestOracleRun:
    def test_sequences_match_hand_trace(self, capsys):
        code = run_cli("oracle-run", "ToyExperimentPlain", "--max-steps", "3")
        assert code == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["sequences"]["alpha"] == [2, 8, 80]
        assert result["steps"] == {"A": 3, "B": 3, "C": 3}

    def test_a_file_bounded_by_its_components_matches_its_run(
            self, root, tmp_path, capsys):
        """``oracle-run FILE`` loads what ``run FILE`` loads: with no bound
        flag, its sequences are the values the run stores, per namespace."""
        components = [{**COUNTER, "max_steps": 3},
                      {"name": "Q", "io_map": {"x": "x", "y": "doubled"},
                       "step": "y = x * 2", "max_steps": 2},
                      {"name": "S", "io_map": {"s": "s"}, "init": "s = 5"}]
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({"components": components}))
        assert run_cli("oracle-run", str(path)) == EXIT_OK
        oracle = json.loads(capsys.readouterr().out)
        assert run_cli("run", str(path), "--store-root", root) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert oracle["steps"] == summary["steps"] == {"P": 3, "Q": 2, "S": 0}
        io_maps = {c["name"]: c["io_map"] for c in components}
        stored = {}
        for rec in DirectoryStore(root).read_records(summary["run_id"]):
            namespace = io_maps[rec.component][rec.tag]
            stored.setdefault(namespace, []).append(rec.value)
        assert oracle["sequences"] == stored == {
            "x": [1, 2, 3, 4], "doubled": [2, 4], "s": [5]}

    def test_a_registered_default_bound_applies(self, capsys):
        assert run_cli("oracle-run", "ToyStudy") == EXIT_OK
        default = json.loads(capsys.readouterr().out)
        assert default["steps"] == {"F": 1, "Objective": 1, "Source": 1}
        assert run_cli("oracle-run", "ToyStudy", "--max-steps", "1") == EXIT_OK
        assert json.loads(capsys.readouterr().out) == default

    def test_no_step_bound_exits_two(self, capsys):
        assert run_cli("oracle-run", "ToyExperimentPlain") == EXIT_USAGE
        assert "step bound is required" in capsys.readouterr().err

    def test_experiment_flags_reach_the_factory(self, capsys):
        assert run_cli("oracle-run", "ToyStudy",
                       "--ComponentF.SubcomponentA.scaler=0.5") == EXIT_OK
        # alpha 1 scaled by 0.5, then by SubcomponentB's default 0.2
        beta, = json.loads(capsys.readouterr().out)["sequences"]["beta"]
        assert beta == pytest.approx(0.1)


@pytest.mark.parametrize("command", ["run", "oracle-run"])
@pytest.mark.parametrize("flags", [
    ["--ComponentF.SubcomponentA.sc", "0.5"],
    ["--ProductObjective.target", "abc"],
    ["--ProductObjective.target", "--ComponentF.SubcomponentA.scaler", "0.5"],
    ["--ProductObjective.target"],
    ["ComponentF.SubcomponentA.scaler", "0.5"],
], ids=["abbreviated", "not-a-number", "a-flag-as-the-value", "no-value",
        "no-dashes"])
def test_a_flag_that_names_no_parameter_in_full_or_has_no_value_exits_two(
        root, capsys, command, flags):
    store = ["--store-root", root] if command == "run" else []
    assert run_cli(command, "ToyStudy", *flags, *store) == EXIT_USAGE
    assert capsys.readouterr().out == ""
    assert DirectoryStore(root).list_runs() == []


@pytest.mark.parametrize("command", ["run", "oracle-run"])
def test_subcommand_options_are_matched_in_full(root, capsys, command):
    store = ["--store-root", root] if command == "run" else []
    assert run_cli(command, "ToyStudy", "--max", "2", *store) == EXIT_USAGE
    assert "--max" in capsys.readouterr().err
    assert DirectoryStore(root).list_runs() == []
    assert run_cli(command, "ToyStudy", "--max-steps", "2", *store) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["steps"]["Source"] == 2


@pytest.mark.parametrize("command", ["run", "oracle-run"])
def test_an_argument_error_names_the_subcommand_run(root, capsys, command):
    store = ["--store-root", root] if command == "run" else []
    assert run_cli(command, "ToyStudy", "--max", "2", *store) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"usage: gatedflow {command} ToyStudy\n")
    assert (f"gatedflow {command} ToyStudy: error: unrecognised arguments: --max"
            in err)


def test_arguments_to_an_inline_run_are_a_usage_error(root, tmp_path, capsys):
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump({"components": [COUNTER], "max_steps": 2}))
    assert run_cli("run", str(path), "--bogus", "1",
                   "--store-root", root) == EXIT_USAGE
    assert "usage error: unrecognised arguments: --bogus 1" in capsys.readouterr().err
    assert DirectoryStore(root).list_runs() == []
