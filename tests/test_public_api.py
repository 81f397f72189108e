"""The public contract: exported names, CLI subcommands and exit codes.

A change to any of these is a change for every user of the package, so it
has to be made here too, on purpose.
"""

import argparse
import glob
import inspect
import json
import os
import pickle
import shutil
import signal
import site
import subprocess
import sys
import time

import pytest

import gatedflow
from gatedflow import cli


def child_env():
    """The parent's environment with ``src`` put first on ``PYTHONPATH``,
    so a child interpreter imports this gatedflow and what the parent can."""
    src = os.path.dirname(os.path.dirname(gatedflow.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


PUBLIC_NAMES = [
    "AggregatedSeries", "BindReport", "ChannelRegistry", "Component",
    "ComponentCollection", "ComponentSpec", "DirectoryStore", "ExperimentSpec",
    "FactoryRecipe", "FlowError", "HyperparameterDescriptor",
    "IOSets", "MetricRecord", "NativeBody", "Observer", "OracleResult",
    "ProxyLogger", "RunLogger", "RunReport", "SearchSpace", "StepAST",
    "Study", "SubcomponentSpec", "Subject", "Trial", "TypeRegistry",
    "aggregate", "best_trial", "build_experiment", "build_search_space",
    "collect_hyperparameters", "evaluate", "export_csv", "extract_io",
    "get_class_args", "make_component", "merge_spool", "open_run",
    "oracle_run", "parse", "query", "read_csv", "register_builtin",
    "render_svg", "run_study", "sample", "study_from_descriptors",
    "to_source", "validate",
]

SUBCOMMANDS = ["run", "study", "list", "export", "plot", "merge-spool",
               "emit-batch-script", "oracle-run"]


def test_exported_names():
    assert sorted(gatedflow.__all__) == PUBLIC_NAMES
    for name in gatedflow.__all__:
        assert hasattr(gatedflow, name), name


def test_cli_subcommands():
    parser = cli.build_parser()
    subparsers, = (a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == SUBCOMMANDS


# per subcommand: its positional arguments, then the flags it requires; a
# change to what a subcommand accepts is made here on purpose
SUBCOMMAND_ARGUMENTS = {
    "run": (["experiment"], []),
    "study": (["definition"], []),
    "list": ([], []),
    "export": ([], ["--out"]),
    "plot": ([], ["--out"]),
    "merge-spool": ([], []),
    "emit-batch-script": (["definition"], ["--out"]),
    "oracle-run": (["experiment"], []),
}


def test_cli_subcommand_arguments():
    subparsers, = (a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    found = {}
    for name, parser in subparsers.choices.items():
        actions = parser._actions
        found[name] = ([a.dest for a in actions if not a.option_strings],
                       [a.option_strings[0] for a in actions
                        if a.option_strings and a.required])
    assert found == SUBCOMMAND_ARGUMENTS


def test_exit_codes():
    assert (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_TIMEOUT, cli.EXIT_RUNTIME,
            cli.EXIT_STORE) == (0, 2, 3, 4, 5)


@pytest.mark.parametrize("signum, code", [(signal.SIGINT, 130),
                                          (signal.SIGTERM, 143)],
                         ids=["SIGINT", "SIGTERM"])
def test_a_signalled_run_closes_as_stopped(tmp_path, signum, code):
    """``run`` stopped by a signal closes its run and exits 128 + signum;
    every (component, tag) it logged has steps 0..n with no gap."""
    root = tmp_path / "store"
    proc = subprocess.Popen(
        [sys.executable, "-m", "gatedflow", "run", "ToyExperimentPlain",
         "--max-steps", "100000000", "--store-root", str(root)],
        env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while not list(root.glob("runs/*/metrics.ndjson")):
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "no metrics were written"
            time.sleep(0.02)
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == code, err
    assert json.loads(out)["outcome"] == "stopped"
    store = gatedflow.DirectoryStore(root)
    run_id, = store.list_runs()
    assert store.read_meta(run_id)["outcome"] == "stopped"
    steps = {}
    for rec in store.read_records(run_id):
        steps.setdefault((rec.component, rec.tag), []).append(rec.step)
    assert steps
    for key, seen in steps.items():
        assert seen == list(range(len(seen))), key


def other_pythons() -> dict:
    """Each other CPython >= 3.10 found beside this one (a sibling
    ``versions/3.*/bin/python`` of ``sys.base_prefix``, as pyenv lays them
    out) or on PATH as ``python3.1x``, by version; a candidate that cannot
    report its version, such as a shim for a version not installed, is left
    out."""
    versions = os.path.dirname(sys.base_prefix)
    candidates = sorted(glob.glob(os.path.join(versions, "3.*", "bin", "python")))
    candidates += filter(None, (shutil.which(f"python3.{minor}")
                                for minor in range(10, 20)))
    found = {}
    for exe in candidates:
        try:
            done = subprocess.run(
                [exe, "-c", "import platform, sys; "
                 "print(platform.python_implementation(), *sys.version_info[:3])"],
                capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        fields = done.stdout.split()
        if done.returncode != 0 or len(fields) != 4 or fields[0] != "CPython":
            continue
        version = tuple(map(int, fields[1:]))
        if version >= (3, 10) and version != tuple(sys.version_info[:3]):
            found.setdefault(version, exe)
    return found


# Loads a pickled MetricRecord from stdin, checks that it pickles again in
# this interpreter, and writes that pickle to stdout.
REPICKLE = """\
import pickle, sys
from gatedflow import MetricRecord
record = pickle.load(sys.stdin.buffer)
again = pickle.loads(pickle.dumps(record))
assert type(again) is MetricRecord and again == record, again
sys.stdout.buffer.write(pickle.dumps(again, protocol=4))
"""


def test_other_pythons_run_and_study(tmp_path):
    """``run`` and a 2-trial study complete under every other CPython >= 3.10
    found, with this interpreter's site-packages on its path, and a
    ``MetricRecord`` (a frozen slotted dataclass) pickles both ways between
    that interpreter and this one."""
    pythons = other_pythons()
    if not pythons:
        pytest.skip("no other CPython >= 3.10 found")
    env = child_env()
    env["PYTHONPATH"] = os.pathsep.join([env["PYTHONPATH"],
                                         *site.getsitepackages()])
    study = tmp_path / "study.yaml"
    study.write_text("experiment: ToyStudy\nn_trials: 2\n")
    record = gatedflow.MetricRecord("r1", "A", "loss", 3, 0.5,
                                    {"v": [1, 2.0, True, None]})
    for version, exe in sorted(pythons.items()):
        done = subprocess.run([exe, "-c", REPICKLE], env=env,
                              input=pickle.dumps(record, protocol=4),
                              capture_output=True, timeout=60)
        assert done.returncode == 0, (version, done.stderr.decode())
        assert pickle.loads(done.stdout) == record, version
        root = str(tmp_path / ".".join(map(str, version)))
        for argv in (["run", "ToyExperimentPlain", "--max-steps", "3"],
                     ["study", str(study)]):
            done = subprocess.run([exe, "-m", "gatedflow", *argv,
                                   "--store-root", root], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, (version, argv, done.stderr)
        store = gatedflow.DirectoryStore(root)
        assert len(store.list_runs()) == 3 and len(store.list_studies()) == 1


# Signatures that changed on purpose: the step timeout is fixed when a
# collection is built, each channel wait uses the timeout copied at seal,
# a run logger always makes its own run id and flushes by the store
# module's constants, a chart's labels, size and colours are fixed, and a
# step body runs from its IO sets with a plain lookup, emit and callees.
@pytest.mark.parametrize("fn, params", [
    (gatedflow.ComponentCollection.run, "(self, max_steps=None)"),
    (gatedflow.ComponentCollection.signal_stop, "(self)"),
    (gatedflow.ComponentCollection.__init__,
     "(self, components, step_timeout: 'float | None' = None, logger=None)"),
    (gatedflow.ChannelRegistry.__init__,
     "(self, default_timeout: 'float' = 5.0)"),
    (gatedflow.Subject.publish, "(self, value)"),
    (gatedflow.Observer.observe, "(self)"),
    (gatedflow.RunLogger.__init__,
     "(self, store: 'DirectoryStore', meta: 'dict', spool=None)"),
    (gatedflow.open_run,
     "(store: 'DirectoryStore', experiment: 'str', seed=None, args=None, "
     "spool=None)"),
    (gatedflow.render_svg, "(series_list, title='')"),
    (gatedflow.evaluate,
     "(ast: 'StepAST', io_sets: 'IOSets', lookup, emit, "
     "callees=mappingproxy({}))"),
], ids=["run", "signal_stop", "collection", "registry", "publish", "observe",
        "RunLogger", "open_run", "render_svg", "evaluate"])
def test_pinned_signatures(fn, params):
    signature = inspect.signature(fn).replace(
        return_annotation=inspect.Signature.empty)
    assert str(signature) == params


def test_io_sets_carry_the_step_protocol():
    """``extract_io`` returns the frozen sets a compiled step is keyed by."""
    sets = gatedflow.extract_io(gatedflow.parse("t = x + 1\ny = t"),
                                {"x": "x", "y": "y"})
    assert sets == gatedflow.IOSets(frozenset({"x"}), frozenset({"y"}),
                                    frozenset({"t"}))
    for field in (sets.reads, sets.writes, sets.locals):
        assert type(field) is frozenset


def test_import_and_a_run_leave_numpy_unloaded():
    """gatedflow does not use numpy, and only parallel studies use
    concurrent.futures, which they import themselves; so importing the
    package, running a collection, aggregating and running a serial study
    load neither."""
    script = "\n".join([
        "import sys, tempfile, gatedflow",
        "unused = {'numpy', 'concurrent.futures'}",
        "assert not unused & set(sys.modules), 'loaded by the import'",
        "c = gatedflow.ComponentCollection([gatedflow.make_component(",
        "    'A', {'a': 'a'}, init_body='a = 1', step_body='a = a + 1')])",
        "c.bind()",
        "assert c.run(max_steps=5).outcome == 'completed'",
        "assert not unused & set(sys.modules), 'loaded by the run'",
        "series, = gatedflow.aggregate([",
        "    gatedflow.MetricRecord('r', 'A', 'a', 0, 0.0, v) for v in (1, 2.5)])",
        "assert (series.mean, series.std) == ([1.75], [0.75])",
        "assert not unused & set(sys.modules), 'loaded by aggregate'",
        "registry = gatedflow.register_builtin()",
        "study = gatedflow.study_from_descriptors(registry, 'ToyStudy', seed=3)",
        "with tempfile.TemporaryDirectory() as root:",
        "    gatedflow.run_study(study, registry, gatedflow.DirectoryStore(root),",
        "                        n_trials=3)",
        "assert [t.state for t in study.trials] == ['complete'] * 3",
        "assert not unused & set(sys.modules), 'loaded by the study'",
    ])
    done = subprocess.run([sys.executable, "-c", script], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
