"""Command-line front end.

Subcommands: run, study, list, export, plot, merge-spool,
emit-batch-script, and the debugging helper oracle-run, which loads a
definition file or registered name as run does and prints its oracle
sequences. Every option, and each namespaced parameter's flag, is named in full.
stdout carries data (JSON lines); diagnostics go to stderr.

Exit codes are a stable contract: 0 ok, 2 usage, 3 deadlock timeout,
4 runtime error, 5 store I/O. A definition file that cannot be read, is
not UTF-8 YAML, has an unknown key or a name that is not a string, gives
an ``args`` value its parameter's bounds refuse, or names an experiment,
registered or inline, that cannot be built or bound exits 2 before ``run``
opens a run or ``oracle-run`` runs, as does one with no run-wide step
bound where some component with a step body has no ``max_steps`` of its
own, and an inline one that gives ``args``; an ``export`` or ``plot``
``--group-by`` name that is not a ``MetricRecord`` field exits 2; a study
that neither its file nor its experiment gives a step bound exits 2
before ``study`` or ``emit-batch-script`` writes anything; a body error
raised while the run runs exits 4. ``run`` stopped by SIGINT or SIGTERM
closes its run as ``stopped`` and exits 128 + the signal's number: 130
or 143.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import shlex
import signal
import sys
import threading

from . import definition as defs
from .builtin import register_builtin
from .errors import FlowError, PrimaryUnavailable, UnknownExperiment
from .oracle import oracle_run
from .registry import collect_hyperparameters
from .store import DirectoryStore, MetricRecord, merge_spool, open_run, query
from .study import best_trial, run_study
from .viz import aggregate, export_csv, render_svg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TIMEOUT = 3
EXIT_RUNTIME = 4
EXIT_STORE = 5


def _parse_experiment_args(registry, experiment, rest) -> dict:
    """Read ``--name value`` or ``--name=value`` per collected parameter, its
    name in full and the next token whole as its value (so ``-1e6`` is one),
    into exp_args; a value its descriptor's kind or bounds refuse exits 2."""
    params = dict(collect_hyperparameters(registry, experiment))
    parser = argparse.ArgumentParser(prog=f"run {experiment}", add_help=False)
    exp_args = {}
    tokens = iter(rest)
    for token in tokens:
        flag, has_value, text = token.partition("=")
        desc = params.get(flag[2:]) if flag.startswith("--") else None
        if desc is None:
            parser.error(f"unrecognised arguments: {token}")
        text = text if has_value else next(tokens, None)
        if text is None:
            parser.error(f"argument {flag}: expected one argument")
        try:
            if desc.kind == "integer":
                value = int(text)
            elif desc.kind == "real":
                value = float(text)
            else:  # the choice that prints as the text, so "32" selects int 32
                value = next((c for c in desc.choices or () if str(c) == text), text)
            if not desc.contains(value):
                raise ValueError(text)
        except ValueError:
            parser.error(f"argument {flag}: {text!r} is not a {desc.kind} value in "
                         f"{desc.choices or desc.bounds or 'any range'}")
        exp_args[flag[2:]] = value
    return exp_args


def _add_store_flags(parser):
    parser.add_argument("--store-root", default="./flow-store")
    parser.add_argument("--spool-root", default=None)


def _group_by(text) -> tuple:
    """The record fields named in ``--group-by``; any other name exits 2."""
    names = tuple(text.split(","))
    fields = [field.name for field in dataclasses.fields(MetricRecord)]
    unknown = [name for name in names if name not in fields]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"not a record field: {', '.join(map(repr, unknown))} "
            f"(fields: {', '.join(fields)})")
    return names


def _add_selection_flags(parser):
    parser.add_argument("--tag", default=None)
    parser.add_argument("--runs", default=None, help="comma-separated run ids")
    parser.add_argument("--experiment", default=None)
    parser.add_argument("--group-by", default="component,tag", type=_group_by)


def _make_stores(args):
    store = DirectoryStore(args.store_root)
    try:
        os.makedirs(store.root, exist_ok=True)
    except OSError as exc:
        raise PrimaryUnavailable(str(exc)) from exc
    if not os.access(store.root, os.W_OK):
        raise PrimaryUnavailable(f"store root {store.root} is not writable")
    spool = DirectoryStore(args.spool_root) if args.spool_root else None
    if spool is not None:
        os.makedirs(spool.root, exist_ok=True)
    return store, spool


# --- subcommands -----------------------------------------------------------


def _load_experiment(args, rest):
    """The definition ``args.experiment`` names, a file or a registered
    name, with ``rest`` and the flag overrides applied, its bound collection
    and its step bound; a refusal is a DefinitionError, so it exits 2."""
    registry = register_builtin()
    exp_def = (defs.load_experiment_definition(args.experiment)
               if os.path.exists(args.experiment)
               else defs.ExperimentDefinition(args.experiment))
    default_steps = None
    if exp_def.experiment is not None:
        exp_def.args.update(_parse_experiment_args(registry, exp_def.experiment, rest))
        default_steps = registry.experiment(exp_def.experiment).default_max_steps
    elif rest:
        raise defs.DefinitionError(f"unrecognised arguments: {' '.join(rest)}")
    if args.max_steps is not None:
        exp_def.max_steps = args.max_steps
    if args.step_timeout is not None:
        exp_def.step_timeout = args.step_timeout
    max_steps = exp_def.max_steps if exp_def.max_steps is not None else default_steps
    collection = defs.build_components(registry, exp_def)
    if max_steps is None and any(c.step_body is not None and c.max_steps is None
                                 for c in collection.components):
        raise defs.DefinitionError("a step bound is required: pass --max-steps")
    return exp_def, collection, max_steps


def cmd_run(args, rest) -> int:
    exp_def, collection, max_steps = _load_experiment(args, rest)
    store, spool = _make_stores(args)
    run = open_run(store, exp_def.label, seed=args.seed, args=exp_def.args,
                   spool=spool)
    collection.logger = run
    try:
        with _stop_on_signals(collection) as signals:
            report = collection.run(max_steps=max_steps)
    except Exception:
        run.close(outcome="error")
        raise
    run.close(outcome=report.outcome)
    print(json.dumps({
        "run_id": run.run_id,
        "outcome": report.outcome,
        "steps": report.steps,
    }, sort_keys=True))
    if report.outcome == "timeout":
        for name, namespace, op in report.blocked_on:
            print(f"blocked: component {name} waiting to {op} on "
                  f"namespace {namespace!r}", file=sys.stderr)
        return EXIT_TIMEOUT
    if report.outcome == "error":
        print(f"body error: {report.error}", file=sys.stderr)
        return EXIT_RUNTIME
    if signals:  # the exit status of a process the signal ended
        return 128 + signals[0]
    return EXIT_OK


@contextlib.contextmanager
def _stop_on_signals(collection):
    """Within the block, SIGINT and SIGTERM stop ``collection`` and are
    appended to the yielded list. The first one puts the previous handlers
    back, so a second one acts as it would without this block. Off the main
    thread, where Python takes no handlers, the block changes nothing."""
    signals = []
    if threading.current_thread() is not threading.main_thread():
        yield signals
        return
    previous = {signum: signal.getsignal(signum)
                for signum in (signal.SIGINT, signal.SIGTERM)}

    def restore():
        for signum, handler in previous.items():
            # None: a handler not set from Python, which cannot be put back
            signal.signal(signum, signal.SIG_DFL if handler is None else handler)

    def stop(signum, frame):
        signals.append(signum)
        restore()
        collection.signal_stop()

    for signum in previous:
        signal.signal(signum, stop)
    try:
        yield signals
    finally:
        restore()


def cmd_study(args, rest) -> int:
    registry = register_builtin()
    study, n_trials, parallelism = defs.load_study(
        args.definition, registry, seed=args.seed, n_trials=args.n_trials,
        parallelism=args.parallelism)
    store, spool = _make_stores(args)
    run_study(study, registry, store, n_trials, parallelism=parallelism,
              spool=spool)
    complete = [t for t in study.trials if t.state == "complete"]
    if not complete:
        print("null")
    else:
        print(json.dumps(best_trial(study).to_json(), sort_keys=True))
    return EXIT_OK


def cmd_list(args, rest) -> int:
    registry = register_builtin()
    listing = {
        "components": sorted(registry.components),
        "subcomponents": sorted(registry.subcomponents),
        "experiments": sorted(registry.experiments),
    }
    print(json.dumps(listing, sort_keys=True))
    return EXIT_OK


def _select_records(args, store):
    run_ids = args.runs.split(",") if args.runs else None
    return query(store, run_ids=run_ids, experiment=args.experiment,
                 tag=args.tag)


def cmd_export(args, rest) -> int:
    store = DirectoryStore(args.store_root)
    records = _select_records(args, store)
    if args.raw:
        with open(args.out, "w", encoding="utf-8") as fh:
            for rec in records:
                obj = {"r": rec.run_id, "c": rec.component, "t": rec.tag,
                       "s": rec.step, "w": rec.wall_time, "v": rec.value}
                if args.strip_walltime:
                    del obj["w"]
                fh.write(json.dumps(obj, sort_keys=True) + "\n")
        return EXIT_OK
    series = aggregate(records, group_by=args.group_by)
    if len(series) != 1:
        print(
            f"selection produced {len(series)} series; narrow the filter "
            f"(per-series CSV export takes exactly one)", file=sys.stderr,
        )
        return EXIT_USAGE
    export_csv(series[0], args.out)
    return EXIT_OK


def cmd_plot(args, rest) -> int:
    store = DirectoryStore(args.store_root)
    records = _select_records(args, store)
    series = aggregate(records, group_by=args.group_by)
    if not series:
        print("selection produced no series; widen the filter", file=sys.stderr)
        return EXIT_USAGE
    svg = render_svg(series, title=args.title or (args.tag or ""))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    return EXIT_OK


def cmd_merge_spool(args, rest) -> int:
    if args.spool_root is None:
        print("--spool-root is required", file=sys.stderr)
        return EXIT_USAGE
    report = merge_spool(DirectoryStore(args.store_root),
                         DirectoryStore(args.spool_root))
    print(json.dumps({"merged": report.merged, "skipped": report.skipped}))
    return EXIT_OK


def cmd_emit_batch_script(args, rest) -> int:
    # each array task builds this Study: a file it rejects gets no script
    study, n_trials, _ = defs.load_study(args.definition, register_builtin(),
                                         n_trials=args.n_trials)
    if n_trials <= 0:
        print("cannot partition a study with no trials", file=sys.stderr)
        return EXIT_USAGE
    partitions = args.partitions
    if partitions <= 0 or partitions > n_trials:
        print(f"partitions must be in 1..{n_trials}", file=sys.stderr)
        return EXIT_USAGE
    base = n_trials // partitions
    counts = [base + (1 if i < n_trials % partitions else 0)
              for i in range(partitions)]
    offsets = [sum(counts[:i]) for i in range(partitions)]
    lines = ["#!/bin/sh"]
    for header in args.header or []:
        lines.append(header)
    # the program is shell text, so "python -m gatedflow" works; paths are quoted
    command = f"exec {args.program} study {shlex.quote(args.definition)}"
    roots = f"--store-root {shlex.quote(args.store_root)}"
    if args.spool_root is not None:
        roots += f" --spool-root {shlex.quote(args.spool_root)}"
    if partitions == 1:
        lines.append(f"{command} --n-trials {n_trials} --seed {study.seed} {roots}")
    else:
        lines.append(f"#ARRAY 0-{partitions - 1}")
        lines.append('IDX="${ARRAY_INDEX:-0}"')
        lines.append("case \"$IDX\" in")
        for i in range(partitions):
            lines.append(
                f"  {i}) COUNT={counts[i]} SEED={study.seed + offsets[i]} ;;"
            )
        lines.append("  *) echo \"bad array index $IDX\" >&2; exit 2 ;;")
        lines.append("esac")
        lines.append(f'{command} --n-trials "$COUNT" --seed "$SEED" {roots}')
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_oracle_run(args, rest) -> int:
    _, collection, max_steps = _load_experiment(args, rest)
    result = oracle_run(collection.components, max_steps)
    print(json.dumps({"sequences": result.sequences, "steps": result.steps},
                     sort_keys=True))
    return EXIT_OK


# --- entry -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    in_full = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = in_full(prog="gatedflow")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=in_full)

    p = sub.add_parser("run", help="build and run an experiment")
    p.add_argument("experiment", help="registered experiment name or definition file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--step-timeout", type=float, default=None)
    _add_store_flags(p)
    p.set_defaults(fn=cmd_run, partial=True)

    p = sub.add_parser("study", help="run a hyperparameter study locally")
    p.add_argument("definition", help="study definition file")
    p.add_argument("--n-trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--parallelism", type=int, default=None)
    _add_store_flags(p)
    p.set_defaults(fn=cmd_study, partial=False)

    p = sub.add_parser("list", help="list registered types per tier")
    p.set_defaults(fn=cmd_list, partial=False)

    p = sub.add_parser("export", help="export aggregated CSV (or raw records)")
    _add_selection_flags(p)
    p.add_argument("--raw", action="store_true")
    p.add_argument("--strip-walltime", action="store_true")
    p.add_argument("--out", required=True)
    _add_store_flags(p)
    p.set_defaults(fn=cmd_export, partial=False)

    p = sub.add_parser("plot", help="render an SVG chart with deviation bands")
    _add_selection_flags(p)
    p.add_argument("--title", default=None)
    p.add_argument("--out", required=True)
    _add_store_flags(p)
    p.set_defaults(fn=cmd_plot, partial=False)

    p = sub.add_parser("merge-spool", help="merge spooled records into the primary")
    _add_store_flags(p)
    p.set_defaults(fn=cmd_merge_spool, partial=False)

    p = sub.add_parser("emit-batch-script",
                       help="emit an array-job submission script (text only)")
    p.add_argument("definition")
    p.add_argument("--partitions", type=int, default=1)
    p.add_argument("--n-trials", type=int, default=None)
    p.add_argument("--header", action="append", default=None,
                   help="extra header line (repeatable)")
    p.add_argument("--program", default="gatedflow")
    p.add_argument("--out", required=True)
    _add_store_flags(p)
    p.set_defaults(fn=cmd_emit_batch_script, partial=False)

    p = sub.add_parser("oracle-run",
                       help="debug: sequential reference interpreter")
    p.add_argument("experiment", help="registered experiment name or definition file")
    p.add_argument("--max-steps", type=int, default=None)
    p.set_defaults(fn=cmd_oracle_run, partial=True, step_timeout=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        if argv is None:
            argv = sys.argv[1:]
        args, rest = parser.parse_known_args(argv)
        if not getattr(args, "partial", False) and rest:
            print(f"unrecognised arguments: {' '.join(rest)}", file=sys.stderr)
            return EXIT_USAGE
        return args.fn(args, rest)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (PrimaryUnavailable, OSError) as exc:
        print(f"store error: {exc}", file=sys.stderr)
        return EXIT_STORE
    except (UnknownExperiment, defs.DefinitionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
