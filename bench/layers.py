"""The traced run: per-layer metrics and the count checks behind them.

The traced run measures each workload twice in one process, first untraced
and then with every entry point below wrapped in a span. Per-layer numbers
come from the spans of the traced pass. What the benchmark measures itself
(body timestamps, /proc/self/io deltas, the analysis rate) comes from the
untraced pass, which tracing cannot slow. ``trace.overhead.<workload>`` is
the untraced throughput over the traced one, i.e. traced time per unit of
work over untraced: above 1 means tracing slows the workload.

Each layer is read on the workload that loads it: channels on
``fanout_star``; dsl, oracle, the store write and read paths and viz on
``logged_pipeline``; registry, study, runtime and the store's per-run path
on ``study_sweep``, except ``runtime.exit_lag_ms`` which needs runs that do
not overlap and comes from ``fanout_star``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import gatedflow as gf
import gatedflow.dsl
import gatedflow.oracle
import gatedflow.registry
import gatedflow.runtime
import gatedflow.store
import gatedflow.viz

import workloads as wl
from tracing import Tracer, late_over_early, self_times, tail

PUBLISH = "channels.publish"
OBSERVE = "channels.observe"
EVALUATE = "dsl.evaluate"
MAKE_COMPONENT = "runtime.make_component"
BIND = "runtime.bind"
RUN = "runtime.run"
ORACLE = "oracle.oracle_run"
BUILD = "registry.build_experiment"
OPEN_RUN = "store.open_run"
RECORD = "store.record"
CLOSE = "store.close"
APPEND = "store.append_records"
APPEND_TRIAL = "store.append_trial"
QUERY = "store.query"
AGGREGATE = "viz.aggregate"
EXPORT = "viz.export_csv"
RENDER = "viz.render_svg"

# entry points each workload must reach; a refactor that bypasses one would
# otherwise report a silent zero
REQUIRED = {
    "logged_pipeline": {PUBLISH, OBSERVE, EVALUATE, MAKE_COMPONENT, BIND, RUN,
                        ORACLE, OPEN_RUN, RECORD, CLOSE, APPEND, QUERY,
                        AGGREGATE, EXPORT, RENDER},
    "fanout_star": {PUBLISH, OBSERVE, MAKE_COMPONENT, BIND, RUN},
    "study_sweep": {PUBLISH, OBSERVE, EVALUATE, MAKE_COMPONENT, BIND, RUN,
                    BUILD, OPEN_RUN, RECORD, CLOSE, APPEND, APPEND_TRIAL, QUERY},
}

# ToyStudy's objective body records one value per step besides its writes
STUDY_EXPLICIT_RECORDS = 1


def _append_note(args, kwargs, result):
    run_id, records = args[1], args[2]
    return run_id, len(records)


def _size_of_result(args, kwargs, result):
    return len(result) if result is not None else 0


def _size_of_first(args, kwargs, result):
    return len(args[0])


def install(tracer: Tracer):
    """Wrap gatedflow's public entry points; ``tracer.restore`` undoes it."""
    tracer.patch_method(gf.Subject, "publish", PUBLISH)
    tracer.patch_method(gf.Observer, "observe", OBSERVE)
    tracer.patch_method(gf.ComponentCollection, "bind", BIND)
    tracer.patch_method(gf.ComponentCollection, "run", RUN)
    tracer.patch_method(gf.ProxyLogger, "record", RECORD)
    tracer.patch_method(gf.RunLogger, "close", CLOSE)
    tracer.patch_method(gf.DirectoryStore, "append_records", APPEND, _append_note)
    tracer.patch_method(gf.DirectoryStore, "append_trial", APPEND_TRIAL)
    for fn, name, note in (
        (gatedflow.dsl.evaluate, EVALUATE, None),
        (gatedflow.runtime.make_component, MAKE_COMPONENT, None),
        (gatedflow.oracle.oracle_run, ORACLE, None),
        (gatedflow.registry.build_experiment, BUILD, None),
        (gatedflow.store.open_run, OPEN_RUN, None),
        (gatedflow.store.query, QUERY, _size_of_result),
        (gatedflow.viz.aggregate, AGGREGATE, _size_of_first),
        (gatedflow.viz.export_csv, EXPORT, None),
        (gatedflow.viz.render_svg, RENDER, None),
    ):
        tracer.patch_function("gatedflow", fn, name, note)


# -- helpers -----------------------------------------------------------------


def _by_name(spans):
    groups = defaultdict(list)
    for span in spans:
        groups[span.name].append(span)
    return groups


def _ms(spans):
    return [s.duration * 1e3 for s in spans]


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(part, whole):
    """part / whole, or 0 when a bypassed entry point left ``whole`` empty
    (the count checks then report why)."""
    return part / whole if whole else 0.0


def _p99(samples):
    """The tail percentile, p99 at most, that has ten samples beyond it."""
    level, value = tail(samples, cap=99.0)
    return (level, value) if level is not None else (None, 0.0)


def implied_counts(components, steps: int, logged: bool,
                   explicit_records: int = 0) -> dict[str, int]:
    """Channel, logger and DSL calls one run of ``components`` must make."""
    counts = {PUBLISH: 0, OBSERVE: 0, RECORD: 0, EVALUATE: 0}
    for comp in components:
        init, step = comp.init_body, comp.step_body
        if init is not None:
            counts[EVALUATE] += not isinstance(init, gf.NativeBody)
            counts[RECORD] += len(init.writes) if logged else 0
        if step is not None:
            counts[PUBLISH] += steps * len(step.writes)
            counts[OBSERVE] += steps * len(step.reads)
            counts[EVALUATE] += steps * (not isinstance(step, gf.NativeBody))
            counts[RECORD] += steps * len(step.writes) if logged else 0
    counts[RECORD] += steps * explicit_records if logged else 0
    return counts


class Checks:
    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def expect(self, workload, what, got, wanted):
        self.attempted += 1
        if got != wanted:
            self.problems.append(f"{workload}: {what} = {got}, expected {wanted}")

    def reached(self, workload, groups):
        for name in sorted(REQUIRED[workload]):
            self.attempted += 1
            if not groups.get(name):
                self.problems.append(f"{workload}: entry point {name} never called")


def _scaled(counts, factor):
    return {k: v * factor for k, v in counts.items()}


def _check_counts(checks, workload, groups, implied, evaluated=None):
    """Compare span counts with ``implied``; ``evaluated`` overrides the
    number of runtime ``dsl.evaluate`` spans."""
    for name, wanted in implied.items():
        got = evaluated if name == EVALUATE and evaluated is not None else len(
            groups[name])
        checks.expect(workload, f"{name} calls", got, wanted)


# -- per workload --------------------------------------------------------------


def logged_layers(workload, spans, plain, traced, checks):
    groups = _by_name(spans)
    checks.reached(workload.name, groups)
    by_id = {s.id: s for s in spans}

    def under_oracle(span):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == ORACLE:
                return True
        return False

    runs = wl.RUNS_PER_ROUND * traced.units
    oracle_evals = [s for s in groups[EVALUATE] if under_oracle(s)]
    bodies = [s for s in groups[EVALUATE] if not under_oracle(s)]
    implied = _scaled(implied_counts(workload.components(0), wl.LOGGED_STEPS,
                                     logged=True), runs)
    _check_counts(checks, workload.name, groups, implied, evaluated=len(bodies))
    per_oracle = implied_counts(workload.components(0), wl.LOGGED_STEPS, logged=False)
    checks.expect(workload.name, "oracle dsl.evaluate calls", len(oracle_evals),
                  per_oracle[EVALUATE] * len(groups[ORACLE]))
    appended = sum(s.note[1] for s in groups[APPEND])
    checks.expect(workload.name, "records appended", appended, implied[RECORD])

    own = self_times(spans)
    dsl_self = sum(own[s.id] for s in bodies)
    chunks = defaultdict(list)
    for s in sorted(groups[APPEND], key=lambda s: s.start):
        chunks[s.note[0]].append((s.duration, s.note[1]))
    append_s = sum(s.duration for s in groups[APPEND])
    queried = sum(s.note for s in groups[QUERY])
    aggregated = sum(s.note for s in groups[AGGREGATE])
    oracle_s = sum(s.duration for s in groups[ORACLE])
    return {
        "dsl.bodies": (len(bodies), "count"),
        "dsl.self_s": (dsl_self, "s"),
        "dsl.bodies_per_s": (_ratio(len(bodies), dsl_self), "1/s"),
        "dsl.build_ms": (_median(_ms(groups[MAKE_COMPONENT])), "ms"),
        "oracle.steps_per_s": (_ratio(wl.LOGGED_STEPS * len(groups[ORACLE]), oracle_s),
                               "1/s"),
        "store.records": (len(groups[RECORD]), "count"),
        "store.record_us_p50": (_median(_ms(groups[RECORD])) * 1e3, "us"),
        "store.append_calls": (len(groups[APPEND]), "count"),
        "store.append_records_per_s": (_ratio(appended, append_s), "1/s"),
        "store.append_late_over_early": (
            _median([late_over_early(c) for c in chunks.values()]), "ratio"),
        "store.wchar_per_record": (_ratio(plain.wchar, plain.records), "B/record"),
        "store.rchar_per_record": (_ratio(plain.rchar, plain.records), "B/record"),
        "store.query_records_per_s": (
            _ratio(queried, sum(s.duration for s in groups[QUERY])), "1/s"),
        "store.query_useful_ratio": (_ratio(queried, traced.records_in_store),
                                     "ratio"),
        "viz.aggregate_records_per_s": (
            _ratio(aggregated, sum(s.duration for s in groups[AGGREGATE])), "1/s"),
        "viz.export_csv_ms": (_median(_ms(groups[EXPORT])), "ms"),
        "viz.render_svg_ms": (_median(_ms(groups[RENDER])), "ms"),
        "analysis_records_per_s": (plain.analysis_per_s, "1/s"),
    }, {}


def fanout_layers(workload, spans, plain, traced, checks):
    groups = _by_name(spans)
    checks.reached(workload.name, groups)
    collection, _, _ = workload.build()
    implied = _scaled(implied_counts(collection.components, wl.STAR_STEPS,
                                     logged=False), traced.units)
    _check_counts(checks, workload.name, groups, implied)
    handoffs_us = [h * 1e6 for h in plain.handoffs]
    level, p99 = _p99(handoffs_us)
    return {
        "channels.publish_calls": (len(groups[PUBLISH]), "count"),
        "channels.observe_calls": (len(groups[OBSERVE]), "count"),
        "channels.publish_s": (sum(s.duration for s in groups[PUBLISH]), "s"),
        "channels.observe_s": (sum(s.duration for s in groups[OBSERVE]), "s"),
        "channels.handoff_p50_us": (_median(handoffs_us), "us"),
        "channels.handoff_p99_us": (p99, "us"),
        "runtime.exit_lag_ms": (_median([x * 1e3 for x in plain.exit_lags]), "ms"),
    }, {"channels.handoff_p99_us": (level, len(handoffs_us))}


def _trial_ms(groups):
    """Trial spans: open_run to the next append_trial on the same thread."""
    marks = sorted(
        [(s.start, 0, s.thread) for s in groups[OPEN_RUN]]
        + [(s.end, 1, s.thread) for s in groups[APPEND_TRIAL]])
    opened = {}
    trials = []
    for t, kind, thread in marks:
        if kind == 0:
            opened[thread] = t
        elif thread in opened:
            trials.append((t - opened.pop(thread)) * 1e3)
    return trials


def study_layers(workload, spans, plain, traced, checks):
    groups = _by_name(spans)
    checks.reached(workload.name, groups)
    registry = gf.register_builtin()
    study = workload.new_study(registry, 0)
    probe = gf.build_experiment(registry, wl.STUDY_EXPERIMENT, {
        **study.space.fixed, wl.DIM_A: 0.5, wl.DIM_B: 0.25}, logger=None)
    trials = wl.STUDY_TRIALS * traced.units
    implied = _scaled(implied_counts(probe.components, 1, logged=True,
                                     explicit_records=STUDY_EXPLICIT_RECORDS),
                      trials)
    _check_counts(checks, workload.name, groups, implied)
    checks.expect(workload.name, "trials appended", len(groups[APPEND_TRIAL]), trials)

    trial_ms = _trial_ms(groups)
    run_ms = _ms(groups[RUN])
    run_level, run_p99 = _p99(run_ms)
    trial_level, trial_p99 = _p99(trial_ms)
    return {
        "registry.build_experiment_ms": (_median(_ms(groups[BUILD])), "ms"),
        "runtime.bind_ms": (_median(_ms(groups[BIND])), "ms"),
        "runtime.run_p50_ms": (_median(run_ms), "ms"),
        "runtime.run_p99_ms": (run_p99, "ms"),
        "study.trial_p50_ms": (_median(trial_ms), "ms"),
        "study.trial_p99_ms": (trial_p99, "ms"),
        "store.open_run_ms_p50": (_median(_ms(groups[OPEN_RUN])), "ms"),
        "store.close_ms_p50": (_median(_ms(groups[CLOSE])), "ms"),
        "store.append_trial_ms_p50": (_median(_ms(groups[APPEND_TRIAL])), "ms"),
    }, {"runtime.run_p99_ms": (run_level, len(run_ms)),
        "study.trial_p99_ms": (trial_level, len(trial_ms))}


LAYERS = {
    "logged_pipeline": logged_layers,
    "fanout_star": fanout_layers,
    "study_sweep": study_layers,
}
