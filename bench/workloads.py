"""The benchmark's three workloads.

Every workload is a closed-loop batch job driven from one thread: it
generates its inputs from the seed, times one unit of work at a time, and
checks each unit's output outside the timed region. gatedflow receives only
the generated components and arguments. The threads gatedflow starts itself
(one per component, one store writer per run, the study's pool) are part of
the system under test.

- ``logged_pipeline``: a seeded ring of DSL-scripted components logged to a
  ``DirectoryStore``, then an analysis pass over those runs.
- ``fanout_star``: one native producer and 16 native consumers, no logger.
- ``study_sweep``: ``run_study`` on the builtin ``ToyStudy``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from time import perf_counter

import gatedflow as gf

STEP_TIMEOUT = 30.0

# logged_pipeline: 6 components in a ring. Two "hub" namespaces each get two
# extra readers, so every seed has the same number of reads and the same
# fan-out profile (two namespaces with 3 consumers, four with 1); the seed
# picks the hubs, their readers and every step body.
N_COMPONENTS = 6
HUBS = 2
HUB_EXTRA_READERS = 2
STATEMENTS = 8
# Long enough for the store's per-record cost to grow within a run (each
# chunk rewrites the whole file and fsyncs it, so a run writes about
# steps**2 bytes), yet short enough that the disk is not the bottleneck:
# 3000-step runs made the device write and discard 25 MB/s each, and their
# rate then followed the shared disk rather than gatedflow.
LOGGED_STEPS = 1500
RUNS_PER_ROUND = 3
EXPERIMENT = "logged_pipeline"
QUERY_COMPONENT = "C0"
# contracting forms: coefficients sum to at most 1 in magnitude, so values
# stay finite however long a run is
FORMS = (
    "({x} + {y}) * 0.5",
    "{x} * 0.75 - {y} * 0.25",
    "({x} - {y}) * 0.5 + 0.1",
    "{x} * 0.6 + {y} * 0.3 + 0.05",
)

STAR_CONSUMERS = 16
STAR_STEPS = 1000

STUDY_EXPERIMENT = "ToyStudy"
# Every trial fsyncs three files, and append_trial rewrites trials.ndjson
# whole (about 95 MB per 1000-trial study), so the trial rate follows the
# disk's burst state: runs after an idle spell went twice as fast as runs
# under sustained load. That is why BENCHMARK.json does not gate this
# workload; its layers are still measured by every traced run.
STUDY_TRIALS = 1000
# ToyStudy's objective: abs(alpha * a * b - target) with alpha = 1
DIM_A = "ComponentF.SubcomponentA.scaler"
DIM_B = "ComponentF.SubcomponentB.scaler"
TARGET = "ProductObjective.target"


@dataclass
class Outcome:
    """Everything one measurement window produced."""

    # timed work: steps or trials, and analysed records, with their seconds
    work: float = 0.0
    work_s: float = 0.0
    analysed: float = 0.0
    analysis_s: float = 0.0
    timed_runs: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    units: int = 0
    # per-layer inputs measured by the benchmark's own code
    records: int = 0
    rchar: int = 0
    wchar: int = 0
    records_in_store: int = 0
    handoffs: list = field(default_factory=list)
    exit_lags: list = field(default_factory=list)

    @property
    def work_per_s(self) -> float:
        """Work done per second over every timed run of the window."""
        return self.work / self.work_s

    @property
    def analysis_per_s(self) -> float:
        return self.analysed / self.analysis_s if self.analysis_s else 0.0

    def timed(self, work: float, seconds: float):
        self.work += work
        self.work_s += seconds
        self.timed_runs += 1

    def fail(self, message: str):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def proc_io() -> tuple[int, int]:
    """(rchar, wchar) of this process from /proc/self/io; zeros elsewhere."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            fields = dict(line.split(":", 1) for line in fh)
    except OSError:
        return 0, 0
    return int(fields["rchar"]), int(fields["wchar"])


def measure(workload, seconds: float, min_units: int = 1, warmup: int = 0,
            before_unit=lambda: None) -> Outcome:
    """Run ``warmup`` untimed units, then whole units until ``seconds`` have
    passed and at least ``min_units`` units are done, calling
    ``before_unit`` ahead of each. A warm-up unit's timings are dropped but
    its checks count. Units number their stores from 0, so each measurement
    needs its own work directory; stores stay on disk until the caller
    removes that directory, so deleting them slows no unit."""
    out = Outcome()
    for _ in range(warmup):
        spare = Outcome()
        before_unit()
        workload.unit(out.units, spare)
        out.units += 1
        out.attempted += spare.attempted
        out.failed += spare.failed
        out.problems += spare.problems
    start = perf_counter()
    while True:
        before_unit()
        workload.unit(out.units, out)
        out.units += 1
        if out.units >= warmup + min_units and perf_counter() - start >= seconds:
            return out


# -- logged_pipeline ----------------------------------------------------------


@dataclass(frozen=True)
class Node:
    name: str
    output: str
    reads: tuple
    step: str


def generate_graph(seed: int) -> list[Node]:
    """The seeded ring: component i reads n{i-1}, and up to two hubs."""
    rng = random.Random(seed)
    outputs = [f"n{i}" for i in range(N_COMPONENTS)]
    reads = [[outputs[i - 1]] for i in range(N_COMPONENTS)]
    for hub in rng.sample(outputs, HUBS):
        readers = [i for i in range(N_COMPONENTS)
                   if outputs[i] != hub and hub not in reads[i]]
        for i in rng.sample(readers, HUB_EXTRA_READERS):
            reads[i].append(hub)
    nodes = []
    for i, out in enumerate(outputs):
        pool = list(reads[i])
        lines = []
        # every body uses the same forms in a seeded order, so every seed
        # gives the same arithmetic per step
        forms = [FORMS[j % len(FORMS)] for j in range(STATEMENTS - 1)]
        rng.shuffle(forms)
        for j, form in enumerate(forms):
            # the first statements use each read once, so all of them are reads
            x = reads[i][j] if j < len(reads[i]) else rng.choice(pool)
            y = rng.choice(pool)
            lines.append(f"t{j} = " + form.format(x=x, y=y))
            pool.append(f"t{j}")
        lines.append(f"{out} = t{STATEMENTS - 2} * 0.9 + 0.05")
        nodes.append(Node(f"C{i}", out, tuple(reads[i]), "\n".join(lines) + "\n"))
    return nodes


def initial_values(seed: int, variant: int) -> list[float]:
    """Per-run starting values that bootstrap the ring's cycle."""
    rng = random.Random(f"{seed}:{variant}")
    return [round(rng.uniform(-1.0, 1.0), 6) for _ in range(N_COMPONENTS)]


class LoggedPipeline:
    """Rounds of RUNS_PER_ROUND logged runs into a fresh store, then one
    query -> aggregate -> export_csv -> read_csv -> render_svg pass."""

    name = "logged_pipeline"
    trace_units = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.graph = generate_graph(seed)
        self.oracle_cache: dict[int, dict] = {}

    def components(self, variant: int):
        values = initial_values(self.seed, variant)
        return [
            gf.make_component(
                name=node.name,
                io_map={ns: ns for ns in node.reads + (node.output,)},
                init_body=f"{node.output} = {value!r}\n",
                step_body=node.step,
            )
            for node, value in zip(self.graph, values)
        ]

    def setup(self):
        self.graph = generate_graph(self.seed)
        gf.ComponentCollection(self.components(0), step_timeout=STEP_TIMEOUT).bind()

    def expected_sequences(self, variant: int) -> dict:
        if variant not in self.oracle_cache:
            result = gf.oracle_run(self.components(variant), max_steps=LOGGED_STEPS)
            self.oracle_cache[variant] = result.sequences
        return self.oracle_cache[variant]

    def unit(self, index: int, out: Outcome):
        root = os.path.join(self.workdir, f"round{index}")
        store = gf.DirectoryStore(root)
        runs = []
        for variant in range(RUNS_PER_ROUND):
            logger = gf.open_run(store, EXPERIMENT, seed=self.seed,
                                 args={"variant": variant})
            collection = gf.ComponentCollection(self.components(variant),
                                                step_timeout=STEP_TIMEOUT,
                                                logger=logger)
            collection.bind()
            rchar, wchar = proc_io()
            start = perf_counter()
            report = collection.run(max_steps=LOGGED_STEPS)
            logger.close(outcome=report.outcome)
            elapsed = perf_counter() - start
            rchar2, wchar2 = proc_io()
            out.timed(LOGGED_STEPS, elapsed)
            out.rchar += rchar2 - rchar
            out.wchar += wchar2 - wchar
            out.records += N_COMPONENTS * (LOGGED_STEPS + 1)
            runs.append((variant, logger.run_id, report.outcome))

        start = perf_counter()
        records = gf.query(store, experiment=EXPERIMENT, component=QUERY_COMPONENT)
        series = gf.aggregate(records)
        paths = [os.path.join(root, f"series{i}.csv") for i in range(len(series))]
        read_back = []
        for one, path in zip(series, paths):
            gf.export_csv(one, path)
            read_back.append(gf.read_csv(path))
        svg = gf.render_svg(series)
        elapsed = perf_counter() - start
        out.analysed += len(records)
        out.analysis_s += elapsed
        out.records_in_store += RUNS_PER_ROUND * N_COMPONENTS * (LOGGED_STEPS + 1)

        for variant, run_id, outcome in runs:
            out.attempted += 1
            problem = self.check_run(store, variant, run_id, outcome)
            if problem:
                out.fail(f"run {run_id}: {problem}")
        out.attempted += 1
        problem = self.check_analysis(records, series, read_back, svg)
        if problem:
            out.fail(f"analysis of round {index}: {problem}")

    def check_run(self, store, variant, run_id, outcome) -> str | None:
        if outcome != "completed":
            return f"outcome {outcome}"
        meta = store.read_meta(run_id)
        if meta.get("outcome") != "completed":
            return f"meta.json outcome {meta.get('outcome')!r}"
        expected = self.expected_sequences(variant)
        seen: dict[tuple, list] = {}
        for rec in store.read_records(run_id):
            seen.setdefault((rec.component, rec.tag), []).append(rec)
        wanted = {(node.name, node.output) for node in self.graph}
        if set(seen) != wanted:
            return f"record keys {sorted(seen)} != {sorted(wanted)}"
        for (component, tag), recs in seen.items():
            if [r.step for r in recs] != list(range(len(recs))):
                return f"{component}/{tag}: steps lost, duplicated or reordered"
            if [r.value for r in recs] != expected[tag]:
                return f"{component}/{tag}: values differ from oracle_run"
        return None

    def check_analysis(self, records, series, read_back, svg) -> str | None:
        expected = RUNS_PER_ROUND * (LOGGED_STEPS + 1)
        if len(records) != expected:
            return f"query returned {len(records)} records, expected {expected}"
        for one, back in zip(series, read_back):
            for column in ("steps", "mean", "std", "n"):
                if ([repr(v) for v in getattr(one, column)]
                        != [repr(v) for v in getattr(back, column)]):
                    return f"CSV round trip changed column {column}"
        if gf.render_svg(series) != svg:
            return "render_svg is not deterministic"
        return None


# -- fanout_star --------------------------------------------------------------


class FanoutStar:
    """Runs of STAR_STEPS values from one producer to 16 consumers.

    The star has one shape, so the seed changes nothing here; the producer
    publishes 1..STAR_STEPS in every run.
    """

    name = "fanout_star"
    trace_units = 5

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def build(self):
        produced = []
        seen = [[] for _ in range(STAR_CONSUMERS)]

        def produce(inputs, ctx):
            produced.append(perf_counter())
            return {"v": len(produced)}

        def consumer(log):
            def consume(inputs, ctx):
                log.append((inputs["v"], perf_counter()))

            return consume

        components = [gf.make_component(
            "producer", {"v": "star"},
            step_body=gf.NativeBody(produce, writes={"v"}))]
        components += [
            gf.make_component(f"consumer{k:02d}", {"v": "star"},
                              step_body=gf.NativeBody(consumer(log), reads={"v"}))
            for k, log in enumerate(seen)
        ]
        collection = gf.ComponentCollection(components, step_timeout=STEP_TIMEOUT)
        collection.bind()
        return collection, produced, seen

    def setup(self):
        self.build()

    def unit(self, index: int, out: Outcome):
        collection, produced, seen = self.build()
        start = perf_counter()
        report = collection.run(max_steps=STAR_STEPS)
        returned = perf_counter()
        out.timed(STAR_STEPS, returned - start)

        out.attempted += 1
        expected = list(range(1, STAR_STEPS + 1))
        if report.outcome != "completed":
            out.fail(f"run {index}: outcome {report.outcome}")
            return
        for k, log in enumerate(seen):
            if [v for v, _ in log] != expected:
                out.fail(f"run {index}: consumer{k:02d} missed, repeated or "
                         "reordered values")
                return
        for i, t in enumerate(produced):
            out.handoffs.append(max(log[i][1] for log in seen) - t)
        out.exit_lags.append(returned - max(log[-1][1] for log in seen))


# -- study_sweep --------------------------------------------------------------


class StudySweep:
    """Studies of STUDY_TRIALS uniform-random trials, each into a fresh store."""

    name = "study_sweep"
    trace_units = 1

    def __init__(self, seed: int, workdir: str, parallelism: int = 1):
        self.seed = seed
        self.workdir = workdir
        self.parallelism = parallelism

    def new_study(self, registry, index: int):
        return gf.study_from_descriptors(
            registry, STUDY_EXPERIMENT, seed=self.seed, sampler="uniform-random",
            study_id=f"sweep-{self.seed}-{index}")

    def setup(self):
        self.new_study(gf.register_builtin(), 0)

    def unit(self, index: int, out: Outcome):
        registry = gf.register_builtin()
        study = self.new_study(registry, index)
        root = os.path.join(self.workdir, f"study{index}")
        store = gf.DirectoryStore(root)
        start = perf_counter()
        gf.run_study(study, registry, store, n_trials=STUDY_TRIALS,
                     parallelism=self.parallelism)
        out.timed(STUDY_TRIALS, perf_counter() - start)

        trials = store.read_trials(study.study_id)
        ids = sorted(t["trial_id"] for t in trials)
        out.attempted += STUDY_TRIALS
        if ids != list(range(STUDY_TRIALS)):
            out.fail(f"study {index}: trials.ndjson ids are not 0..{STUDY_TRIALS - 1}"
                     " once each")
        target = study.space.fixed[TARGET]
        for trial in trials:
            a, b = trial["assignment"][DIM_A], trial["assignment"][DIM_B]
            if trial["state"] != "complete":
                out.fail(f"study {index} trial {trial['trial_id']}: {trial['state']}")
            elif trial["objective"] != abs(1 * a * b - target):
                out.fail(f"study {index} trial {trial['trial_id']}: objective "
                         f"{trial['objective']!r} != abs(1 * a * b - target)")


WORKLOADS = {cls.name: cls for cls in (LoggedPipeline, FanoutStar, StudySweep)}


def make(name: str, seed: int, workdir, nproc: int):
    """The named workload; only the study uses the ``nproc`` thread pool."""
    if name == StudySweep.name:
        return StudySweep(seed, str(workdir), parallelism=nproc)
    return WORKLOADS[name](seed, str(workdir))
