"""Hyperparameter studies: search spaces, samplers, and trial execution.

Two samplers are built in. ``uniform-random`` draws every dimension
independently (uniform in log10 space for log-scaled reals) and
pre-assigns all draws per trial index, so parallel runs sample exactly the
same multiset as serial ones. ``local-gaussian`` explores uniformly with
probability 0.2 and otherwise perturbs the incumbent best assignment with
Gaussian noise of scale 0.1 x (high - low) per dimension; it depends on
completion order, so determinism is only guaranteed at parallelism 1.
A study's seed fixes its draws through one ``random.Random``; its
``gauss`` is not thread-safe, so parallel trials draw under one lock.
"""

from __future__ import annotations

import math
import random
import threading
import uuid
from dataclasses import asdict, dataclass, field, replace

from .errors import NoCompleteTrials, StudyAborted
from .registry import HyperparameterDescriptor, build_experiment, collect_hyperparameters
from .store import RECORD_ORDER, DirectoryStore, open_run, query
from .viz import left_sum

EXPLORE_PROBABILITY = 0.2
NOISE_SCALE = 0.1

REDUCERS = {
    "last": lambda values: values[-1],
    "mean": lambda values: left_sum(values) / len(values),
    "max": max,
    "min": min,
}


@dataclass
class SearchSpace:
    dimensions: list[HyperparameterDescriptor] = field(default_factory=list)
    fixed: dict = field(default_factory=dict)


def build_search_space(descriptors) -> SearchSpace:
    """Partition collected descriptors into sampled dimensions, each a
    descriptor renamed to its namespaced name, and fixed values."""
    space = SearchSpace()
    for name, desc in sorted(descriptors, key=lambda item: item[0]):
        if desc.bounded:
            space.dimensions.append(replace(desc, name=name))
        else:
            space.fixed[name] = desc.default
    return space


@dataclass
class Trial:
    trial_id: int
    assignment: dict
    state: str = "pending"  # pending | running | complete | failed
    objective: float | None = None
    seed: int = 0
    run_id: str | None = None

    def to_json(self) -> dict:
        return asdict(self)


class Study:
    def __init__(self, experiment: str, space: SearchSpace,
                 direction: str = "minimize", objective_tag: str = "objective",
                 reduce: str = "last", sampler: str = "uniform-random",
                 seed: int = 0, study_id: str | None = None,
                 max_steps: int | None = None, step_timeout: float | None = None):
        if direction not in ("minimize", "maximize"):
            raise ValueError(f"unknown direction {direction!r}")
        if reduce not in REDUCERS:
            raise ValueError(f"unknown reducer {reduce!r}")
        if sampler not in ("uniform-random", "local-gaussian"):
            raise ValueError(f"unknown sampler {sampler!r}")
        self.experiment = experiment
        self.space = space
        self.direction = direction
        self.objective_tag = objective_tag
        self.reduce = reduce
        self.sampler = sampler
        self.seed = seed
        self.study_id = study_id or f"study-{uuid.uuid4().hex[:8]}"
        self.max_steps = max_steps
        self.step_timeout = step_timeout
        self.trials: list[Trial] = []
        self._rng = random.Random(seed)

    def header(self) -> dict:
        return {
            "study_id": self.study_id,
            "experiment": self.experiment,
            "direction": self.direction,
            "objective": {"tag": self.objective_tag, "reduce": self.reduce},
            "sampler": self.sampler,
            "seed": self.seed,
            "dimensions": [d.name for d in self.space.dimensions],
            "fixed": self.space.fixed,
        }


def _sample_dimension_uniform(dim: HyperparameterDescriptor, rng) -> object:
    if dim.kind == "categorical":
        return rng.choice(dim.choices)
    low, high = dim.bounds
    if dim.kind == "integer":
        return rng.randint(low, high)
    if dim.log_scale:  # 10 ** log10(x) may land one ulp outside
        value = 10.0 ** rng.uniform(math.log10(low), math.log10(high))
    else:  # low + (high - low) * random() may round past high
        value = rng.uniform(low, high)
    return min(max(value, low), high)


def _sample_uniform(space: SearchSpace, rng) -> dict:
    return {d.name: _sample_dimension_uniform(d, rng) for d in space.dimensions}


def sample(study: Study, history) -> dict:
    """Draw one assignment from the study's sampler given past trials."""
    rng = study._rng
    space = study.space
    if study.sampler == "uniform-random":
        return _sample_uniform(space, rng)
    complete = [t for t in history if t.state == "complete"]
    if not complete or rng.random() < EXPLORE_PROBABILITY:
        return _sample_uniform(space, rng)
    incumbent = _best_of(complete, study.direction).assignment
    assignment = {}
    for dim in space.dimensions:
        base = incumbent[dim.name]
        if dim.kind == "categorical":
            if rng.random() < EXPLORE_PROBABILITY:
                assignment[dim.name] = rng.choice(dim.choices)
            else:
                assignment[dim.name] = base
            continue
        low, high = dim.bounds
        value = base + rng.gauss(0.0, NOISE_SCALE * (high - low))
        if dim.kind == "integer":
            value = int(round(value))
        value = min(max(value, low), high)
        assignment[dim.name] = float(value) if dim.kind == "real" else int(value)
    return assignment


def _best_of(trials, direction) -> Trial:
    if direction == "minimize":
        return min(trials, key=lambda t: (t.objective, t.trial_id))
    return max(trials, key=lambda t: (t.objective, -t.trial_id))


def best_trial(study: Study) -> Trial:
    complete = [t for t in study.trials if t.state == "complete"]
    if not complete:
        raise NoCompleteTrials(study.study_id)
    return _best_of(complete, study.direction)


def run_study(study: Study, registry, store: DirectoryStore, n_trials: int,
              parallelism: int = 1, spool=None) -> Study:
    """Execute trials, persisting each to the store as it completes.

    A failed trial (body error, deadlock timeout) is recorded and skipped;
    the study only aborts if every one of the first min(10, n_trials)
    trials fails. A negative ``n_trials``, or a study that neither it nor
    its experiment gives a step bound, raises ValueError before anything is
    written.
    """
    if n_trials < 0:
        raise ValueError(f"n_trials must be >= 0, got {n_trials}")
    reducer = REDUCERS[study.reduce]
    ledger_lock = threading.Lock()
    sampler_lock = threading.Lock()
    max_steps = study.max_steps
    if max_steps is None:
        max_steps = registry.experiment(study.experiment).default_max_steps
    if max_steps is None:  # every trial would run forever
        raise ValueError(f"study {study.study_id}: a step bound is required: "
                         f"{study.experiment} sets no default_max_steps")
    store.write_study(study.study_id, study.header())

    preassigned = None
    if study.sampler == "uniform-random":
        preassigned = [_sample_uniform(study.space, study._rng)
                       for _ in range(n_trials)]

    def execute(trial_id: int):
        if preassigned is not None:
            assignment = preassigned[trial_id]
        else:
            with sampler_lock:
                assignment = sample(study, study.trials)
        trial = Trial(trial_id, assignment, state="running",
                      seed=study.seed + trial_id)
        with ledger_lock:
            study.trials.append(trial)
        args = {**study.space.fixed, **assignment}
        run = open_run(store, study.experiment, seed=trial.seed, args=args,
                       spool=spool)
        trial.run_id = run.run_id
        try:
            collection = build_experiment(
                registry, study.experiment, args, logger=run,
                step_timeout=study.step_timeout,
            )
            report = collection.run(max_steps=max_steps)
            run.close(outcome=report.outcome)
            if report.outcome not in ("completed", "stopped"):
                raise RuntimeError(f"run ended with outcome {report.outcome}")
            where = {"run_ids": [run.run_id], "tag": study.objective_tag}
            records = query(store, **where)
            if run.spooled_records:  # the chunks the primary refused
                records = sorted(records + query(spool, **where), key=RECORD_ORDER)
            if not records:
                raise RuntimeError(
                    f"run produced no records for tag {study.objective_tag!r}"
                )
            trial.objective = float(reducer([r.value for r in records]))
            trial.state = "complete"
        except Exception:
            run.mark_failed()
            trial.objective = None
            trial.state = "failed"
        with ledger_lock:
            store.append_trial(study.study_id, trial.to_json())
        return trial

    if parallelism <= 1:
        for i in range(n_trials):
            execute(i)
    else:
        # here, so that importing gatedflow and serial studies do not load it
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            list(pool.map(execute, range(n_trials)))

    probe = min(10, n_trials)
    if probe:
        first = sorted(study.trials, key=lambda t: t.trial_id)[:probe]
        if all(t.state == "failed" for t in first):
            raise StudyAborted(
                f"first {probe} trials of {study.study_id} all failed"
            )
    return study


def study_from_descriptors(registry, experiment: str, **kwargs) -> Study:
    """Convenience: collect descriptors for an experiment and build a Study."""
    space = build_search_space(collect_hyperparameters(registry, experiment))
    return Study(experiment, space, **kwargs)
