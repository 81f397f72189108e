"""Experiment and study definition files (YAML or JSON).

Experiment definitions either reference a registered experiment:

    experiment: ToyExperiment
    args:
      ComponentF.SubcomponentA.scaler: 0.3
    max_steps: 3

or declare components inline:

    components:
      - name: A
        io_map: {x: x, y: y, z: z}
        step: |
          temp = x * y
          z = temp
      - type: ComponentC      # reuse a registered component type whose
        name: C                # bodies need no parameters or subcomponents
        io_map: {alpha: beta}  # treated as an io_map override
    max_steps: 3

Study definitions:

    experiment: ToyStudy
    direction: minimize
    objective: {tag: objective, reduce: last}
    sampler: uniform-random
    seed: 7
    n_trials: 200
    parallelism: 1
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import yaml

from .errors import FlowError
from .registry import TypeRegistry
from .runtime import ComponentCollection, make_component


class DefinitionError(FlowError):
    pass


def load_document(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise DefinitionError(f"{path}: expected a mapping at top level")
    return doc


def _check_int(field, value, minimum=None):
    """Reject a value that is not an int (bools included) or is below ``minimum``."""
    if type(value) is not int or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise DefinitionError(f"{field} must be an integer{bound}, got {value!r}")


def _check_limits(max_steps, step_timeout):
    """Reject a step bound or step timeout the runtime cannot use."""
    if max_steps is not None:
        _check_int("max_steps", max_steps, 0)
    if step_timeout is not None and not (
            type(step_timeout) in (int, float)
            and 0 < step_timeout <= threading.TIMEOUT_MAX):
        raise DefinitionError(
            f"step_timeout must be a positive number, got {step_timeout!r}")


def _check_study_counts(seed, n_trials, parallelism):
    """Reject a study seed, trial count or parallelism the study cannot use."""
    _check_int("seed", seed)
    _check_int("n_trials", n_trials, 0)
    _check_int("parallelism", parallelism, 1)


@dataclass
class ExperimentDefinition:
    experiment: str | None  # registered name, or None for inline components
    components: list | None
    args: dict
    max_steps: int | None
    step_timeout: float | None

    @property
    def label(self) -> str:
        return self.experiment or "inline"


def _check_mapping(field, value):
    if not isinstance(value, dict):
        raise DefinitionError(f"{field} must be a mapping, got {value!r}")


def _check_entry(entry):
    """Reject a component entry whose shape cannot become a component."""
    if not isinstance(entry, dict) or "name" not in entry:
        raise DefinitionError(f"component entry needs a 'name': {entry!r}")
    _check_limits(entry.get("max_steps"), None)
    io_map = entry.get("io_map")
    if io_map is not None:
        _check_mapping(f"io_map of {entry['name']!r}", io_map)
    if not io_map and entry.get("type") is None:
        raise DefinitionError(f"inline component {entry['name']!r} needs an io_map")
    for body in ("init", "step"):
        text = entry.get(body)
        if text is not None and not isinstance(text, str):
            raise DefinitionError(
                f"{body} of {entry['name']!r} must be script text, got {text!r}")


def load_experiment_definition(path) -> ExperimentDefinition:
    doc = load_document(path)
    experiment = doc.get("experiment")
    components = doc.get("components")
    if (experiment is None) == (components is None):
        raise DefinitionError(
            f"{path}: exactly one of 'experiment' or 'components' is required"
        )
    _check_limits(doc.get("max_steps"), doc.get("step_timeout"))
    args = doc.get("args") or {}
    _check_mapping("args", args)
    if components is not None:
        if not isinstance(components, list):
            raise DefinitionError(f"components must be a list, got {components!r}")
        for entry in components:
            _check_entry(entry)
    return ExperimentDefinition(
        experiment=experiment,
        components=components,
        args=args,
        max_steps=doc.get("max_steps"),
        step_timeout=doc.get("step_timeout"),
    )


def inline_components(registry: TypeRegistry, definition: ExperimentDefinition):
    """Build the components a definition declares inline. An entry with an
    unknown type, a type that needs a factory, or a script that does not
    parse or check is a DefinitionError, and so is a set of components that
    cannot bind (a repeated name or written namespace, or a read namespace
    no one writes), so a caller can build them before it opens a run."""
    components = []
    for entry in definition.components:
        type_name = entry.get("type")
        try:
            if type_name is not None:
                spec = registry.component(type_name)
                if spec.make_bodies is not None or spec.slots:
                    raise DefinitionError(
                        f"type {type_name!r} builds its bodies from parameters "
                        f"or subcomponents: use it through a registered experiment")
                io_map = spec.io_map
                override = entry.get("io_map")
                init, step = spec.init, spec.step
            else:
                io_map = entry["io_map"]
                override = None
                init, step = entry.get("init"), entry.get("step")
            components.append(make_component(
                name=entry["name"],
                io_map=io_map,
                init_body=init,
                step_body=step,
                io_map_override=override,
                max_steps=entry.get("max_steps"),
            ))
        except FlowError as exc:
            raise DefinitionError(f"component {entry['name']!r}: {exc}") from exc
    try:  # a throwaway collection, bound with no logger and never run
        ComponentCollection(components).bind()
    except (FlowError, ValueError) as exc:
        raise DefinitionError(f"the components do not bind: {exc}") from exc
    return components


@dataclass
class StudyDefinition:
    experiment: str
    direction: str
    objective_tag: str
    reduce: str
    sampler: str
    seed: int
    n_trials: int
    parallelism: int
    max_steps: int | None
    step_timeout: float | None


def load_study_definition(path) -> StudyDefinition:
    doc = load_document(path)
    if "experiment" not in doc:
        raise DefinitionError(f"{path}: study definition needs 'experiment'")
    _check_limits(doc.get("max_steps"), doc.get("step_timeout"))
    objective = doc.get("objective") or {}
    _check_mapping("objective", objective)
    definition = StudyDefinition(
        experiment=doc["experiment"],
        direction=doc.get("direction", "minimize"),
        objective_tag=objective.get("tag", "objective"),
        reduce=objective.get("reduce", "last"),
        sampler=doc.get("sampler", "uniform-random"),
        seed=doc.get("seed", 0),
        n_trials=doc.get("n_trials", 0),
        parallelism=doc.get("parallelism", 1),
        max_steps=doc.get("max_steps"),
        step_timeout=doc.get("step_timeout"),
    )
    _check_study_counts(definition.seed, definition.n_trials,
                        definition.parallelism)
    return definition
