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

An inline definition takes no ``args``: its components have no parameters.

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
from dataclasses import dataclass, field

import yaml

from .errors import FlowError
from .registry import TypeRegistry, build_experiment
from .runtime import ComponentCollection, make_component
from .study import Study, study_from_descriptors


class DefinitionError(FlowError):
    pass


def load_document(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise DefinitionError(f"{path}: cannot read the file: {exc}") from exc
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise DefinitionError(f"{path}: not a UTF-8 YAML document: {exc}") from exc
    if not isinstance(doc, dict):
        raise DefinitionError(f"{path}: expected a mapping at top level")
    return doc


def _check_name(field, value):
    if not isinstance(value, str):
        raise DefinitionError(f"{field} must be a string, got {value!r}")


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


@dataclass
class ExperimentDefinition:
    experiment: str | None = None  # registered name, or None for inline components
    components: list | None = None
    args: dict = field(default_factory=dict)
    max_steps: int | None = None
    step_timeout: float | None = None

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
    _check_name("component name", entry["name"])
    if entry.get("type") is not None:
        _check_name(f"type of {entry['name']!r}", entry["type"])
    _check_limits(entry.get("max_steps"), None)
    io_map = entry.get("io_map")
    if io_map is not None:
        _check_mapping(f"io_map of {entry['name']!r}", io_map)
        for internal, namespace in io_map.items():
            _check_name(f"io_map name of {entry['name']!r}", internal)
            _check_name(f"io_map namespace of {entry['name']!r}", namespace)
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
    for name in args:
        _check_name("args name", name)
    if components is not None:
        if args:  # no parameter of an inline component would take them
            raise DefinitionError(
                f"{path}: an inline definition takes no args, got {args!r}")
        if not isinstance(components, list):
            raise DefinitionError(f"components must be a list, got {components!r}")
        for entry in components:
            _check_entry(entry)
    else:
        _check_name("experiment", experiment)
    return ExperimentDefinition(
        experiment=experiment,
        components=components,
        args=args,
        max_steps=doc.get("max_steps"),
        step_timeout=doc.get("step_timeout"),
    )


def build_components(registry: TypeRegistry, definition: ExperimentDefinition
                     ) -> ComponentCollection:
    """The bound collection of a registered or inline definition, with the
    definition's step timeout and no logger, so a caller can reject it
    before it opens a run, then set its ``logger`` and run it. A step bound
    or step timeout the runtime cannot use, or a failure to build or bind
    (an unknown type, a script that does not parse or check, an unused
    argument, a repeated name or written namespace, a read namespace no one
    writes), is a DefinitionError."""
    _check_limits(definition.max_steps, definition.step_timeout)
    if definition.experiment is not None:
        try:
            return build_experiment(registry, definition.experiment,
                                    definition.args,
                                    step_timeout=definition.step_timeout)
        except FlowError as exc:
            raise DefinitionError(
                f"experiment {definition.experiment!r}: {exc}") from exc
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
            exc.component = entry["name"]  # as make_component names its own
            raise DefinitionError(str(exc)) from exc
    try:
        collection = ComponentCollection(components,
                                         step_timeout=definition.step_timeout)
        collection.bind()
    except (FlowError, ValueError) as exc:
        raise DefinitionError(f"the components do not bind: {exc}") from exc
    return collection


def load_study(path, registry: TypeRegistry, seed=None, n_trials=None,
               parallelism=None) -> tuple[Study, int, int]:
    """The Study a study file describes, its trial count and its
    parallelism. A flag argument that is not None replaces the file's
    value, and both are checked. Only the settings the file makes reach the
    Study, which holds their defaults; a setting it rejects, or a study
    whose file and experiment both leave the step bound unset, is a
    DefinitionError naming the file."""
    doc = load_document(path)
    if "experiment" not in doc:
        raise DefinitionError(f"{path}: study definition needs 'experiment'")
    _check_name("experiment", doc["experiment"])
    _check_limits(doc.get("max_steps"), doc.get("step_timeout"))
    objective = doc.get("objective") or {}
    _check_mapping("objective", objective)
    keys = ("direction", "sampler", "seed", "n_trials", "parallelism",
            "max_steps", "step_timeout")
    settings = {key: doc[key] for key in keys if key in doc}
    for key, setting in (("tag", "objective_tag"), ("reduce", "reduce")):
        if key in objective:
            _check_name(f"objective {key}", objective[key])
            settings[setting] = objective[key]
    for key, flag, minimum in (("seed", seed, None), ("n_trials", n_trials, 0),
                               ("parallelism", parallelism, 1)):
        if key in settings:  # checked also when the flag replaces it
            _check_int(key, settings[key], minimum)
        if flag is not None:
            _check_int(key, flag, minimum)
            settings[key] = flag
    n_trials = settings.pop("n_trials", 0)
    parallelism = settings.pop("parallelism", 1)
    try:
        study = study_from_descriptors(registry, doc["experiment"], **settings)
    except ValueError as exc:  # a direction, reducer or sampler Study rejects
        raise DefinitionError(f"{path}: {exc}") from exc
    if study.max_steps is None and (
            registry.experiment(study.experiment).default_max_steps is None):
        raise DefinitionError(f"{path}: a step bound is required: set max_steps")
    return study, n_trials, parallelism
