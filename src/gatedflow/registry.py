"""Explicit type registry, hyperparameter descriptors, and factory assembly.

Components, subcomponents, and experiments are registered by name at
program start. Experiment factories resolve constructor arguments from a
flat argument pool (namespaced keys win over bare ones), inject
subcomponents into component slots, and hand back a bound
ComponentCollection ready to run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import (
    AmbiguousArgument,
    ArgumentOutOfBounds,
    DuplicateRegistration,
    InvalidDescriptor,
    UnknownExperiment,
    UnknownType,
    UnusedArgument,
)
from .runtime import ComponentCollection, make_component


@dataclass
class HyperparameterDescriptor:
    name: str
    kind: str = "real"  # real | integer | categorical
    default: object = None
    bounds: tuple | None = None  # (low, high) for real/integer
    choices: list | None = None  # categorical only
    log_scale: bool = False

    @property
    def bounded(self) -> bool:
        return self.bounds is not None or self.choices is not None

    def contains(self, value) -> bool:
        """Whether ``value`` is one of the choices, of the same type and
        equal to it, or a number of the descriptor's kind inside the
        inclusive bounds: an int for an integer, an int or a float for a
        real, and never a bool. An unbounded descriptor admits any value."""
        if self.choices is not None:
            return any(type(choice) is type(value) and choice == value
                       for choice in self.choices)
        if self.bounds is not None:
            number = int if self.kind == "integer" else (int, float)
            if isinstance(value, bool) or not isinstance(value, number):
                return False
            low, high = self.bounds
            return low <= value <= high
        return True

    def validate(self):
        if self.kind not in ("real", "integer", "categorical"):
            raise InvalidDescriptor(f"{self.name}: unknown kind {self.kind!r}")
        if self.kind == "categorical":
            if self.bounds is not None:
                raise InvalidDescriptor(f"{self.name}: categorical takes choices, not bounds")
            if self.choices is not None:
                if len(self.choices) < 2:
                    raise InvalidDescriptor(f"{self.name}: needs at least 2 choices")
                if not self.contains(self.default):
                    raise InvalidDescriptor(f"{self.name}: default not among choices")
            if self.log_scale:
                raise InvalidDescriptor(f"{self.name}: log_scale is numeric-only")
            return
        if self.choices is not None:
            raise InvalidDescriptor(f"{self.name}: choices are categorical-only")
        if self.bounds is not None:
            low, high = self.bounds
            if not low < high:
                raise InvalidDescriptor(f"{self.name}: bounds must satisfy low < high")
            if self.kind == "integer" and not (type(low) is int and type(high) is int):
                raise InvalidDescriptor(f"{self.name}: integer bounds must be ints")
            if self.default is not None and not self.contains(self.default):
                raise InvalidDescriptor(
                    f"{self.name}: default {self.default} outside bounds {self.bounds}"
                )
            if self.log_scale and (self.kind != "real" or low <= 0):
                raise InvalidDescriptor(
                    f"{self.name}: log_scale needs strictly positive real bounds"
                )
        elif self.log_scale:
            raise InvalidDescriptor(f"{self.name}: log_scale needs bounds")


@dataclass
class SubcomponentSpec:
    """A registered injectable: ``make(**params)`` returns the callable."""

    name: str
    make: object
    params: list[HyperparameterDescriptor] = field(default_factory=list)


@dataclass
class ComponentSpec:
    name: str
    io_map: dict[str, str]
    init: object = None  # script source or NativeBody
    step: object = None
    slots: list[str] = field(default_factory=list)  # subcomponent slot names
    params: list[HyperparameterDescriptor] = field(default_factory=list)
    make_bodies: object = None  # optional (args, subs) -> (init, step)


@dataclass
class FactoryRecipe:
    target: str  # registered component type name
    name: str | None = None  # instance/owner name; defaults to target
    slots: dict[str, str] = field(default_factory=dict)  # slot -> subcomponent type
    io_map: dict | None = None  # io_map override: internal name -> namespace

    @property
    def instance_name(self) -> str:
        return self.name if self.name is not None else self.target


@dataclass
class ExperimentSpec:
    name: str
    recipes: list[FactoryRecipe] = field(default_factory=list)
    default_max_steps: int | None = None


class TypeRegistry:
    TIERS = ("component", "subcomponent", "experiment")

    def __init__(self):
        self.components: dict[str, ComponentSpec] = {}
        self.subcomponents: dict[str, SubcomponentSpec] = {}
        self.experiments: dict[str, ExperimentSpec] = {}

    def _tier_map(self, tier):
        if tier not in self.TIERS:
            raise ValueError(f"unknown tier {tier!r}")
        return getattr(self, tier + "s")

    def register(self, tier: str, spec):
        table = self._tier_map(tier)
        if spec.name in table:
            raise DuplicateRegistration(f"{tier} {spec.name!r} already registered")
        for descriptor in getattr(spec, "params", []):
            descriptor.validate()
        table[spec.name] = spec

    def experiment(self, name) -> ExperimentSpec:
        try:
            return self.experiments[name]
        except KeyError:
            raise UnknownExperiment(name) from None

    def component(self, name) -> ComponentSpec:
        try:
            return self.components[name]
        except KeyError:
            raise UnknownType(f"component {name!r}") from None

    def subcomponent(self, name) -> SubcomponentSpec:
        try:
            return self.subcomponents[name]
        except KeyError:
            raise UnknownType(f"subcomponent {name!r}") from None


def _parameterised(registry: TypeRegistry, experiment: ExperimentSpec):
    """Yield ``(prefix, spec)`` for each type the recipes parameterise, in
    recipe order: a component under its type name, then each slot's
    subcomponent (sorted slots) under ``Component.Subcomponent``."""
    for recipe in experiment.recipes:
        yield recipe.target, registry.component(recipe.target)
        for slot in sorted(recipe.slots):
            sub_spec = registry.subcomponent(recipe.slots[slot])
            yield f"{recipe.target}.{sub_spec.name}", sub_spec


def get_class_args(spec, exp_args, context: str = "", owners=None, consumed=None):
    """Resolve constructor arguments for one registered type.

    Lookup order per parameter: the fully namespaced key
    ``context.TypeName.param`` (when a context is given), then
    ``TypeName.param``, then the bare ``param`` when unambiguous across the
    experiment, then the declared default. A supplied value that a bounded
    descriptor does not contain raises ArgumentOutOfBounds.
    """
    exp_args = exp_args or {}
    resolved = {}
    for p in spec.params:
        keys = [f"{spec.name}.{p.name}", p.name]
        if context:
            keys.insert(0, f"{context}.{spec.name}.{p.name}")
        key = next((k for k in keys if k in exp_args), None)
        if key is None:
            resolved[p.name] = p.default
            continue
        if key == p.name and owners is not None and owners.get(key, 0) >= 2:
            raise AmbiguousArgument(
                f"bare argument {key!r} matches parameters of multiple "
                f"types; use a namespaced key"
            )
        value = exp_args[key]
        if not p.contains(value):
            raise ArgumentOutOfBounds(
                f"argument {key!r}: {value!r} is not a {p.kind} value in "
                f"{p.choices or p.bounds}")
        resolved[p.name] = value
        if consumed is not None:
            consumed.add(key)
    return resolved


def collect_hyperparameters(registry: TypeRegistry, experiment_name: str):
    """Return each namespaced parameter name of an experiment once, with
    its descriptor, sorted by name; a type used twice shares its names.

    Descriptors without bounds stay in the list but are flagged fixed; the
    study engine keeps them at their defaults.
    """
    experiment = registry.experiment(experiment_name)
    collected = {}
    for prefix, spec in _parameterised(registry, experiment):
        for p in spec.params:
            collected.setdefault(f"{prefix}.{p.name}", p)
    return sorted(collected.items())


def build_experiment(registry: TypeRegistry, name: str, exp_args=None,
                     logger=None, step_timeout=None) -> ComponentCollection:
    """Instantiate, wire, and bind a registered experiment."""
    experiment = registry.experiment(name)
    exp_args = dict(exp_args or {})
    # a bare name is ambiguous when two distinct registered types take it
    specs = {id(spec): spec for _, spec in _parameterised(registry, experiment)}
    owners = Counter(p.name for spec in specs.values() for p in spec.params)
    consumed: set[str] = set()
    components = []
    for recipe in experiment.recipes:
        comp_spec = registry.component(recipe.target)
        subs = {}
        for slot, sub_type in recipe.slots.items():
            sub_spec = registry.subcomponent(sub_type)
            args = get_class_args(sub_spec, exp_args, context=recipe.target,
                                  owners=owners, consumed=consumed)
            subs[slot] = sub_spec.make(**args)
        comp_args = get_class_args(comp_spec, exp_args, owners=owners,
                                   consumed=consumed)
        if comp_spec.make_bodies is not None:
            init_body, step_body = comp_spec.make_bodies(comp_args, subs)
        else:
            init_body, step_body = comp_spec.init, comp_spec.step
        components.append(
            make_component(
                name=recipe.instance_name,
                io_map=comp_spec.io_map,
                init_body=init_body,
                step_body=step_body,
                io_map_override=recipe.io_map,
                subcomponents=subs,
            )
        )
    unused = set(exp_args) - consumed
    if unused:
        raise UnusedArgument(unused)
    collection = ComponentCollection(components, step_timeout=step_timeout,
                                     logger=logger)
    collection.bind()
    return collection
