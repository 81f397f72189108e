"""Built-in toy suite: the four-component intercept demo and a small
product-objective study target. Registered explicitly via register_builtin().
"""

from __future__ import annotations

from .registry import (
    ComponentSpec,
    ExperimentSpec,
    FactoryRecipe,
    HyperparameterDescriptor,
    SubcomponentSpec,
    TypeRegistry,
)
from .runtime import NativeBody

OBJECTIVE_TARGET = 0.12

COMPONENT_A_STEP = "temp = x * y\nz = temp\n"
COMPONENT_B_STEP = "alpha = x + z\n"
COMPONENT_C_INIT = "x = 1\ny = 1\n"
COMPONENT_C_STEP = "temp = alpha * 2\nx = temp\ntemp = alpha / 2\ny = temp\n"
COMPONENT_D_STEP = "beta = alpha * 2\n"
COMPONENT_F_STEP = "intermediate = subA(alpha)\nbeta = subB(intermediate)\n"


def _scaling_subcomponent(scaler):
    def apply(value):
        return value * scaler

    return apply


def _objective_bodies(args, subs):
    target = args.get("target", OBJECTIVE_TARGET)

    def step(inputs, ctx):
        ctx.record("objective", abs(inputs["beta"] - target))
        return {}

    return None, NativeBody(step, reads={"beta"}, writes=set())


def register_builtin(registry: TypeRegistry | None = None) -> TypeRegistry:
    """Register the toy components, subcomponents, and experiments."""
    if registry is None:
        registry = TypeRegistry()

    registry.register("subcomponent", SubcomponentSpec(
        name="SubcomponentA",
        make=_scaling_subcomponent,
        params=[HyperparameterDescriptor("scaler", "real", default=0.1,
                                         bounds=(0.1, 1.0))],
    ))
    registry.register("subcomponent", SubcomponentSpec(
        name="SubcomponentB",
        make=_scaling_subcomponent,
        params=[HyperparameterDescriptor("scaler", "real", default=0.2,
                                         bounds=(0.2, 0.5))],
    ))

    registry.register("component", ComponentSpec(
        name="ComponentA",
        io_map={"x": "x", "y": "y", "z": "z"},
        step=COMPONENT_A_STEP,
    ))
    registry.register("component", ComponentSpec(
        name="ComponentB",
        io_map={"x": "x", "z": "z", "alpha": "alpha"},
        step=COMPONENT_B_STEP,
    ))
    registry.register("component", ComponentSpec(
        name="ComponentC",
        io_map={"x": "x", "y": "y", "alpha": "alpha"},
        init=COMPONENT_C_INIT,
        step=COMPONENT_C_STEP,
    ))
    registry.register("component", ComponentSpec(
        name="ComponentD",
        io_map={"alpha": "alpha", "beta": "beta"},
        step=COMPONENT_D_STEP,
    ))
    registry.register("component", ComponentSpec(
        name="ComponentF",
        io_map={"alpha": "alpha", "beta": "beta"},
        step=COMPONENT_F_STEP,
        slots=["subA", "subB"],
    ))
    registry.register("component", ComponentSpec(
        name="AlphaSource",
        io_map={"alpha": "alpha"},
        init="alpha = 1\n",
        step="alpha = 1\n",
    ))
    registry.register("component", ComponentSpec(
        name="ProductObjective",
        io_map={"beta": "beta"},
        make_bodies=_objective_bodies,
        params=[HyperparameterDescriptor("target", "real",
                                         default=OBJECTIVE_TARGET)],
    ))

    remap_c = FactoryRecipe("ComponentC", name="C", io_map={"alpha": "beta"})

    registry.register("experiment", ExperimentSpec(
        name="ToyExperiment",
        recipes=[
            FactoryRecipe("ComponentA", name="A"),
            FactoryRecipe("ComponentB", name="B"),
            remap_c,
            FactoryRecipe("ComponentD", name="D"),
        ],
    ))
    registry.register("experiment", ExperimentSpec(
        name="ToyExperimentPlain",
        recipes=[
            FactoryRecipe("ComponentA", name="A"),
            FactoryRecipe("ComponentB", name="B"),
            FactoryRecipe("ComponentC", name="C"),
        ],
    ))
    registry.register("experiment", ExperimentSpec(
        name="ToyExperimentF",
        recipes=[
            FactoryRecipe("ComponentA", name="A"),
            FactoryRecipe("ComponentB", name="B"),
            remap_c,
            FactoryRecipe("ComponentF", name="F",
                          slots={"subA": "SubcomponentA", "subB": "SubcomponentB"}),
        ],
    ))
    registry.register("experiment", ExperimentSpec(
        name="ToyStudy",
        recipes=[
            FactoryRecipe("AlphaSource", name="Source"),
            FactoryRecipe("ComponentF", name="F",
                          slots={"subA": "SubcomponentA", "subB": "SubcomponentB"}),
            FactoryRecipe("ProductObjective", name="Objective"),
        ],
        default_max_steps=1,
    ))
    return registry
