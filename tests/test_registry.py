"""Type registration, argument resolution, and factory assembly."""

import pytest

from gatedflow import build_experiment, collect_hyperparameters
from gatedflow.cli import _parse_experiment_args
from gatedflow.errors import (
    AmbiguousArgument,
    ArgumentOutOfBounds,
    DuplicateRegistration,
    InvalidDescriptor,
    UnknownExperiment,
    UnknownType,
    UnusedArgument,
)
from gatedflow.registry import (
    ComponentSpec,
    ExperimentSpec,
    FactoryRecipe,
    HyperparameterDescriptor,
    SubcomponentSpec,
    TypeRegistry,
    get_class_args,
)
from gatedflow.study import sample, study_from_descriptors

from tracelog import TraceLogger


class TestRegistration:
    def test_duplicate_name_in_same_tier(self, registry):
        with pytest.raises(DuplicateRegistration):
            registry.register("component", ComponentSpec(
                name="ComponentA", io_map={"z": "z"}, step="z = 1"))

    def test_same_name_across_tiers_is_fine(self):
        reg = TypeRegistry()
        reg.register("component", ComponentSpec(name="Shared", io_map={"z": "z"},
                                                step="z = 1"))
        reg.register("subcomponent", SubcomponentSpec(name="Shared",
                                                      make=lambda: None))
        assert reg.component("Shared") is not reg.subcomponent("Shared")

    def test_unknown_tier(self):
        with pytest.raises(ValueError):
            TypeRegistry().register("widget", ComponentSpec(
                name="W", io_map={}, step=""))

    def test_lookup_failures(self, registry):
        with pytest.raises(UnknownExperiment):
            registry.experiment("NoSuchExperiment")
        with pytest.raises(UnknownType):
            registry.component("NoSuchComponent")
        with pytest.raises(UnknownType):
            registry.subcomponent("NoSuchSubcomponent")


class TestDescriptorValidation:
    def test_default_outside_bounds_rejected_at_registration(self):
        reg = TypeRegistry()
        with pytest.raises(InvalidDescriptor):
            reg.register("subcomponent", SubcomponentSpec(
                name="Bad",
                make=lambda scaler: None,
                params=[HyperparameterDescriptor("scaler", "real", default=0.05,
                                                 bounds=(0.1, 1.0))],
            ))

    def test_inverted_bounds(self):
        with pytest.raises(InvalidDescriptor):
            HyperparameterDescriptor("p", "real", default=0.5,
                                     bounds=(1.0, 0.1)).validate()

    @pytest.mark.parametrize("bounds", [(2.0, 9.0), (2, 9.5), (False, 9)])
    def test_integer_bounds_must_be_ints(self, bounds):
        # the sampler draws with random.randint, which takes ints only
        with pytest.raises(InvalidDescriptor):
            HyperparameterDescriptor("w", "integer", bounds=bounds).validate()
        HyperparameterDescriptor("w", "integer", bounds=(2, 9)).validate()

    @pytest.mark.parametrize("kind, bounds, value, inside", [
        ("real", (0.1, 1.0), 0.5, True),
        ("real", (0.1, 1.0), 1, True),
        ("real", (0.1, 1.0), "abc", False),
        ("real", (0.1, 1.0), True, False),
        ("real", (0.1, 1.0), None, False),
        ("real", (0.1, 1.0), float("nan"), False),
        ("integer", (0, 9), 3, True),
        ("integer", (0, 9), 3.0, False),
        ("integer", (0, 9), False, False),
        ("integer", (0, 9), "3", False),
    ])
    def test_contains_takes_numbers_of_its_kind_only(self, kind, bounds,
                                                     value, inside):
        desc = HyperparameterDescriptor("p", kind, bounds=bounds)
        assert desc.contains(value) is inside

    @pytest.mark.parametrize("choices, value, inside", [
        ([1, 2], 1, True),
        ([1, 2], True, False),
        ([1, 2], 1.0, False),
        ([0.5, 1.0], 1, False),
        ([0.5, 1.0], 1.0, True),
        ([True, False], 1, False),
        ([True, False], False, True),
        (["a", "b"], "a", True),
    ])
    def test_a_choice_matches_only_its_own_type(self, choices, value, inside):
        desc = HyperparameterDescriptor("m", "categorical", default=choices[0],
                                        choices=choices)
        desc.validate()
        assert desc.contains(value) is inside

    def test_integer_default_must_be_an_int(self):
        with pytest.raises(InvalidDescriptor, match="outside bounds"):
            HyperparameterDescriptor("w", "integer", default=3.0,
                                     bounds=(2, 9)).validate()

    def test_log_scale_needs_positive_low(self):
        with pytest.raises(InvalidDescriptor):
            HyperparameterDescriptor("p", "real", default=0.5, bounds=(0.0, 1.0),
                                     log_scale=True).validate()

    def test_categorical_default_must_be_a_choice(self):
        with pytest.raises(InvalidDescriptor):
            HyperparameterDescriptor("p", "categorical", default="x",
                                     choices=["a", "b"]).validate()

    @pytest.mark.parametrize("fields, message", [
        ({"kind": "boolean"}, "unknown kind"),
        ({"kind": "categorical", "bounds": (0, 1)}, "not bounds"),
        ({"kind": "categorical", "default": "a", "choices": ["a"]},
         "at least 2 choices"),
        ({"kind": "categorical", "log_scale": True}, "numeric-only"),
        ({"kind": "integer", "choices": [1, 2]}, "categorical-only"),
        ({"kind": "real", "log_scale": True}, "needs bounds"),
    ], ids=["unknown-kind", "categorical-bounds", "one-choice",
            "categorical-log", "numeric-choices", "log-unbounded"])
    def test_malformed_descriptor_rejected(self, fields, message):
        with pytest.raises(InvalidDescriptor, match=message):
            HyperparameterDescriptor("p", **fields).validate()

    def test_unbounded_descriptor_is_fixed(self):
        d = HyperparameterDescriptor("target", "real", default=0.12)
        d.validate()
        assert not d.bounded


class TestGetClassArgs:
    def spec(self):
        return SubcomponentSpec(
            name="SubcomponentA",
            make=lambda scaler: scaler,
            params=[HyperparameterDescriptor("scaler", "real", default=0.1,
                                             bounds=(0.1, 1.0))],
        )

    def test_fully_namespaced_key_wins(self):
        args = {
            "ComponentF.SubcomponentA.scaler": 0.9,
            "SubcomponentA.scaler": 0.5,
            "scaler": 0.3,
        }
        resolved = get_class_args(self.spec(), args, context="ComponentF")
        assert resolved == {"scaler": 0.9}

    def test_type_namespaced_key_next(self):
        args = {"SubcomponentA.scaler": 0.5, "scaler": 0.3}
        resolved = get_class_args(self.spec(), args, context="ComponentF")
        assert resolved == {"scaler": 0.5}

    def test_bare_key_when_unambiguous(self):
        resolved = get_class_args(self.spec(), {"scaler": 0.3},
                                  owners={"scaler": 1})
        assert resolved == {"scaler": 0.3}

    def test_bare_key_ambiguous_across_types(self):
        with pytest.raises(AmbiguousArgument):
            get_class_args(self.spec(), {"scaler": 0.3}, owners={"scaler": 2})

    def test_default_when_absent(self):
        assert get_class_args(self.spec(), {}) == {"scaler": 0.1}

    @pytest.mark.parametrize("value", [5.0, "abc", True])
    def test_a_value_its_descriptor_refuses_raises(self, value):
        with pytest.raises(ArgumentOutOfBounds, match="'SubcomponentA.scaler'"):
            get_class_args(self.spec(), {"SubcomponentA.scaler": value})

    def test_consumed_tracks_used_keys(self):
        consumed = set()
        get_class_args(self.spec(), {"SubcomponentA.scaler": 0.5, "other": 1},
                       consumed=consumed)
        assert consumed == {"SubcomponentA.scaler"}


class TestCollect:
    def test_toy_f_descriptors(self, registry):
        collected = collect_hyperparameters(registry, "ToyExperimentF")
        names = [name for name, _ in collected]
        assert names == [
            "ComponentF.SubcomponentA.scaler",
            "ComponentF.SubcomponentB.scaler",
        ]
        by_name = dict(collected)
        assert by_name["ComponentF.SubcomponentA.scaler"].bounds == (0.1, 1.0)
        assert by_name["ComponentF.SubcomponentA.scaler"].default == 0.1
        assert by_name["ComponentF.SubcomponentB.scaler"].bounds == (0.2, 0.5)

    def test_toy_study_includes_fixed_objective_target(self, registry):
        names = [name for name, _ in collect_hyperparameters(registry, "ToyStudy")]
        assert names == [
            "ComponentF.SubcomponentA.scaler",
            "ComponentF.SubcomponentB.scaler",
            "ProductObjective.target",
        ]

    def test_collection_is_deterministic(self, registry):
        first = collect_hyperparameters(registry, "ToyStudy")
        second = collect_hyperparameters(registry, "ToyStudy")
        assert [n for n, _ in first] == [n for n, _ in second]


@pytest.mark.parametrize("entry", [collect_hyperparameters, build_experiment],
                         ids=["collect_hyperparameters", "build_experiment"])
@pytest.mark.parametrize("target, slots, message", [
    ("ComponentD", {"typo": "SubcomponentA"},
     "component 'ComponentD' has no slot 'typo' (its slots: none)"),
    ("ComponentF", {"subA": "SubcomponentA", "subC": "SubcomponentB"},
     "component 'ComponentF' has no slot 'subC' (its slots: 'subA', 'subB')"),
], ids=["no-slots", "a-typo"])
def test_a_recipe_slot_its_component_does_not_declare_is_refused(
        registry, entry, target, slots, message):
    """Such a slot's subcomponent would give a study a dimension that no
    body reads."""
    registry.register("experiment", ExperimentSpec(
        name="Typo", recipes=[FactoryRecipe(target, slots=slots)]))
    with pytest.raises(UnknownType) as err:
        entry(registry, "Typo")
    assert str(err.value) == message


class TestBuildExperiment:
    def test_toy_experiment_runs(self, registry):
        logger = TraceLogger()
        collection = build_experiment(registry, "ToyExperiment", logger=logger)
        report = collection.run(max_steps=2)
        assert report.outcome == "completed"
        assert logger.sequences(collection.components)["alpha"] == [2, 24]

    def test_unknown_experiment(self, registry):
        with pytest.raises(UnknownExperiment):
            build_experiment(registry, "NoSuchExperiment")

    def test_unused_argument_rejected(self, registry):
        with pytest.raises(UnusedArgument):
            build_experiment(registry, "ToyExperiment", {"bogus": 1})

    def test_injected_scalers_change_the_pipeline(self, registry):
        logger = TraceLogger()
        collection = build_experiment(registry, "ToyStudy", {
            "ComponentF.SubcomponentA.scaler": 0.5,
            "ComponentF.SubcomponentB.scaler": 0.25,
        }, logger=logger)
        report = collection.run(max_steps=1)
        assert report.outcome == "completed"
        assert logger.sequences(collection.components)["beta"] == \
            [1 * 0.5 * 0.25]

    def test_defaults_when_no_args(self, registry):
        logger = TraceLogger()
        collection = build_experiment(registry, "ToyStudy", logger=logger)
        collection.run(max_steps=1)
        assert logger.sequences(collection.components)["beta"] == \
            [pytest.approx(1 * 0.1 * 0.2)]

    def test_substituting_a_registered_subcomponent(self, registry):
        registry.register("subcomponent", SubcomponentSpec(
            name="OffsetSub",
            make=lambda offset: (lambda v: v + offset),
            params=[HyperparameterDescriptor("offset", "real", default=10.0)],
        ))
        registry.register("experiment", ExperimentSpec(
            name="ToyStudyOffset",
            recipes=[
                FactoryRecipe("AlphaSource", name="Source"),
                FactoryRecipe("ComponentF", name="F",
                              slots={"subA": "OffsetSub", "subB": "SubcomponentB"}),
            ],
        ))
        logger = TraceLogger()
        collection = build_experiment(registry, "ToyStudyOffset", logger=logger)
        collection.run(max_steps=1)
        assert logger.sequences(collection.components)["beta"] == \
            [pytest.approx((1 + 10.0) * 0.2)]


class TestTypeUsedTwice:
    """A type used twice shares its namespaced names: one flag, one study
    dimension and one value; a bare name two registered types take is
    ambiguous, whichever tier each is in."""

    def shared_scalers(self, registry):
        registry.register("experiment", ExperimentSpec(
            name="SharedScalers",
            recipes=[
                FactoryRecipe("AlphaSource", name="Source"),
                FactoryRecipe("ComponentF", name="F",
                              slots={"subA": "SubcomponentA",
                                     "subB": "SubcomponentA"}),
            ],
        ))
        return "SharedScalers"

    def two_objectives(self, registry):
        registry.register("experiment", ExperimentSpec(
            name="TwoObjectives",
            recipes=[
                FactoryRecipe("AlphaSource", name="Source"),
                FactoryRecipe("ComponentF", name="F",
                              slots={"subA": "SubcomponentA",
                                     "subB": "SubcomponentB"}),
                FactoryRecipe("ProductObjective", name="O1"),
                FactoryRecipe("ProductObjective", name="O2"),
            ],
        ))
        return "TwoObjectives"

    def test_one_subcomponent_in_two_slots_is_one_parameter(self, registry):
        name = self.shared_scalers(registry)
        flag = "ComponentF.SubcomponentA.scaler"
        assert [n for n, _ in collect_hyperparameters(registry, name)] == [flag]
        args = _parse_experiment_args(registry, name, [f"--{flag}", "0.5"])
        assert args == {flag: 0.5}
        logger = TraceLogger()
        collection = build_experiment(registry, name, args, logger=logger)
        collection.run(max_steps=1)
        # both slots scale by 0.5
        assert logger.sequences(collection.components)["beta"] == [0.25]

    def test_one_component_in_two_recipes_is_one_parameter(self, registry):
        name = self.two_objectives(registry)
        names = [n for n, _ in collect_hyperparameters(registry, name)]
        assert names.count("ProductObjective.target") == 1
        args = _parse_experiment_args(
            registry, name, ["--ProductObjective.target", "0.5"])
        assert args == {"ProductObjective.target": 0.5}
        logger = TraceLogger()
        build_experiment(registry, name, args, logger=logger).run(max_steps=1)
        # beta is 1 * 0.1 * 0.2, and each objective records |beta - 0.5|
        for owner in ("O1", "O2"):
            assert logger.records[(owner, "objective")] == \
                [pytest.approx(0.48)]

    def test_a_study_draws_a_shared_name_once(self, registry):
        study = study_from_descriptors(registry, self.shared_scalers(registry),
                                       seed=1)
        assert study.header()["dimensions"] == ["ComponentF.SubcomponentA.scaler"]
        assert list(sample(study, [], 0)) == ["ComponentF.SubcomponentA.scaler"]

    def same_named_tiers(self, with_component):
        reg = TypeRegistry()
        q = [HyperparameterDescriptor("q", "real", default=1.0)]
        reg.register("subcomponent", SubcomponentSpec(
            name="Shared", make=lambda q: (lambda v: v * q), params=q))
        reg.register("subcomponent", SubcomponentSpec(
            name="Other", make=lambda q: (lambda v: v * q), params=list(q)))
        reg.register("component", ComponentSpec(
            name="User", io_map={"u": "u"}, init="u = 1\n", step="",
            slots=["first", "second"]))
        recipes = [FactoryRecipe("User",
                                 slots={"first": "Shared", "second": "Other"})]
        if with_component:
            reg.register("component", ComponentSpec(
                name="Shared", io_map={"s": "s"}, init="s = 1\n", step="",
                params=[HyperparameterDescriptor("p", "real", default=0.0)]))
            recipes.insert(0, FactoryRecipe("Shared"))
        reg.register("experiment", ExperimentSpec(name="Tiers", recipes=recipes))
        return reg

    @pytest.mark.parametrize("with_component", [False, True],
                             ids=["alone", "beside-a-same-named-component"])
    def test_bare_name_of_two_subcomponents_is_ambiguous(self, with_component):
        reg = self.same_named_tiers(with_component)
        with pytest.raises(AmbiguousArgument):
            build_experiment(reg, "Tiers", {"q": 5.0})
        build_experiment(reg, "Tiers", {"User.Shared.q": 5.0, "Other.q": 2.0})
        if with_component:
            build_experiment(reg, "Tiers", {"p": 3.0})
