"""Type registration, argument resolution, and factory assembly."""

import pytest

from gatedflow import build_experiment, collect_hyperparameters
from gatedflow.errors import (
    AmbiguousArgument,
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

    def test_log_scale_needs_positive_low(self):
        with pytest.raises(InvalidDescriptor):
            HyperparameterDescriptor("p", "real", default=0.5, bounds=(0.0, 1.0),
                                     log_scale=True).validate()

    def test_categorical_default_must_be_a_choice(self):
        with pytest.raises(InvalidDescriptor):
            HyperparameterDescriptor("p", "categorical", default="x",
                                     choices=["a", "b"]).validate()

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
