"""Search spaces, samplers, and end-to-end study execution."""

import math

import pytest

from gatedflow import (
    ComponentSpec,
    ExperimentSpec,
    FactoryRecipe,
    NativeBody,
    collect_hyperparameters,
)
from gatedflow.errors import NoCompleteTrials, StudyAborted
from gatedflow.registry import HyperparameterDescriptor
from gatedflow.study import (
    SearchSpace,
    Study,
    Trial,
    _sample_dimension_uniform,
    best_trial,
    build_search_space,
    run_study,
    sample,
    study_from_descriptors,
)


def two_scaler_space():
    return build_search_space([
        ("F.A.scaler", HyperparameterDescriptor("scaler", "real", default=0.1,
                                                bounds=(0.1, 1.0))),
        ("F.B.scaler", HyperparameterDescriptor("scaler", "real", default=0.2,
                                                bounds=(0.2, 0.5))),
    ])


class TestSearchSpace:
    def test_bounded_become_dimensions_unbounded_stay_fixed(self, registry):
        space = build_search_space(collect_hyperparameters(registry, "ToyStudy"))
        assert [d.name for d in space.dimensions] == [
            "ComponentF.SubcomponentA.scaler",
            "ComponentF.SubcomponentB.scaler",
        ]
        assert space.fixed == {"ProductObjective.target": 0.12}

    def test_removing_bounds_fixes_the_default(self):
        space = build_search_space([
            ("F.A.scaler", HyperparameterDescriptor("scaler", "real",
                                                    default=0.1)),
        ])
        assert space.dimensions == []
        assert space.fixed == {"F.A.scaler": 0.1}

    def test_categorical_dimension(self):
        space = build_search_space([
            ("C.mode", HyperparameterDescriptor("mode", "categorical",
                                                default="a",
                                                choices=["a", "b", "c"])),
        ])
        assert space.dimensions[0].choices == ["a", "b", "c"]


class TestSamplers:
    def wide_space(self):
        return SearchSpace(dimensions=[
            HyperparameterDescriptor("lr", "real", bounds=(1e-4, 1e-1),
                                     log_scale=True),
            HyperparameterDescriptor("width", "integer", bounds=(2, 9)),
            HyperparameterDescriptor("mode", "categorical", choices=["a", "b", "c"]),
            HyperparameterDescriptor("ratio", "real", bounds=(0.1, 1.0)),
        ])

    def test_uniform_respects_bounds_everywhere(self):
        study = Study("X", self.wide_space(), seed=5)
        for _ in range(1000):
            assignment = sample(study, [])
            for dim in study.space.dimensions:
                assert dim.contains(assignment[dim.name])
            assert isinstance(assignment["width"], int)
            assert isinstance(assignment["ratio"], float)

    def test_log_scale_is_uniform_in_log_space(self):
        study = Study("X", self.wide_space(), seed=11)
        draws = [sample(study, [])["lr"] for _ in range(1000)]
        # uniform in log10 over (1e-4, 1e-1) puts the median near 10**-2.5
        median = sorted(draws)[500]
        assert 1e-3 < median < 1e-2

    @pytest.mark.parametrize("bounds, end", [((0.001, 0.2), 1), ((0.3, 5.0), 0)],
                             ids=["high", "low"])
    def test_log_scale_draw_at_an_end_stays_in_bounds(self, bounds, end):
        # 10 ** log10(0.2) > 0.2 and 10 ** log10(0.3) < 0.3 by one ulp
        class EndRng:
            def uniform(self, a, b):
                return (a, b)[end]

        dim = HyperparameterDescriptor("lr", "real", bounds=bounds, log_scale=True)
        assert _sample_dimension_uniform(dim, EndRng()) == bounds[end]

    @pytest.mark.parametrize("end", [0, 1], ids=["low", "high"])
    def test_uniform_draw_rounded_past_an_end_stays_in_bounds(self, end):
        class PastRng:  # what rounding in low + (high - low) * random() allows
            def uniform(self, a, b):
                return math.nextafter((a, b)[end], (-math.inf, math.inf)[end])

        dim = HyperparameterDescriptor("ratio", "real", bounds=(0.1, 1.0))
        assert _sample_dimension_uniform(dim, PastRng()) == dim.bounds[end]

    def test_same_seed_same_draws(self):
        first = Study("X", self.wide_space(), seed=42)
        second = Study("X", self.wide_space(), seed=42)
        for _ in range(50):
            assert sample(first, []) == sample(second, [])

    def test_local_gaussian_stays_in_bounds_and_near_incumbent(self):
        space = two_scaler_space()
        study = Study("X", space, sampler="local-gaussian", seed=3)
        incumbent = Trial(0, {"F.A.scaler": 0.55, "F.B.scaler": 0.35},
                          state="complete", objective=0.01)
        near = 0
        for _ in range(1000):
            assignment = sample(study, [incumbent])
            for dim in space.dimensions:
                assert dim.contains(assignment[dim.name])
            if abs(assignment["F.A.scaler"] - 0.55) < 3 * 0.1 * 0.9:
                near += 1
        # roughly 80% exploit draws, each within 3 sigma of the incumbent
        assert near > 700

    def test_local_gaussian_perturbs_integers_and_categories(self):
        space = SearchSpace(dimensions=[
            HyperparameterDescriptor("width", "integer", bounds=(2, 9)),
            HyperparameterDescriptor("mode", "categorical", choices=["a", "b", "c"]),
        ])
        study = Study("X", space, sampler="local-gaussian", seed=3)
        incumbent = Trial(0, {"width": 5, "mode": "b"}, state="complete",
                          objective=0.01)
        draws = [sample(study, [incumbent]) for _ in range(1000)]
        for assignment in draws:
            for dim in space.dimensions:
                assert dim.contains(assignment[dim.name])
            assert type(assignment["width"]) is int
        widths = [a["width"] for a in draws]
        modes = [a["mode"] for a in draws]
        assert set(widths) == set(range(2, 10)) and set(modes) == {"a", "b", "c"}
        # an exploit draw keeps the incumbent's category 4 times in 5, and
        # moves its integer by round(N(0, 0.7)), 0 about half the time
        assert modes.count("b") > 650
        assert widths.count(5) > 350

    def test_local_gaussian_explores_without_history(self):
        space = two_scaler_space()
        study = Study("X", space, sampler="local-gaussian", seed=3)
        draws = [sample(study, [])["F.A.scaler"] for _ in range(200)]
        assert max(draws) - min(draws) > 0.5  # spread across the full range

    def test_invalid_configuration(self):
        space = two_scaler_space()
        with pytest.raises(ValueError):
            Study("X", space, direction="sideways")
        with pytest.raises(ValueError):
            Study("X", space, reduce="median")
        with pytest.raises(ValueError):
            Study("X", space, sampler="annealing")


class TestBestTrial:
    def trials(self, objectives):
        return [Trial(i, {}, state="complete", objective=o)
                for i, o in enumerate(objectives)]

    def test_minimize_tie_prefers_lowest_trial_id(self):
        study = Study("X", two_scaler_space(), direction="minimize")
        study.trials = self.trials([0.5, 0.2, 0.2, 0.9])
        assert best_trial(study).trial_id == 1

    def test_maximize_tie_prefers_lowest_trial_id(self):
        study = Study("X", two_scaler_space(), direction="maximize")
        study.trials = self.trials([0.5, 0.9, 0.9, 0.2])
        assert best_trial(study).trial_id == 1

    def test_failed_trials_excluded(self):
        study = Study("X", two_scaler_space())
        study.trials = self.trials([0.5, 0.2])
        study.trials[1].state = "failed"
        assert best_trial(study).trial_id == 0

    def test_no_complete_trials(self):
        study = Study("X", two_scaler_space())
        with pytest.raises(NoCompleteTrials):
            best_trial(study)


@pytest.mark.parametrize("values", [[0.1] * 10, [1e16, 1.0, -1e16]],
                         ids=["tenths", "cancelling"])
def test_mean_reducer_sums_as_aggregate_does(values):
    """A study's ``mean`` objective equals ``aggregate``'s mean of the same
    values bit for bit, on every interpreter: from 3.12 the built-in
    ``sum()`` compensates float sums and would differ in the last bits."""
    from gatedflow.store import MetricRecord
    from gatedflow.study import REDUCERS
    from gatedflow.viz import aggregate
    records = [MetricRecord("r", "c", "t", 0, 0.0, v) for v in values]
    series, = aggregate(records)
    assert repr(REDUCERS["mean"](values)) == repr(series.mean[0])


class TestRunStudy:
    def make_study(self, registry, seed=7, **kwargs):
        return study_from_descriptors(registry, "ToyStudy", seed=seed,
                                      study_id="s-test", **kwargs)

    def test_toy_study_finds_small_objective(self, registry, store):
        study = self.make_study(registry)
        run_study(study, registry, store, n_trials=40)
        best = best_trial(study)
        assert best.state == "complete"
        assert best.objective < 0.05
        # objective is |alpha * sA * sB - 0.12| with alpha = 1
        a = best.assignment["ComponentF.SubcomponentA.scaler"]
        b = best.assignment["ComponentF.SubcomponentB.scaler"]
        assert best.objective == pytest.approx(abs(a * b - 0.12))

    def test_trial_seeds_offset_from_study_seed(self, registry, store):
        study = self.make_study(registry, seed=100)
        run_study(study, registry, store, n_trials=3)
        assert [t.seed for t in study.trials] == [100, 101, 102]

    def test_serial_rerun_is_identical(self, registry, store, tmp_path):
        from gatedflow.store import DirectoryStore
        first = self.make_study(registry, seed=13)
        run_study(first, registry, store, n_trials=10)
        second = self.make_study(registry, seed=13)
        run_study(second, registry, DirectoryStore(tmp_path / "other"),
                  n_trials=10)
        assert [t.assignment for t in first.trials] == \
               [t.assignment for t in second.trials]
        assert [t.objective for t in first.trials] == \
               [t.objective for t in second.trials]

    def test_parallel_uniform_samples_same_multiset(self, registry, store,
                                                    tmp_path):
        from gatedflow.store import DirectoryStore
        serial = self.make_study(registry, seed=21)
        run_study(serial, registry, store, n_trials=12, parallelism=1)
        parallel = self.make_study(registry, seed=21)
        run_study(parallel, registry, DirectoryStore(tmp_path / "par"),
                  n_trials=12, parallelism=4)

        def multiset(study):
            return sorted(
                tuple(sorted(t.assignment.items())) for t in study.trials
            )

        assert multiset(serial) == multiset(parallel)
        assert best_trial(serial).objective == best_trial(parallel).objective

    def test_failed_trial_is_isolated(self, registry, store, monkeypatch):
        import gatedflow.study as study_mod
        study = self.make_study(registry)
        real_build = study_mod.build_experiment
        calls = {"n": 0}

        def flaky(registry_, name, args=None, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("injected fault")
            return real_build(registry_, name, args, **kwargs)

        monkeypatch.setattr(study_mod, "build_experiment", flaky)
        run_study(study, registry, store, n_trials=6)
        states = [t.state for t in sorted(study.trials, key=lambda t: t.trial_id)]
        assert states.count("failed") == 1
        assert states.count("complete") == 5
        assert best_trial(study).state == "complete"

    def test_aborts_when_first_trials_all_fail(self, registry, store,
                                               monkeypatch):
        import gatedflow.study as study_mod
        study = self.make_study(registry)
        monkeypatch.setattr(
            study_mod, "build_experiment",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("broken")),
        )
        with pytest.raises(StudyAborted):
            run_study(study, registry, store, n_trials=5)

    def test_a_run_that_fails_fails_its_trial(self, registry, store):
        def fault(inputs, ctx):
            raise ValueError("body fault")

        registry.register("component", ComponentSpec(
            "Faulty", {"objective": "objective"},
            step=NativeBody(fault, writes={"objective"})))
        registry.register("experiment", ExperimentSpec(
            "FaultyStudy", [FactoryRecipe("Faulty")], default_max_steps=3))
        study = study_from_descriptors(registry, "FaultyStudy",
                                       study_id="s-faulty")
        with pytest.raises(StudyAborted):
            run_study(study, registry, store, n_trials=3)
        ledger = store.read_trials(study.study_id)
        assert [t["state"] for t in ledger] == ["failed"] * 3
        for trial in ledger:
            assert store.read_meta(trial["run_id"])["outcome"] == "error"

    def test_writer_death_marks_the_run_failed_too(self, registry, store,
                                                   monkeypatch):
        from gatedflow.store import DirectoryStore

        def broken(self_, run_id, records):
            raise RuntimeError("encoder fault")

        monkeypatch.setattr(DirectoryStore, "append_records", broken)
        study = self.make_study(registry)
        with pytest.raises(StudyAborted):
            run_study(study, registry, store, n_trials=3)
        assert [t.state for t in study.trials] == ["failed"] * 3
        for trial in study.trials:
            meta = store.read_meta(trial.run_id)
            assert meta["outcome"] == "failed"
            assert meta["writer_error"] == "RuntimeError: encoder fault"

    def test_a_trial_with_no_objective_records_fails_its_run_too(
            self, registry, store):
        study = study_from_descriptors(registry, "ToyStudy",
                                       objective_tag="no-such-tag")
        with pytest.raises(StudyAborted):
            run_study(study, registry, store, n_trials=2)
        ledger = store.read_trials(study.study_id)
        assert [t["state"] for t in ledger] == ["failed"] * 2
        for trial in ledger:
            assert store.read_meta(trial["run_id"])["outcome"] == "failed"

    def test_study_survives_a_failing_primary_with_a_spool(
            self, registry, store, spool, monkeypatch):
        from gatedflow.store import DirectoryStore, merge_spool, query
        from gatedflow.study import REDUCERS
        real = DirectoryStore.append_records

        def primary_down(self_, run_id, records):
            if self_.root == store.root:
                raise OSError("disk unavailable")
            return real(self_, run_id, records)

        monkeypatch.setattr(DirectoryStore, "append_records", primary_down)
        study = self.make_study(registry)
        run_study(study, registry, store, n_trials=4, spool=spool)
        assert [t.state for t in study.trials] == ["complete"] * 4
        for trial in study.trials:
            meta = store.read_meta(trial.run_id)
            assert meta["outcome"] == "completed"
            assert meta["spooled_records"] > 0
        monkeypatch.setattr(DirectoryStore, "append_records", real)
        merge_spool(store, spool)
        reduce = REDUCERS[study.reduce]
        for trial in study.trials:
            records = query(store, run_ids=[trial.run_id],
                            tag=study.objective_tag)
            assert trial.objective == float(reduce([r.value for r in records]))

    def test_a_study_with_no_step_bound_raises_before_writing(
            self, registry, store, monkeypatch):
        def no_run(*args, **kwargs):  # a run would never end
            raise AssertionError("a trial opened a run")

        monkeypatch.setattr("gatedflow.study.open_run", no_run)
        study = study_from_descriptors(registry, "ToyExperimentPlain")
        with pytest.raises(ValueError, match="step bound is required"):
            run_study(study, registry, store, n_trials=1)
        assert store.list_studies() == [] and store.list_runs() == []

    @pytest.mark.parametrize("n_trials", [-1, -20])
    def test_a_negative_trial_count_raises_before_writing(self, registry, store,
                                                          n_trials):
        study = self.make_study(registry)
        with pytest.raises(ValueError, match=f"n_trials must be >= 0, got {n_trials}"):
            run_study(study, registry, store, n_trials=n_trials)
        assert store.list_studies() == [] and store.list_runs() == []
        assert study.trials == []

    def test_zero_trials_is_a_no_op(self, registry, store):
        study = self.make_study(registry)
        run_study(study, registry, store, n_trials=0)
        assert study.trials == []

    def test_trials_persisted_to_store(self, registry, store):
        study = self.make_study(registry)
        run_study(study, registry, store, n_trials=4)
        header = store.read_study(study.study_id)
        assert header["experiment"] == "ToyStudy"
        persisted = store.read_trials(study.study_id)
        assert sorted(t["trial_id"] for t in persisted) == [0, 1, 2, 3]
        assert all(t["run_id"] for t in persisted)

    def test_local_gaussian_full_study(self, registry, store):
        study = study_from_descriptors(
            registry, "ToyStudy", seed=9, study_id="s-lg",
            sampler="local-gaussian",
        )
        run_study(study, registry, store, n_trials=30)
        assert best_trial(study).objective < 0.1
