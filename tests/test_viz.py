"""Cross-run aggregation, CSV round-trips, and SVG rendering."""

import math
import random

import pytest

from gatedflow.errors import EmptyInput, NonNumericValue
from gatedflow.store import MetricRecord
from gatedflow.viz import (
    AggregatedSeries,
    aggregate,
    export_csv,
    read_csv,
    render_svg,
)


def rec(run, component="A", tag="loss", step=0, value=0.0):
    return MetricRecord(run, component, tag, step, 0.0, value)


class TestAggregate:
    def test_two_runs_mean_and_population_sigma(self):
        records = [rec("r1", step=0, value=1.0), rec("r2", step=0, value=3.0)]
        series, = aggregate(records)
        assert series.key == ("A", "loss")
        assert series.steps == [0]
        assert series.mean == [2.0]
        assert series.std == [1.0]  # population sigma, not sample
        assert series.n == [1 + 1]

    def test_single_run_sigma_is_zero(self):
        series, = aggregate([rec("r1", step=s, value=float(s)) for s in range(4)])
        assert series.std == [0.0] * 4
        assert series.n == [1] * 4

    def test_ragged_runs_keep_partial_steps(self):
        records = [rec("r1", step=s, value=1.0) for s in range(5)]
        records += [rec("r2", step=s, value=3.0) for s in range(3)]
        series, = aggregate(records)
        assert series.n == [2, 2, 2, 1, 1]
        assert series.mean == [2.0, 2.0, 2.0, 1.0, 1.0]

    def test_groups_split_by_component_and_tag(self):
        records = [
            rec("r1", component="A", tag="loss"),
            rec("r1", component="A", tag="acc"),
            rec("r1", component="B", tag="loss"),
        ]
        keys = [s.key for s in aggregate(records)]
        assert keys == [("A", "acc"), ("A", "loss"), ("B", "loss")]

    def test_non_numeric_value_rejected(self):
        with pytest.raises(NonNumericValue):
            aggregate([rec("r1", value="oops")])
        with pytest.raises(NonNumericValue):
            aggregate([rec("r1", value=True)])

    def test_matches_brute_force_aggregation(self):
        rng = random.Random(314)
        records = []
        for _ in range(5000):
            records.append(rec(
                run=f"r{rng.randint(0, 9)}",
                component=rng.choice("AB"),
                tag=rng.choice(["loss", "acc"]),
                step=rng.randint(0, 40),
                value=rng.uniform(-100, 100),
            ))
        expected = {}
        for r in records:
            expected.setdefault((r.component, r.tag), {}).setdefault(
                r.step, []).append(r.value)
        for series in aggregate(records):
            for step, mean, std, n in zip(series.steps, series.mean,
                                          series.std, series.n):
                values = expected[series.key][step]
                assert n == len(values)
                assert_near_exact_sums(values, mean, std)

    def test_large_groups_stay_near_the_exact_sums(self):
        rng = random.Random(1618)
        for n in (8, 9, 16, 100, 257, 1000):
            values = [rng.uniform(-100, 100) for _ in range(n)]
            series, = aggregate([rec(f"r{i}", value=v)
                                 for i, v in enumerate(values)])
            assert series.n == [n]
            assert_near_exact_sums(values, series.mean[0], series.std[0])

    def test_groups_under_eight_values_equal_numpy_bit_for_bit(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(2718)
        groups = {step: [mixed_value(rng) for _ in range(rng.randint(1, 7))]
                  for step in range(3000)}
        series, = aggregate([rec(f"r{i}", step=step, value=v)
                             for step, values in groups.items()
                             for i, v in enumerate(values)])
        for step, mean, std in zip(series.steps, series.mean, series.std):
            values = np.asarray(groups[step], dtype=float)
            # repr tells -0.0 from 0.0, where == does not
            assert repr((mean, std)) == repr(
                (float(np.mean(values)), float(np.std(values)))), groups[step]

    @pytest.mark.parametrize("values, mean, std", [
        ([math.inf, -math.inf], math.nan, math.nan),
        ([1e308, 1e308], math.inf, math.inf),
        ([math.inf, 1.0], math.inf, math.nan),
        ([math.nan, 1.0], math.nan, math.nan),
    ])
    def test_non_finite_groups(self, values, mean, std):
        series, = aggregate([rec(f"r{i}", value=v) for i, v in enumerate(values)])
        assert repr((series.mean, series.std)) == repr(([mean], [std]))


def assert_near_exact_sums(values, mean, std):
    exact_mean = math.fsum(values) / len(values)
    exact_var = math.fsum((v - exact_mean) ** 2 for v in values) / len(values)
    assert mean == pytest.approx(exact_mean, rel=1e-12, abs=1e-12)
    assert std == pytest.approx(math.sqrt(exact_var), rel=1e-9, abs=1e-12)


def mixed_value(rng):
    """An int, a -0.0, or a float of magnitude 1e-20 to 1e20."""
    kind = rng.random()
    if kind < 0.1:
        return -0.0
    if kind < 0.3:
        return rng.randint(-10**6, 10**6)
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20)


class TestCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        series, = aggregate([
            rec("r1", step=s, value=v)
            for s, v in enumerate([0.1, 1 / 3, 2.5e-17, 1e150,
                                   math.inf, -math.inf, math.nan])
        ] + [
            rec("r2", step=s, value=v)
            for s, v in enumerate([0.7, -1 / 3, 1.0, -1e150, 1.0, 1.0, 1.0])
        ])
        path = tmp_path / "series.csv"
        export_csv(series, path)
        back = read_csv(path)
        assert back.steps == series.steps
        # repr tells -0.0 from 0.0 and compares nan with nan
        assert list(map(repr, back.mean)) == list(map(repr, series.mean))
        assert list(map(repr, back.std)) == list(map(repr, series.std))
        assert list(map(repr, series.mean[4:])) == ["inf", "-inf", "nan"]
        assert back.n == series.n

    def test_header_and_layout(self, tmp_path):
        series = AggregatedSeries(("A", "loss"), steps=[0, 1],
                                  mean=[1.0, 2.5], std=[0.0, 0.5], n=[2, 2])
        path = tmp_path / "out.csv"
        export_csv(series, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,mean,std,n"
        assert lines[1] == "0,1.0,0.0,2"
        assert len(lines) == 3

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_csv(path)


class TestSvg:
    def series(self):
        return [
            AggregatedSeries(("A", "loss"), steps=[0, 1, 2],
                             mean=[1.0, 2.0, 1.5], std=[0.1, 0.2, 0.1],
                             n=[3, 3, 3]),
            AggregatedSeries(("B", "acc"), steps=[0, 1, 2],
                             mean=[0.5, 0.6, 0.9], std=[0.0, 0.1, 0.2],
                             n=[3, 3, 3]),
        ]

    def test_byte_identical_across_invocations(self):
        first = render_svg(self.series(), title="toy")
        second = render_svg(self.series(), title="toy")
        assert first == second

    def test_structure(self):
        svg = render_svg(self.series(), title="toy")
        assert svg.startswith("<svg ")
        assert svg.count('class="band"') == 2
        assert svg.count('class="mean"') == 2
        assert "toy" in svg
        assert 'viewBox="0 0 800 500"' in svg

    def test_series_order_is_input_order_independent(self):
        svg_a = render_svg(self.series())
        svg_b = render_svg(list(reversed(self.series())))
        assert svg_a == svg_b

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            render_svg([])

    def test_flat_series_still_renders(self):
        series = AggregatedSeries(("A", "t"), steps=[0, 1], mean=[2.0, 2.0],
                                  std=[0.0, 0.0], n=[1, 1])
        svg = render_svg([series])
        assert "NaN" not in svg and "inf" not in svg
