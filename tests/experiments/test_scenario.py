"""Scenario engine: grids, result frames, registry, and the new scenarios."""

import dataclasses
import json
import pickle

import pytest

from repro.common.config import ProtocolName
from repro.experiments.parallel import PointSpec
from repro.experiments.runner import (
    PROTOCOLS,
    microbenchmark_factory,
    normalize_to,
    protocol_sweep,
    synthetic_factory,
)
from repro.experiments.scenario import (
    SCALES,
    SCENARIOS,
    AnalyticScenario,
    GridScenario,
    get_scenario,
    run_scenario,
)
from repro.experiments.study import Axis, ResultFrame, StudyError, StudyGrid
from repro.workloads.patterns import (
    MigratoryWorkload,
    MigratoryWorkloadSpec,
    MixedTraceWorkloadSpec,
    ProducerConsumerWorkload,
    ProducerConsumerWorkloadSpec,
    ReadMostlyWorkloadSpec,
    build_mixed_trace,
)

from .conftest import TINY

PAPER_SCENARIOS = tuple(f"figure{i}" for i in range(1, 13)) + ("table1",)
NEW_SCENARIOS = ("migratory", "producer_consumer", "web_serving", "mixed_trace")


class TestRegistry:
    def test_all_paper_artefacts_registered(self):
        for name in PAPER_SCENARIOS:
            assert name in SCENARIOS, name

    def test_new_scenarios_registered_as_grids(self):
        for name in NEW_SCENARIOS:
            assert SCENARIOS[name].kind == "grid", name

    def test_sweep_figures_are_grid_scenarios(self):
        for index in (1, 5, 6, 7, 8, 9, 10, 11, 12):
            assert SCENARIOS[f"figure{index}"].kind == "grid"
        for name in ("figure2", "figure3", "figure4", "table1"):
            assert SCENARIOS[name].kind == "analytic"

    def test_unknown_scenario_raises_with_listing(self):
        with pytest.raises(StudyError, match="figure1"):
            get_scenario("nonsense")

    def test_named_scales(self):
        assert set(SCALES) >= {"quick", "paper"}
        with pytest.raises(StudyError, match="unknown scale"):
            run_scenario("figure3", scale="galactic")

    def test_analytic_scenario_rejects_axis_overrides(self):
        with pytest.raises(StudyError, match="analytic"):
            run_scenario("figure3", axes={"bandwidth": (800,)})


class TestStudyGrid:
    def test_expansion_matches_hand_built_figure1_specs(self):
        # The engine must assemble the exact PointSpecs the old hand-rolled
        # figure1 driver built, in the same order.
        grid = SCENARIOS["figure1"].grid(TINY)
        expected = [
            PointSpec(
                scale=TINY,
                protocol=protocol,
                bandwidth=bandwidth,
                workload=microbenchmark_factory(TINY),
            )
            for protocol in PROTOCOLS
            for bandwidth in TINY.bandwidth_points
        ]
        assert grid.specs() == expected

    def test_expansion_matches_hand_built_figure9_specs(self):
        grid = SCENARIOS["figure9"].grid(TINY, axes={"think_time": (0, 200)})
        expected = [
            PointSpec(
                scale=TINY,
                protocol=protocol,
                bandwidth=1600.0,
                workload=microbenchmark_factory(TINY, think_cycles=think),
                x_value=think,
            )
            for protocol in PROTOCOLS
            for think in (0, 200)
        ]
        assert grid.specs() == expected

    def test_grid_len_is_cross_product(self):
        grid = SCENARIOS["figure10"].grid(TINY)
        # 6 workloads x 3 protocols x 1 bandwidth point at TINY scale.
        assert len(grid) == 6 * 3 * 1
        assert len(grid.specs()) == len(grid)

    def test_axis_override_and_unknown_override(self):
        grid = SCENARIOS["figure1"].grid(TINY, axes={"bandwidth": (800,)})
        assert grid.axis_values["bandwidth"] == (800,)
        with pytest.raises(StudyError, match="unknown axis"):
            SCENARIOS["figure1"].grid(TINY, axes={"volume": (11,)})

    def test_protocol_axis_strings_are_canonicalised(self):
        grid = SCENARIOS["figure1"].grid(TINY, axes={"protocol": ("bash",)})
        assert grid.axis_values["protocol"] == (ProtocolName.BASH,)
        assert all(isinstance(v, ProtocolName) for v in grid.axis_values["protocol"])

    def test_mistyped_protocol_value_raises_study_error(self):
        with pytest.raises(StudyError, match="invalid protocol"):
            SCENARIOS["figure1"].grid(TINY, axes={"protocol": ("bsah",)})

    def test_fractional_integer_axis_value_raises(self):
        # int(4.5) would run a 4-processor simulation labelled 4.5 on the
        # x axis — reject instead of silently mislabeling the data point.
        grid = SCENARIOS["figure8"].grid(TINY, axes={"num_processors": (4.5,)})
        with pytest.raises(StudyError, match="whole number"):
            grid.specs()

    def test_fixed_override_colliding_with_axis_raises(self):
        # Axis coordinates always beat fixed values, so a colliding fixed
        # entry would be silently ignored (and the full grid would run).
        with pytest.raises(StudyError, match="collide with axes"):
            run_scenario(
                "figure1", scale=TINY, fixed={"protocol": ProtocolName.BASH}
            )

    def test_int_and_float_axis_values_share_cache_keys(self):
        # A CLI override parses `bandwidth=1600` as int; the scales carry
        # floats.  Both must build the identical spec (and cache key), or a
        # resumed campaign would recompute every memoised point.
        int_spec = SCENARIOS["figure1"].grid(TINY, axes={"bandwidth": (1600,)}).specs()[0]
        float_spec = SCENARIOS["figure1"].grid(TINY, axes={"bandwidth": (1600.0,)}).specs()[0]
        assert isinstance(int_spec.bandwidth, float)
        assert int_spec == float_spec
        assert int_spec.cache_key() == float_spec.cache_key()

    def test_seed_axis_pins_each_point_to_one_seed(self):
        scale = dataclasses.replace(TINY, seeds=(1, 2))
        grid = StudyGrid(
            scale,
            axes=(
                Axis("protocol", values=(ProtocolName.SNOOPING,)),
                Axis("seed", values=(1, 2)),
            ),
            workload=lambda s, coords: microbenchmark_factory(s),
            fixed={"bandwidth": 1600.0},
        )
        specs = grid.specs()
        assert [spec.scale.seeds for spec in specs] == [(1,), (2,)]

    def test_missing_protocol_axis_raises(self):
        grid = StudyGrid(
            TINY,
            axes=(Axis("bandwidth", values=(800,)),),
            workload=lambda s, coords: microbenchmark_factory(s),
        )
        with pytest.raises(StudyError, match="protocol"):
            grid.specs()

    def test_engine_matches_direct_protocol_sweep(self):
        # The tentpole contract: the declarative path produces exactly what
        # the direct protocol_sweep path produces.
        frame = SCENARIOS["figure1"].grid(TINY).run()
        direct = protocol_sweep(
            TINY, TINY.bandwidth_points, microbenchmark_factory(TINY)
        )
        assert frame.curves(by="protocol") == direct


class TestResultFrame:
    @pytest.fixture(scope="class")
    def frame(self):
        return SCENARIOS["figure1"].grid(TINY).run()

    def test_columns_and_rows(self, frame):
        assert len(frame) == len(PROTOCOLS) * len(TINY.bandwidth_points)
        assert set(frame.axis_names) == {"protocol", "bandwidth"}
        for metric in ResultFrame.METRICS:
            assert len(frame.column(metric)) == len(frame)
        row = frame.rows()[0]
        assert row["protocol"] == PROTOCOLS[0]
        assert row["performance"] == frame.points[0].performance
        assert frame.column("num_seeds") == [1] * len(frame)

    def test_unknown_column_raises(self, frame):
        with pytest.raises(KeyError, match="available"):
            frame.column("latency_p99")
        with pytest.raises(KeyError):
            frame.filter(latency_p99=1)

    def test_filter_and_unique(self, frame):
        bash = frame.filter(protocol=ProtocolName.BASH)
        assert len(bash) == len(TINY.bandwidth_points)
        assert bash.unique("protocol") == [ProtocolName.BASH]
        assert frame.unique("bandwidth") == list(TINY.bandwidth_points)

    def test_normalized_matches_normalize_to(self, frame):
        normalised = frame.normalized("performance", baseline={"protocol": ProtocolName.BASH})
        legacy = normalize_to(frame.curves(by="protocol"), ProtocolName.BASH)
        column = normalised.column("performance_vs_bash")
        for index, row in enumerate(normalised.rows()):
            position = list(TINY.bandwidth_points).index(row["bandwidth"])
            assert column[index] == pytest.approx(legacy[row["protocol"]][position])

    def test_speedup_baseline_rows_are_one(self, frame):
        speedup = frame.speedup()
        for row in speedup.filter(protocol=ProtocolName.BASH).rows():
            assert row["speedup"] == pytest.approx(1.0)

    def test_normalized_missing_baseline_raises(self, frame):
        with pytest.raises(KeyError, match="matches no rows"):
            frame.normalized("performance", baseline={"protocol": "token-ring"})

    def test_with_column_callable_and_length_guard(self, frame):
        derived = frame.with_column(
            "mbps_per_latency",
            lambda row: row["bandwidth"] / row["mean_miss_latency"],
        )
        assert len(derived.column("mbps_per_latency")) == len(frame)
        with pytest.raises(StudyError, match="rows"):
            frame.with_column("bad", [1.0])

    def test_aggregate_collapses_groups(self, frame):
        aggregated = frame.aggregate(by=["protocol"])
        assert len(aggregated) == len(PROTOCOLS)
        bash_rows = [
            r for r in aggregated.rows() if r["protocol"] == ProtocolName.BASH
        ]
        expected = frame.filter(protocol=ProtocolName.BASH).column("performance")
        assert bash_rows[0]["performance"] == pytest.approx(
            sum(expected) / len(expected)
        )
        assert bash_rows[0]["rows"] == len(expected)
        with pytest.raises(StudyError, match="no SweepPoints"):
            aggregated.curves()

    def test_json_round_trip(self, frame):
        derived = frame.speedup()
        data = json.loads(json.dumps(derived.to_json()))
        restored = ResultFrame.from_json(data)
        assert restored.axis_names == derived.axis_names
        assert restored.columns["protocol"] == derived.columns["protocol"]
        assert restored.columns["performance"] == derived.columns["performance"]
        assert restored.columns["speedup"] == derived.columns["speedup"]
        assert len(restored.points) == len(derived.points)
        for a, b in zip(restored.points, derived.points):
            assert a == b  # SweepPoint dataclass equality, RunResults included
        # And the restored frame is still a working frame:
        assert restored.filter(protocol=ProtocolName.BASH).curves()


class TestNewScenarios:
    @pytest.mark.parametrize("name", NEW_SCENARIOS)
    def test_runs_end_to_end(self, name):
        result = run_scenario(
            name, scale=TINY, axes={"protocol": (ProtocolName.SNOOPING,), "bandwidth": (1600,)}
        )
        assert result.frame is not None
        assert len(result.frame) == 1
        assert result.frame.column("performance")[0] > 0
        assert result.text()  # default rendering works

    @pytest.mark.parametrize(
        "spec",
        [
            MigratoryWorkloadSpec(num_blocks=8, rounds_per_processor=4),
            ProducerConsumerWorkloadSpec(buffer_blocks=4, rounds=2),
            ReadMostlyWorkloadSpec(shared_blocks=16, operations_per_processor=8),
            MixedTraceWorkloadSpec(num_processors=4, operations_per_processor=8),
        ],
    )
    def test_specs_are_picklable_and_cacheable(self, spec):
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert isinstance(spec.cache_token(), str)
        workload = spec(seed=1)
        assert workload.describe()

    def test_migratory_emits_read_write_pairs(self):
        import random

        workload = MigratoryWorkload(num_blocks=8, rounds_per_processor=2)
        workload.bind(4, 64, random.Random(1))
        first = workload.next_operation(0, now=0)
        second = workload.next_operation(0, now=0)
        assert not first.is_write and second.is_write
        assert first.address == second.address

    def test_migratory_staggers_even_when_processors_outnumber_blocks(self):
        import random

        # With more processors than blocks the stride must floor at 1, or
        # every processor would walk the identical block sequence in
        # lockstep (all-contend, not migratory sharing).
        workload = MigratoryWorkload(num_blocks=8, rounds_per_processor=2)
        workload.bind(16, 64, random.Random(1))
        starts = {
            node: workload.next_operation(node, now=0).address for node in (0, 1, 2)
        }
        assert len(set(starts.values())) > 1

    def test_producer_consumer_pairs_share_buffers(self):
        import random

        workload = ProducerConsumerWorkload(buffer_blocks=2, rounds=1)
        workload.bind(4, 64, random.Random(1))
        produced = [workload.next_operation(0, now=0) for _ in range(2)]
        consumed = [workload.next_operation(1, now=0) for _ in range(2)]
        assert all(op.is_write for op in produced)
        assert all(not op.is_write for op in consumed)
        assert [op.address for op in produced] == [op.address for op in consumed]

    def test_mixed_trace_is_deterministic_per_seed(self):
        kwargs = dict(
            num_processors=4,
            operations_per_processor=12,
            shared_blocks=16,
            private_blocks=32,
            block_bytes=64,
        )
        assert build_mixed_trace(seed=7, **kwargs) == build_mixed_trace(seed=7, **kwargs)
        assert build_mixed_trace(seed=7, **kwargs) != build_mixed_trace(seed=8, **kwargs)


class TestFigureDriverPlumbing:
    def test_figure5_threads_workers_and_cache_dir(self, monkeypatch, tmp_path):
        # Historically figure5 rebuilt Figure 1 serially and uncached; the
        # registry migration threads both knobs through to run_sweep.
        from repro.experiments import figures, study

        captured = {}
        original = study.run_sweep

        def spy(specs, workers=None, cache_dir=None, service=None):
            captured["workers"] = workers
            captured["cache_dir"] = cache_dir
            return original(
                specs, workers=None, cache_dir=cache_dir, service=service
            )

        monkeypatch.setattr(study, "run_sweep", spy)
        figures.figure5_normalized_performance(
            scale=TINY, workers=3, cache_dir=tmp_path
        )
        assert captured["workers"] == 3
        assert captured["cache_dir"] == tmp_path
        assert list(tmp_path.glob("*.json"))  # points actually memoised

    def test_figure5_cached_rerun_matches(self, tmp_path):
        from repro.experiments import figures

        first = figures.figure5_normalized_performance(scale=TINY, cache_dir=tmp_path)
        second = figures.figure5_normalized_performance(scale=TINY, cache_dir=tmp_path)
        assert first == second

    def test_custom_scenario_registration_round_trip(self):
        from repro.experiments.scenario import register

        scenario = GridScenario(
            name="_test_custom",
            title="custom",
            description="registered by the test suite",
            axes=(
                Axis("protocol", values=(ProtocolName.SNOOPING,)),
                Axis("bandwidth", values=(1600,)),
            ),
            workload=lambda scale, coords: microbenchmark_factory(scale),
        )
        register(scenario)
        try:
            result = run_scenario("_test_custom", scale=TINY)
            assert result.frame is not None and len(result.frame) == 1
            # Default presentation (no `present`) is protocol curves.
            assert set(result.data) == {ProtocolName.SNOOPING}
        finally:
            SCENARIOS.pop("_test_custom", None)

    def test_analytic_scenarios_match_driver_functions(self):
        from repro.experiments import figures

        assert run_scenario("figure3").data == figures.figure3_utilization_counter()
        assert run_scenario("table1").data == figures.table1_complexity()

    def test_empty_axis_override_yields_keyed_empty_curves(self):
        # Parity with the pre-engine drivers: a zero-point sweep returns
        # {protocol: []} per protocol, not an exception or a bare {}.
        from repro.experiments import figures

        curves = figures.figure9_think_time(scale=TINY, think_times=())
        assert curves == {protocol: [] for protocol in PROTOCOLS}

    def test_text_rendering_uses_the_scenario_subject(self):
        # figure6 is *about* link utilization: the CLI table must show it,
        # not the default performance column.
        result = run_scenario(
            "figure6", scale=TINY, axes={"bandwidth": (1600,)}
        )
        utilization = result.frame.column("link_utilization")[0]
        assert f"{utilization:.5f}" in result.text()

    def test_format_frame_renders_aggregated_frames(self):
        from repro.experiments.report import format_frame

        frame = SCENARIOS["figure1"].grid(TINY).run()
        aggregated = frame.aggregate(by=["protocol"])
        text = format_frame("aggregated", aggregated)
        assert "snooping" in text

    def test_format_frame_renders_non_numeric_x_axis(self):
        from repro.experiments.report import format_frame

        scenario = GridScenario(
            name="_test_string_x",
            title="string x",
            description="x axis is the workload name",
            axes=(
                Axis("protocol", values=(ProtocolName.SNOOPING,)),
                Axis("workload", values=("specjbb",)),
            ),
            workload=lambda scale, coords: synthetic_factory(
                scale, coords["workload"]
            ),
            x_axis="workload",
            fixed={"bandwidth": 1600.0},
        )
        frame = scenario.grid(TINY).run()
        text = format_frame("custom", frame, x_label="workload")
        assert "specjbb" in text


class TestTrafficScenarioRegistration:
    def test_traffic_grids_registered(self):
        for name in ("zipfian", "diurnal", "bursty", "multi_tenant"):
            assert SCENARIOS[name].kind == "grid", name

    def test_traffic_validation_is_analytic(self):
        assert SCENARIOS["traffic_validation"].kind == "analytic"

    def test_traffic_grid_expands_protocol_x_bandwidth(self):
        grid = SCENARIOS["zipfian"].grid(TINY)
        protocols = {spec.protocol for spec in grid.specs()}
        assert len(protocols) == 3
        assert len(grid) % len(protocols) == 0
