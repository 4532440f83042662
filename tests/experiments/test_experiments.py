"""Experiment harness: runners, figure drivers, and report formatting."""

import pytest

from repro.common.config import ProtocolName
from repro.errors import ConfigurationError
from repro.experiments import (
    PROTOCOLS,
    QUICK,
    crossover_summary,
    figure2_queueing_delay,
    figure3_utilization_counter,
    figure4_transaction_walkthrough,
    figure5_normalized_performance,
    figure6_link_utilization,
    figure12_workload_bars,
    format_bars,
    format_curves,
    format_normalized,
    table1_complexity,
)
from repro.experiments.runner import (
    microbenchmark_config,
    microbenchmark_factory,
    normalize_to,
    protocol_sweep,
    run_point,
)

from .conftest import TINY


class TestRunner:
    def test_microbenchmark_config_defaults_processors_to_the_scale(self):
        config = microbenchmark_config(TINY, ProtocolName.BASH, 1600)
        assert config.num_processors == TINY.microbenchmark_processors

    def test_microbenchmark_config_rejects_zero_processors(self):
        """Regression: ``num_processors=0`` silently ran the scale default."""
        with pytest.raises(ConfigurationError, match="at least 2 processors"):
            microbenchmark_config(TINY, ProtocolName.BASH, 1600, num_processors=0)

    def test_run_point_returns_all_metrics(self):
        point = run_point(TINY, ProtocolName.SNOOPING, 1600, microbenchmark_factory(TINY))
        assert point.performance > 0
        assert point.mean_miss_latency > 0
        assert 0 <= point.link_utilization <= 1
        assert point.results

    def test_protocol_sweep_covers_all_protocols_and_points(self):
        curves = protocol_sweep(TINY, TINY.bandwidth_points, microbenchmark_factory(TINY))
        assert set(curves) == set(PROTOCOLS)
        for points in curves.values():
            assert [p.x for p in points] == list(TINY.bandwidth_points)

    def test_normalize_to_reference_is_one(self):
        curves = protocol_sweep(TINY, (1600,), microbenchmark_factory(TINY))
        normalised = normalize_to(curves, ProtocolName.BASH)
        assert normalised[ProtocolName.BASH] == [pytest.approx(1.0)]

    def test_normalize_to_handles_mismatched_sweep_grids(self):
        # The snooping curve has an x-point the reference (BASH) curve lacks:
        # that point must normalise to 0.0, not raise.
        curves = protocol_sweep(
            TINY,
            (1600,),
            microbenchmark_factory(TINY),
            protocols=(ProtocolName.SNOOPING, ProtocolName.BASH),
        )
        extra = protocol_sweep(
            TINY, (3200,), microbenchmark_factory(TINY),
            protocols=(ProtocolName.SNOOPING,),
        )
        curves[ProtocolName.SNOOPING].extend(extra[ProtocolName.SNOOPING])
        normalised = normalize_to(curves, ProtocolName.BASH)
        assert normalised[ProtocolName.BASH] == [pytest.approx(1.0)]
        assert normalised[ProtocolName.SNOOPING][0] > 0
        assert normalised[ProtocolName.SNOOPING][1] == 0.0

    def test_normalize_to_missing_reference_curve_raises(self):
        curves = protocol_sweep(
            TINY, (1600,), microbenchmark_factory(TINY),
            protocols=(ProtocolName.SNOOPING,),
        )
        with pytest.raises(KeyError):
            normalize_to(curves, ProtocolName.BASH)

    def test_quick_scale_has_paper_thresholds(self):
        adaptive = QUICK.adaptive_config(0.75)
        assert adaptive.utilization_threshold == 0.75


class TestLightweightFigures:
    def test_figure2(self):
        points = figure2_queueing_delay()
        assert len(points) > 5
        assert points[-1]["queueing_delay"] > points[0]["queueing_delay"]

    def test_figure3_matches_paper_example(self):
        data = figure3_utilization_counter()
        assert data["counter_values"][-1] == -5
        assert len(data["counter_values"]) == 7

    def test_figure4_latencies(self):
        walkthrough = figure4_transaction_walkthrough()
        snoop_c2c = walkthrough["snooping:cache-to-cache"]["requester_miss_latency"]
        dir_c2c = walkthrough["directory:cache-to-cache"]["requester_miss_latency"]
        mem = walkthrough["snooping:memory-to-cache"]["requester_miss_latency"]
        assert snoop_c2c == pytest.approx(125, abs=10)
        assert dir_c2c == pytest.approx(255, abs=12)
        assert mem == pytest.approx(180, abs=10)

    def test_table1_contains_both_sources(self):
        table = table1_complexity()
        assert set(table) == {"reproduction", "paper"}
        assert table["paper"]["BASH"]["total_transitions"] == 114


class TestSweepFigures:
    def test_figure5_and_6_from_shared_sweep(self):
        from repro.experiments import figure1_microbenchmark_performance

        curves = figure1_microbenchmark_performance(TINY, bandwidths=(800, 6400))
        normalised = figure5_normalized_performance(curves)
        assert all(len(vals) == 2 for vals in normalised.values())
        utilization = figure6_link_utilization(curves)
        snooping_util = [p["utilization"] for p in utilization[ProtocolName.SNOOPING]]
        directory_util = [p["utilization"] for p in utilization[ProtocolName.DIRECTORY]]
        # Snooping always uses more of the endpoint links than Directory.
        assert all(s > d for s, d in zip(snooping_util, directory_util))
        summary = crossover_summary(curves)
        assert "bash_worst_ratio_vs_best_static" in summary

    def test_figure12_bars_normalised_to_bash(self):
        bars = figure12_workload_bars(TINY, workloads=("specjbb",), bandwidth=1600)
        assert set(bars) == {"specjbb"}
        assert bars["specjbb"][str(ProtocolName.BASH)] == pytest.approx(1.0)


class TestReportFormatting:
    def test_format_curves_and_normalized(self):
        curves = protocol_sweep(TINY, (1600,), microbenchmark_factory(TINY))
        text = format_curves("Figure 1", curves)
        assert "Figure 1" in text and "snooping" in text
        normalised = normalize_to(curves, ProtocolName.BASH)
        text2 = format_normalized("Figure 5", normalised, xs=(1600,))
        assert "1600" in text2

    def test_format_bars(self):
        text = format_bars("Figure 12", {"oltp": {"bash": 1.0, "snooping": 0.9}})
        assert "oltp" in text

    def test_format_curves_guards_mismatched_grids(self):
        # Mirroring the normalize_to guard: curves measured on different x
        # grids must raise a clear error instead of silently misaligning
        # rows against the first protocol's x values.
        curves = protocol_sweep(
            TINY, (1600,), microbenchmark_factory(TINY),
            protocols=(ProtocolName.SNOOPING, ProtocolName.BASH),
        )
        extra = protocol_sweep(
            TINY, (3200,), microbenchmark_factory(TINY),
            protocols=(ProtocolName.SNOOPING,),
        )
        curves[ProtocolName.SNOOPING].extend(extra[ProtocolName.SNOOPING])
        with pytest.raises(ValueError, match="mismatched sweep grids"):
            format_curves("Figure 1", curves)
