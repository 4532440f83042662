"""System configuration objects."""

import pytest

from repro.common.config import AdaptiveConfig, LatencyConfig, ProtocolName, SystemConfig
from repro.errors import ConfigurationError


class TestLatencyConfig:
    def test_paper_latencies(self):
        latency = LatencyConfig()
        assert latency.memory_fetch == 180
        assert latency.snooping_cache_to_cache == 125
        assert latency.directory_cache_to_cache == 255

    def test_cache_to_cache_is_about_70_percent_of_memory(self):
        latency = LatencyConfig()
        ratio = latency.snooping_cache_to_cache / latency.memory_fetch
        assert 0.65 < ratio < 0.75

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            LatencyConfig(network_traversal=-1)


class TestAdaptiveConfig:
    def test_defaults_match_paper(self):
        adaptive = AdaptiveConfig()
        assert adaptive.utilization_threshold == 0.75
        assert adaptive.sampling_interval == 512
        assert adaptive.policy_counter_bits == 8

    def test_counter_increments_for_75_percent(self):
        # 75% threshold -> +1 busy / -3 idle, as published.
        assert AdaptiveConfig(utilization_threshold=0.75).counter_increments() == (1, 3)

    def test_counter_increments_balance_at_threshold(self):
        for threshold in (0.55, 0.75, 0.95):
            busy, idle = AdaptiveConfig(
                utilization_threshold=threshold
            ).counter_increments()
            # At exactly the threshold the counter should not drift:
            # busy_fraction * busy == idle_fraction * idle.
            assert threshold * busy == pytest.approx((1 - threshold) * idle, rel=0.02)

    def test_full_swing_cycles_match_paper(self):
        adaptive = AdaptiveConfig()
        swing = adaptive.sampling_interval * ((1 << adaptive.policy_counter_bits) - 1)
        assert swing == 512 * 255  # ~130,000 cycles, as stated in Section 2.2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(utilization_threshold=0.0)
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(utilization_threshold=1.5)
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(sampling_interval=0)
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(retry_buffer_size=0)


class TestSystemConfig:
    def test_defaults(self):
        config = SystemConfig()
        assert config.num_processors == 16
        assert config.protocol is ProtocolName.BASH
        assert config.bytes_per_cycle == pytest.approx(1.6)
        assert config.cache_capacity_blocks == 65536

    def test_protocol_coercion_from_string(self):
        config = SystemConfig(protocol="snooping")
        assert config.protocol is ProtocolName.SNOOPING

    def test_home_node_interleaving(self):
        config = SystemConfig(num_processors=4)
        homes = {config.home_node(i * 64) for i in range(8)}
        assert homes == {0, 1, 2, 3}
        assert config.home_node(0) == 0
        assert config.home_node(64) == 1

    def test_block_address_alignment(self):
        config = SystemConfig()
        assert config.block_address(130) == 128
        assert config.block_address(64) == 64

    def test_with_helpers(self):
        config = SystemConfig()
        assert config.with_protocol("directory").protocol is ProtocolName.DIRECTORY
        assert config.with_bandwidth(800).bandwidth_mb_per_second == 800
        # Original unchanged (frozen dataclass semantics).
        assert config.protocol is ProtocolName.BASH

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_processors=1)
        with pytest.raises(ConfigurationError):
            SystemConfig(bandwidth_mb_per_second=0)
        with pytest.raises(ConfigurationError):
            SystemConfig(broadcast_cost_factor=0.5)
        with pytest.raises(ConfigurationError):
            SystemConfig(cache_capacity_blocks=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("bandwidth_mb_per_second", float("nan")),
            ("bandwidth_mb_per_second", float("inf")),
            ("broadcast_cost_factor", float("nan")),
            ("broadcast_cost_factor", float("inf")),
        ],
    )
    def test_rejects_non_finite_values_at_construction(self, field, value):
        """Regression: these used to pass validation and then fail deep
        inside system construction (``cannot convert float NaN to integer``)."""
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            SystemConfig(**{field: value})


class TestIntegerFields:
    """Regression: each of these used to be accepted and then fail only
    inside the run (``ZeroDivisionError``, a ``TypeError`` in the run loop,
    or a ``ValueError`` on the compiled backend alone)."""

    @pytest.mark.parametrize("value", [0, -64])
    def test_rejects_non_positive_block_size(self, value):
        with pytest.raises(ConfigurationError, match="cache_block_bytes must be positive"):
            SystemConfig(cache_block_bytes=value)

    @pytest.mark.parametrize(
        "make, field, value",
        [
            (LatencyConfig, "dram_access", 2.5),
            (LatencyConfig, "network_traversal", float("nan")),
            (AdaptiveConfig, "sampling_interval", 64.5),
            (SystemConfig, "cache_capacity_blocks", 2.5),
            (SystemConfig, "num_processors", 4.0),
            (SystemConfig, "random_seed", "1"),
        ],
    )
    def test_rejects_non_integral_values(self, make, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            make(**{field: value})

    def test_accepts_and_normalises_numpy_integers(self):
        numpy = pytest.importorskip("numpy")
        config = SystemConfig(
            num_processors=numpy.int64(4),
            cache_block_bytes=numpy.int32(64),
            latency=LatencyConfig(dram_access=numpy.int16(80)),
            adaptive=AdaptiveConfig(sampling_interval=numpy.uint32(256)),
        )
        assert type(config.num_processors) is int
        assert type(config.cache_block_bytes) is int
        assert type(config.latency.dram_access) is int
        assert type(config.adaptive.sampling_interval) is int
        assert config == SystemConfig(
            num_processors=4,
            latency=LatencyConfig(dram_access=80),
            adaptive=AdaptiveConfig(sampling_interval=256),
        )
