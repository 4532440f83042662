"""Configs are validated where they enter, identically for both backends.

Construction either raises :class:`ConfigurationError` or yields a config a
tiny run accepts; where the compiled extension is built, the run's result is
the same on both event-core backends.
"""

from __future__ import annotations

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro import _core
from repro.common.config import (
    AdaptiveConfig,
    LatencyConfig,
    ProtocolName,
    SystemConfig,
)
from repro.errors import ConfigurationError
from repro.system.multiprocessor import simulate
from repro.workloads.microbenchmark import LockingMicrobenchmark


@st.composite
def _field(draw, low: int, high: int):
    """Mostly an integer in ``[low, high]``, else any float (NaN and
    infinities included), so enough drawn configs pass validation to run."""
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        return draw(st.floats(allow_nan=True, allow_infinity=True))
    return draw(st.integers(min_value=low, max_value=high))


SYSTEM_FIELDS = {
    "num_processors": _field(1, 5),
    "cache_capacity_blocks": _field(-1, 32),
    "cache_block_bytes": _field(-8, 128),
    "request_message_bytes": _field(-8, 64),
    "data_message_bytes": _field(-8, 128),
    "random_seed": _field(-5, 5),
}
LATENCY_FIELDS = {
    "network_traversal": _field(-5, 120),
    "dram_access": _field(-5, 120),
    "cache_response": _field(-5, 120),
}
ADAPTIVE_FIELDS = {
    "sampling_interval": _field(-5, 512),
    "policy_counter_bits": _field(-1, 70),
    "lfsr_seed": _field(-5, 0x1FFFF),
    "max_retries_before_broadcast": _field(-1, 4),
    "retry_buffer_size": _field(-1, 8),
    "history_capacity": _field(-1, 8),
}


def _overrides(fields):
    return st.fixed_dictionaries({}, optional=fields)


def _run(config: SystemConfig, backend: str):
    with _core.use_backend(backend):
        workload = LockingMicrobenchmark(num_locks=8, acquires_per_processor=3)
        return simulate(config, workload)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    protocol=st.sampled_from(list(ProtocolName)),
    system=_overrides(SYSTEM_FIELDS),
    latency=_overrides(LATENCY_FIELDS),
    adaptive=_overrides(ADAPTIVE_FIELDS),
)
def test_config_is_rejected_or_runs_identically(protocol, system, latency, adaptive):
    try:
        config = SystemConfig(
            protocol=protocol,
            bandwidth_mb_per_second=1600.0,
            latency=LatencyConfig(**latency),
            adaptive=AdaptiveConfig(**adaptive),
            **system,
        )
    except ConfigurationError:
        event("rejected")
        return
    event("accepted")
    pure = _run(config, _core.PURE)
    if _core.compiled_available():
        assert _run(config, _core.COMPILED) == pure
